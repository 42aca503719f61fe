"""Gradient checks, parameter accounting, and checkpoint round trips."""

import json
import tracemalloc

import numpy as np
import pytest

from perfid.neural import (
    AdamState,
    BatchTooSmall,
    LabelOutOfRange,
    ModelConfig,
    NotScalarLoss,
    PianistConvNet,
    ShapeMismatch,
    Tensor,
    ZeroLength,
    adam_step,
    batchnorm1d,
    conv1d,
    dense,
    desk_config,
    dropout,
    load_checkpoint,
    masked_global_avg_pool,
    ops,
    param_count,
    relu,
    save_checkpoint,
    softmax_cross_entropy,
)
from perfid.neural.model import CorruptCheckpoint
from perfid.neural.optim import SLICE, DtypeMismatch

from helpers import (
    adam_step_expression,
    batchnorm1d_expression,
    check_gradients,
    conv1d_expression,
    forward_on_tape,
    leaf,
    relu_expression,
    weighted_sum,
)

EXPRESSION_OPS = {
    "conv1d": conv1d_expression,
    "relu": relu_expression,
    "batchnorm1d": batchnorm1d_expression,
}


def test_conv1d_gradients():
    rng = np.random.default_rng(0)
    x, w, b = leaf(rng, 2, 3, 9), leaf(rng, 4, 3, 3), leaf(rng, 4)
    proj = rng.standard_normal((2, 4, 9))
    check_gradients(lambda: weighted_sum(conv1d(x, w, b), proj), [x, w, b])


def test_conv1d_stride_gradients_and_length():
    rng = np.random.default_rng(1)
    x, w, b = leaf(rng, 2, 3, 9), leaf(rng, 4, 3, 5), leaf(rng, 4)
    out = conv1d(x, w, b, stride=2)
    assert out.shape == (2, 4, 5)  # ceil(9 / 2)
    proj = rng.standard_normal(out.shape)
    check_gradients(lambda: weighted_sum(conv1d(x, w, b, stride=2), proj), [x, w, b])


def test_conv1d_shape_errors():
    rng = np.random.default_rng(2)
    x, w, b = leaf(rng, 2, 3, 9), leaf(rng, 4, 3, 3), leaf(rng, 4)
    with pytest.raises(ShapeMismatch):
        conv1d(x, leaf(rng, 4, 5, 3), b)
    with pytest.raises(ShapeMismatch):
        conv1d(x, leaf(rng, 4, 3, 4), b)  # even kernel
    with pytest.raises(ShapeMismatch):
        conv1d(x, w, leaf(rng, 5))
    with pytest.raises(ShapeMismatch):
        conv1d(x, w, b, stride=0)


def test_relu_gradients_off_the_kink():
    rng = np.random.default_rng(3)
    data = rng.uniform(0.2, 1.0, size=(3, 8)) * rng.choice([-1.0, 1.0], size=(3, 8))
    x = Tensor(data, requires_grad=True)
    proj = rng.standard_normal((3, 8))
    check_gradients(lambda: weighted_sum(relu(x), proj), [x])


def test_batchnorm_training_gradients_with_mask():
    rng = np.random.default_rng(4)
    x, gamma, beta = leaf(rng, 3, 2, 8), leaf(rng, 2), leaf(rng, 2)
    run_m, run_v = np.zeros(2), np.ones(2)
    lengths = np.array([8, 5, 3])
    proj = rng.standard_normal((3, 2, 8))

    def fn():
        out = batchnorm1d(x, gamma, beta, run_m, run_v, training=True, lengths=lengths)
        return weighted_sum(out, proj)

    check_gradients(fn, [x, gamma, beta])


def test_batchnorm_eval_gradients():
    rng = np.random.default_rng(5)
    x, gamma, beta = leaf(rng, 2, 3, 6), leaf(rng, 3), leaf(rng, 3)
    run_m = rng.standard_normal(3)
    run_v = rng.uniform(0.5, 2.0, size=3)
    proj = rng.standard_normal((2, 3, 6))

    def fn():
        out = batchnorm1d(x, gamma, beta, run_m, run_v, training=False)
        return weighted_sum(out, proj)

    check_gradients(fn, [x, gamma, beta])


def test_batchnorm_standardizes_valid_positions():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(3.0, 2.0, size=(4, 2, 50)))
    lengths = np.array([50, 40, 30, 20])
    gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
    out = batchnorm1d(x, gamma, beta, np.zeros(2), np.ones(2),
                      training=True, lengths=lengths).data
    mask = np.arange(50)[None, :] < lengths[:, None]
    for c in range(2):
        valid = out[:, c, :][mask]
        assert valid.mean() == pytest.approx(0.0, abs=1e-9)
        assert valid.std() == pytest.approx(1.0, abs=1e-3)
    assert np.all(out[:, :, :][~np.broadcast_to(mask[:, None, :], out.shape)] == 0)


def test_batchnorm_ignores_padded_garbage():
    rng = np.random.default_rng(7)
    clean = rng.standard_normal((3, 2, 6))
    lengths = np.array([6, 4, 2])
    mask = np.arange(6)[None, None, :] < lengths[:, None, None]
    dirty = np.where(mask, clean, 1e6)
    args = (Tensor(np.ones(2)), Tensor(np.zeros(2)))
    out_clean = batchnorm1d(Tensor(clean * mask), *args, np.zeros(2), np.ones(2),
                            training=True, lengths=lengths).data
    out_dirty = batchnorm1d(Tensor(dirty), *args, np.zeros(2), np.ones(2),
                            training=True, lengths=lengths).data
    assert out_clean == pytest.approx(out_dirty)


def test_batchnorm_updates_running_buffers():
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((4, 2, 10)))
    run_m, run_v = np.zeros(2), np.ones(2)
    batchnorm1d(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), run_m, run_v,
                training=True)
    mean = x.data.mean(axis=(0, 2))
    var = x.data.var(axis=(0, 2))
    assert run_m == pytest.approx(0.1 * mean)
    assert run_v == pytest.approx(0.9 + 0.1 * var)


def test_batchnorm_eval_closed_form():
    x = Tensor(np.array([[[1.0, 2.0, 3.0]]]))
    run_m, run_v = np.array([2.0]), np.array([4.0])
    out = batchnorm1d(x, Tensor(np.array([3.0])), Tensor(np.array([0.5])),
                      run_m, run_v, training=False).data
    want = 3.0 * (np.array([1.0, 2.0, 3.0]) - 2.0) / np.sqrt(4.0 + ops.BN_EPS) + 0.5
    assert out[0, 0] == pytest.approx(want)


def test_batchnorm_batch_too_small():
    x = Tensor(np.zeros((1, 2, 5)))
    with pytest.raises(BatchTooSmall):
        batchnorm1d(x, Tensor(np.ones(2)), Tensor(np.zeros(2)),
                    np.zeros(2), np.ones(2), training=True)


def test_pool_gradients_and_values():
    rng = np.random.default_rng(9)
    x = leaf(rng, 3, 2, 7)
    lengths = np.array([7, 4, 1])
    proj = rng.standard_normal((3, 2))
    check_gradients(lambda: weighted_sum(masked_global_avg_pool(x, lengths), proj), [x])

    out = masked_global_avg_pool(x, lengths).data
    assert out[0] == pytest.approx(x.data[0].mean(axis=1))
    assert out[1] == pytest.approx(x.data[1, :, :4].mean(axis=1))
    assert out[2] == pytest.approx(x.data[2, :, 0])


def test_pool_length_validation():
    x = Tensor(np.zeros((2, 1, 5)))
    with pytest.raises(ZeroLength):
        masked_global_avg_pool(x, np.array([5, 0]))
    with pytest.raises(ShapeMismatch):
        masked_global_avg_pool(x, np.array([5, 6]))
    with pytest.raises(ShapeMismatch):
        masked_global_avg_pool(x, np.array([5]))


def test_dense_gradients():
    rng = np.random.default_rng(10)
    x, w, b = leaf(rng, 4, 3), leaf(rng, 3, 5), leaf(rng, 5)
    proj = rng.standard_normal((4, 5))
    check_gradients(lambda: weighted_sum(dense(x, w, b), proj), [x, w, b])
    with pytest.raises(ShapeMismatch):
        dense(x, leaf(rng, 4, 5), b)


def test_dropout_semantics():
    rng = np.random.default_rng(11)
    x = Tensor(np.ones((200, 50)))
    assert dropout(x, 0.5, rng, training=False) is x
    assert dropout(x, 0.0, rng, training=True) is x

    out = dropout(x, 0.4, rng, training=True).data
    kept = out > 0
    assert kept.mean() == pytest.approx(0.6, abs=0.02)
    assert out[kept] == pytest.approx(np.full(kept.sum(), 1.0 / 0.6))
    assert out.mean() == pytest.approx(1.0, abs=0.02)
    with pytest.raises(ShapeMismatch):
        dropout(x, 1.0, rng, training=True)


def test_dropout_gradients():
    rng = np.random.default_rng(12)
    x = leaf(rng, 3, 6)
    proj = np.random.default_rng(13).standard_normal((3, 6))

    def fn():
        # fresh generator per call keeps the mask identical across evals
        return weighted_sum(dropout(x, 0.4, np.random.default_rng(7), True), proj)

    check_gradients(fn, [x])


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((2, 2)), requires_grad=True)
    loss = softmax_cross_entropy(logits, np.array([0, 1]))
    assert float(loss.data) == pytest.approx(np.log(2.0))


def test_cross_entropy_matches_manual_formula():
    rng = np.random.default_rng(14)
    logits = rng.standard_normal((5, 4))
    labels = rng.integers(0, 4, size=5)
    loss = softmax_cross_entropy(Tensor(logits), labels)
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    want = -np.log(probs[np.arange(5), labels]).mean()
    assert float(loss.data) == pytest.approx(want)


def test_cross_entropy_gradient_is_probs_minus_onehot():
    rng = np.random.default_rng(15)
    logits = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    labels = np.array([0, 2, 1, 2])
    softmax_cross_entropy(logits, labels).backward()
    probs = np.exp(logits.data) / np.exp(logits.data).sum(axis=1, keepdims=True)
    want = probs.copy()
    want[np.arange(4), labels] -= 1.0
    assert logits.grad == pytest.approx(want / 4)

    check_gradients(
        lambda: softmax_cross_entropy(logits, labels), [logits]
    )


def test_cross_entropy_label_validation():
    logits = Tensor(np.zeros((2, 3)))
    with pytest.raises(LabelOutOfRange):
        softmax_cross_entropy(logits, np.array([0, 3]))
    with pytest.raises(LabelOutOfRange):
        softmax_cross_entropy(logits, np.array([-1, 0]))
    with pytest.raises(LabelOutOfRange):
        softmax_cross_entropy(logits, np.array([0.0, 1.0]))
    with pytest.raises(ShapeMismatch):
        softmax_cross_entropy(logits, np.array([0]))


def test_backward_requires_scalar():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(NotScalarLoss):
        relu(t).backward()


def test_grad_accumulates_until_zeroed():
    x = Tensor(np.array([2.0]), requires_grad=True)
    proj = np.array([1.0])
    weighted_sum(relu(x), proj).backward()
    weighted_sum(relu(x), proj).backward()
    assert x.grad == pytest.approx([2.0])


def test_whole_model_gradients():
    config = ModelConfig(
        in_features=3, n_classes=3, channels=(4, 5), kernel_size=3,
        strides=(1, 2), conv_dropout=(0.0, 0.0), dense_dropout=0.0,
    )
    model = PianistConvNet(config, seed=3, dtype=np.float64)
    rng = np.random.default_rng(16)
    x = rng.standard_normal((2, 3, 12))
    lengths = np.array([12, 7])
    labels = np.array([0, 2])

    def fn():
        logits = model.forward(x, lengths=lengths, training=True)
        return softmax_cross_entropy(logits, labels)

    check_gradients(fn, model.parameters())


def test_param_count_reference_value():
    n = param_count(ModelConfig())
    assert n == 5_757_190
    assert 5_500_000 <= n <= 6_800_000


def test_param_count_matches_instantiated_model():
    for config in (desk_config(), ModelConfig(in_features=5, n_classes=3,
                                              channels=(8, 16), kernel_size=3,
                                              strides=(1, 2),
                                              conv_dropout=(0.0, 0.0))):
        model = PianistConvNet(config, seed=0)
        assert sum(p.data.size for p in model.parameters()) == param_count(config)


def test_param_count_hand_example():
    config = ModelConfig(in_features=2, n_classes=3, channels=(4,),
                         kernel_size=3, strides=(1,), conv_dropout=(0.0,))
    # conv 2*4*3+4, bn 2*4, dense 4*3+3
    assert param_count(config) == 28 + 8 + 15


def test_param_count_monotone_in_width_and_kernel():
    base = ModelConfig()
    wider = ModelConfig(channels=(256, 256, 512, 512, 768))
    longer = ModelConfig(kernel_size=9)
    assert param_count(wider) > param_count(base)
    assert param_count(longer) > param_count(base)


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(kernel_size=4)
    with pytest.raises(ValueError):
        ModelConfig(strides=(1, 2))
    with pytest.raises(ValueError):
        ModelConfig(n_classes=1)
    with pytest.raises(ValueError):
        ModelConfig(conv_dropout=(0.0,) * 4)
    with pytest.raises(ValueError):
        ModelConfig(dense_dropout=1.0)


def test_forward_shape_and_input_checks():
    model = PianistConvNet(desk_config(), seed=1)
    rng = np.random.default_rng(17)
    logits = model.forward(rng.standard_normal((3, 13, 40)))
    assert logits.shape == (3, 6)
    preds = model.predict(rng.standard_normal((3, 13, 40)))
    assert preds.shape == (3,)
    assert set(preds) <= set(range(6))
    with pytest.raises(ShapeMismatch):
        model.forward(rng.standard_normal((3, 12, 40)))


def test_padded_batch_matches_unpadded_samples():
    config = ModelConfig(
        in_features=4, n_classes=3, channels=(6, 8), kernel_size=3,
        strides=(1, 2), conv_dropout=(0.0, 0.0), dense_dropout=0.0,
    )
    model = PianistConvNet(config, seed=5, dtype=np.float64)
    # make eval-mode batch norm non-trivial
    rng = np.random.default_rng(18)
    for name, array in model.named_arrays():
        if "running" in name:
            array[...] = rng.uniform(0.5, 1.5, size=array.shape)
        elif "beta" in name:
            array[...] = rng.standard_normal(array.shape)

    lengths = np.array([50, 37, 24])
    batch = np.zeros((3, 4, 50))
    samples = [rng.standard_normal((4, n)) for n in lengths]
    for row, sample in enumerate(samples):
        batch[row, :, : sample.shape[1]] = sample

    padded = model.forward(batch, lengths=lengths, training=False).data
    for row, sample in enumerate(samples):
        alone = model.forward(sample[None], training=False).data
        assert padded[row] == pytest.approx(alone[0], abs=1e-10)


@pytest.mark.parametrize("config", [desk_config(), ModelConfig()], ids=["desk", "full"])
def test_eval_forward_records_no_graph_and_matches_the_tape(config):
    model = PianistConvNet(config, seed=4)
    rng = np.random.default_rng(22)
    for buf in model.buffers.values():  # make eval-mode batch norm non-trivial
        buf[...] = rng.uniform(0.5, 1.5, size=buf.shape)
    x = rng.standard_normal((3, 13, 70)).astype(np.float32)
    for lengths in (None, np.array([70, 41, 17])):
        logits = model.forward(x, lengths=lengths)
        assert not logits.requires_grad
        assert logits._parents == () and logits._backward_fn is None
        taped = forward_on_tape(model, x, lengths)
        assert taped._backward_fn is not None
        assert logits.data.dtype == taped.data.dtype
        assert logits.data.tobytes() == taped.data.tobytes()
    assert all(t.grad is None and t.requires_grad for t in model.parameters())


def test_model_init_is_seed_deterministic():
    a = PianistConvNet(desk_config(), seed=7)
    b = PianistConvNet(desk_config(), seed=7)
    c = PianistConvNet(desk_config(), seed=8)
    for (name, pa), (_, pb), (_, pc) in zip(
        a.named_arrays(), b.named_arrays(), c.named_arrays()
    ):
        assert np.array_equal(pa, pb), name
    assert any(
        not np.array_equal(pa, pc)
        for (_, pa), (_, pc) in zip(a.named_arrays(), c.named_arrays())
    )


def test_adam_first_step_closed_form():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    state = AdamState([p], lr=0.01, weight_decay=0.0)
    g = np.array([0.3, -0.7])
    p.grad = g
    adam_step([p], state)
    want = np.array([1.0, -2.0]) - 0.01 * g / (np.abs(g) + 1e-8)
    assert p.data == pytest.approx(want)
    assert state.step_count == 1


def test_adam_multi_step_matches_reference():
    p = Tensor(np.array([0.5]), requires_grad=True)
    state = AdamState([p], lr=0.02, weight_decay=0.0)
    grads = [0.4, -0.1, 0.25]
    theta = 0.5
    for g in grads:
        p.grad = np.array([g])
        adam_step([p], state)
    # the reference recomputes from scratch; decay interacts with the
    # moving theta, so feed it the per-step parameter-free grads only
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        theta -= 0.02 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
    assert p.data[0] == pytest.approx(theta)


def test_adam_weight_decay_is_coupled():
    p = Tensor(np.array([2.0]), requires_grad=True)
    state = AdamState([p], lr=0.1, weight_decay=0.5)
    p.grad = np.zeros(1)
    adam_step([p], state)
    # zero grad still shrinks the weight: g' = wd * theta
    g = 0.5 * 2.0
    assert p.data[0] == pytest.approx(2.0 - 0.1 * g / (g + 1e-8))


def test_adam_skips_missing_grads_and_checks_shapes():
    p, q = Tensor(np.ones(2), requires_grad=True), Tensor(np.ones(3), requires_grad=True)
    state = AdamState([p, q], lr=0.1, weight_decay=1e-7)
    q.grad = np.full(3, 0.5)
    adam_step([p, q], state)
    assert np.array_equal(p.data, np.ones(2))
    assert not np.array_equal(q.data, np.ones(3))
    p.grad, q.grad = np.ones(5), None
    with pytest.raises(ShapeMismatch):
        adam_step([p, q], state)
    with pytest.raises(ValueError):
        AdamState([p], lr=0.0, weight_decay=0.0)
    with pytest.raises(ValueError):
        AdamState([p], lr=0.1, weight_decay=-1.0)


def test_adam_uses_accumulated_grads_by_default():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([0.5])
    state = AdamState([p], lr=0.01, weight_decay=1e-7)
    adam_step([p], state)
    assert p.data[0] == pytest.approx(1.0 - 0.01 * 0.5 / (0.5 + 1e-8))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_decay", [0.0, 0.05])
def test_adam_matches_expression_form_bit_for_bit(dtype, weight_decay):
    rng = np.random.default_rng(29)
    shapes = [(5, SLICE // 2 + 7), (4, 3, 2), (7,), (1,)]  # first: > SLICE, not a multiple
    inits = [rng.standard_normal(shape).astype(dtype) for shape in shapes]
    sides = []
    for _ in range(2):
        params = [Tensor(x.copy(), requires_grad=True) for x in inits]
        sides.append((params, AdamState(params, lr=3e-2, weight_decay=weight_decay)))
    for _ in range(5):
        grads = [rng.standard_normal(shape).astype(dtype) for shape in shapes]
        grads[0][:, ::7] = 0.0  # zero grads lean on eps
        grads[2] = None  # this parameter never steps
        for step, (params, state) in zip((adam_step, adam_step_expression), sides):
            for p, g in zip(params, grads):
                p.grad = None if g is None else g.copy()
            step(params, state)
    (got, got_state), (want, want_state) = sides
    assert got_state.step_count == want_state.step_count == 5
    for i in range(len(shapes)):
        assert got[i].data.tobytes() == want[i].data.tobytes()
        assert got_state.m[i].tobytes() == want_state.m[i].tobytes()
        assert got_state.v[i].tobytes() == want_state.v[i].tobytes()
    assert got[2].data.tobytes() == inits[2].tobytes()
    assert not np.array_equal(got[0].data, inits[0])


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("channels_last", [False, True], ids=["bcl", "blc"])
@pytest.mark.parametrize("batch, c_in, length, c_out, kernel, stride, lengths", [
    (16, 13, 200, 16, 5, 1, None),  # desk layer 0
    (16, 16, 200, 24, 5, 2, None),  # desk layer 1
    (5, 6, 23, 7, 5, 2, [1, 3, 23, 9, 2]),
    (4, 6, 17, 7, 3, 1, [3, 1, 17, 5]),
    (2, 512, 13, 64, 7, 2, None),  # full-model width
], ids=["desk-L200", "desk-stride2", "padded-stride2", "padded-stride1", "full-width"])
def test_layer_ops_match_expression_form_bit_for_bit(
    batch, c_in, length, c_out, kernel, stride, lengths, channels_last, training
):
    rng = np.random.default_rng(31)
    shape = (batch, length, c_in) if channels_last else (batch, c_in, length)
    x = rng.standard_normal(shape).astype(np.float32)
    if channels_last:  # the order conv1d returns, so what later blocks receive
        x = x.transpose(0, 2, 1)
    w = rng.standard_normal((c_out, c_in, kernel)).astype(np.float32)
    arrays = [x, w] + [rng.standard_normal(c_out).astype(np.float32) for _ in range(3)]
    buffers = rng.uniform(0.5, 1.5, size=(2, c_out)).astype(np.float32)
    lengths = None if lengths is None else np.array(lengths)
    out_lengths = None if lengths is None else (lengths + stride - 1) // stride
    proj = rng.standard_normal((batch, c_out)).astype(np.float32)
    sides = []
    for use in (vars(ops), EXPRESSION_OPS):
        x_t, w_t, b_t, gamma, beta = (Tensor(a, requires_grad=True) for a in arrays)
        run_m, run_v = buffers.copy()
        conv = use["conv1d"](x_t, w_t, b_t, stride=stride)
        act = use["relu"](conv)
        norm = use["batchnorm1d"](act, gamma, beta, run_m, run_v,
                                  training=training, lengths=out_lengths)
        weighted_sum(masked_global_avg_pool(norm, out_lengths), proj).backward()
        outputs = [conv.data, act.data, norm.data, run_m, run_v]
        sides.append(outputs + [t.grad for t in (x_t, w_t, b_t, gamma, beta)])
    for got, want in zip(*sides):
        assert got.dtype == want.dtype and got.strides == want.strides
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("length", [200, 37])
def test_desk_steps_and_eval_match_expression_ops_bit_for_bit(length, monkeypatch):
    sides = []
    for patched in (False, True):
        if patched:
            for name, fn in EXPRESSION_OPS.items():
                monkeypatch.setattr(ops, name, fn)
        model = PianistConvNet(desk_config(), seed=3)
        state = AdamState(model.parameters(), lr=1e-2, weight_decay=1e-4)
        rng = np.random.default_rng(41)
        seen = []
        for _ in range(3):
            x = rng.standard_normal((16, 13, length)).astype(np.float32)
            model.zero_grad()
            softmax_cross_entropy(model.forward(x, training=True), rng.integers(0, 6, 16)).backward()
            seen += [t.grad for t in model.parameters()]
            adam_step(model.parameters(), state)
        seen += [a.copy() for _, a in model.named_arrays()]
        x = rng.standard_normal((4, 13, length)).astype(np.float32)
        seen.append(model.forward(x).data)
        seen.append(model.forward(x, lengths=np.array([length, 1, 3, length // 2])).data)
        sides.append(seen)
    for got, want in zip(*sides):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_maps_signed_zero_nan_and_inf_as_where_does(dtype):
    values = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 2.5, -2.5], dtype)
    # +0.0 for -0.0 and for NaN, which np.maximum would propagate
    expected = np.array([0.0, 0.0, 0.0, 0.0, np.inf, 0.0, 2.5, 0.0], dtype)
    data = np.tile(values, (3, 2, 5))  # long enough rows for vectorised loops
    proj = np.tile(np.array([1.0, -1.0], dtype), (3, 2, 20))
    sides = []
    for op in (relu, relu_expression):
        x = Tensor(data.copy(), requires_grad=True)
        out = op(x)
        weighted_sum(out, proj).backward()
        sides.append((out.data, x.grad))
    (out, grad), (want_out, want_grad) = sides
    assert out.dtype == dtype
    assert out.tobytes() == np.tile(expected, (3, 2, 5)).tobytes() == want_out.tobytes()
    assert grad.tobytes() == want_grad.tobytes()


def test_adam_step_is_atomic_when_a_grad_is_rejected():
    p, q = Tensor(np.ones(2), requires_grad=True), Tensor(np.ones(3), requires_grad=True)
    state = AdamState([p, q], lr=0.1, weight_decay=1e-7)
    p.grad = np.full(2, 0.5)
    for bad, error in [(np.ones(5), ShapeMismatch), (np.ones(3, np.float32), DtypeMismatch)]:
        q.grad = bad
        with pytest.raises(error):
            adam_step([p, q], state)
        assert np.array_equal(p.data, np.ones(2)) and np.array_equal(q.data, np.ones(3))
        assert not any(m.any() for m in state.m) and not any(v.any() for v in state.v)
        assert state.step_count == 0
    q.data, q.grad = np.ones((3, 2))[:, 0], np.ones(3)  # strided: no flat view to update
    with pytest.raises(ValueError, match="C-contiguous"):
        adam_step([p, q], state)
    assert np.array_equal(p.data, np.ones(2)) and state.step_count == 0


def test_adam_step_allocates_no_full_size_temporary():
    n = 4_200_000
    p = Tensor(np.ones(n, dtype=np.float32), requires_grad=True)
    p.grad = np.full(n, 0.25, dtype=np.float32)
    # weight decay > 0: the decayed grad is a temporary too
    state = AdamState([p], lr=8e-5, weight_decay=1e-7)
    tracemalloc.start()
    try:
        adam_step([p], state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < p.data.nbytes / 8, peak
    assert np.all(p.data < 1.0)


@pytest.mark.parametrize("bad", [
    {"lr": float("nan")}, {"lr": float("inf")},
    {"weight_decay": float("nan")}, {"weight_decay": float("inf")},
])
def test_adam_state_rejects_non_finite_hyperparameters(bad):
    with pytest.raises(ValueError):
        AdamState([Tensor(np.ones(2), requires_grad=True)],
                  **{"lr": 0.1, "weight_decay": 0.0, **bad})


def test_checkpoint_round_trip(tmp_path):
    model = PianistConvNet(desk_config(), seed=42)
    rng = np.random.default_rng(19)
    for name, buf in model.named_arrays():
        if "running" in name:
            buf[...] = rng.uniform(0.5, 1.5, size=buf.shape).astype(buf.dtype)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, extras={"epoch": 12})

    loaded, header = load_checkpoint(path)
    assert header["extras"]["epoch"] == 12
    assert loaded.config == model.config
    for (name, a), (_, b) in zip(model.named_arrays(), loaded.named_arrays()):
        assert np.array_equal(a, b), name

    x = rng.standard_normal((2, 13, 30)).astype(np.float32)
    assert np.array_equal(model.predict(x), loaded.predict(x))


def test_checkpoint_corruption_detected(tmp_path):
    model = PianistConvNet(desk_config(), seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    raw = path.read_bytes()

    truncated = tmp_path / "short.ckpt"
    truncated.write_bytes(raw[:-16])
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(truncated)

    padded = tmp_path / "long.ckpt"
    padded.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(padded)

    garbage = tmp_path / "garbage.ckpt"
    garbage.write_bytes(b"\x89PNG not a checkpoint\n" + raw[raw.index(b"\n") + 1 :])
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(garbage)


def test_checkpoint_payload_digest_detects_flipped_bytes(tmp_path):
    model = PianistConvNet(desk_config(), seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    raw = path.read_bytes()
    header_end = raw.index(b"\n") + 1

    flipped = bytearray(raw)
    flipped[header_end + 100] ^= 0x01
    path.write_bytes(bytes(flipped))
    with pytest.raises(CorruptCheckpoint, match="digest"):
        load_checkpoint(path)

    header = json.loads(raw[:header_end])
    del header["payload_sha256"]
    path.write_bytes(json.dumps(header).encode() + b"\n" + raw[header_end:])
    with pytest.raises(CorruptCheckpoint, match="digest"):
        load_checkpoint(path)


def test_few_steps_reduce_loss_on_separable_data():
    config = ModelConfig(
        in_features=2, n_classes=2, channels=(4, 4), kernel_size=3,
        strides=(1, 2), conv_dropout=(0.0, 0.0), dense_dropout=0.0,
    )
    model = PianistConvNet(config, seed=1)
    rng = np.random.default_rng(20)
    x = rng.standard_normal((16, 2, 20)).astype(np.float32)
    labels = np.arange(16) % 2
    x[labels == 1] += 2.0

    state = AdamState(model.parameters(), lr=3e-3, weight_decay=1e-7)
    losses = []
    for _ in range(30):
        model.zero_grad()
        loss = softmax_cross_entropy(model.forward(x, training=True), labels)
        loss.backward()
        adam_step(model.parameters(), state)
        losses.append(float(loss.data))
    assert losses[-1] < 0.5 * losses[0]
