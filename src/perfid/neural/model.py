"""The pianist classifier: five 1D conv blocks, pooling, one dense layer.

Each block is convolution -> ReLU -> batch norm, with dropout on the last
two blocks and before the dense layer. Masked global average pooling
turns any sequence length into a fixed-width vector, so the same network
scores fixed windows and whole pieces.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import ops
from .tensor import Tensor


class CorruptCheckpoint(ValueError):
    """Checkpoint header and payload disagree, or the header is invalid."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    The defaults give 5,757,190 trainable parameters at 13 input
    features, close to the 6.1M the reference configuration reports.
    """

    in_features: int = 13
    n_classes: int = 6
    channels: tuple[int, ...] = (128, 256, 512, 512, 768)
    kernel_size: int = 7
    strides: tuple[int, ...] = (1, 2, 2, 2, 2)
    conv_dropout: tuple[float, ...] = (0.0, 0.0, 0.0, 0.25, 0.25)
    dense_dropout: float = 0.5

    def __post_init__(self):
        if self.in_features < 1:
            raise ValueError("in_features must be positive")
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if not self.channels:
            raise ValueError("at least one conv block is required")
        if len(self.strides) != len(self.channels):
            raise ValueError("one stride per conv block")
        if len(self.conv_dropout) != len(self.channels):
            raise ValueError("one dropout rate per conv block")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError("kernel_size must be odd and positive")
        if any(c < 1 for c in self.channels):
            raise ValueError("channel widths must be positive")
        if any(s < 1 for s in self.strides):
            raise ValueError("strides must be >= 1")
        if any(not 0.0 <= r < 1.0 for r in self.conv_dropout):
            raise ValueError("conv dropout rates must lie in [0, 1)")
        if not 0.0 <= self.dense_dropout < 1.0:
            raise ValueError("dense dropout rate must lie in [0, 1)")

    def to_json(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

    @classmethod
    def from_json(cls, obj: dict) -> "ModelConfig":
        """Inverse of :meth:`to_json`; a field it would not write raises TypeError."""
        config = cls(
            in_features=int(obj["in_features"]),
            n_classes=int(obj["n_classes"]),
            channels=tuple(int(c) for c in obj["channels"]),
            kernel_size=int(obj["kernel_size"]),
            strides=tuple(int(s) for s in obj["strides"]),
            conv_dropout=tuple(float(r) for r in obj["conv_dropout"]),
            dense_dropout=float(obj["dense_dropout"]),
        )
        if config.to_json() != obj:  # "0.2" for 0.2, 13.5 for 13, an unknown field
            raise TypeError(f"config {obj!r} does not round-trip")
        return config


def desk_config(in_features: int = 13, n_classes: int = 6) -> ModelConfig:
    """A slimmed configuration sized for single-core CPU experiments.

    Same depth and stride pattern as the default, ~100x fewer weights.
    """
    return ModelConfig(
        in_features=in_features,
        n_classes=n_classes,
        channels=(16, 24, 32, 32, 48),
        kernel_size=5,
        strides=(1, 2, 2, 2, 2),
        conv_dropout=(0.0, 0.0, 0.0, 0.1, 0.1),
        dense_dropout=0.2,
    )


def param_count(config: ModelConfig) -> int:
    """Closed-form trainable parameter count (running stats excluded)."""
    total = 0
    c_in = config.in_features
    for c_out in config.channels:
        total += c_in * c_out * config.kernel_size + c_out  # conv w + b
        total += 2 * c_out  # batch norm gamma + beta
        c_in = c_out
    total += config.channels[-1] * config.n_classes + config.n_classes
    return total


class PianistConvNet:
    """Trainable network instance holding parameters and BN buffers.

    ``params`` (Tensors) and ``buffers`` (batch-norm running statistics)
    are the one registry of the network's arrays. Their insertion order
    is both the order of the init draws and the checkpoint layout.
    All randomness (weight init, dropout masks) derives from ``seed``.
    Parameters are float32 by default; pass float64 for gradient checks.
    """

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        self.seed = int(seed)
        self.dtype = np.dtype(dtype)
        root = np.random.SeedSequence(self.seed)
        init_ss, drop_ss = root.spawn(2)
        rng = np.random.default_rng(init_ss)
        self._dropout_rng = np.random.default_rng(drop_ss)
        self.params: dict[str, Tensor] = {}
        self.buffers: dict[str, np.ndarray] = {}

        def param(name, data):
            self.params[name] = Tensor(data.astype(self.dtype), requires_grad=True)

        def uniform(name, shape, fan_in):
            bound = 1.0 / np.sqrt(fan_in)
            param(name, rng.uniform(-bound, bound, size=shape))

        c_in, k = config.in_features, config.kernel_size
        for i, c_out in enumerate(config.channels):
            uniform(f"conv{i}.weight", (c_out, c_in, k), c_in * k)
            uniform(f"conv{i}.bias", (c_out,), c_in * k)
            param(f"bn{i}.gamma", np.ones(c_out))
            param(f"bn{i}.beta", np.zeros(c_out))
            self.buffers[f"bn{i}.running_mean"] = np.zeros(c_out, dtype=self.dtype)
            self.buffers[f"bn{i}.running_var"] = np.ones(c_out, dtype=self.dtype)
            c_in = c_out
        uniform("dense.weight", (c_in, config.n_classes), c_in)
        uniform("dense.bias", (config.n_classes,), c_in)

    # -- parameter access ------------------------------------------------

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Parameters then buffers, in registry order; checkpoint layout."""
        return [(n, t.data) for n, t in self.params.items()] + list(self.buffers.items())

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    # -- forward ----------------------------------------------------------

    def forward(
        self,
        x: np.ndarray,
        lengths: np.ndarray | None = None,
        training: bool = False,
    ) -> Tensor:
        """Score a batch.

        ``x`` is (batch, in_features, max_len) channels-first; ``lengths``
        gives each sample's valid prefix along the last axis (None means
        every sample spans the full axis). Returns (batch, n_classes)
        logits. Eval mode records no graph: the parameters enter as
        Tensors without grad, so no op keeps a backward closure or its
        saved activations.
        """
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 3 or x.shape[1] != self.config.in_features:
            raise ops.ShapeMismatch(
                f"expected (B, {self.config.in_features}, L), got {x.shape}"
            )
        p = self.params if training else {n: Tensor(t.data) for n, t in self.params.items()}
        cur = Tensor(x)
        cur_lengths = None
        if lengths is not None:
            cur_lengths = np.asarray(lengths, dtype=np.int64).copy()

        for i, (stride, rate) in enumerate(zip(self.config.strides, self.config.conv_dropout)):
            cur = ops.conv1d(cur, p[f"conv{i}.weight"], p[f"conv{i}.bias"], stride=stride)
            if cur_lengths is not None:
                cur_lengths = (cur_lengths + stride - 1) // stride
            cur = ops.batchnorm1d(
                ops.relu(cur), p[f"bn{i}.gamma"], p[f"bn{i}.beta"],
                self.buffers[f"bn{i}.running_mean"], self.buffers[f"bn{i}.running_var"],
                training=training, lengths=cur_lengths,
            )
            if rate > 0.0:
                cur = ops.dropout(cur, rate, self._dropout_rng, training)

        cur = ops.masked_global_avg_pool(cur, cur_lengths)
        if self.config.dense_dropout > 0.0:
            cur = ops.dropout(
                cur, self.config.dense_dropout, self._dropout_rng, training
            )
        return ops.dense(cur, p["dense.weight"], p["dense.bias"])

    def predict(self, x: np.ndarray, lengths: np.ndarray | None = None) -> np.ndarray:
        """Eval-mode class predictions, shape (batch,)."""
        logits = self.forward(x, lengths=lengths, training=False)
        return logits.data.argmax(axis=1)

    def set_arrays(self, arrays) -> None:
        """Overwrite :meth:`named_arrays` by position, each reshaped to its slot."""
        for (_, current), incoming in zip(self.named_arrays(), arrays, strict=True):
            current[...] = np.reshape(incoming, current.shape)


def save_checkpoint(path, model: PianistConvNet, extras: dict | None = None) -> None:
    """Write a single-line JSON header plus little-endian float32 payload.

    The payload concatenates every parameter and batch-norm buffer in the
    model's registry order; the header records names and shapes so the file is
    self-describing, and the payload's sha256 so corruption is detected.
    """
    arrays = model.named_arrays()
    chunks = [np.ascontiguousarray(a, dtype="<f4") for _, a in arrays]
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    header = {
        "format": "perfid-checkpoint",
        "version": 1,
        "config": model.config.to_json(),
        "seed": model.seed,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
        "extras": extras or {},
        "payload_sha256": digest.hexdigest(),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":"))
    with open(path, "wb") as fh:
        fh.write(blob.encode("utf-8"))
        fh.write(b"\n")
        for chunk in chunks:
            fh.write(chunk.tobytes())


def load_checkpoint(path) -> tuple[PianistConvNet, dict]:
    """Rebuild a model from :func:`save_checkpoint` output.

    Returns the model (float32) and the parsed header.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CorruptCheckpoint(f"unreadable checkpoint header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != "perfid-checkpoint":
        raise CorruptCheckpoint("not a checkpoint file")
    if header.get("version") != 1:
        raise CorruptCheckpoint(f"unsupported checkpoint version {header.get('version')!r}")
    if header.get("payload_sha256") != hashlib.sha256(payload).hexdigest():
        raise CorruptCheckpoint("payload digest does not match the header")

    try:
        config = ModelConfig.from_json(header["config"])
        seed = header["seed"]
        if type(seed) is not int or seed < 0:
            raise TypeError(f"seed {seed!r} is not a non-negative integer")
        declared = [(d["name"], tuple(map(int, d["shape"]))) for d in header["arrays"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptCheckpoint(f"invalid checkpoint header: {exc!r}") from exc
    # sized from the header alone: a forged config must not allocate its weights
    if len(payload) != 4 * (param_count(config) + 2 * sum(config.channels)):
        raise CorruptCheckpoint("payload size does not match the declared architecture")
    model = PianistConvNet(config, seed=seed)
    if declared != [(name, a.shape) for name, a in model.named_arrays()]:
        raise CorruptCheckpoint("array list does not match the architecture")

    sizes = [a.size for _, a in model.named_arrays()]
    model.set_arrays(np.split(np.frombuffer(payload, dtype="<f4"), np.cumsum(sizes)[:-1]))
    return model, header
