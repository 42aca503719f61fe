"""The pianist classifier: five 1D conv blocks, pooling, one dense layer.

Each block is convolution -> ReLU -> batch norm, with dropout on the last
two blocks and before the dense layer. Masked global average pooling
turns any sequence length into a fixed-width vector, so the same network
scores fixed windows and whole pieces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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
        return {
            "in_features": self.in_features,
            "n_classes": self.n_classes,
            "channels": list(self.channels),
            "kernel_size": self.kernel_size,
            "strides": list(self.strides),
            "conv_dropout": list(self.conv_dropout),
            "dense_dropout": self.dense_dropout,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ModelConfig":
        return cls(
            in_features=int(obj["in_features"]),
            n_classes=int(obj["n_classes"]),
            channels=tuple(int(c) for c in obj["channels"]),
            kernel_size=int(obj["kernel_size"]),
            strides=tuple(int(s) for s in obj["strides"]),
            conv_dropout=tuple(float(r) for r in obj["conv_dropout"]),
            dense_dropout=float(obj["dense_dropout"]),
        )


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

        self._params: list[tuple[str, Tensor]] = []
        self._buffers: list[tuple[str, np.ndarray]] = []

        def make(name, shape, bound):
            data = rng.uniform(-bound, bound, size=shape).astype(self.dtype)
            t = Tensor(data, requires_grad=True)
            self._params.append((name, t))
            return t

        self._blocks = []
        c_in = config.in_features
        for i, c_out in enumerate(config.channels):
            fan_in = c_in * config.kernel_size
            bound = 1.0 / np.sqrt(fan_in)
            w = make(f"conv{i}.weight", (c_out, c_in, config.kernel_size), bound)
            b = make(f"conv{i}.bias", (c_out,), bound)
            gamma = Tensor(np.ones(c_out, dtype=self.dtype), requires_grad=True)
            beta = Tensor(np.zeros(c_out, dtype=self.dtype), requires_grad=True)
            self._params.append((f"bn{i}.gamma", gamma))
            self._params.append((f"bn{i}.beta", beta))
            run_mean = np.zeros(c_out, dtype=self.dtype)
            run_var = np.ones(c_out, dtype=self.dtype)
            self._buffers.append((f"bn{i}.running_mean", run_mean))
            self._buffers.append((f"bn{i}.running_var", run_var))
            self._blocks.append(
                {
                    "weight": w,
                    "bias": b,
                    "gamma": gamma,
                    "beta": beta,
                    "running_mean": run_mean,
                    "running_var": run_var,
                    "stride": config.strides[i],
                    "dropout": config.conv_dropout[i],
                }
            )
            c_in = c_out

        bound = 1.0 / np.sqrt(config.channels[-1])
        self._dense_w = make(
            "dense.weight", (config.channels[-1], config.n_classes), bound
        )
        self._dense_b = make("dense.bias", (config.n_classes,), bound)

    # -- parameter access ------------------------------------------------

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self._params]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self._params)

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        return list(self._buffers)

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Parameters then buffers, in declaration order; checkpoint layout."""
        out = [(name, t.data) for name, t in self._params]
        out.extend(self._buffers)
        return out

    def zero_grad(self) -> None:
        for _, t in self._params:
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
        logits.
        """
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 3 or x.shape[1] != self.config.in_features:
            raise ops.ShapeMismatch(
                f"expected (B, {self.config.in_features}, L), got {x.shape}"
            )
        cur = Tensor(x)
        cur_lengths = None
        if lengths is not None:
            cur_lengths = np.asarray(lengths, dtype=np.int64).copy()

        for blk in self._blocks:
            stride = blk["stride"]
            cur = ops.conv1d(cur, blk["weight"], blk["bias"], stride=stride)
            if cur_lengths is not None:
                cur_lengths = (cur_lengths + stride - 1) // stride
            cur = ops.relu(cur)
            cur = ops.batchnorm1d(
                cur,
                blk["gamma"],
                blk["beta"],
                blk["running_mean"],
                blk["running_var"],
                training=training,
                lengths=cur_lengths,
            )
            if blk["dropout"] > 0.0:
                cur = ops.dropout(cur, blk["dropout"], self._dropout_rng, training)

        cur = ops.masked_global_avg_pool(cur, cur_lengths)
        if self.config.dense_dropout > 0.0:
            cur = ops.dropout(
                cur, self.config.dense_dropout, self._dropout_rng, training
            )
        return ops.dense(cur, self._dense_w, self._dense_b)

    def predict(self, x: np.ndarray, lengths: np.ndarray | None = None) -> np.ndarray:
        """Eval-mode class predictions, shape (batch,)."""
        logits = self.forward(x, lengths=lengths, training=False)
        return logits.data.argmax(axis=1)

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Overwrite parameters and buffers from a name -> array mapping."""
        for name, current in self.named_arrays():
            if name not in arrays:
                raise CorruptCheckpoint(f"missing array {name!r}")
            incoming = np.asarray(arrays[name], dtype=self.dtype)
            if incoming.shape != current.shape:
                raise CorruptCheckpoint(
                    f"array {name!r} has shape {incoming.shape}, "
                    f"expected {current.shape}"
                )
            current[...] = incoming


def save_checkpoint(
    path, model: PianistConvNet, extras: dict | None = None
) -> None:
    """Write a single-line JSON header plus little-endian float32 payload.

    The payload concatenates every parameter and batch-norm buffer in
    declaration order; the header records names and shapes so the file is
    self-describing.
    """
    arrays = model.named_arrays()
    header = {
        "format": "perfid-checkpoint",
        "version": 1,
        "config": model.config.to_json(),
        "seed": model.seed,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
        "extras": extras or {},
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":"))
    with open(path, "wb") as fh:
        fh.write(blob.encode("utf-8"))
        fh.write(b"\n")
        for _, a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f4").tobytes())


def load_checkpoint(path) -> tuple[PianistConvNet, dict]:
    """Rebuild a model from :func:`save_checkpoint` output.

    Returns the model (float32) and the parsed header.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCheckpoint(f"unreadable checkpoint header: {exc}") from exc
    if header.get("format") != "perfid-checkpoint":
        raise CorruptCheckpoint("not a checkpoint file")

    config = ModelConfig.from_json(header["config"])
    model = PianistConvNet(config, seed=int(header.get("seed", 0)))
    expected = model.named_arrays()
    declared = header.get("arrays", [])
    if [d["name"] for d in declared] != [n for n, _ in expected]:
        raise CorruptCheckpoint("array list does not match the architecture")

    arrays = {}
    offset = 0
    flat = np.frombuffer(payload, dtype="<f4")
    for decl, (name, current) in zip(declared, expected):
        shape = tuple(int(s) for s in decl["shape"])
        if shape != current.shape:
            raise CorruptCheckpoint(f"declared shape mismatch for {name!r}")
        n = int(np.prod(shape)) if shape else 1
        if offset + n > flat.size:
            raise CorruptCheckpoint("payload shorter than the header declares")
        arrays[name] = flat[offset : offset + n].reshape(shape)
        offset += n
    if offset != flat.size:
        raise CorruptCheckpoint("payload longer than the header declares")

    model.load_arrays(arrays)
    return model, header
