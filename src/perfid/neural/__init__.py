"""Self-contained numeric array + reverse-mode differentiation engine.

Everything the classifier needs and nothing more: a taped Tensor, the
layer ops (1D convolution, batch norm, ReLU, dropout, masked pooling,
dense, softmax cross-entropy), Adam, and the network itself.
"""

from .tensor import NotScalarLoss, Tensor
from .ops import (
    BatchTooSmall,
    LabelOutOfRange,
    ShapeMismatch,
    ZeroLength,
    batchnorm1d,
    conv1d,
    dense,
    dropout,
    masked_global_avg_pool,
    relu,
    softmax_cross_entropy,
)
from .model import (
    ModelConfig,
    PianistConvNet,
    desk_config,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from .optim import AdamState, adam_step
