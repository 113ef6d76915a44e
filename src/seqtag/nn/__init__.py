"""Minimal neural compute core: layers with analytic backward passes, a
parameter store drawn from the layers' spec rows or filled from a file,
AdamW updates, and finite-difference gradient checking."""

from .gradcheck import GradCheckReport, gradient_check
from .layers import (
    BiLstm,
    CharCNN,
    EmbeddingTable,
    Linear,
    MultiHeadAttention,
    RowLayout,
    dropout_apply,
    softmax_rows,
)
from .optim import AdamOptimizer
from .params import ParamStore

__all__ = [
    "AdamOptimizer",
    "BiLstm",
    "CharCNN",
    "EmbeddingTable",
    "GradCheckReport",
    "Linear",
    "MultiHeadAttention",
    "ParamStore",
    "RowLayout",
    "dropout_apply",
    "gradient_check",
    "softmax_rows",
]
