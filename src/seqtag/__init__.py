"""seqtag: a sequence-labeling toolkit.

Configurable neural taggers (embeddings, char-CNN, BiLSTM, multi-head
attention, softmax or CRF head), threshold-gated majority-voting ensembles,
corpus combination and token-wise translation, and chunk-level macro-F1
evaluation. Everything runs on numpy, hot kernels included.
"""

__version__ = "0.1.0"
