"""First-order linear-chain CRF: log-partition, Viterbi decoding,
forward-backward marginals, and NLL gradients.

Every entry point takes a batch's emission rows (N, T), one per token,
sentence-major as the tagger's head gives them, plus the batch's
``nn.RowLayout``, and returns rows: per-token arrays are (N, ...),
per-sentence ones (B,). A path through a sentence's emissions ``e``
(n, T) under transitions ``trans`` scores
``start[y0] + sum_t e[t, y_t] + sum_t trans[y_(t-1), y_t] + end[y_(n-1)]``.
The recursions run in log space via the kernels module, over the
batch's packed, time-major rows (``RowLayout.packed``), the layout the
LSTM kernels step over; no padded position is built. The forward and
backward passes run together, both chains of a step as one
(2, alive_t, T) @ (2, T, T) matmul of shifted probabilities, exact to
roundoff (entries that underflow are recomputed as a plain log-sum-exp).
Viterbi is max-plus.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import _lse_rows, crf_forward_backward, viterbi_decode

__all__ = [
    "Transitions",
    "log_partition",
    "viterbi",
    "crf_marginals",
    "crf_nll_grad",
    "path_score",
    "bio_constraint_penalty",
]

CONSTRAINT_PENALTY = -1e4


@dataclass
class Transitions:
    """Tag-pair scores plus explicit start and end scores. matrix[i, j]
    scores tag i followed by tag j."""

    matrix: np.ndarray
    start: np.ndarray
    end: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        self.start = np.asarray(self.start, dtype=np.float64)
        self.end = np.asarray(self.end, dtype=np.float64)
        t = self.matrix.shape[0]
        if self.matrix.shape != (t, t):
            raise ValueError(f"transition matrix must be square, got {self.matrix.shape}")
        if self.start.shape != (t,) or self.end.shape != (t,):
            raise ValueError("start/end score lengths must match the tag count")

    @property
    def n_tags(self):
        return self.matrix.shape[0]

    @classmethod
    def zeros(cls, n_tags):
        return cls(np.zeros((n_tags, n_tags)), np.zeros(n_tags), np.zeros(n_tags))

    def penalized(self, matrix_penalty, start_penalty):
        return Transitions(self.matrix + matrix_penalty, self.start + start_penalty, self.end)


def _require_shape(what, array, shape):
    if np.shape(array) != shape:
        raise ValueError(f"{what} must have shape {shape} for this layout and tag count, "
                         f"got {np.shape(array)}")


def _packed(rows, trans, layout):
    """The emission rows (N, T) in the packed order the kernels step over."""
    _require_shape("emission rows", rows, (len(layout.packed), trans.n_tags))
    return rows[layout.packed]


def _last(layout):
    """Each sentence's last row (B,)."""
    return layout.offsets + layout.lengths - 1


def path_score(rows, trans, tags, layout):
    """Score (B,) of the tag path ``tags`` (N,), one tag per row."""
    tags = np.asarray(tags)
    _require_shape("emission rows", rows, (len(layout.packed), trans.n_tags))
    _require_shape("tag path", tags, (len(layout.packed),))
    if tags.min() < 0 or tags.max() >= trans.n_tags:
        raise ValueError("tag index out of range")
    # each row's transition comes from the row before it, except at a
    # sentence's first row, which takes the start score
    moved = trans.matrix[np.roll(tags, 1), tags]
    moved[layout.offsets] = trans.start[tags[layout.offsets]]
    score = np.add.reduceat(rows[np.arange(len(tags)), tags] + moved, layout.offsets)
    return score + trans.end[tags[_last(layout)]]


def _forward_backward(rows, trans, layout):
    """alphas and betas (N, T) at each row, and log Z (B,)."""
    alphas, betas = map(layout.unpack, crf_forward_backward(
        _packed(rows, trans, layout), trans.matrix, trans.start, trans.end, layout.alive,
        layout.rev))
    return alphas, betas, _lse_rows(alphas[_last(layout)] + trans.end)


def _marginals(alphas, betas, log_z, layout):
    """P(y_t = j) (N, T) at each row, computed in place over ``alphas``,
    which it returns."""
    alphas += betas
    alphas -= np.repeat(log_z, layout.lengths)[:, None]
    return np.exp(alphas, out=alphas)


def log_partition(rows, trans, layout):
    """log sum over all paths of exp(path score), per sentence (B,)."""
    return _forward_backward(rows, trans, layout)[2]


def viterbi(rows, trans, layout):
    """Best-scoring tag path of each sentence, as one tag per row (N,), and
    its score (B,); ties break toward lower tag indices at every
    backpointer."""
    path, scores = viterbi_decode(_packed(rows, trans, layout), trans.matrix, trans.start,
                                  trans.end, layout.alive)
    return layout.unpack(path), scores[layout.order]


def crf_marginals(rows, trans, layout):
    """Per-token tag probabilities under the CRF distribution (N, T); each
    row sums to 1."""
    return _marginals(*_forward_backward(rows, trans, layout), layout)


def crf_nll_grad(rows, trans, gold, layout):
    """Negative log-likelihood of the gold paths (N,) and its gradients.

    Returns (loss, d_rows, d_matrix, d_start, d_end) where each gradient
    is expected counts under the model minus gold counts: loss is (B,),
    d_rows is (N, T), and the transition gradients are summed over the
    batch. The loss has the same bits as ``log_partition`` minus
    ``path_score``.
    """
    alphas, betas, log_z = _forward_backward(rows, trans, layout)
    loss = log_z - path_score(rows, trans, gold, layout)
    gold = np.asarray(gold)
    last = _last(layout)

    # pairwise marginals xi[k, i, j] = P(y_r = i, y_(r+1) = j) of each row
    # r = src[k] followed by a row of its sentence, summed in sentence-major
    # order
    src = np.delete(np.arange(len(gold)), last)
    joint = alphas[src][:, :, None] + trans.matrix
    joint += (rows[src + 1] + betas[src + 1])[:, None, :]
    joint -= np.repeat(log_z, layout.lengths - 1)[:, None, None]
    d_matrix = np.exp(joint, out=joint).sum(axis=0)
    np.add.at(d_matrix, (gold[src], gold[src + 1]), -1.0)

    d_rows = _marginals(alphas, betas, log_z, layout)
    d_start = d_rows[layout.offsets].sum(axis=0)
    np.add.at(d_start, gold[layout.offsets], -1.0)
    d_end = d_rows[last].sum(axis=0)
    np.add.at(d_end, gold[last], -1.0)
    d_rows[np.arange(len(gold)), gold] -= 1.0
    return loss, d_rows, d_matrix, d_start, d_end


def bio_constraint_penalty(tagset):
    """Additive penalties forbidding transitions into I-X from anything but
    B-X/I-X, including at sentence start. Returns (matrix_penalty,
    start_penalty) to add to transition scores."""
    t = len(tagset)
    matrix = np.zeros((t, t))
    start = np.zeros(t)
    for j, label in enumerate(tagset.labels):
        if not label.startswith("I-"):
            continue
        cls = label[2:]
        allowed = {f"B-{cls}", f"I-{cls}"}
        start[j] = CONSTRAINT_PENALTY
        for i, prev in enumerate(tagset.labels):
            if prev not in allowed:
                matrix[i, j] = CONSTRAINT_PENALTY
    return matrix, start
