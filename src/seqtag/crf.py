"""First-order linear-chain CRF: log-partition, Viterbi decoding,
forward-backward marginals, and NLL gradients.

A path through emissions ``e`` (n, T) under transitions ``trans`` scores
``start[y0] + sum_t e[t, y_t] + sum_t trans[y_(t-1), y_t] + end[y_(n-1)]``.
All recursions run in log space via the kernels module. The forward and
backward passes run together, both chains of a step as one
(2, B, T) @ (2, T, T) matmul of shifted probabilities, exact to roundoff
(entries that underflow are recomputed as a plain log-sum-exp). Viterbi
is max-plus.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import crf_forward_backward, viterbi_decode

__all__ = [
    "Transitions",
    "log_partition",
    "viterbi",
    "crf_marginals",
    "crf_nll_grad",
    "crf_nll_marginals",
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


def _check(emissions, trans, lengths=None):
    """Emissions as a right-padded batch (B, n, T) with its lengths (B,);
    an (n, T) array is a batch of one. Returns (emissions, lengths,
    single)."""
    emissions = np.asarray(emissions, dtype=np.float64)
    single = emissions.ndim == 2
    if single:
        emissions = emissions[None]
    if emissions.ndim != 3 or emissions.shape[1] < 1:
        raise ValueError(
            f"emissions must be (n>=1, T) or (B, n>=1, T), got shape {emissions.shape}"
        )
    if emissions.shape[2] != trans.n_tags:
        raise ValueError(
            f"emissions have {emissions.shape[2]} tags, transitions {trans.n_tags}"
        )
    n_batch, n = emissions.shape[:2]
    if lengths is None:
        lengths = np.full(n_batch, n, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (n_batch,) or lengths.min() < 1 or lengths.max() > n:
        raise ValueError(f"lengths must be {n_batch} values in [1, {n}]")
    return emissions, lengths, single


def path_score(emissions, trans, tags):
    """Score of one explicit tag path."""
    emissions, lengths, _ = _check(emissions, trans)
    paths = np.asarray(tags, dtype=np.int64)[None]
    return float(_path_scores(emissions, trans, paths, lengths)[0])


def _path_scores(emissions, trans, paths, lengths):
    """Score (B,) of one tag path per sentence; entries of ``paths``
    (B, n) past a sentence's length are ignored but must be valid tags."""
    real = np.arange(emissions.shape[1])[None, :] < lengths[:, None]
    emitted = np.take_along_axis(emissions, paths[:, :, None], axis=2)[:, :, 0]
    moved = trans.matrix[paths[:, :-1], paths[:, 1:]]
    score = trans.start[paths[:, 0]] + np.where(real, emitted, 0.0).sum(axis=1)
    score += np.where(real[:, 1:], moved, 0.0).sum(axis=1)
    return score + trans.end[paths[np.arange(len(lengths)), lengths - 1]]


def _log_z(alphas, trans, lengths):
    """log Z (B,) from the alphas at each sentence's last position."""
    final = alphas[np.arange(len(lengths)), lengths - 1] + trans.end
    mx = final.max(axis=1)
    return mx + np.log(np.sum(np.exp(final - mx[:, None]), axis=1))


def _forward_backward(emissions, trans, lengths):
    """alphas, betas, log Z (B,) and the real-position mask (B, n)."""
    alphas, betas = crf_forward_backward(emissions, trans.matrix, trans.start, trans.end,
                                         lengths)
    real = np.arange(emissions.shape[1])[None, :] < lengths[:, None]
    return alphas, betas, _log_z(alphas, trans, lengths), real


def _marginals(alphas, betas, log_z, real):
    """P(y_t = j) at real positions, 0 at padding (B, n, T)."""
    log_p = np.where(real[:, :, None], alphas + betas - log_z[:, None, None], -np.inf)
    return np.exp(log_p)


def log_partition(emissions, trans, lengths=None):
    """log sum over all T^n paths of exp(path score): a float for one
    sentence, a (B,) array for a batch."""
    emissions, lengths, single = _check(emissions, trans, lengths)
    alphas, _ = crf_forward_backward(emissions, trans.matrix, trans.start, trans.end, lengths)
    log_z = _log_z(alphas, trans, lengths)
    return float(log_z[0]) if single else log_z


def viterbi(emissions, trans, lengths=None):
    """Best-scoring tag path and its score; ties break toward lower tag
    indices at every backpointer. For a batch: a list of paths, each as
    long as its sentence, and a (B,) array of scores."""
    emissions, lengths, single = _check(emissions, trans, lengths)
    paths, scores = viterbi_decode(
        emissions, trans.matrix, trans.start, trans.end, lengths
    )
    paths = [[int(t) for t in path[:n]] for path, n in zip(paths, lengths)]
    if single:
        return paths[0], float(scores[0])
    return paths, scores


def crf_marginals(emissions, trans, lengths=None):
    """Per-position tag probabilities under the CRF distribution, (n, T)
    or (B, n, T); rows sum to 1 at real positions and are 0 at padding."""
    emissions, lengths, single = _check(emissions, trans, lengths)
    marginals = _marginals(*_forward_backward(emissions, trans, lengths))
    return marginals[0] if single else marginals


def _nll(emissions, trans, gold, lengths):
    """Gold-path NLL (B,) and marginals (B, n, T) of a checked batch from one
    forward-backward pass; also returns the pass and the gold paths (zero
    at padding) for the gradients."""
    n_batch, n, n_tags = emissions.shape
    gold = np.asarray(gold, dtype=np.int64).reshape(n_batch, -1)
    if gold.shape != (n_batch, n):
        raise ValueError(f"gold path length {gold.shape} does not match {n} positions")
    alphas, betas, log_z, real = _forward_backward(emissions, trans, lengths)
    gold = np.where(real, gold, 0)
    if gold.min() < 0 or gold.max() >= n_tags:
        raise ValueError("gold tag index out of range")
    loss = log_z - _path_scores(emissions, trans, gold, lengths)
    return loss, _marginals(alphas, betas, log_z, real), (alphas, betas, log_z, real, gold)


def crf_nll_marginals(emissions, trans, gold, lengths=None):
    """Negative log-likelihood of the gold path and the per-position
    marginals, from one forward-backward pass: what scoring a labelled
    batch needs. Shapes as in ``crf_nll_grad`` and ``crf_marginals``."""
    emissions, lengths, single = _check(emissions, trans, lengths)
    loss, marginals, _ = _nll(emissions, trans, gold, lengths)
    if single:
        return float(loss[0]), marginals[0]
    return loss, marginals


def crf_nll_grad(emissions, trans, gold, lengths=None):
    """Negative log-likelihood of the gold path and its gradients.

    Returns (loss, d_emissions, d_matrix, d_start, d_end) where each
    gradient is expected counts under the model minus gold counts. For a
    batch (gold (B, n), padded), loss is a (B,) array, d_emissions is
    (B, n, T) and zero at padding, and the transition gradients are summed
    over the batch.
    """
    emissions, lengths, single = _check(emissions, trans, lengths)
    n_batch = emissions.shape[0]
    loss, marginals, (alphas, betas, log_z, real, gold) = _nll(emissions, trans, gold, lengths)
    gold_onehot = np.zeros_like(marginals)
    np.put_along_axis(gold_onehot, gold[:, :, None], real[:, :, None].astype(np.float64),
                      axis=2)
    d_emissions = marginals - gold_onehot

    # pairwise marginals xi[b, t, i, j] = P(y_t = i, y_(t+1) = j), summed
    # over real position pairs
    pairs = real[:, 1:]
    joint = np.where(pairs[:, :, None], alphas[:, :-1], -np.inf)[:, :, :, None] + trans.matrix
    joint += (emissions[:, 1:] + betas[:, 1:])[:, :, None, :]
    joint -= log_z[:, None, None, None]
    d_matrix = np.exp(joint, out=joint).sum(axis=(0, 1))
    np.add.at(d_matrix, (gold[:, :-1][pairs], gold[:, 1:][pairs]), -1.0)

    d_start = marginals[:, 0].sum(axis=0)
    np.add.at(d_start, gold[:, 0], -1.0)
    rows = np.arange(n_batch)
    d_end = marginals[rows, lengths - 1].sum(axis=0)
    np.add.at(d_end, gold[rows, lengths - 1], -1.0)
    if single:
        return float(loss[0]), d_emissions[0], d_matrix, d_start, d_end
    return loss, d_emissions, d_matrix, d_start, d_end


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
