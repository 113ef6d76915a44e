"""First-order linear-chain CRF: log-partition, Viterbi decoding,
forward-backward marginals, and NLL gradients.

Every entry point takes one shape: emissions as a right-padded batch
(B, n, T) with explicit ``lengths`` (B,), where sentence b fills positions
0 .. lengths[b]-1; one sentence is a batch of one. A path through a
sentence's emissions ``e`` (n, T) under transitions ``trans`` scores
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


def _check(emissions, trans, lengths):
    """Emissions as a right-padded batch (B, n, T) with its lengths (B,).
    Returns (emissions, lengths) as float and int arrays."""
    emissions = np.asarray(emissions, dtype=np.float64)
    if emissions.ndim != 3 or emissions.shape[1] < 1:
        raise ValueError(f"emissions must be (B, n>=1, T), got shape {emissions.shape}")
    if emissions.shape[2] != trans.n_tags:
        raise ValueError(
            f"emissions have {emissions.shape[2]} tags, transitions {trans.n_tags}"
        )
    n_batch, n = emissions.shape[:2]
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (n_batch,) or lengths.min() < 1 or lengths.max() > n:
        raise ValueError(f"lengths must be {n_batch} values in [1, {n}]")
    return emissions, lengths


def path_score(emissions, trans, paths, lengths):
    """Score (B,) of one tag path per sentence of emissions (B, n, T);
    entries of ``paths`` (B, n) past a sentence's length are ignored but
    must be valid tags."""
    paths, lengths = np.asarray(paths), np.asarray(lengths)
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
    """P(y_t = j) at real positions, 0 at padding (B, n, T), computed in
    place over ``alphas``, which it returns."""
    alphas += betas
    alphas -= log_z[:, None, None]
    alphas[~real] = -np.inf
    return np.exp(alphas, out=alphas)


def log_partition(emissions, trans, lengths):
    """log sum over all paths of exp(path score), per sentence (B,)."""
    emissions, lengths = _check(emissions, trans, lengths)
    alphas, _ = crf_forward_backward(emissions, trans.matrix, trans.start, trans.end, lengths)
    return _log_z(alphas, trans, lengths)


def viterbi(emissions, trans, lengths):
    """Best-scoring tag path per sentence and its score; ties break toward
    lower tag indices at every backpointer. Returns a list of paths, each
    as long as its sentence, and a (B,) array of scores."""
    emissions, lengths = _check(emissions, trans, lengths)
    paths, scores = viterbi_decode(
        emissions, trans.matrix, trans.start, trans.end, lengths
    )
    return [path[:n].tolist() for path, n in zip(paths, lengths)], scores


def crf_marginals(emissions, trans, lengths):
    """Per-position tag probabilities under the CRF distribution (B, n, T);
    rows sum to 1 at real positions and are 0 at padding."""
    emissions, lengths = _check(emissions, trans, lengths)
    return _marginals(*_forward_backward(emissions, trans, lengths))


def _nll(emissions, trans, gold, lengths):
    """Gold-path NLL (B,) of a checked batch from one forward-backward pass;
    also returns the pass and the gold paths (zero at padding)."""
    n_batch, n, n_tags = emissions.shape
    gold = np.asarray(gold, dtype=np.int64)
    if gold.shape != (n_batch, n):
        raise ValueError(f"gold path length {gold.shape} does not match {n} positions")
    alphas, betas, log_z, real = _forward_backward(emissions, trans, lengths)
    gold = np.where(real, gold, 0)
    if gold.min() < 0 or gold.max() >= n_tags:
        raise ValueError("gold tag index out of range")
    loss = log_z - path_score(emissions, trans, gold, lengths)
    return loss, (alphas, betas, log_z, real, gold)


def crf_nll_marginals(emissions, trans, gold, lengths):
    """Negative log-likelihood of the gold path and the per-position
    marginals, from one forward-backward pass: what scoring a labelled
    batch needs. Shapes as in ``crf_nll_grad`` and ``crf_marginals``."""
    emissions, lengths = _check(emissions, trans, lengths)
    loss, (alphas, betas, log_z, real, _) = _nll(emissions, trans, gold, lengths)
    return loss, _marginals(alphas, betas, log_z, real)


def crf_nll_grad(emissions, trans, gold, lengths):
    """Negative log-likelihood of the gold paths (B, n) and its gradients.

    Returns (loss, d_emissions, d_matrix, d_start, d_end) where each
    gradient is expected counts under the model minus gold counts: loss is
    (B,), d_emissions is (B, n, T) and zero at padding, and the transition
    gradients are summed over the batch.
    """
    emissions, lengths = _check(emissions, trans, lengths)
    n_batch = emissions.shape[0]
    loss, (alphas, betas, log_z, real, gold) = _nll(emissions, trans, gold, lengths)
    # the pairwise marginals below read the alphas
    marginals = _marginals(alphas.copy(), betas, log_z, real)
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
