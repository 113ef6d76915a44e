"""First-order linear-chain CRF: log-partition, Viterbi decoding,
forward-backward marginals, and NLL gradients.

Every entry point takes a batch's emission rows (N, T), one per token,
sentence-major as the tagger's head gives them, plus the batch's
``nn.RowLayout``, and returns rows: per-token arrays are (N, ...),
per-sentence ones (B,). A path through a sentence's emissions ``e``
(n, T) under transitions ``trans`` scores
``start[y0] + sum_t e[t, y_t] + sum_t trans[y_(t-1), y_t] + end[y_(n-1)]``.

The recursions step over the batch's packed, time-major rows
(``RowLayout.packed``), the layout the LSTM steps over: step t's
``alive[t]`` rows are one contiguous run whose predecessors are the
leading ``alive[t]`` rows of step t - 1, so no padded position is built.
``_chains`` steps the forward chain, and for marginals and gradients the
backward chain over the sentences read backwards (``RowLayout.rev``),
both as one (C, alive[t], T) @ (C, T, T) matmul of shifted probabilities
per step, in log space and exact to roundoff (entries that underflow are
recomputed as a plain log-sum-exp); a chain stacked with another gives
the same bits as alone. Viterbi is max-plus over the same rows, in
blocks of at most _VITERBI_BLOCK sentences: a step's scores are flat
rows, the block's scores repeated once per tag plus ``trans.T`` tiled
once per call, so each row's predecessors lie on its last, contiguous
axis, and the best scores and backpointers are read through flat
indices. All arithmetic is float64 and plain IEEE, so results are
reproducible.
"""

from dataclasses import dataclass

import numpy as np

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
    """The emission rows (N, T) in the packed order the recursions step over."""
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


# A column sum of shifted probabilities below this is recomputed exactly
# (see ``_step``); above it, the terms lost to underflow (each under
# ~5e-324) change the sum by far less than one ulp.
_TINY = 1e-280


def _lse_rows(s):
    """log sum exp over the last axis of a 2-d array."""
    mx = s.max(axis=1)
    return mx + np.log(np.sum(np.exp(s - mx[:, None]), axis=1))


def _step(prev, shifted, trans, shift):
    """One log-space CRF step for C independent chains over a batch:
    out[c, b, j] = log sum_i exp(prev[c, b, i] + trans[c, i, j]), given
    ``shifted`` = exp(trans - shift) with ``shift`` (C, 1, T) the column
    maximum of each ``trans``.

    The sums run as one (C, B, T) @ (C, T, T) product of probabilities
    scaled by each row's maximum. An entry whose scaled sum falls below
    _TINY (its dominant terms underflowed, e.g. every allowed predecessor
    sits ~745 below a penalized one) is recomputed as an exact
    log-sum-exp."""
    m = prev.max(axis=2, keepdims=True)
    u = np.matmul(np.exp(prev - m), shifted)
    exact = u.min() < _TINY
    if exact:
        low = u < _TINY
        u[low] = 1.0  # a placeholder that logs without warning, overwritten below
    out = np.log(u)
    out += m
    out += shift
    if exact:
        c, b, j = np.nonzero(low)
        out[c, b, j] = _lse_rows(prev[c, b] + trans[c, :, j])
    return out


def _chains(rows, trans, layout, n_chains):
    """The CRF chains of a batch's emission rows (N, T), stepped together
    over its packed rows ``emis``: the forward chain, and with
    ``n_chains`` 2 also the backward chain, which sums over successors
    (it steps on ``trans.T``) over ``emis[rev]``, the sentences read
    backwards in the same layout, its input written straight into the
    chains' one (n_chains, N, T) input buffer. Each chain holds its
    log-potentials without its own row's emission, so a step adds each
    chain's input to its predecessor rows and runs one ``_step``.

    Returns log Z (B,), ``emis`` and the sums (n_chains, N, T) in packed
    order: alphas = sums[0] + emis are the log sums over prefixes ending
    in each tag (end scores not folded in), and sums[1] at packed row r
    the log sums over suffixes from row rev[r] (its emission not folded
    in; a sentence's last row holds ``end``)."""
    emis = _packed(rows, trans, layout)
    inputs = np.empty((n_chains,) + emis.shape)
    inputs[0] = emis
    if n_chains == 2:
        np.take(emis, layout.rev, axis=0, out=inputs[1])
    pairs = [(trans.matrix, trans.start), (trans.matrix.T, trans.end)][:n_chains]
    chains, starts = map(np.stack, zip(*pairs))
    shift = chains.max(axis=1, keepdims=True)
    shifted = np.exp(chains - shift)
    sums = np.empty_like(inputs)
    first = layout.alive[0]
    sums[:, :first] = starts[:, None]
    before, at = 0, first
    for k in layout.alive[1:].tolist():
        pred = slice(before, before + k)
        sums[:, at:at + k] = _step(sums[:, pred] + inputs[:, pred], shifted, chains, shift)
        before, at = at, at + k
    # each sentence's last packed row, in packed order
    last = layout.rev[:first]
    log_z = _lse_rows(sums[0, last] + emis[last] + trans.end)[layout.order]
    return log_z, emis, sums


def _forward_backward(rows, trans, layout):
    """alphas and betas (N, T) at each row, and log Z (B,). The alphas
    are built in place over the forward chain's sums."""
    log_z, emis, sums = _chains(rows, trans, layout, 2)
    betas = np.empty_like(emis)
    betas[layout.packed[layout.rev]] = sums[1]
    sums[0] += emis
    return layout.unpack(sums[0]), betas, log_z


def _marginals(alphas, betas, log_z, layout):
    """P(y_t = j) (N, T) at each row, computed in place over ``alphas``,
    which it returns."""
    alphas += betas
    alphas -= np.repeat(log_z, layout.lengths)[:, None]
    return np.exp(alphas, out=alphas)


def log_partition(rows, trans, layout):
    """log sum over all paths of exp(path score), per sentence (B,)."""
    return _chains(rows, trans, layout, 1)[0]


# Viterbi steps over blocks of at most this many sentences, so its three
# (block * T, T) float buffers (tiled transitions, step scores, repeated
# scores; 0.67 MiB each at 37 tags) do not grow with the batch.
_VITERBI_BLOCK = 64


def viterbi_decode(emis, trans, start, end, alive):
    """Max-scoring tag path of each sentence of a packed batch of emission
    rows ``emis`` (N, T), one tag per packed row (N,), and its score (B,)
    in packed order; backpointer ties break toward the lower tag index.
    Step t updates the leading ``alive[t]`` scores: the trailing ones are
    the finished sentences'. The steps run over blocks of at most
    _VITERBI_BLOCK sentences. A block's step scores are the flat rows
    m[b * T + j, i] = delta[b, i] + trans[i, j], one add of the repeated
    scores to ``trans.T`` tiled once per call, so ``argmax`` (the first
    maximum) runs over contiguous predecessor rows; the best scores and, in
    the backtrace, the backpointers are read with flat indices."""
    first, n_tags = alive[0], len(start)
    steps = alive[1:]
    # only the sentences longer than one row step
    stepping = steps[0] if len(steps) else 0
    block = max(1, min(stepping, _VITERBI_BLOCK))
    tiled = np.tile(trans.T, (block, 1))
    m = np.empty_like(tiled)
    flat = np.arange(len(m)) * n_tags
    delta = start + emis[:first]
    backptr = np.empty(emis.shape, dtype=np.int64)
    for lo in range(0, stepping, block):
        hi, at = lo + block, first
        # the steps some sentence of the block is alive at
        for k in steps[steps > lo].tolist():
            kb = min(k, hi) - lo
            kt = kb * n_tags
            np.add(np.repeat(delta[lo:lo + kb], n_tags, axis=0), tiled[:kt], out=m[:kt])
            bp = m[:kt].argmax(axis=1, out=backptr[at + lo:at + lo + kb].reshape(kt))
            np.add(m.ravel()[flat[:kt] + bp].reshape(kb, n_tags), emis[at + lo:at + lo + kb],
                   out=delta[lo:lo + kb])
            at += k
    rows = np.arange(first) * n_tags
    at = len(emis)
    delta += end
    cur = np.argmax(delta, axis=1)
    scores = delta.ravel()[rows + cur]
    path = np.empty(len(emis), dtype=np.int64)
    for k in alive[:0:-1].tolist():
        path[at - k:at] = cur[:k]
        cur[:k] = backptr.ravel()[(at - k) * n_tags + rows[:k] + cur[:k]]
        at -= k
    path[:first] = cur
    return path, scores


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
