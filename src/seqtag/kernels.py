"""Hot numeric kernels: LSTM recurrences and CRF dynamic programs.

One numpy implementation per kernel, each run over a whole batch of
sentences. The LSTM kernels take a packed, time-major batch
(``pack_layout``, as PyTorch's ``PackedSequence``): the sentences are
sorted by length, descending, and step t's ``alive[t]`` rows are one
contiguous run of an (N, ...) array, N the number of real tokens, whose
predecessors are the leading ``alive[t]`` rows of step t - 1. No step
touches a padded position. The CRF kernels take a right-padded batch
``(B, n, ...)``, a sentence of length ``L_b`` at positions
``0 .. L_b - 1`` of its row, plus the ``lengths`` vector: padded steps
come after every real step, so they never feed the forward chain, and
the backward chain and ``viterbi_decode``, which run right to left or
read the last real step, use ``lengths``.

Independent recurrences over the same input run as one step loop with a
leading axis of size 2, so each step is one stacked matmul for both (the
batching cuDNN applies to recurrent work). ``lstm_forward`` and
``lstm_backward`` take both directions of a BiLSTM layer, ``(2, N, ...)``,
each starting from a zero hidden and cell state; the backward direction's
input comes already reversed within each sentence (``pack_layout``'s
``rev``), so both share one layout. ``lstm_forward`` leaves each step's
post-activation gates in its input buffer, and ``lstm_backward`` reads
them from there, so the gates are computed once; an eval pass, which
runs no backward, asks it to keep neither the gates nor the cell states.
``crf_forward_backward`` advances the CRF forward and backward passes
together and ``viterbi_decode`` decodes.

The CRF chains stay in log space but run each step as one matmul of
shifted probabilities, exp(prev - row max) @ exp(trans - column max),
whose log plus the two shifts is the step's log-sum-exp; an entry whose
terms underflowed is recomputed exactly (``_step``). ``viterbi_decode`` is
max-plus over a (B, T, T) tensor.

All kernels take and return float64 arrays and use plain IEEE arithmetic,
so results are reproducible and finite-difference checks hold tightly.
Stacking changes no arithmetic: each direction or chain gives the same
bits as it would alone.
"""

import numpy as np

__all__ = [
    "pack_layout",
    "lstm_forward",
    "lstm_backward",
    "crf_forward_backward",
    "viterbi_decode",
]


def _activate(z, h):
    """Gate activations in place over the last axis of ``z`` (order i, f,
    g, o): tanh on g, and on i, f and o the stable sigmoid
    exp(min(z, 0)) / (1 + exp(-|z|)), which is 1 / (1 + exp(-z)) for
    z >= 0 and exp(z) / (1 + exp(z)) otherwise."""
    g = np.tanh(z[..., 2 * h:3 * h])
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += 1.0
    np.minimum(z, 0.0, out=z)
    np.exp(z, out=z)
    z /= e
    z[..., 2 * h:3 * h] = g
    return z


def pack_layout(lengths):
    """Packed, time-major layout of a batch of sentence lengths (B,), each
    at least 1, as in a PyTorch ``PackedSequence``.

    The sentences are stably sorted by length, descending; ``alive[t]`` is
    the number still running at step t. Step t's rows are one contiguous
    run of ``alive[t]`` rows (``N = sum(lengths)`` in all), and row j of
    step t continues row j of step t - 1. Returns:
    - ``batch``, ``step`` (N,): packed row r holds position ``step[r]`` of
      sentence ``batch[r]``;
    - ``alive`` (steps,);
    - ``rev`` (N,): the involution that maps each row to the same
      sentence's position ``length - 1 - step``, i.e. the sentence read
      backwards in the same layout;
    - ``prev_rows`` (N - B,): the predecessor of each row after the first
      step's B rows.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    sorted_len = lengths[order]
    alive = np.count_nonzero(sorted_len[None, :] > np.arange(sorted_len[0])[:, None], axis=1)
    starts = np.cumsum(alive) - alive
    step = np.repeat(np.arange(len(alive)), alive)
    j = np.arange(len(step)) - starts[step]
    rev = starts[sorted_len[j] - 1 - step] + j
    first = len(lengths)
    prev_rows = starts[step[first:] - 1] + j[first:]
    return order[j], step, alive, rev, prev_rows


def lstm_forward(xw, w_h, alive, keep_states=True):
    """Both directions of a BiLSTM layer over precomputed input projections
    of a packed batch (``pack_layout``), from a zero hidden and cell state.

    xw: (2, N, 4h) rows of x_t @ W_x + b per direction, gate order i, f,
    g, o; w_h: (2, h, 4h); alive: rows per step. Each step after the
    first is one stacked (2, alive[t], h) @ (2, h, 4h) matmul on the
    leading rows of the step before, and one set of gate ops on a fresh
    contiguous buffer. Returns the hidden states, the cell states and
    their tanh, each (2, N, h).

    With ``keep_states`` the call leaves what ``lstm_backward`` reads: the
    gate buffer is copied back, so ``xw`` holds the post-activation gates
    i, f, g, o (its ``gates`` argument), and the cell states and their
    tanh are kept for every row (its ``cs`` and ``tanh_cs``). Without it
    ``xw`` is left as it came, each step's cell state overwrites its
    predecessor's leading rows of one (2, alive[0], h) buffer, and the
    cell states and their tanh come back as None. The hidden states are
    the same bits either way.
    """
    h = w_h.shape[1]
    hs = np.empty(xw.shape[:2] + (h,))
    state_rows = xw.shape[1] if keep_states else alive[0]
    cs = np.empty((xw.shape[0], state_rows, h))
    tanh_cs = np.empty_like(cs)
    prev = start = 0
    for k in alive.tolist():
        rows = slice(start, start + k)
        if start:
            before = slice(prev, prev + k)
            z = np.matmul(hs[:, before], w_h)
            z += xw[:, rows]
        else:
            z = xw[:, rows].copy()
        _activate(z, h)
        if keep_states:
            xw[:, rows] = z
        # c = f * c_prev + i * g; without kept states, in place over c_prev
        at, was = (start, prev) if keep_states else (0, 0)
        c = cs[:, at:at + k]
        if start:
            np.multiply(z[..., h:2 * h], cs[:, was:was + k], out=c)
            c += z[..., :h] * z[..., 2 * h:3 * h]
        else:
            np.multiply(z[..., :h], z[..., 2 * h:3 * h], out=c)
        np.multiply(z[..., 3 * h:], np.tanh(c, out=tanh_cs[:, at:at + k]), out=hs[:, rows])
        prev, start = start, start + k
    if not keep_states:
        return hs, None, None
    return hs, cs, tanh_cs


def lstm_backward(d_hs, hs, cs, tanh_cs, gates, w_h, alive, prev_rows):
    """Backprop through lstm_forward, all arrays (2, N, .) in the packed
    layout of ``alive`` and ``prev_rows`` (``pack_layout``); ``gates`` is
    the post-activation ``xw`` that ``lstm_forward`` left. Returns
    gradients w.r.t. the input projections xw (2, N, 4h) and the
    recurrent weights (2, h, 4h).

    ``gates`` (contiguous) and ``tanh_cs`` are scratch space: both are
    overwritten, and ``gates`` is returned as the xw gradient, so a batch's
    backward pass allocates little beyond its inputs."""
    n_dir, n_rows, h = hs.shape
    first = n_rows - len(prev_rows)
    dz = gates.reshape(n_dir, n_rows, 4, h)
    i, f, g, o = dz[..., 0, :], dz[..., 1, :], dz[..., 2, :], dz[..., 3, :]
    # overwrite each gate with the factor of its pre-activation gradient
    # that does not depend on the recursion: dz_i = dc * g * i * (1 - i),
    # dz_f = dc * c_prev * f * (1 - f), dz_g = dc * i * (1 - g^2) and
    # dz_o = dh * tanh(c) * o * (1 - o); tanh_cs becomes d(dc)/d(dh)
    # = o * (1 - tanh(c)^2). One scratch buffer serves the i, g and o
    # factors, then keeps the forget gate f that the recursion needs.
    scratch = 1.0 - o
    scratch *= o
    scratch *= tanh_cs
    np.multiply(tanh_cs, tanh_cs, out=tanh_cs)
    np.subtract(1.0, tanh_cs, out=tanh_cs)
    tanh_cs *= o
    dc_dh = tanh_cs
    o[...] = scratch
    np.subtract(1.0, i, out=scratch)
    scratch *= i
    scratch *= g
    g *= g
    np.subtract(1.0, g, out=g)
    g *= i
    i[...] = scratch
    f_gate = scratch
    f_gate[...] = f
    np.subtract(1.0, f_gate, out=f)
    f *= f_gate
    f[:, first:] *= cs[:, prev_rows]
    f[:, :first] = 0.0  # the initial cell state is zero

    w_h_t = np.ascontiguousarray(w_h.transpose(0, 2, 1))
    # a row alive at step t + 1 carries dh and dc back to the same row of
    # step t; the rows that end at step t start from d_hs alone
    dh_next = dc_next = np.zeros((n_dir, 0, h))
    end = n_rows
    alive = alive.tolist()
    for t in range(len(alive) - 1, -1, -1):
        start = end - alive[t]
        rows = slice(start, end)
        dh = d_hs[:, rows].copy()
        dh[:, :dh_next.shape[1]] += dh_next
        dc = dh * dc_dh[:, rows]
        dc[:, :dc_next.shape[1]] += dc_next
        np.multiply(dz[:, rows, :3], dc[:, :, None, :], out=dz[:, rows, :3])
        np.multiply(dz[:, rows, 3], dh, out=dz[:, rows, 3])
        if t:
            dc_next = dc * f_gate[:, rows]
            dh_next = np.matmul(gates[:, rows], w_h_t)
        end = start

    # the first step's predecessor is the zero state: it adds nothing
    d_wh = np.matmul(hs[:, prev_rows].transpose(0, 2, 1), gates[:, first:])
    return gates, d_wh


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


def crf_forward_backward(emis, trans, start, end, lengths):
    """Forward and backward log-potentials, each (B, n, T), as two chains
    of one recursion: step s advances the alphas at position s and the
    betas at n - 1 - s with one (2, B, T) @ (2, T, T) product.

    alphas[b, t, j] = log sum over prefixes ending in tag j at position t
    (end scores not folded in); rows past a sentence's end depend on its
    padding and are never read. betas[b, t, i] = log sum over suffixes
    starting with tag i at position t (emission at t not folded in); rows
    at and past a sentence's last position hold ``end``."""
    n_batch, n, n_tags = emis.shape
    alphas = np.empty((n_batch, n, n_tags))
    betas = np.empty((n_batch, n, n_tags))
    alphas[:, 0] = start + emis[:, 0]
    betas[:, n - 1] = end
    last = (lengths - 1)[:, None]
    # the backward chain sums over successors: it steps on trans.T
    chains = np.stack([trans, trans.T])
    shift = chains.max(axis=1, keepdims=True)
    shifted = np.exp(chains - shift)
    prev = np.empty((2, n_batch, n_tags))
    for s in range(1, n):
        t = n - 1 - s
        prev[0] = alphas[:, s - 1]
        np.add(emis[:, t + 1], betas[:, t + 1], out=prev[1])
        out = _step(prev, shifted, chains, shift)
        np.add(out[0], emis[:, s], out=alphas[:, s])
        betas[:, t] = np.where(t >= last, end, out[1])
    return alphas, betas


def viterbi_decode(emis, trans, start, end, lengths):
    """Max-scoring tag path of each sentence (B, n; entries past its end are
    padding) and its score (B,); backpointer ties break toward the lower
    tag index."""
    n_batch, n, n_tags = emis.shape
    rows = np.arange(n_batch)
    delta = start + emis[:, 0]
    backptr = np.zeros((n_batch, n, n_tags), dtype=np.int64)
    for t in range(1, n):
        m = delta[:, :, None] + trans
        bp = np.argmax(m, axis=1)
        backptr[:, t] = bp
        step = np.take_along_axis(m, bp[:, None, :], axis=1)[:, 0] + emis[:, t]
        delta = np.where((t < lengths)[:, None], step, delta)
    delta = delta + end
    cur = np.argmax(delta, axis=1)
    scores = delta[rows, cur]
    path = np.empty((n_batch, n), dtype=np.int64)
    for t in range(n - 1, 0, -1):
        path[:, t] = cur
        cur = np.where(t < lengths, backptr[rows, t, cur], cur)
    path[:, 0] = cur
    return path, scores
