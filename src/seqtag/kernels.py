"""Hot numeric kernels: LSTM recurrences and CRF dynamic programs.

One numpy implementation per kernel, each run over a whole batch of
sentences in one packed, time-major layout (``nn.RowLayout``, as
PyTorch's ``PackedSequence``): the sentences are sorted by length,
descending, and step t's ``alive[t]`` rows are one contiguous run of an
(N, ...) array, N the number of real tokens, whose predecessors are the
leading ``alive[t]`` rows of step t - 1. No step touches a padded
position, and a sentence that has ended drops out of every later step.

Independent recurrences over the same input run as one step loop with a
leading axis of size 2, so each step is one stacked matmul for both (the
batching cuDNN applies to recurrent work). ``lstm_forward`` and
``lstm_backward`` take both directions of a BiLSTM layer, ``(2, N, ...)``,
each starting from a zero hidden and cell state; the backward direction's
input comes already reversed within each sentence (``RowLayout.rev``),
so both share one layout. ``lstm_forward`` leaves each step's
post-activation gates in its input buffer, and ``lstm_backward`` reads
them from there, so the gates are computed once; an eval pass, which
runs no backward, asks it to keep neither the gates nor the cell states.
``lstm_backward`` writes into nothing it is given, so one forward pass's
arrays serve any number of backward passes.
``crf_forward_backward`` advances the CRF forward and backward passes
together and ``viterbi_decode`` decodes.

The CRF chains stay in log space but run each step as one matmul of
shifted probabilities, exp(prev - row max) @ exp(trans - column max),
whose log plus the two shifts is the step's log-sum-exp; an entry whose
terms underflowed is recomputed exactly (``_step``). ``viterbi_decode`` is
max-plus over an (alive[t], T, T) tensor per step.

All kernels take and return float64 arrays and use plain IEEE arithmetic,
so results are reproducible and finite-difference checks hold tightly.
Stacking changes no arithmetic: each direction or chain gives the same
bits as it would alone.
"""

import numpy as np

__all__ = [
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


def lstm_forward(xw, w_h, alive, keep_states=True):
    """Both directions of a BiLSTM layer over precomputed input projections
    of a packed batch (``nn.RowLayout``), from a zero hidden and cell state.

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
    layout of ``alive`` and ``prev_rows`` (``nn.RowLayout``); ``gates`` is
    the post-activation ``xw`` that ``lstm_forward`` left. Returns
    gradients w.r.t. the input projections xw (2, N, 4h) and the
    recurrent weights (2, h, 4h). Reads its arguments and writes only
    arrays it allocates."""
    n_dir, n_rows, h = hs.shape
    first = n_rows - len(prev_rows)
    i, f, g, o = (gates[..., k * h:(k + 1) * h] for k in range(4))
    c_prev = np.zeros_like(cs)  # the initial cell state is zero
    c_prev[:, first:] = cs[:, prev_rows]
    # each gate's factor of its pre-activation gradient that does not
    # depend on the recursion: dz_i = dc * (1 - i) * i * g, dz_f = dc *
    # (1 - f) * f * c_prev, dz_g = dc * (1 - g^2) * i and dz_o = dh *
    # (1 - o) * o * tanh(c); and d(dc)/d(dh) = (1 - tanh(c)^2) * o
    dz = np.stack([(1.0 - i) * i * g, (1.0 - f) * f * c_prev, (1.0 - g * g) * i,
                   (1.0 - o) * o * tanh_cs], axis=2)
    dc_dh = (1.0 - tanh_cs * tanh_cs) * o
    d_xw = dz.reshape(n_dir, n_rows, 4 * h)

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
            dc_next = dc * f[:, rows]
            dh_next = np.matmul(d_xw[:, rows], w_h_t)
        end = start

    # the first step's predecessor is the zero state: it adds nothing
    d_wh = np.matmul(hs[:, prev_rows].transpose(0, 2, 1), d_xw[:, first:])
    return d_xw, d_wh


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


def crf_forward_backward(emis, trans, start, end, alive, rev):
    """Forward and backward log-potentials, each (N, T), of a packed batch
    (``nn.RowLayout``) of emission rows ``emis`` (N, T), as two chains of
    one recursion: the forward chain steps over the packed rows and the
    backward chain over ``emis[rev]``, the sentences read backwards, both
    in the layout of ``alive``, each step one (2, alive[t], T) @ (2, T, T)
    product.

    alphas[r, j] = log sum over prefixes ending in tag j at row r (end
    scores not folded in). betas[r, i] = log sum over suffixes starting
    with tag i at row r (emission at r not folded in); a sentence's last
    row holds ``end``."""
    alphas = np.empty_like(emis)
    back = np.empty_like(emis)  # the betas at the reversed rows
    emis_rev = emis[rev]
    first = alive[0]
    alphas[:first] = start + emis[:first]
    back[:first] = end
    # the backward chain sums over successors: it steps on trans.T
    chains = np.stack([trans, trans.T])
    shift = chains.max(axis=1, keepdims=True)
    shifted = np.exp(chains - shift)
    before, at = 0, first
    for k in alive[1:].tolist():
        rows, pred = slice(at, at + k), slice(before, before + k)
        prev = np.stack([alphas[pred], emis_rev[pred] + back[pred]])
        out = _step(prev, shifted, chains, shift)
        np.add(out[0], emis[rows], out=alphas[rows])
        back[rows] = out[1]
        before, at = at, at + k
    return alphas, back[rev]


def viterbi_decode(emis, trans, start, end, alive):
    """Max-scoring tag path of each sentence of a packed batch of emission
    rows ``emis`` (N, T), one tag per packed row (N,), and its score (B,)
    in packed order; backpointer ties break toward the lower tag index.
    Step t updates the leading ``alive[t]`` scores: the trailing ones are
    the finished sentences'."""
    first = alive[0]
    delta = start + emis[:first]
    backptr = np.empty(emis.shape, dtype=np.int64)
    at = first
    for k in alive[1:].tolist():
        m = delta[:k, :, None] + trans
        bp = np.argmax(m, axis=1)
        backptr[at:at + k] = bp
        delta[:k] = np.take_along_axis(m, bp[:, None, :], axis=1)[:, 0] + emis[at:at + k]
        at += k
    delta += end
    cur = np.argmax(delta, axis=1)
    scores = delta[np.arange(first), cur]
    path = np.empty(len(emis), dtype=np.int64)
    for k in alive[:0:-1].tolist():
        path[at - k:at] = cur[:k]
        cur[:k] = backptr[at - k:at][np.arange(k), cur[:k]]
        at -= k
    path[:first] = cur
    return path, scores
