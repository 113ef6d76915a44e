"""Hot numeric kernels: LSTM recurrences and CRF dynamic programs.

One numpy implementation per kernel, each run over a whole right-padded
batch: arrays carry a leading batch axis ``(B, n, ...)`` and a sentence
of length ``L_b`` occupies positions ``0 .. L_b - 1`` of its row.
``lstm_forward``/``lstm_backward`` (with ``lstm_gates``) serve each
BiLSTM direction; ``crf_alphas``, ``crf_betas`` and ``viterbi_decode``
serve the CRF head.

Padding needs no mask in the LSTM or in ``crf_alphas``: padded steps come
after every real step, so they never feed one, and a zero gradient at
padded steps stays zero through the backward recursion. ``crf_betas`` and
``viterbi_decode`` run right to left or read the last real step, so they
take the ``lengths`` vector.

``crf_alphas`` and ``crf_betas`` stay in log space but run each step as
one (B, T) @ (T, T) matmul of shifted probabilities, exp(prev - row max)
@ exp(trans - column max), whose log plus the two shifts is the step's
log-sum-exp; a column whose terms underflowed is recomputed exactly
(``_step``). ``viterbi_decode`` is max-plus over a (B, T, T) tensor.

All kernels take and return float64 arrays and use plain IEEE arithmetic,
so results are reproducible and finite-difference checks hold tightly.
"""

import numpy as np

__all__ = [
    "lstm_forward",
    "lstm_gates",
    "lstm_backward",
    "crf_alphas",
    "crf_betas",
    "viterbi_decode",
]


def _activate(z, h):
    """Gate activations in place over the last axis of ``z`` (order i, f,
    g, o): tanh on g, and on i, f and o the stable sigmoid
    1 / (1 + exp(-z)) for z >= 0, exp(z) / (1 + exp(z)) otherwise."""
    g = np.tanh(z[..., 2 * h:3 * h])
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    positive = z >= 0.0
    np.add(e, 1.0, out=z)
    np.copyto(e, 1.0, where=positive)
    np.divide(e, z, out=z)
    z[..., 2 * h:3 * h] = g
    return z


def lstm_forward(xw, w_h, h0, c0):
    """One-direction LSTM over precomputed input projections.

    xw: (B, n, 4h) rows of x_t @ W_x + b, gate order i, f, g, o; h0, c0:
    (B, h). Returns the hidden states and the cell states, each (B, n, h).
    """
    n_batch, n = xw.shape[:2]
    h = w_h.shape[0]
    hs = np.empty((n_batch, n, h))
    cs = np.empty((n_batch, n, h))
    h_prev = h0
    c_prev = c0
    for t in range(n):
        z = h_prev @ w_h
        z += xw[:, t]
        _activate(z, h)
        c = cs[:, t]
        np.multiply(z[:, h:2 * h], c_prev, out=c)
        c += z[:, :h] * z[:, 2 * h:3 * h]
        np.multiply(z[:, 3 * h:], np.tanh(c), out=hs[:, t])
        h_prev = hs[:, t]
        c_prev = c
    return hs, cs


def lstm_gates(xw, hs, w_h, h0):
    """Post-activation gates (B, n, 4h) of a finished ``lstm_forward`` run,
    recomputed from its hidden states with one matmul over all steps.
    ``xw`` is overwritten with the gates and returned."""
    xw[:, 0] += h0 @ w_h
    xw[:, 1:] += hs[:, :-1] @ w_h
    return _activate(xw, w_h.shape[0])


def lstm_backward(d_hs, hs, cs, tanh_cs, gates, w_h, h0, c0):
    """Backprop through lstm_forward, all arrays (B, n, .). Returns
    gradients w.r.t. the input projections xw (B, n, 4h), the recurrent
    weights (h, 4h), and the initial hidden/cell states (B, h).

    ``gates`` (contiguous) and ``tanh_cs`` are scratch space: both are
    overwritten, and ``gates`` is returned as the xw gradient, so a batch's
    backward pass allocates little beyond its inputs."""
    n_batch, n, h = hs.shape
    dz = gates.reshape(n_batch, n, 4, h)
    i, f, g, o = dz[:, :, 0], dz[:, :, 1], dz[:, :, 2], dz[:, :, 3]
    f_gate = f.copy()
    # overwrite each gate with the factor of its pre-activation gradient
    # that does not depend on the recursion: dz_i = dc * g * i * (1 - i),
    # dz_f = dc * c_prev * f * (1 - f), dz_g = dc * i * (1 - g^2) and
    # dz_o = dh * tanh(c) * o * (1 - o); tanh_cs becomes d(dc)/d(dh)
    # = o * (1 - tanh(c)^2)
    scratch = 1.0 - o
    scratch *= o
    scratch *= tanh_cs
    np.multiply(tanh_cs, tanh_cs, out=tanh_cs)
    np.subtract(1.0, tanh_cs, out=tanh_cs)
    tanh_cs *= o
    dc_dh = tanh_cs
    o[...] = scratch
    np.multiply(g, g, out=scratch)
    np.subtract(1.0, scratch, out=scratch)
    scratch *= i
    i *= 1.0 - i
    i *= g
    g[...] = scratch
    del scratch
    f *= 1.0 - f
    f[:, 1:] *= cs[:, :-1]
    f[:, 0] *= c0

    dh_next = np.zeros((n_batch, h))
    dc_next = np.zeros((n_batch, h))
    w_h_t = np.ascontiguousarray(w_h.T)
    for t in range(n - 1, -1, -1):
        dh = d_hs[:, t] + dh_next
        dc = dh * dc_dh[:, t]
        dc += dc_next
        np.multiply(dz[:, t, :3], dc[:, None, :], out=dz[:, t, :3])
        np.multiply(dz[:, t, 3], dh, out=dz[:, t, 3])
        dc_next = dc * f_gate[:, t]
        dh_next = gates[:, t] @ w_h_t

    h_prev = np.concatenate([h0[:, None], hs[:, :-1]], axis=1)
    d_wh = h_prev.reshape(-1, h).T @ gates.reshape(-1, 4 * h)
    return gates, d_wh, dh_next, dc_next


# A column sum of shifted probabilities below this is recomputed exactly
# (see ``_step``); above it, the terms lost to underflow (each under
# ~5e-324) change the sum by far less than one ulp.
_TINY = 1e-280


def _lse_rows(s):
    """log sum exp over the last axis of a 2-d array."""
    mx = s.max(axis=1)
    return mx + np.log(np.sum(np.exp(s - mx[:, None]), axis=1))


def _step(prev, shifted, trans, shift):
    """One log-space CRF step for a batch: out[b, j] = log sum_i
    exp(prev[b, i] + trans[i, j]), given ``shifted`` = exp(trans - shift)
    with ``shift`` the column maximum of ``trans``.

    The sum runs as one (B, T) @ (T, T) product of probabilities scaled by
    each row's maximum. A column whose scaled sum falls below _TINY (its
    dominant terms underflowed, e.g. every allowed predecessor sits ~745
    below a penalized one) is recomputed as an exact log-sum-exp."""
    m = prev.max(axis=1, keepdims=True)
    u = np.exp(prev - m) @ shifted
    exact = u.min() < _TINY
    if exact:
        low = u < _TINY
        u[low] = 1.0  # a placeholder that logs without warning, overwritten below
    out = np.log(u)
    out += m
    out += shift
    if exact:
        b, j = np.nonzero(low)
        out[b, j] = _lse_rows(prev[b] + trans.T[j])
    return out


def crf_alphas(emis, trans, start):
    """Forward log-potentials (B, n, T): alphas[b, t, j] = log sum over
    prefixes ending in tag j at position t (end scores not folded in).
    Rows past a sentence's end depend on its padding and are never read."""
    n_batch, n, n_tags = emis.shape
    alphas = np.empty((n_batch, n, n_tags))
    alphas[:, 0] = start + emis[:, 0]
    colmax = trans.max(axis=0)
    shifted = np.exp(trans - colmax)
    for t in range(1, n):
        np.add(_step(alphas[:, t - 1], shifted, trans, colmax), emis[:, t],
               out=alphas[:, t])
    return alphas


def crf_betas(emis, trans, end, lengths):
    """Backward log-potentials (B, n, T): betas[b, t, i] = log sum over
    suffixes starting with tag i at position t (emission at t not folded
    in). Rows at and past a sentence's last position hold ``end``."""
    n_batch, n, n_tags = emis.shape
    betas = np.empty((n_batch, n, n_tags))
    betas[:, n - 1] = end
    last = (lengths - 1)[:, None]
    trans_t = np.ascontiguousarray(trans.T)
    rowmax = trans.max(axis=1)
    shifted = np.exp(trans_t - rowmax)
    for t in range(n - 2, -1, -1):
        inner = _step(emis[:, t + 1] + betas[:, t + 1], shifted, trans_t, rowmax)
        betas[:, t] = np.where(t >= last, end, inner)
    return betas


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
