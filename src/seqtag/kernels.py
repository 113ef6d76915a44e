"""Hot numeric kernels: LSTM recurrences and CRF dynamic programs.

One numpy implementation per kernel, run one sentence at a time:
``lstm_forward``/``lstm_backward`` for each BiLSTM direction, and
``crf_alphas``, ``crf_betas`` and ``viterbi_decode`` for the CRF head.

All kernels take and return float64 arrays and use plain IEEE arithmetic,
so results are reproducible and finite-difference checks hold tightly.
"""

import math

import numpy as np

__all__ = [
    "lstm_forward",
    "lstm_backward",
    "crf_alphas",
    "crf_betas",
    "viterbi_decode",
    "logsumexp",
]


def logsumexp(x):
    """Stable log(sum(exp(x))) over a 1-D array."""
    m = np.max(x)
    return m + math.log(np.sum(np.exp(x - m)))


def _sigmoid_np(x):
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def lstm_forward(xw, w_h, h0, c0):
    """One-direction LSTM over precomputed input projections.

    xw: (n, 4h) rows of x_t @ W_x + b, gate order i, f, g, o.
    Returns hidden states (n, h), cell states, tanh(cell), and the
    post-activation gates (n, 4h) needed by the backward pass.
    """
    n = xw.shape[0]
    h = w_h.shape[0]
    hs = np.empty((n, h))
    cs = np.empty((n, h))
    tanh_cs = np.empty((n, h))
    gates = np.empty((n, 4 * h))
    h_prev = h0
    c_prev = c0
    for t in range(n):
        z = xw[t] + h_prev @ w_h
        i = _sigmoid_np(z[:h])
        f = _sigmoid_np(z[h:2 * h])
        g = np.tanh(z[2 * h:3 * h])
        o = _sigmoid_np(z[3 * h:])
        c = f * c_prev + i * g
        tc = np.tanh(c)
        gates[t, :h] = i
        gates[t, h:2 * h] = f
        gates[t, 2 * h:3 * h] = g
        gates[t, 3 * h:] = o
        cs[t] = c
        tanh_cs[t] = tc
        hs[t] = o * tc
        h_prev = hs[t]
        c_prev = c
    return hs, cs, tanh_cs, gates


def lstm_backward(d_hs, hs, cs, tanh_cs, gates, w_h, h0, c0):
    """Backprop through lstm_forward. Returns gradients w.r.t. the input
    projections xw (n, 4h), the recurrent weights (h, 4h), and the initial
    hidden/cell states."""
    n, h = hs.shape
    d_xw = np.empty((n, 4 * h))
    d_wh = np.zeros_like(w_h)
    dh_next = np.zeros(h)
    dc_next = np.zeros(h)
    for t in range(n - 1, -1, -1):
        h_prev = h0 if t == 0 else hs[t - 1]
        c_prev = c0 if t == 0 else cs[t - 1]
        i = gates[t, :h]
        f = gates[t, h:2 * h]
        g = gates[t, 2 * h:3 * h]
        o = gates[t, 3 * h:]
        tc = tanh_cs[t]
        dh = d_hs[t] + dh_next
        do = dh * tc
        dc = dc_next + dh * o * (1.0 - tc * tc)
        dz = np.empty(4 * h)
        dz[:h] = dc * g * i * (1.0 - i)
        dz[h:2 * h] = dc * c_prev * f * (1.0 - f)
        dz[2 * h:3 * h] = dc * i * (1.0 - g * g)
        dz[3 * h:] = do * o * (1.0 - o)
        dc_next = dc * f
        d_xw[t] = dz
        d_wh += np.outer(h_prev, dz)
        dh_next = w_h @ dz
    return d_xw, d_wh, dh_next, dc_next


def crf_alphas(emis, trans, start):
    """Forward log-potentials: alphas[t, j] = log sum over prefixes ending
    in tag j at position t (end scores not folded in)."""
    n, T = emis.shape
    alphas = np.empty((n, T))
    alphas[0] = start + emis[0]
    for t in range(1, n):
        m = alphas[t - 1][:, None] + trans
        mx = m.max(axis=0)
        alphas[t] = mx + np.log(np.sum(np.exp(m - mx), axis=0)) + emis[t]
    return alphas


def crf_betas(emis, trans, end):
    """Backward log-potentials: betas[t, i] = log sum over suffixes starting
    with tag i at position t (emission at t not folded in)."""
    n, T = emis.shape
    betas = np.empty((n, T))
    betas[n - 1] = end
    for t in range(n - 2, -1, -1):
        m = trans + (emis[t + 1] + betas[t + 1])[None, :]
        mx = m.max(axis=1)
        betas[t] = mx + np.log(np.sum(np.exp(m - mx[:, None]), axis=1))
    return betas


def viterbi_decode(emis, trans, start, end):
    """Max-scoring tag path and its score; backpointer ties break toward the
    lower tag index."""
    n, T = emis.shape
    delta = start + emis[0]
    backptr = np.empty((n, T), dtype=np.int64)
    for t in range(1, n):
        m = delta[:, None] + trans
        bp = np.argmax(m, axis=0)
        backptr[t] = bp
        delta = m[bp, np.arange(T)] + emis[t]
    delta = delta + end
    last = int(np.argmax(delta))
    score = float(delta[last])
    path = np.empty(n, dtype=np.int64)
    path[n - 1] = last
    for t in range(n - 1, 0, -1):
        path[t - 1] = backptr[t, path[t]]
    return path, score
