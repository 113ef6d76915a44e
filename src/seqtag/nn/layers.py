"""Neural layers with forward passes and hand-derived backward passes.

Every layer follows the same protocol: ``forward`` returns (output, cache)
and mutates nothing, ``backward(d_out, cache)`` accumulates parameter
gradients into the ParamStore and returns the gradient w.r.t. the layer
input. Caches travel with the caller, so forward passes on a shared model
are thread-safe.

Sequence layers take one shape: a right-padded batch (B, n, d) and its
``lengths`` (B,), where sentence b fills positions 0 .. lengths[b]-1; one
sentence is a batch of one. No real position depends on a padded one.
``BiLstm`` packs the batch's real tokens, steps both directions of a
layer in one stacked kernel call, and returns exact zeros at padded
positions, in its output and in its input gradient. Elsewhere, values
at padded positions are meaningless and the caller gives them zero
gradient. ``Linear`` and ``EmbeddingTable`` act row by row on inputs of
any rank. ``CharCNN`` takes words instead of sentences: (W, L) char indices
right-padded to per-word lengths (W,).
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..kernels import lstm_backward, lstm_forward, pack_layout
from .params import uniform_init

__all__ = [
    "EmbeddingTable",
    "CharCNN",
    "BiLstm",
    "MultiHeadAttention",
    "Linear",
    "dropout_apply",
    "softmax_rows",
]


def softmax_rows(x):
    """Softmax over the last axis, stable under large scores."""
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


class EmbeddingTable:
    """Index -> row lookup over a trainable table. Index 0 is the unknown
    slot by convention; callers map out-of-vocabulary items to it."""

    def __init__(self, store, name, vocab_size, dim, rng):
        self.name = name
        self.dim = dim
        self.table = store.add(name, uniform_init(rng, (vocab_size, dim), dim))
        self._store = store

    def lookup(self, indices):
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.table.shape[0]):
            raise ValueError(
                f"embedding index out of range for table {self.name!r} "
                f"({self.table.shape[0]} rows)"
            )
        return self.table[indices], indices

    def backward(self, d_out, indices):
        np.add.at(self._store.grad(self.name), indices, d_out)


class CharCNN:
    """Character embeddings -> 1-D convolution -> ReLU -> max-pool, giving a
    fixed-size feature vector per word. Words shorter than the kernel are
    zero-padded to one window. Pooling takes, and its gradient goes to, the
    first maximal window. A padded batch of words runs as one convolution
    matmul and one pooling; each word's features equal a call on it alone."""

    def __init__(self, store, prefix, n_chars, char_dim, kernel, filters, rng):
        if kernel < 1 or filters < 1:
            raise ValueError("kernel size and filter count must be positive")
        self.kernel = kernel
        self.filters = filters
        self.char_dim = char_dim
        self.chars = EmbeddingTable(store, f"{prefix}.chars", n_chars, char_dim, rng)
        self.w = store.add(
            f"{prefix}.w", uniform_init(rng, (kernel * char_dim, filters), kernel * char_dim)
        )
        self.b = store.add(f"{prefix}.b", np.zeros(filters))
        self._store = store
        self._prefix = prefix

    def forward(self, char_indices, lengths):
        """char_indices: words (W, L) right-padded to ``lengths`` (W,);
        padding indices must be valid rows. Returns (W, filters) and a
        cache."""
        idx = np.asarray(char_indices, dtype=np.int64)
        n_words, width = idx.shape
        lengths = np.asarray(lengths)
        k = self.kernel
        real = np.arange(width) < lengths[:, None]
        rows, _ = self.chars.lookup(idx)
        # zeros past each word's end, and up to one window for short words
        emb = np.zeros((n_words, max(width, k), self.char_dim))
        emb[:, :width][real] = rows[real]
        windows = sliding_window_view(emb, (k, self.char_dim), axis=(1, 2))
        windows = windows.reshape(n_words, -1, k * self.char_dim)
        z = _dense(windows, self.w)
        z += self.b
        # ReLU output is >= 0, so windows past a word's last one never win
        # the first-maximum pooling at -1
        r = np.maximum(z, 0.0)
        n_valid = np.maximum(lengths - k + 1, 1)
        r[np.arange(r.shape[1]) >= n_valid[:, None]] = -1.0
        argmax = np.argmax(r, axis=1)[:, None]
        out = np.take_along_axis(r, argmax, axis=1)[:, 0]
        return out, (idx, real, windows, z, argmax)

    def backward(self, d_out, cache):
        idx, real, windows, z, argmax = cache
        k, cd = self.kernel, self.char_dim
        d_out = d_out[:, None]
        dz = np.zeros_like(z)
        np.put_along_axis(dz, argmax, d_out * (np.take_along_axis(z, argmax, axis=1) > 0.0),
                          axis=1)
        flat_dz = dz.reshape(-1, self.filters)
        self._store.accumulate(f"{self._prefix}.w",
                               windows.reshape(-1, k * cd).T @ flat_dz)
        self._store.accumulate(f"{self._prefix}.b", flat_dz.sum(axis=0))
        d_windows = _dense(dz, self.w.T).reshape(dz.shape[:2] + (k, cd))
        n_pos = d_windows.shape[1]
        d_emb = np.zeros((len(idx), n_pos + k - 1, cd))
        # each char sums its windows in ascending window order
        for j in reversed(range(k)):
            d_emb[:, j:j + n_pos] += d_windows[:, :, j]
        self.chars.backward(d_emb[:, :idx.shape[1]][real], idx[real])


def _dense(x, w):
    """``x @ w`` over the last axis of ``x`` as one 2-D matmul."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + (w.shape[1],))


class BiLstm:
    """Stack of bidirectional LSTM layers; each position's output is the
    concatenation of the forward and backward hidden states (..., 2h).

    The layers run on real tokens only. ``forward`` packs the padded
    batch once into the time-major layout of ``kernels.pack_layout``
    (N = sum(lengths) rows, sorted by length) and scatters the last
    layer's (N, 2h) output back into a zeroed (B, n, 2h); ``backward``
    gathers and scatters the same rows. Output and input-gradient rows at
    padded positions are exactly 0, and the padded entries of ``x`` and
    ``d_out`` are never read.

    The backward direction reads each sentence reversed within its own
    length: its rows are the packed rows permuted by the involution
    ``rev``. Both directions of a layer run as one stacked recurrence: the
    layer input and its reversal form a (2, N, d) batch that one matmul
    projects against the layer's input weights, and one ``lstm_forward``
    call steps both. Each layer stores its parameters in that stacked
    layout, forward direction first: ``{prefix}.l{k}.w_x`` (2, d, 4h),
    ``.w_h`` (2, h, 4h) and ``.b`` (2, 4h).

    The forward cache holds each layer's gates and tanh(c), which
    ``backward`` uses as scratch space: one cache serves exactly one
    backward pass."""

    def __init__(self, store, prefix, input_dim, hidden, layers, rng):
        if layers < 1:
            raise ValueError("BiLSTM needs at least one layer")
        self.hidden = hidden
        self.layers = []
        d = input_dim
        for l in range(layers):
            # each direction draws its w_x, then its w_h
            draws = [(uniform_init(rng, (d, 4 * hidden), d),
                      uniform_init(rng, (hidden, 4 * hidden), hidden)) for _ in range(2)]
            w_x, w_h = zip(*draws)
            name = f"{prefix}.l{l}"
            self.layers.append((
                name,
                store.add(f"{name}.w_x", np.stack(w_x)),
                store.add(f"{name}.w_h", np.stack(w_h)),
                store.add(f"{name}.b", np.zeros((2, 4 * hidden))),
            ))
            d = 2 * hidden
        self.output_dim = 2 * hidden
        self._store = store

    def forward(self, x, lengths):
        """x: (B, n, d) right-padded to ``lengths`` (B,), each in [1, n].
        Returns the output (B, n, 2h) and a cache."""
        n_batch, n, d = x.shape
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.shape != (n_batch,) or lengths.min() < 1 or lengths.max() > n:
            raise ValueError(f"lengths must be {n_batch} values in [1, {n}]")
        batch, step, alive, rev, prev_rows = pack_layout(lengths)
        flat = batch * n + step
        packed = x.reshape(-1, d)[flat]
        caches = []
        for _, w_x, w_h, b in self.layers:
            xs = np.empty((2,) + packed.shape)
            xs[0] = packed
            xs[1] = packed[rev]
            gates = np.matmul(xs, w_x)
            gates += b[:, None]
            hs, cs, tanh_cs = lstm_forward(gates, w_h, alive)
            caches.append((xs, hs, cs, tanh_cs, gates))
            packed = np.concatenate([hs[0], hs[1][rev]], axis=1)
        out = np.zeros((n_batch * n, self.output_dim))
        out[flat] = packed
        return out.reshape(n_batch, n, -1), ((x.shape, flat, alive, rev, prev_rows), caches)

    def backward(self, d_out, cache):
        (shape, flat, alive, rev, prev_rows), caches = cache
        h = self.hidden
        d_packed = d_out.reshape(-1, 2 * h)[flat]
        for layer, (xs, hs, cs, tanh_cs, gates) in zip(reversed(self.layers), reversed(caches)):
            d_hs = np.empty_like(hs)
            d_hs[0] = d_packed[:, :h]
            d_hs[1] = d_packed[rev, h:]
            d_xs = self._backward_layer(layer, d_hs, xs, hs, cs, tanh_cs, gates, alive,
                                        prev_rows)
            d_packed = d_xs[0]
            d_packed += d_xs[1][rev]
        d_x = np.zeros((shape[0] * shape[1], shape[2]))
        d_x[flat] = d_packed
        return d_x.reshape(shape)

    def _backward_layer(self, layer, d_hs, xs, hs, cs, tanh_cs, gates, alive, prev_rows):
        """Accumulate one layer's parameter gradients; return the gradient
        w.r.t. its stacked input xs (2, N, d). ``tanh_cs`` and ``gates`` are
        the tanh(c) and the post-activation gates its forward pass left,
        overwritten here; ``gates`` becomes the input-projection gradient."""
        name, w_x, w_h, _ = layer
        d_xw, d_wh = lstm_backward(d_hs, hs, cs, tanh_cs, gates, w_h, alive, prev_rows)
        # each direction's weight gradients sum its rows in the order it
        # stepped them
        acc = self._store.accumulate
        acc(f"{name}.w_x", np.matmul(xs.transpose(0, 2, 1), d_xw))
        acc(f"{name}.w_h", d_wh)
        acc(f"{name}.b", d_xw.sum(axis=1))
        return np.matmul(d_xw, w_x.transpose(0, 2, 1))


class MultiHeadAttention:
    """Scaled dot-product self-attention with per-head softmax, head
    concatenation, and an output projection. Output shape equals input
    shape. A key-padding mask keeps every position from attending to
    padding.

    The query/key/value projections carry no bias: a key bias shifts every
    score in a softmax row equally, so it can never affect the output and
    its gradient is identically zero (which also breaks finite-difference
    verification). Only the output projection has a bias."""

    def __init__(self, store, prefix, dim, heads, rng):
        if dim % heads != 0:
            raise ValueError(f"model dim {dim} not divisible by {heads} heads")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self._store = store
        self._prefix = prefix
        self.w_q = store.add(f"{prefix}.w_q", uniform_init(rng, (dim, dim), dim))
        self.w_k = store.add(f"{prefix}.w_k", uniform_init(rng, (dim, dim), dim))
        self.w_v = store.add(f"{prefix}.w_v", uniform_init(rng, (dim, dim), dim))
        self.w_o = store.add(f"{prefix}.w_o", uniform_init(rng, (dim, dim), dim))
        self.b_o = store.add(f"{prefix}.b_o", np.zeros(dim))

    def _split(self, x):
        n_batch, n = x.shape[:2]
        return x.reshape(n_batch, n, self.heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge(self, x):
        n_batch, _, n, _ = x.shape
        return x.transpose(0, 2, 1, 3).reshape(n_batch, n, self.dim)

    def forward(self, x, lengths):
        """x: (B, n, dim) right-padded to ``lengths`` (B,). Returns the
        output (B, n, dim) and a cache; the backward pass recomputes the
        projections from x."""
        q, k, v = self._project(x)
        scores = q @ k.swapaxes(2, 3)
        scores *= 1.0 / np.sqrt(self.head_dim)
        padded_key = np.arange(x.shape[1]) >= np.asarray(lengths)[:, None]
        scores[np.broadcast_to(padded_key[:, None, None, :], scores.shape)] = -np.inf
        attn = softmax_rows(scores)
        y = _dense(self._merge(attn @ v), self.w_o) + self.b_o
        return y, (x, attn)

    def _project(self, x):
        return (self._split(_dense(x, w)) for w in (self.w_q, self.w_k, self.w_v))

    def _project_backward(self, name, w, d_proj, flat_x):
        """Accumulate one projection's weight gradient; return its share of
        the input gradient (B * n, dim)."""
        flat = self._merge(d_proj).reshape(-1, self.dim)
        self._store.accumulate(f"{self._prefix}.w_{name}", flat_x.T @ flat)
        return flat @ w.T

    def backward(self, d_y, cache):
        x, attn = cache
        q, k, v = self._project(x)
        pre = self._prefix
        acc = self._store.accumulate
        flat_y = d_y.reshape(-1, self.dim)
        acc(f"{pre}.w_o", self._merge(attn @ v).reshape(-1, self.dim).T @ flat_y)
        acc(f"{pre}.b_o", flat_y.sum(axis=0))
        d_heads = self._split(_dense(d_y, self.w_o.T))
        # softmax backward per row: a * (g - sum(g * a))
        d_scores = d_heads @ v.swapaxes(2, 3)
        d_scores -= np.sum(d_scores * attn, axis=3, keepdims=True)
        d_scores *= attn
        d_scores /= np.sqrt(self.head_dim)
        flat_x = x.reshape(-1, self.dim)
        d_x = self._project_backward("q", self.w_q, d_scores @ k, flat_x)
        d_x += self._project_backward("k", self.w_k, d_scores.swapaxes(2, 3) @ q, flat_x)
        d_x += self._project_backward("v", self.w_v, attn.swapaxes(2, 3) @ d_heads, flat_x)
        return d_x.reshape(x.shape)


class Linear:
    """Affine map over the last axis; inputs of any rank."""

    def __init__(self, store, prefix, d_in, d_out, rng):
        self.w = store.add(f"{prefix}.w", uniform_init(rng, (d_in, d_out), d_in))
        self.b = store.add(f"{prefix}.b", np.zeros(d_out))
        self._store = store
        self._prefix = prefix

    def forward(self, x):
        return _dense(x, self.w) + self.b, x

    def backward(self, d_y, cache):
        x = cache
        flat_y = d_y.reshape(-1, d_y.shape[-1])
        self._store.accumulate(f"{self._prefix}.w", x.reshape(-1, x.shape[-1]).T @ flat_y)
        self._store.accumulate(f"{self._prefix}.b", flat_y.sum(axis=0))
        return _dense(d_y, self.w.T)


def dropout_apply(x, rate, mode, rng, lengths):
    """Inverted dropout on a padded batch x (B, n, d): in train mode each
    sentence draws its own (lengths[b], d) mask in batch order, zeroing each
    element with probability ``rate`` and scaling survivors by 1/(1-rate);
    padding is zeroed. Identity in eval mode. Returns (output, mask); mask
    is None when nothing was dropped."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    if mode != "train" or rate == 0.0:
        return x, None
    keep = np.zeros(x.shape)
    for b, n in enumerate(lengths):
        keep[b, :n] = (rng.random((n,) + x.shape[2:]) >= rate) / (1.0 - rate)
    return x * keep, keep
