"""Neural layers with forward passes and hand-derived backward passes.

Every layer follows the same protocol: ``spec`` states its parameters
once, as ``(name, shape, fan_in)`` rows for ``ParamStore.draw``; the
constructor takes them from a filled ParamStore by prefix and reads its
sizes off their shapes; ``forward`` returns (output, cache) and mutates
nothing, ``backward(d_out, cache)`` accumulates parameter gradients into
the ParamStore and returns the gradient w.r.t. the layer input.
``BiLstm.forward`` also takes the pass's mode; in eval mode it builds no
cache and returns None for it. Caches travel with the caller, so forward
passes on a shared model are thread-safe.

Sequence layers take a batch's real tokens only: (N, d) rows,
sentence-major (sentence b's tokens in order, then sentence b + 1's), and
the batch's ``RowLayout``, built once per pass from the lengths; one
sentence is a batch of one. No token depends on another sentence's.
``BiLstm`` packs the rows into their time-major layout and steps both
directions of a layer in one stacked call of ``lstm_forward``. Only
``MultiHeadAttention`` builds a zero-padded (B, heads, n, d_h) grid, for
the scores. ``Linear``,
``EmbeddingTable`` and ``dropout_apply`` act row by row. ``CharCNN``
takes words instead of sentences: (W, L) char indices right-padded to
per-word lengths (W,).

``lstm_forward`` and ``lstm_backward``, the LSTM recurrences, step both
directions of a layer, ``(2, N, ...)``, over one packed layout as one
stacked matmul per step (the batching cuDNN applies to recurrent work):
the backward direction's input comes already reversed within each
sentence (``RowLayout.rev``). ``lstm_forward`` leaves each step's
post-activation gates in its input buffer for ``lstm_backward``, so the
gates are computed once, and ``lstm_backward`` writes into nothing it is
given, so one forward pass's arrays serve any number of backward passes.
They use plain float64 IEEE arithmetic, and stacking changes none of
it: each direction gives the same bits as it would alone.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "RowLayout",
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


class RowLayout:
    """Where a batch's sentence-major rows sit. From the lengths (B,), each
    at least 1, it holds:
    - ``lengths``, ``n`` (the longest) and ``offsets`` (B,), the first row
      of each sentence;
    - ``grid`` (N,): each row's position b * n + t in a padded (B, n) grid;
    - the packed, time-major layout the LSTM and the CRF step over, as in a
      PyTorch ``PackedSequence``: the sentences stably sorted by length,
      descending, ``alive[t]`` of them still running at step t, and step
      t's rows one contiguous run whose row j continues row j of step
      t - 1. ``order`` (B,) is each sentence's place in packed order;
      ``packed`` (N,) the row behind each packed row (``unpack`` puts
      packed rows back); ``rev``
      (N,) the involution mapping each packed row to its sentence's
      position ``length - 1 - t``, the sentence read backwards in the same
      layout; ``prev_rows`` (N - B,) the predecessor of each packed row
      after the first step's B rows."""

    def __init__(self, lengths):
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.ndim != 1 or not lengths.size or lengths.min() < 1:
            raise ValueError("lengths must be a non-empty vector of values >= 1")
        self.lengths = lengths
        self.n = int(lengths.max())
        self.offsets = np.cumsum(lengths) - lengths
        order = np.argsort(-lengths, kind="stable")
        self.order = np.argsort(order)
        sorted_len = lengths[order]
        self.alive = np.count_nonzero(sorted_len > np.arange(self.n)[:, None], axis=1)
        starts = np.cumsum(self.alive) - self.alive
        # packed row r holds position step[r] of sentence order[j[r]]
        step = np.repeat(np.arange(self.n), self.alive)
        j = np.arange(len(step)) - starts[step]
        self.rev = starts[sorted_len[j] - 1 - step] + j
        first = len(lengths)
        self.prev_rows = starts[step[first:] - 1] + j[first:]
        batch = order[j]
        self.packed = self.offsets[batch] + step
        self.grid = np.empty_like(step)
        self.grid[self.packed] = batch * self.n + step

    def unpack(self, packed):
        """The rows (N, ...) of an array of packed rows (N, ...)."""
        rows = np.empty_like(packed)
        rows[self.packed] = packed
        return rows

    def scatter(self, rows):
        """(B, n, ...) zeros holding ``rows`` (N, ...) at their positions."""
        out = np.zeros((len(self.lengths) * self.n,) + rows.shape[1:], dtype=rows.dtype)
        out[self.grid] = rows
        return out.reshape((len(self.lengths), self.n) + rows.shape[1:])

    def gather(self, padded):
        """The rows (N, ...) of a (B, n, ...) grid."""
        return padded.reshape((-1,) + padded.shape[2:])[self.grid]


class EmbeddingTable:
    """Index -> row lookup over a trainable table. Index 0 is the unknown
    slot by convention; callers map out-of-vocabulary items to it."""

    @staticmethod
    def spec(name, rows, dim):
        # an embedding table's fan-in is its width
        return [(name, (rows, dim), dim)]

    def __init__(self, store, name):
        self.name = name
        self.table = store[name]
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

    @staticmethod
    def spec(prefix, n_chars, char_dim, kernel, filters):
        if kernel < 1 or filters < 1:
            raise ValueError("kernel size and filter count must be positive")
        return [*EmbeddingTable.spec(f"{prefix}.chars", n_chars, char_dim),
                (f"{prefix}.w", (kernel * char_dim, filters), kernel * char_dim),
                (f"{prefix}.b", (filters,), 0)]

    def __init__(self, store, prefix):
        self.chars = EmbeddingTable(store, f"{prefix}.chars")
        self.w = store[f"{prefix}.w"]
        self.b = store[f"{prefix}.b"]
        self.char_dim = self.chars.table.shape[1]
        self.kernel = self.w.shape[0] // self.char_dim
        self.filters = self.w.shape[1]
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
    of a packed batch (``RowLayout``), from a zero hidden and cell state.

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
    layout of ``alive`` and ``prev_rows`` (``RowLayout``); ``gates`` is
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


class BiLstm:
    """Stack of bidirectional LSTM layers; each row's output is the
    concatenation of the forward and backward hidden states (N, 2h).

    ``forward`` packs the rows once into the pass's time-major layout
    (``RowLayout.packed``) and unpacks the last layer's output back to
    rows; ``backward`` packs and unpacks the same rows.

    The backward direction reads each sentence reversed within its own
    length: its rows are the packed rows permuted by the involution
    ``RowLayout.rev``. Both directions of a layer run as one stacked
    recurrence: the layer input and its reversal form a (2, N, d) batch
    that one matmul projects against the layer's input weights, and one
    ``lstm_forward`` call steps both. Each layer stores its parameters in
    that stacked layout, forward direction first: ``{prefix}.l{k}.w_x``
    (2, d, 4h), ``.w_h`` (2, h, 4h) and ``.b`` (2, 4h).

    The forward cache holds each layer's input, hidden and cell states,
    tanh(c) and gates; ``backward`` only reads it. An eval-mode pass keeps
    no cache: each layer drops its input once it is projected, and its
    gates before the next layer's input is built, and ``lstm_forward``
    keeps no per-row cell states."""

    @staticmethod
    def spec(prefix, input_dim, hidden, layers):
        if layers < 1:
            raise ValueError("BiLSTM needs at least one layer")
        rows = []
        d = input_dim
        for l in range(layers):
            name = f"{prefix}.l{l}"
            # each direction draws its w_x, then its w_h
            rows += [(f"{name}.w_x", (d, 4 * hidden), d),
                     (f"{name}.w_h", (hidden, 4 * hidden), hidden)] * 2
            rows += [(f"{name}.b", (4 * hidden,), 0)] * 2
            d = 2 * hidden
        return rows

    def __init__(self, store, prefix):
        self.layers = []
        while f"{prefix}.l{len(self.layers)}.w_x" in store:
            name = f"{prefix}.l{len(self.layers)}"
            self.layers.append((name, *(store[f"{name}.{p}"] for p in ("w_x", "w_h", "b"))))
        self._store = store

    def forward(self, x, layout, mode="train"):
        """x: (N, d) rows of ``layout``. Returns the output (N, 2h) and a
        cache, None in eval mode."""
        if len(x) != len(layout.packed):
            raise ValueError(f"lengths must be {len(x)} tokens in all, got {len(layout.packed)}")
        packed = x[layout.packed]
        rev = layout.rev
        train = mode == "train"
        caches = []
        for _, w_x, w_h, b in self.layers:
            xs = np.empty((2,) + packed.shape)
            xs[0] = packed
            xs[1] = packed[rev]
            del packed
            gates = np.matmul(xs, w_x)
            gates += b[:, None]
            if not train:
                del xs
            hs, cs, tanh_cs = lstm_forward(gates, w_h, layout.alive, keep_states=train)
            if train:
                caches.append((xs, hs, cs, tanh_cs, gates))
            del cs, tanh_cs, gates
            packed = np.concatenate([hs[0], hs[1][rev]], axis=1)
            del hs
        return layout.unpack(packed), ((layout, caches) if train else None)

    def backward(self, d_out, cache):
        layout, caches = cache
        h, rev = d_out.shape[1] // 2, layout.rev
        d_packed = d_out[layout.packed]
        for layer, (xs, hs, cs, tanh_cs, gates) in zip(reversed(self.layers), reversed(caches)):
            d_hs = np.empty_like(hs)
            d_hs[0] = d_packed[:, :h]
            d_hs[1] = d_packed[rev, h:]
            d_xs = self._backward_layer(layer, d_hs, xs, hs, cs, tanh_cs, gates, layout.alive,
                                        layout.prev_rows)
            d_packed = d_xs[0]
            d_packed += d_xs[1][rev]
        return layout.unpack(d_packed)

    def _backward_layer(self, layer, d_hs, xs, hs, cs, tanh_cs, gates, alive, prev_rows):
        """Accumulate one layer's parameter gradients; return the gradient
        w.r.t. its stacked input xs (2, N, d). ``tanh_cs`` and ``gates`` are
        the tanh(c) and the post-activation gates its forward pass left."""
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

    @staticmethod
    def spec(prefix, dim):
        return [*((f"{prefix}.{w}", (dim, dim), dim) for w in ("w_q", "w_k", "w_v", "w_o")),
                (f"{prefix}.b_o", (dim,), 0)]

    def __init__(self, store, prefix, heads):
        self.w_q, self.w_k, self.w_v, self.w_o, self.b_o = (
            store[f"{prefix}.{name}"] for name in ("w_q", "w_k", "w_v", "w_o", "b_o"))
        self.dim = len(self.b_o)
        if self.dim % heads != 0:
            raise ValueError(f"model dim {self.dim} not divisible by {heads} heads")
        self.heads = heads
        self.head_dim = self.dim // heads
        self._store = store
        self._prefix = prefix

    def _split(self, rows, layout):
        """(N, dim) rows as a zero-padded (B, heads, n, head_dim) grid."""
        grid = layout.scatter(rows)
        n_batch, n = grid.shape[:2]
        return grid.reshape(n_batch, n, self.heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge(self, grid, layout):
        """The (N, dim) rows of a (B, heads, n, head_dim) grid."""
        n_batch, _, n, _ = grid.shape
        return layout.gather(grid.transpose(0, 2, 1, 3).reshape(n_batch, n, self.dim))

    def forward(self, x, layout):
        """x: (N, dim) rows of ``layout``. Returns the output (N, dim) and a
        cache holding the projections for the backward pass."""
        q, k, v = (self._split(x @ w, layout) for w in (self.w_q, self.w_k, self.w_v))
        scores = q @ k.swapaxes(2, 3)
        scores *= 1.0 / np.sqrt(self.head_dim)
        padded_key = np.arange(layout.n) >= layout.lengths[:, None]
        scores[np.broadcast_to(padded_key[:, None, None, :], scores.shape)] = -np.inf
        attn = softmax_rows(scores)
        context = self._merge(attn @ v, layout)
        y = context @ self.w_o
        y += self.b_o
        return y, (layout, x, q, k, v, attn, context)

    def _project_backward(self, name, w, d_proj, x):
        """Accumulate one projection's weight gradient from its rows'
        gradient ``d_proj`` (N, dim); return its share of the input
        gradient (N, dim)."""
        self._store.accumulate(f"{self._prefix}.w_{name}", x.T @ d_proj)
        return d_proj @ w.T

    def backward(self, d_y, cache):
        layout, x, q, k, v, attn, context = cache
        acc = self._store.accumulate
        acc(f"{self._prefix}.w_o", context.T @ d_y)
        acc(f"{self._prefix}.b_o", d_y.sum(axis=0))
        d_heads = self._split(d_y @ self.w_o.T, layout)
        # softmax backward per row: a * (g - sum(g * a))
        d_scores = d_heads @ v.swapaxes(2, 3)
        d_scores -= np.sum(d_scores * attn, axis=3, keepdims=True)
        d_scores *= attn
        d_scores /= np.sqrt(self.head_dim)
        d_x = self._project_backward("q", self.w_q, self._merge(d_scores @ k, layout), x)
        d_x += self._project_backward(
            "k", self.w_k, self._merge(d_scores.swapaxes(2, 3) @ q, layout), x)
        d_x += self._project_backward(
            "v", self.w_v, self._merge(attn.swapaxes(2, 3) @ d_heads, layout), x)
        return d_x


class Linear:
    """Affine map of rows (N, d_in) -> (N, d_out)."""

    @staticmethod
    def spec(prefix, d_in, d_out):
        return [(f"{prefix}.w", (d_in, d_out), d_in), (f"{prefix}.b", (d_out,), 0)]

    def __init__(self, store, prefix):
        self.w = store[f"{prefix}.w"]
        self.b = store[f"{prefix}.b"]
        self._store = store
        self._prefix = prefix

    def forward(self, x):
        y = x @ self.w
        y += self.b
        return y, x

    def backward(self, d_y, cache):
        x = cache
        self._store.accumulate(f"{self._prefix}.w", x.T @ d_y)
        self._store.accumulate(f"{self._prefix}.b", d_y.sum(axis=0))
        return d_y @ self.w.T


def dropout_apply(x, rate, mode, rng):
    """Inverted dropout on rows x (N, d): in train mode one (N, d) draw
    zeroes each element with probability ``rate`` and scales survivors by
    1/(1-rate). The rows are sentence-major, so the draw gives each
    sentence the bits of its own (length, d) draw in batch order. Identity
    in eval mode. Returns (output, mask); mask is None when nothing was
    dropped."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    if mode != "train" or rate == 0.0:
        return x, None
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * keep, keep
