"""Layer, optimizer, and gradient-checker tests.

Every layer's analytic backward pass is verified against central finite
differences. Layer inputs are registered in the ParamStore alongside the
real parameters so input gradients get checked by the same machinery.
"""

import numpy as np
import pytest

from seqtag.nn import (
    AdamOptimizer,
    BiLstm,
    CharCNN,
    EmbeddingTable,
    GradCheckReport,
    Linear,
    MultiHeadAttention,
    ParamStore,
    RowLayout,
    dropout_apply,
    gradient_check,
    softmax_rows,
)
from seqtag.nn.layers import lstm_backward, lstm_forward
from seqtag.nn.params import uniform_init

from helpers import reference_lstm

# tight tolerance for exactly-linear maps, looser for deep nonlinear chains
# where finite differences hit their truncation/roundoff floor
TOL_LINEAR = 1e-6
TOL = 1e-4


class TestParamStore:
    def test_add_and_lookup(self):
        store = ParamStore()
        arr = store.add("a", np.ones((2, 3)))
        assert arr.dtype == np.float64
        assert "a" in store

    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("a", np.zeros(2))
        with pytest.raises(ValueError):
            store.add("a", np.zeros(2))

    def test_non_finite_rejected(self):
        store = ParamStore()
        with pytest.raises(ValueError):
            store.add("a", np.array([1.0, np.nan]))

    def test_accumulate_and_zero(self):
        store = ParamStore()
        store.add("a", np.zeros(3))
        store.accumulate("a", np.ones(3))
        store.accumulate("a", np.ones(3))
        assert np.array_equal(store.grad("a"), np.full(3, 2.0))
        store.zero_grads()
        assert np.array_equal(store.grad("a"), np.zeros(3))

    def test_snapshot_round_trip(self):
        store = ParamStore()
        a = store.add("a", np.arange(4.0))
        snap = store.copy_values()
        a += 10.0
        store.load_values(snap)
        assert np.array_equal(store["a"], np.arange(4.0))

    def test_load_values_mismatch(self):
        store = ParamStore()
        store.add("a", np.zeros(2))
        with pytest.raises(ValueError):
            store.load_values({"b": np.zeros(2)})
        with pytest.raises(ValueError):
            store.load_values({"a": np.zeros(3)})

    def test_uniform_init_bounds(self):
        rng = np.random.default_rng(0)
        arr = uniform_init(rng, (50, 50), 25)
        assert np.all(np.abs(arr) <= 0.2)
        assert np.abs(arr).max() > 0.15  # actually spread out


class TestSoftmaxRows:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        p = softmax_rows(rng.normal(size=(5, 7)) * 3)
        np.testing.assert_allclose(p.sum(axis=-1), np.ones(5), atol=1e-12)

    def test_stable_at_large_scores(self):
        p = softmax_rows(np.array([[1000.0, 1000.0, 0.0]]))
        np.testing.assert_allclose(p, [[0.5, 0.5, 0.0]], atol=1e-12)


class TestEmbeddingTable:
    def test_lookup_rows(self):
        store = ParamStore.draw(EmbeddingTable.spec("e", 5, 3), np.random.default_rng(2))
        emb = EmbeddingTable(store, "e")
        out, _ = emb.lookup([3, 0, 3])
        assert np.array_equal(out[0], emb.table[3])
        assert np.array_equal(out[1], emb.table[0])
        assert np.array_equal(out[0], out[2])

    def test_out_of_range(self):
        store = ParamStore.draw(EmbeddingTable.spec("e", 5, 3), np.random.default_rng(0))
        emb = EmbeddingTable(store, "e")
        with pytest.raises(ValueError):
            emb.lookup([5])
        with pytest.raises(ValueError):
            emb.lookup([-1])

    def test_repeated_index_gradients_sum(self):
        store = ParamStore.draw(EmbeddingTable.spec("e", 4, 2), np.random.default_rng(0))
        emb = EmbeddingTable(store, "e")
        _, cache = emb.lookup([1, 1, 2])
        d_out = np.array([[1.0, 0.0], [0.5, 2.0], [3.0, 3.0]])
        emb.backward(d_out, cache)
        assert np.array_equal(store.grad("e")[1], [1.5, 2.0])
        assert np.array_equal(store.grad("e")[2], [3.0, 3.0])
        assert np.array_equal(store.grad("e")[0], [0.0, 0.0])

    def test_gradient_check(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            store = ParamStore.draw(EmbeddingTable.spec("e", 6, 3), rng)
            emb = EmbeddingTable(store, "e")
            r = rng.normal(size=(4, 3))
            idx = [0, 5, 2, 5]

            def loss_fn(grad=False):
                out, cache = emb.lookup(idx)
                if grad:
                    emb.backward(r, cache)
                return float(np.sum(out * r))

            assert gradient_check(loss_fn, store).passed(TOL)


class TestLinear:
    def test_forward_values(self):
        store = ParamStore.draw(Linear.spec("lin", 2, 2), np.random.default_rng(0))
        lin = Linear(store, "lin")
        lin.w[...] = np.array([[1.0, 2.0], [3.0, 4.0]])
        lin.b[...] = np.array([10.0, 20.0])
        y, _ = lin.forward(np.array([[1.0, 1.0]]))
        assert np.array_equal(y, [[14.0, 26.0]])

    def test_gradient_check(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            store = ParamStore.draw(Linear.spec("lin", 3, 4), rng)
            lin = Linear(store, "lin")
            store.add("input", rng.normal(size=(5, 3)))
            r = rng.normal(size=(5, 4))

            def loss_fn(grad=False):
                y, cache = lin.forward(store["input"])
                if grad:
                    store.accumulate("input", lin.backward(r, cache))
                return float(np.sum(y * r))

            assert gradient_check(loss_fn, store).passed(TOL_LINEAR)


class TestCharCNN:
    def test_output_shape_and_padding(self):
        store = ParamStore.draw(CharCNN.spec("c", n_chars=10, char_dim=3, kernel=4, filters=5),
                                np.random.default_rng(0))
        cnn = CharCNN(store, "c")
        for word_len in (1, 3, 4, 9):  # shorter than kernel gets zero-padded
            out, _ = cnn.forward([list(range(word_len))], [word_len])
            assert out.shape == (1, 5)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            CharCNN.spec("c", 10, 3, kernel=0, filters=5)

    def test_maxpool_takes_maximum(self):
        store = ParamStore.draw(CharCNN.spec("c", n_chars=4, char_dim=1, kernel=1, filters=1),
                                np.random.default_rng(0))
        cnn = CharCNN(store, "c")
        cnn.chars.table[...] = np.array([[0.0], [1.0], [5.0], [2.0]])
        cnn.w[...] = np.array([[1.0]])
        cnn.b[...] = np.array([0.0])
        out, _ = cnn.forward([[0, 1, 2, 3]], [4])
        assert out[0, 0] == 5.0

    def test_gradient_check(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            store = ParamStore.draw(CharCNN.spec("c", n_chars=8, char_dim=3, kernel=2, filters=4),
                                    rng)
            cnn = CharCNN(store, "c")
            r = rng.normal(size=(1, 4))
            idx = [[1, 7, 3, 3, 0]]

            def loss_fn(grad=False):
                out, cache = cnn.forward(idx, [5])
                if grad:
                    cnn.backward(r, cache)
                return float(np.sum(out * r))

            assert gradient_check(loss_fn, store).passed(TOL)

    def test_gradient_check_short_word(self):
        rng = np.random.default_rng(11)
        store = ParamStore.draw(CharCNN.spec("c", n_chars=8, char_dim=2, kernel=3, filters=3), rng)
        cnn = CharCNN(store, "c")
        r = rng.normal(size=(1, 3))

        def loss_fn(grad=False):
            out, cache = cnn.forward([[4]], [1])  # single char, needs padding
            if grad:
                cnn.backward(r, cache)
            return float(np.sum(out * r))

        assert gradient_check(loss_fn, store).passed(TOL)


class TestBiLstm:
    def test_output_shape(self):
        store = ParamStore.draw(BiLstm.spec("r", input_dim=3, hidden=4, layers=2),
                                np.random.default_rng(0))
        rnn = BiLstm(store, "r")
        out, _ = rnn.forward(np.random.default_rng(1).normal(size=(6, 3)), RowLayout([6]))
        assert out.shape == (6, 8)

    def test_rejects_zero_layers(self):
        with pytest.raises(ValueError):
            BiLstm.spec("r", 3, 4, layers=0)

    def test_backward_direction_sees_reversed_input(self):
        # each half of the output is the textbook recurrence over the
        # sentence read in its direction: forward as is, backward reversed
        # within the sentence's own length
        store = ParamStore.draw(BiLstm.spec("r", input_dim=2, hidden=3, layers=1),
                                np.random.default_rng(0))
        rnn = BiLstm(store, "r")
        rng = np.random.default_rng(1)
        for name in store.names():
            store[name][...] = rng.normal(size=store[name].shape) * 0.5
        lengths = [4, 1, 3]
        x = rng.normal(size=(sum(lengths), 2))
        out, _ = rnn.forward(x, RowLayout(lengths))
        zeros = np.zeros(3)
        for sent, got in zip(np.split(x, np.cumsum(lengths)[:-1]),
                             np.split(out, np.cumsum(lengths)[:-1])):
            for k, half, rows in ((0, slice(0, 3), sent), (1, slice(3, 6), sent[::-1])):
                hs = reference_lstm(rows @ store["r.l0.w_x"][k] + store["r.l0.b"][k],
                                    store["r.l0.w_h"][k], zeros, zeros)[0]
                if k:
                    hs = hs[::-1]
                np.testing.assert_allclose(got[:, half], hs, rtol=0, atol=1e-12,
                                           err_msg=f"direction {k}")

    def test_stacked_weights_keep_the_per_direction_draw_order(self):
        # layer by layer, the forward direction draws w_x then w_h, then
        # the backward direction does the same; biases start at zero
        store = ParamStore.draw(BiLstm.spec("r", input_dim=3, hidden=2, layers=2),
                                np.random.default_rng(4))
        rng = np.random.default_rng(4)
        for layer, d in enumerate((3, 4)):
            for k in range(2):
                w_x = uniform_init(rng, (d, 8), d)
                w_h = uniform_init(rng, (2, 8), 2)
                assert np.array_equal(store[f"r.l{layer}.w_x"][k], w_x)
                assert np.array_equal(store[f"r.l{layer}.w_h"][k], w_h)
            assert np.array_equal(store[f"r.l{layer}.b"], np.zeros((2, 8)))
        assert store.names() == [f"r.l{layer}.{p}" for layer in (0, 1)
                                 for p in ("b", "w_h", "w_x")]

    def test_packed_batch_equals_each_sentence_alone(self):
        # unsorted ragged batches with tied lengths and a length-1 sentence
        # through 2 layers give each sentence's lone outputs, input
        # gradients and (summed) weight gradients
        for seed, lengths in enumerate(([3, 5, 1, 5, 2], [1, 4, 4, 2, 1, 3])):
            rng = np.random.default_rng(seed)
            store = ParamStore.draw(BiLstm.spec("r", input_dim=3, hidden=4, layers=2), rng)
            rnn = BiLstm(store, "r")
            x = rng.normal(size=(sum(lengths), 3))
            d_out = rng.normal(size=(sum(lengths), 8))
            y, cache = rnn.forward(x, RowLayout(lengths))
            d_x = rnn.backward(d_out, cache)
            batch_grads = {name: store.grad(name).copy() for name in store.names()}
            store.zero_grads()
            for start, length in zip(np.cumsum(lengths) - lengths, lengths):
                rows = slice(start, start + length)
                y_b, cache_b = rnn.forward(x[rows], RowLayout([length]))
                d_x_b = rnn.backward(d_out[rows], cache_b)
                np.testing.assert_allclose(y[rows], y_b, rtol=0, atol=1e-12)
                np.testing.assert_allclose(d_x[rows], d_x_b, rtol=0, atol=1e-12)
            for name in store.names():
                np.testing.assert_allclose(batch_grads[name], store.grad(name), rtol=0,
                                           atol=1e-12, err_msg=name)

    def test_one_cache_serves_two_backward_passes(self):
        # backward only reads the forward cache: a second pass from it gives
        # the same input and parameter gradients, bit for bit
        rng = np.random.default_rng(5)
        store = ParamStore.draw(BiLstm.spec("r", input_dim=3, hidden=4, layers=2), rng)
        rnn = BiLstm(store, "r")
        lengths = [3, 5, 1, 5, 2]
        x = rng.normal(size=(sum(lengths), 3))
        d_out = rng.normal(size=(sum(lengths), 8))
        _, cache = rnn.forward(x, RowLayout(lengths))
        passes = []
        for _ in range(2):
            store.zero_grads()
            d_x = rnn.backward(d_out, cache)
            passes.append((d_x, {name: store.grad(name).copy() for name in store.names()}))
        (d_x_1, grads_1), (d_x_2, grads_2) = passes
        assert d_x_1.tobytes() == d_x_2.tobytes()
        for name in store.names():
            assert grads_1[name].tobytes() == grads_2[name].tobytes(), name

    @pytest.mark.parametrize("lengths", [[0, 3], [4, 3], [3], [3, 2, 1], [[3, 2]], []])
    def test_rejects_lengths_that_do_not_fit(self, lengths):
        rnn = BiLstm(ParamStore.draw(BiLstm.spec("r", 2, 3, layers=1), np.random.default_rng(0)),
                     "r")
        with pytest.raises(ValueError, match="lengths must be"):
            rnn.forward(np.zeros((5, 2)), RowLayout(lengths))

    def test_gradient_check_one_layer(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            store = ParamStore.draw(BiLstm.spec("r", input_dim=3, hidden=2, layers=1), rng)
            rnn = BiLstm(store, "r")
            store.add("input", rng.normal(size=(4, 3)))
            r = rng.normal(size=(4, 4))

            def loss_fn(grad=False):
                y, cache = rnn.forward(store["input"], RowLayout([4]))
                if grad:
                    store.accumulate("input", rnn.backward(r, cache))
                return float(np.sum(y * r))

            assert gradient_check(loss_fn, store).passed(TOL)

    def test_gradient_check_stacked(self):
        rng = np.random.default_rng(7)
        store = ParamStore.draw(BiLstm.spec("r", input_dim=2, hidden=2, layers=2), rng)
        rnn = BiLstm(store, "r")
        store.add("input", rng.normal(size=(3, 2)))
        r = rng.normal(size=(3, 4))

        def loss_fn(grad=False):
            y, cache = rnn.forward(store["input"], RowLayout([3]))
            if grad:
                store.accumulate("input", rnn.backward(r, cache))
            return float(np.sum(y * r))

        assert gradient_check(loss_fn, store).passed(TOL)


class TestLstmKernel:
    CASES = [([1], 1), ([1], 4), ([3, 1], 2), ([7, 2, 5], 5), ([12, 12], 8),
             ([3, 5, 3, 1], 3), ([1, 4, 2, 4, 1], 2)]

    @staticmethod
    def stacked_inputs(rng, lengths, h):
        """Both directions' packed inputs, each with its own projections and
        w_h: xw (2, N, 4h), w_h (2, h, 4h)."""
        xw = rng.normal(size=(2, sum(lengths), 4 * h))
        w_h = rng.normal(size=(2, h, 4 * h)) * 0.5
        return xw, w_h

    def test_packed_layout(self):
        for lengths, _ in self.CASES:
            layout = RowLayout(lengths)
            batch, step = divmod(layout.grid[layout.packed], layout.n)
            alive, rev, prev_rows = layout.alive, layout.rev, layout.prev_rows
            n_batch = len(lengths)
            # every real position appears once, time-major, and each step's
            # rows continue the leading rows of the step before
            assert sorted(zip(batch.tolist(), step.tolist())) == [
                (b, t) for b, n in enumerate(lengths) for t in range(n)]
            assert np.array_equal(np.repeat(np.arange(len(alive)), alive), step)
            assert alive[0] == n_batch and np.all(np.diff(alive) <= 0)
            assert np.array_equal(batch[prev_rows], batch[n_batch:])
            assert np.array_equal(step[prev_rows], step[n_batch:] - 1)
            # rev reads each sentence backwards and is its own inverse
            assert np.array_equal(batch[rev], batch)
            assert np.array_equal(step[rev], np.asarray(lengths)[batch] - 1 - step)
            assert np.array_equal(rev[rev], np.arange(len(rev)))

    def test_forward_matches_textbook_reference(self):
        # each sentence of each direction of a packed batch matches the
        # per-sentence oracle over its own rows, the gates lstm_forward
        # leaves in xw included
        rng = np.random.default_rng(0)
        for lengths, h in self.CASES:
            layout = RowLayout(lengths)
            batch, _ = divmod(layout.grid[layout.packed], layout.n)
            alive = layout.alive
            xw, w_h = self.stacked_inputs(rng, lengths, h)
            gates = xw.copy()
            hs, cs, tanh_cs = lstm_forward(gates, w_h, alive)
            zero = np.zeros(h)
            for d in range(2):
                for b in range(len(lengths)):
                    rows = np.flatnonzero(batch == b)
                    got = (hs[d, rows], cs[d, rows], tanh_cs[d, rows], gates[d, rows])
                    want = reference_lstm(xw[d, rows], w_h[d], zero, zero)
                    for name, a, ref in zip(("hs", "cs", "tanh_cs", "gates"), got, want):
                        assert a.shape == ref.shape, name
                        np.testing.assert_allclose(a, ref, rtol=0, atol=1e-12,
                                                   err_msg=f"{name} direction {d}")

    def test_without_kept_states_the_same_hidden_bits(self):
        # an eval pass keeps neither the gates nor the per-row cell states,
        # and its input projections are left as they came
        rng = np.random.default_rng(2)
        for lengths, h in self.CASES:
            alive = RowLayout(lengths).alive
            xw, w_h = self.stacked_inputs(rng, lengths, h)
            hs, _, _ = lstm_forward(xw.copy(), w_h, alive)
            scratch = xw.copy()
            hs_eval, cs, tanh_cs = lstm_forward(scratch, w_h, alive, keep_states=False)
            assert cs is None and tanh_cs is None
            assert np.array_equal(hs_eval, hs) and np.array_equal(scratch, xw)

    def test_stacking_changes_no_bits(self):
        # a direction run in the stack gives exactly the values it gives
        # run alone, forward (gates included) and backward
        rng = np.random.default_rng(1)
        for lengths, h in self.CASES:
            layout = RowLayout(lengths)
            alive, prev_rows = layout.alive, layout.prev_rows
            xw, w_h = self.stacked_inputs(rng, lengths, h)
            d_hs = rng.normal(size=xw.shape[:2] + (h,))
            gates = xw.copy()
            hs, cs, tanh_cs = lstm_forward(gates, w_h, alive)
            both = lstm_backward(d_hs, hs, cs, tanh_cs.copy(), gates.copy(), w_h,
                                 alive, prev_rows)
            for d in range(2):
                one = slice(d, d + 1)
                gates_d = xw[one].copy()
                hs_d, cs_d, tanh_cs_d = lstm_forward(gates_d, w_h[one], alive)
                assert np.array_equal(hs_d[0], hs[d]) and np.array_equal(cs_d[0], cs[d])
                assert np.array_equal(tanh_cs_d[0], tanh_cs[d])
                assert np.array_equal(gates_d[0], gates[d])
                alone = lstm_backward(d_hs[one], hs_d, cs_d, tanh_cs_d, gates_d, w_h[one],
                                      alive, prev_rows)
                for name, a, ref in zip(("d_xw", "d_wh"), alone, both):
                    assert np.array_equal(a[0], ref[d]), f"{name} direction {d}"

    def test_backward_writes_none_of_its_inputs(self):
        # every array argument read-only: the call runs and gives the bits
        # of a call on writable copies
        rng = np.random.default_rng(3)
        for lengths, h in self.CASES:
            layout = RowLayout(lengths)
            xw, w_h = self.stacked_inputs(rng, lengths, h)
            hs, cs, tanh_cs = lstm_forward(xw, w_h, layout.alive)
            d_hs = rng.normal(size=hs.shape)
            args = [d_hs, hs, cs, tanh_cs, xw, w_h, layout.alive, layout.prev_rows]
            want = lstm_backward(*[a.copy() for a in args])
            for a in args:
                a.flags.writeable = False
            got = lstm_backward(*args)
            for name, a, ref in zip(("d_xw", "d_wh"), got, want):
                assert a.shape == ref.shape and a.tobytes() == ref.tobytes(), name


class TestMultiHeadAttention:
    def test_output_shape(self):
        store = ParamStore.draw(MultiHeadAttention.spec("a", dim=6), np.random.default_rng(0))
        mha = MultiHeadAttention(store, "a", heads=3)
        y, _ = mha.forward(np.random.default_rng(1).normal(size=(4, 6)), RowLayout([4]))
        assert y.shape == (4, 6)

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(ParamStore.draw(MultiHeadAttention.spec("a", dim=6),
                                               np.random.default_rng(0)), "a", heads=4)

    def test_attention_rows_are_distributions(self):
        rng = np.random.default_rng(3)
        store = ParamStore.draw(MultiHeadAttention.spec("a", dim=4), rng)
        mha = MultiHeadAttention(store, "a", heads=2)
        _, (*_, attn, _) = mha.forward(rng.normal(size=(5, 4)), RowLayout([5]))
        assert attn.shape == (1, 2, 5, 5)
        np.testing.assert_allclose(attn.sum(axis=3), np.ones((1, 2, 5)), atol=1e-12)

    def test_gradient_check(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            store = ParamStore.draw(MultiHeadAttention.spec("a", dim=4), rng)
            mha = MultiHeadAttention(store, "a", heads=2)
            store.add("input", rng.normal(size=(3, 4)))
            r = rng.normal(size=(3, 4))

            def loss_fn(grad=False):
                y, cache = mha.forward(store["input"], RowLayout([3]))
                if grad:
                    store.accumulate("input", mha.backward(r, cache))
                return float(np.sum(y * r))

            assert gradient_check(loss_fn, store).passed(TOL)


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = np.random.default_rng(0).normal(size=(10, 10))
        y, mask = dropout_apply(x, 0.5, "eval", np.random.default_rng(1))
        assert y is x
        assert mask is None

    def test_zero_rate_is_identity(self):
        x = np.ones((3, 3))
        y, mask = dropout_apply(x, 0.0, "train", np.random.default_rng(1))
        assert y is x
        assert mask is None

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            dropout_apply(np.ones((2, 1)), 1.0, "train", np.random.default_rng(0))
        with pytest.raises(ValueError):
            dropout_apply(np.ones((2, 1)), -0.1, "eval", np.random.default_rng(0))

    def test_zero_rate_statistics(self):
        x = np.ones((100, 100))
        y, _ = dropout_apply(x, 0.5, "train", np.random.default_rng(42))
        zero_rate = np.mean(y == 0.0)
        assert abs(zero_rate - 0.5) < 0.02
        # survivors are scaled by exactly 1/(1-rate)
        assert np.all(y[y != 0.0] == 2.0)

    def test_backward_routes_through_mask(self):
        # the output is linear in the input with the mask as its slope, so
        # the gradient of the output is d_y * mask
        x = np.random.default_rng(5).normal(size=(7, 2))
        y, mask = dropout_apply(x, 0.3, "train", np.random.default_rng(6))
        assert np.array_equal(y, x * mask)
        assert set(np.unique(mask)) <= {0.0, 1.0 / 0.7}

    @pytest.mark.parametrize("lengths", [[1], [4, 1, 2], [3, 3, 9, 1, 5]])
    def test_one_draw_equals_per_sentence_draws(self, lengths):
        # one (N, d) draw over sentence-major rows gives each sentence the
        # bits of its own (length, d) draw, taken in batch order
        x = np.random.default_rng(len(lengths)).normal(size=(sum(lengths), 6))
        y, mask = dropout_apply(x, 0.3, "train", np.random.default_rng(11))
        stream = np.random.default_rng(11)
        want = np.concatenate([(stream.random((n, 6)) >= 0.3) / 0.7 for n in lengths])
        assert np.array_equal(mask, want)
        assert np.array_equal(y, x * want)


class TestAdamOptimizer:
    def test_validates_hyperparameters(self):
        store = ParamStore()
        store.add("w", np.zeros(2))
        with pytest.raises(ValueError):
            AdamOptimizer(store, learning_rate=0.0)
        with pytest.raises(ValueError):
            AdamOptimizer(store, learning_rate=0.1, weight_decay=-1.0)

    def test_zero_gradient_leaves_params_unchanged(self):
        store = ParamStore()
        store.add("w", np.full(3, 2.5))
        opt = AdamOptimizer(store, learning_rate=0.1)
        opt.step()
        assert np.array_equal(store["w"], np.full(3, 2.5))

    def test_weight_decay_shrinks_without_gradient(self):
        store = ParamStore()
        store.add("w", np.full(3, 2.0))
        opt = AdamOptimizer(store, learning_rate=0.1, weight_decay=0.5)
        opt.step()
        np.testing.assert_allclose(store["w"], np.full(3, 2.0 - 0.1 * 0.5 * 2.0))

    def test_step_zeroes_gradients(self):
        store = ParamStore()
        store.add("w", np.ones(2))
        store.accumulate("w", np.ones(2))
        AdamOptimizer(store, learning_rate=0.01).step()
        assert np.array_equal(store.grad("w"), np.zeros(2))

    def test_first_step_magnitude_is_learning_rate(self):
        # with bias correction the first update is lr * sign(g)
        store = ParamStore()
        store.add("w", np.array([1.0, -1.0]))
        store.accumulate("w", np.array([3.0, -0.2]))
        AdamOptimizer(store, learning_rate=0.05).step()
        np.testing.assert_allclose(store["w"], [0.95, -0.95], atol=1e-6)

    def test_quadratic_converges_to_closed_form_minimizer(self):
        # f(w) = 0.5 * sum(a * (w - t)^2) has unique minimizer w = t
        a = np.array([1.0, 3.0])
        target = np.array([1.5, -0.7])
        store = ParamStore()
        store.add("w", np.zeros(2))
        opt = AdamOptimizer(store, learning_rate=0.05)
        for _ in range(500):
            store.accumulate("w", a * (store["w"] - target))
            opt.step()
        np.testing.assert_allclose(store["w"], target, atol=1e-3)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_steps_are_bit_identical_to_the_textbook_expressions(self, weight_decay):
        rng = np.random.default_rng(4)
        shapes = {"a": (3, 4), "b": (5,), "c": (2, 3, 2)}
        store = ParamStore()
        for name, shape in shapes.items():
            store.add(name, rng.normal(size=shape))
        opt = AdamOptimizer(store, learning_rate=0.01, weight_decay=weight_decay)
        p = {name: store[name].copy() for name in shapes}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        for t in range(1, 51):
            grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
            for name, g in grads.items():
                store.accumulate(name, g)
                m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
                v[name] = 0.999 * v[name] + (1.0 - 0.999) * g * g
                update = (m[name] / (1.0 - 0.9 ** t)) / (
                    np.sqrt(v[name] / (1.0 - 0.999 ** t)) + 1e-8)
                if weight_decay:
                    update = update + weight_decay * p[name]
                p[name] = p[name] - 0.01 * update
            opt.step()
            for name in shapes:
                assert np.array_equal(store[name], p[name])

    def test_decay_is_decoupled_from_adaptive_scaling(self):
        # decay term must be lr * wd * p, not normalized by sqrt(v)
        store = ParamStore()
        store.add("w", np.array([10.0]))
        opt = AdamOptimizer(store, learning_rate=0.1, weight_decay=0.01)
        store.accumulate("w", np.array([1e-12]))  # negligible gradient
        opt.step()
        expected = 10.0 - 0.1 * (1e-12 / (1e-12 + 1e-8) + 0.01 * 10.0)
        np.testing.assert_allclose(store["w"], [expected], atol=1e-6)


class TestGradientChecker:
    def test_detects_corrupted_gradient(self):
        rng = np.random.default_rng(0)
        store = ParamStore.draw(Linear.spec("lin", 3, 3), rng)
        lin = Linear(store, "lin")
        x = rng.normal(size=(4, 3))
        r = rng.normal(size=(4, 3))

        def loss_fn(grad=False):
            y, cache = lin.forward(x)
            if grad:
                lin.backward(r * 1.1, cache)  # 10% too large
            return float(np.sum(y * r))

        report = gradient_check(loss_fn, store)
        assert not report.passed(1e-4)
        assert report.max_rel_err > 0.05
        assert max(report.per_param_bound.values()) > 1.0

    def test_bound_allows_for_the_loss_roundoff(self):
        # the gradient is far below the roundoff of a loss near 1e4: the
        # central difference reads 0, a relative error of 1 that is noise
        store = ParamStore()
        w = store.add("w", np.ones(1))

        def loss_fn(grad=False):
            if grad:
                store.accumulate("w", np.array([1e-9]))
            return 1e4 + 1e-9 * float(w[0])

        report = gradient_check(loss_fn, store)
        assert not report.passed(1e-3)
        assert report.per_param_bound["w"] < 0.01

    @pytest.mark.parametrize("bad_grad", [False, True])
    def test_non_finite_gradient_fails(self, bad_grad):
        # a NaN gradient, numeric (the loss is NaN off the stored value)
        # or analytic, must fail both measures rather than read 0
        store = ParamStore()
        w = store.add("w", np.ones(1))

        def loss_fn(grad=False):
            if grad:
                store.accumulate("w", np.array([np.nan if bad_grad else 0.0]))
            return 1.0 if bad_grad or w[0] == 1.0 else float("nan")

        report = gradient_check(loss_fn, store)
        assert not report.passed(1e-3)
        assert report.per_param_bound["w"] > 1.0

    def test_rejects_non_finite_loss(self):
        store = ParamStore()
        store.add("w", np.ones(1))
        with pytest.raises(ValueError):
            gradient_check(lambda grad=False: float("nan"), store)

    def test_report_rendering(self):
        report = GradCheckReport({"a.w": 1e-7, "a.b": 2e-9}, {})
        text = report.render()
        assert "a.w" in text and "max" in text
        assert report.max_rel_err == 1e-7
        assert report.passed(1e-6)
        assert not report.passed(1e-8)
