import math

import numpy as np
import pytest

from seqtag import crf
from seqtag.corpus import TagSet
from seqtag.crf import (
    Transitions,
    bio_constraint_penalty,
    crf_marginals,
    crf_nll_grad,
    log_partition,
    path_score,
    viterbi,
)
from seqtag.nn import RowLayout

from helpers import (
    enumerate_crf,
    reference_crf_alphas,
    reference_crf_betas,
    reference_viterbi_decode,
)


def random_instance(rng, n=None, n_tags=None, scale=1.0):
    n = n if n is not None else int(rng.integers(1, 5))
    n_tags = n_tags if n_tags is not None else int(rng.integers(1, 5))
    emis = rng.normal(scale=scale, size=(n, n_tags))
    trans = Transitions(
        rng.normal(scale=scale, size=(n_tags, n_tags)),
        rng.normal(scale=scale, size=n_tags),
        rng.normal(scale=scale, size=n_tags),
    )
    return emis, trans


def one(emis):
    """The layout of ``emis`` (n, T) as a batch of one sentence."""
    return RowLayout([len(emis)])


class TestLogPartition:
    def test_uniform_two_by_two(self):
        emis = np.zeros((2, 2))
        trans = Transitions.zeros(2)
        assert log_partition(emis, trans, one(emis))[0] == pytest.approx(math.log(4.0),
                                                                         abs=1e-12)

    def test_single_position_closed_form(self):
        emis = np.array([[0.3, -1.2, 2.0]])
        trans = Transitions.zeros(3)
        expected = math.log(sum(math.exp(v) for v in emis[0]))
        assert log_partition(emis, trans, one(emis))[0] == pytest.approx(expected, abs=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            emis, trans = random_instance(rng)
            expected, _, _, _, _ = enumerate_crf(emis, trans.matrix, trans.start, trans.end)
            got = log_partition(emis, trans, one(emis))[0]
            assert got == pytest.approx(expected, abs=1e-10)

    def test_emission_shift_invariance(self):
        rng = np.random.default_rng(5)
        emis, trans = random_instance(rng, n=4, n_tags=3)
        base = log_partition(emis, trans, one(emis))[0]
        shifted = emis.copy()
        shifted[2] += 7.5
        assert log_partition(shifted, trans, one(emis))[0] == pytest.approx(base + 7.5, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            log_partition(np.zeros((2, 3)), Transitions.zeros(2), RowLayout([2]))
        with pytest.raises(ValueError, match=r"^transition matrix must be square, got \(2, 3\)$"):
            Transitions(np.zeros((2, 3)), np.zeros(2), np.zeros(2))
        for start, end in ((np.zeros(3), np.zeros(2)), (np.zeros(2), np.zeros((2, 1)))):
            with pytest.raises(ValueError, match="^start/end score lengths must match the tag"):
                Transitions(np.zeros((2, 2)), start, end)

    def test_stable_for_large_scores(self):
        emis = np.full((5, 3), 1e3)
        trans = Transitions.zeros(3)
        (value,) = log_partition(emis, trans, one(emis))
        assert np.isfinite(value)
        assert value == pytest.approx(5e3 + 5 * math.log(3), rel=1e-12)


class TestViterbi:
    def test_zero_transitions_is_positionwise_argmax(self):
        rng = np.random.default_rng(0)
        emis = rng.normal(size=(6, 4))
        trans = Transitions.zeros(4)
        path, _ = viterbi(emis, trans, one(emis))
        assert path.tolist() == list(np.argmax(emis, axis=1))
        assert path.dtype == np.int64

    def test_single_position(self):
        emis = np.array([[0.1, 0.9, -2.0]])
        trans = Transitions(np.zeros((3, 3)), np.array([0.0, 0.0, 3.5]), np.zeros(3))
        path, (score,) = viterbi(emis, trans, one(emis))
        assert path.tolist() == [2]
        assert score == pytest.approx(3.5 - 2.0)

    def test_score_is_path_score(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            emis, trans = random_instance(rng)
            path, (score,) = viterbi(emis, trans, one(emis))
            (expected,) = path_score(emis, trans, path, one(emis))
            assert score == pytest.approx(expected, abs=1e-10)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            emis, trans = random_instance(rng)
            _, _, best_score, _, _ = enumerate_crf(emis, trans.matrix, trans.start, trans.end)
            _, (score,) = viterbi(emis, trans, one(emis))
            assert score == pytest.approx(best_score, abs=1e-10)

    def test_ties_break_toward_lower_index(self):
        emis = np.zeros((3, 3))
        trans = Transitions.zeros(3)
        path, _ = viterbi(emis, trans, one(emis))
        assert path.tolist() == [0, 0, 0]

    def test_ties_break_toward_lower_index_in_a_packed_batch(self):
        layout = RowLayout([3, 7, 1, 5])
        emis = np.zeros((16, 4))
        path, scores = viterbi(emis, Transitions.zeros(4), layout)
        assert path.tolist() == [0] * 16
        assert scores.tolist() == [0.0] * 4

    @pytest.mark.parametrize("order", ["transposed view", "fortran copy"])
    def test_non_contiguous_transitions(self, order):
        rng = np.random.default_rng(3)
        layout = RowLayout([4, 9, 2])
        emis, trans = random_instance(rng, n=15, n_tags=5)
        matrix = (np.ascontiguousarray(trans.matrix.T).T if order == "transposed view"
                  else np.asfortranarray(trans.matrix))
        assert not matrix.flags.c_contiguous
        path, scores = viterbi(emis, Transitions(matrix, trans.start, trans.end), layout)
        expected_path, expected_scores = viterbi(emis, trans, layout)
        assert np.array_equal(path, expected_path)
        assert scores.tobytes() == expected_scores.tobytes()

    def test_matches_the_take_along_axis_reference_bit_for_bit(self):
        # random packed batches: mixed lengths, and every fifth batch all
        # of length 1; scales up to 50; a quarter with -1e4 penalties and a
        # quarter with integer scores, where ties are frequent. The last 60
        # batches hold from just under one to just over three Viterbi blocks
        # of sentences, whose sentences finish at different steps
        rng = np.random.default_rng(4)
        block = crf._VITERBI_BLOCK
        for case in range(460):
            n_tags = (2, 9, 37)[case % 3]
            n_sent = int(rng.integers(1, 10) if case < 400 else
                         rng.integers(block - 1, 3 * block + 2))
            lengths = (np.ones(n_sent, dtype=int) if case % 5 == 0
                       else rng.integers(1, 15, size=n_sent))
            layout = RowLayout(lengths)
            scale = rng.uniform(0.1, 50.0)
            emis, trans = random_instance(rng, n=int(lengths.sum()), n_tags=n_tags,
                                          scale=scale)
            if case % 4 == 1:
                # rounded from unit scale: a few distinct values, so many ties
                emis = np.round(emis / scale)
                trans = Transitions(*(np.round(a / scale)
                                      for a in (trans.matrix, trans.start, trans.end)))
            elif case % 4 == 2:
                trans = trans.penalized(
                    np.where(rng.random((n_tags, n_tags)) < 0.3, crf.CONSTRAINT_PENALTY, 0.0),
                    np.where(rng.random(n_tags) < 0.3, crf.CONSTRAINT_PENALTY, 0.0))
            args = (emis[layout.packed], trans.matrix, trans.start, trans.end, layout.alive)
            path, scores = crf.viterbi_decode(*args)
            expected_path, expected_scores = reference_viterbi_decode(*args)
            assert np.array_equal(path, expected_path), case
            assert scores.tobytes() == expected_scores.tobytes(), case


class TestMarginals:
    def test_uniform_symmetry(self):
        emis = np.zeros((3, 2))
        trans = Transitions.zeros(2)
        np.testing.assert_allclose(crf_marginals(emis, trans, one(emis)), 0.5, atol=1e-12)

    def test_single_position_softmax(self):
        rng = np.random.default_rng(3)
        emis = rng.normal(size=(1, 4))
        trans = Transitions(np.zeros((4, 4)), rng.normal(size=4), rng.normal(size=4))
        scores = emis[0] + trans.start + trans.end
        expected = np.exp(scores - scores.max())
        expected /= expected.sum()
        np.testing.assert_allclose(crf_marginals(emis, trans, one(emis))[0], expected,
                                   atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            emis, trans = random_instance(rng)
            m = crf_marginals(emis, trans, one(emis))
            np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            emis, trans = random_instance(rng)
            _, _, _, expected, _ = enumerate_crf(emis, trans.matrix, trans.start, trans.end)
            got = crf_marginals(emis, trans, one(emis))
            np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_ragged_batch_is_the_textbook_formula_bit_for_bit(self):
        # exp(alphas + betas - log Z) at every row, the same bits as the
        # formula written out with its temporaries
        rng = np.random.default_rng(7)
        trans = Transitions(*(rng.normal(size=s) for s in [(4, 4), 4, 4]))
        emis = rng.normal(size=(3, 6, 4))
        lengths = np.array([6, 1, 4])
        layout = RowLayout(lengths)
        rows = layout.gather(emis)
        _, packed, sums = crf._chains(rows, trans, layout, 2)
        alphas, betas = layout.unpack(sums[0] + packed), layout.unpack(sums[1][layout.rev])
        final = alphas[layout.offsets + lengths - 1] + trans.end
        mx = final.max(axis=1)
        log_z = mx + np.log(np.sum(np.exp(final - mx[:, None]), axis=1))
        want = np.exp(alphas + betas - np.repeat(log_z, lengths)[:, None])
        np.testing.assert_array_equal(crf_marginals(rows, trans, layout), want)

    def test_invariant_under_emission_shift(self):
        rng = np.random.default_rng(6)
        emis, trans = random_instance(rng, n=4, n_tags=3)
        base = crf_marginals(emis, trans, one(emis))
        shifted = emis.copy()
        shifted[1] += -3.3
        np.testing.assert_allclose(crf_marginals(shifted, trans, one(emis)), base, atol=1e-9)


class TestNllGrad:
    def test_loss_is_log_partition_minus_path_score_bit_for_bit(self, monkeypatch):
        # the tagger's loss-only path runs the forward chain alone, the
        # gradient's runs both: for a ragged batch, a batch of one, and wide
        # BIO-penalized batches whose backward chain takes the exact-column
        # path
        oracle = TestKernelsAgainstLogSpaceOracle()
        per_chain = oracle.count_exact_rows_per_chain(monkeypatch)
        rng = np.random.default_rng(12)
        trans = Transitions(*(rng.normal(size=s) for s in [(4, 4), 4, 4]))
        batches = []
        for lengths in ([6, 1, 4], [6]):
            emis = rng.normal(size=(sum(lengths), 4))
            gold = rng.integers(0, 4, size=sum(lengths))
            batches.append((emis, trans, gold, RowLayout(lengths)))
        for scale in (300.0, 3000.0):
            wide = np.random.default_rng(int(scale))
            emis, penalized, lengths = oracle.ragged_batch(wide, scale, True)
            layout = RowLayout(lengths)
            gold = wide.integers(0, penalized.n_tags, size=len(layout.packed))
            batches.append((layout.gather(emis), penalized, gold, layout))
        for emis, trans, gold, layout in batches:
            np.testing.assert_array_equal(
                crf_nll_grad(emis, trans, gold, layout)[0],
                log_partition(emis, trans, layout) - path_score(emis, trans, gold, layout))
        assert per_chain[1] > 0

    def test_row_count_disagreeing_with_the_layout(self):
        emis, trans, layout = np.zeros((3, 2)), Transitions.zeros(2), RowLayout([2])
        gold = np.zeros(3, dtype=np.int64)
        for call in (lambda: log_partition(emis, trans, layout),
                     lambda: viterbi(emis, trans, layout),
                     lambda: crf_marginals(emis, trans, layout),
                     lambda: path_score(emis, trans, gold[:2], layout),
                     lambda: crf_nll_grad(emis, trans, gold, layout)):
            with pytest.raises(ValueError, match="rows"):
                call()

    def test_peaked_emissions_near_zero_loss(self):
        n, n_tags = 4, 3
        gold = [0, 2, 1, 1]
        emis = np.full((n, n_tags), -100.0)
        emis[np.arange(n), gold] = 100.0
        (loss,), *_ = crf_nll_grad(emis, Transitions.zeros(n_tags), gold, one(emis))
        assert 0.0 <= loss < 1e-6

    def test_uniform_loss_log4(self):
        (loss,), *_ = crf_nll_grad(np.zeros((2, 2)), Transitions.zeros(2), [0, 1], RowLayout([2]))
        assert loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_gold_probability_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            emis, trans = random_instance(rng)
            n, n_tags = emis.shape
            gold = rng.integers(0, n_tags, size=n)
            (loss,), *_ = crf_nll_grad(emis, trans, gold, one(emis))
            p = math.exp(-loss)
            assert 0.0 < p <= 1.0 + 1e-12
            log_z, *_ = enumerate_crf(emis, trans.matrix, trans.start, trans.end)
            expected = math.exp(path_score(emis, trans, gold, one(emis))[0] - log_z)
            assert p == pytest.approx(expected, abs=1e-10)

    def test_emission_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            emis, trans = random_instance(rng)
            n, n_tags = emis.shape
            gold = rng.integers(0, n_tags, size=n)
            _, d_emis, _, _, _ = crf_nll_grad(emis, trans, gold, one(emis))
            np.testing.assert_allclose(d_emis.sum(axis=1), 0.0, atol=1e-9)

    def test_transition_gradient_matches_enumeration(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            emis, trans = random_instance(rng)
            n, n_tags = emis.shape
            gold = rng.integers(0, n_tags, size=n)
            _, d_emis, d_matrix, d_start, d_end = crf_nll_grad(emis, trans, gold, one(emis))
            _, _, _, marg, pairs = enumerate_crf(emis, trans.matrix, trans.start, trans.end)
            gold_pairs = np.zeros_like(trans.matrix)
            for a, b in zip(gold[:-1], gold[1:]):
                gold_pairs[a, b] += 1.0
            np.testing.assert_allclose(d_matrix, pairs - gold_pairs, atol=1e-9)
            onehot = np.zeros_like(emis)
            onehot[np.arange(n), gold] = 1.0
            np.testing.assert_allclose(d_emis, marg - onehot, atol=1e-9)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        emis, trans = random_instance(rng, n=3, n_tags=3)
        gold = np.array([1, 0, 2])
        loss, d_emis, d_matrix, d_start, d_end = crf_nll_grad(emis, trans, gold, one(emis))
        step = 1e-6

        def loss_at(e, m, s, z):
            return crf_nll_grad(e, Transitions(m, s, z), gold, one(e))[0][0]

        for target, grad in (("emis", d_emis), ("matrix", d_matrix),
                             ("start", d_start), ("end", d_end)):
            arrays = {"emis": emis.copy(), "matrix": trans.matrix.copy(),
                      "start": trans.start.copy(), "end": trans.end.copy()}
            arr = arrays[target]
            flat = arr.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                lp = loss_at(arrays["emis"], arrays["matrix"], arrays["start"], arrays["end"])
                flat[idx] = orig - step
                lm = loss_at(arrays["emis"], arrays["matrix"], arrays["start"], arrays["end"])
                flat[idx] = orig
                numeric = (lp - lm) / (2 * step)
                analytic = grad.ravel()[idx]
                assert abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8) < 1e-6

    def test_out_of_range_gold(self):
        with pytest.raises(ValueError, match="range"):
            crf_nll_grad(np.zeros((2, 2)), Transitions.zeros(2), [0, 5], RowLayout([2]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            crf_nll_grad(np.zeros((2, 2)), Transitions.zeros(2), [0], RowLayout([2]))


class TestBioConstraints:
    def test_forbidden_transitions_penalized(self):
        tagset = TagSet(["PER", "LOC"])
        matrix, start = bio_constraint_penalty(tagset)
        idx = tagset.index
        assert matrix[idx("O"), idx("I-PER")] == -1e4
        assert matrix[idx("B-LOC"), idx("I-PER")] == -1e4
        assert matrix[idx("B-PER"), idx("I-PER")] == 0.0
        assert matrix[idx("I-PER"), idx("I-PER")] == 0.0
        assert start[idx("I-LOC")] == -1e4
        assert start[idx("B-LOC")] == 0.0

    def test_constrained_viterbi_never_emits_orphan_inside(self):
        rng = np.random.default_rng(11)
        tagset = TagSet(["PER"])
        matrix_pen, start_pen = bio_constraint_penalty(tagset)
        for _ in range(50):
            emis = rng.normal(scale=3.0, size=(5, len(tagset)))
            trans = Transitions.zeros(len(tagset)).penalized(matrix_pen, start_pen)
            path, _ = viterbi(emis, trans, one(emis))
            labels = [tagset.labels[i] for i in path.tolist()]
            from seqtag.corpus import validate_bio

            assert validate_bio(labels) == []

    def test_penalties_follow_the_repair_rule(self):
        # the CRF's copy of the BIO continuation rule forbids exactly the
        # transitions, and the starts, that repair_bio rewrites
        from seqtag.corpus import repair_bio

        tagset = TagSet(["LOC", "ORG", "PER"])
        matrix, start = bio_constraint_penalty(tagset)
        labels = tagset.labels
        for j, label in enumerate(labels):
            assert (start[j] != 0) == (repair_bio([label]) != [label]), label
            for i, prev in enumerate(labels):
                assert (matrix[i, j] != 0) == (repair_bio([prev, label])[1] != label), \
                    (prev, label)


def oracle_log_z_marginals(emis, trans, lengths):
    """log Z (B,) and marginals (B, n, T) from the log-space oracle
    recursions in ``helpers``."""
    alphas = reference_crf_alphas(emis, trans.matrix, trans.start)
    betas = reference_crf_betas(emis, trans.matrix, trans.end, lengths)
    rows = np.arange(len(lengths))
    final = alphas[rows, lengths - 1] + trans.end
    mx = final.max(axis=1)
    log_z = mx + np.log(np.exp(final - mx[:, None]).sum(axis=1))
    real = np.arange(emis.shape[1])[None, :] < lengths[:, None]
    log_p = np.where(real[:, :, None], alphas + betas - log_z[:, None, None], -np.inf)
    return log_z, np.exp(log_p)


@pytest.mark.filterwarnings("error")
class TestKernelsAgainstLogSpaceOracle:
    """``crf._chains`` (shifted-probability matmuls) against the plain
    log-sum-exp recursions, on ragged batches."""

    TAGSET = TagSet(["PER", "LOC", "ORG"])

    def ragged_batch(self, rng, scale, penalized):
        n_tags = len(self.TAGSET)
        lengths = rng.integers(1, 13, size=9)
        lengths[0] = 12
        emis = rng.normal(scale=scale, size=(9, 12, n_tags))
        trans = Transitions(rng.normal(size=(n_tags, n_tags)),
                            rng.normal(size=n_tags), rng.normal(size=n_tags))
        if penalized:
            trans = trans.penalized(*bio_constraint_penalty(self.TAGSET))
        return emis, trans, lengths

    def check(self, emis, trans, lengths):
        log_z, marginals = oracle_log_z_marginals(emis, trans, lengths)
        layout = RowLayout(lengths)
        rows = layout.gather(emis)
        np.testing.assert_allclose(log_partition(rows, trans, layout), log_z,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(crf_marginals(rows, trans, layout),
                                   layout.gather(marginals), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("penalized", [False, True])
    def test_unit_scale(self, penalized):
        rng = np.random.default_rng(21 + penalized)
        for _ in range(20):
            self.check(*self.ragged_batch(rng, 1.0, penalized))

    def count_exact_rows(self, monkeypatch):
        """List that grows by the number of exactly recomputed entries on
        every call of ``_step``'s exact-column path; the ``_lse_rows``
        calls that compute log Z are not counted."""
        exact_rows, stepping = [], []
        lse_rows, step = crf._lse_rows, crf._step

        def counting(s):
            if stepping:
                exact_rows.append(len(s))
            return lse_rows(s)

        def marking(*args):
            stepping.append(True)
            try:
                return step(*args)
            finally:
                stepping.pop()

        monkeypatch.setattr(crf, "_lse_rows", counting)
        monkeypatch.setattr(crf, "_step", marking)
        return exact_rows

    def count_exact_rows_per_chain(self, monkeypatch):
        """[forward, backward] numbers of exactly recomputed entries: every
        ``_step`` call also runs each of its chains alone and counts that
        run's exact-column entries (a chain alone gives the same bits)."""
        exact_rows = self.count_exact_rows(monkeypatch)
        per_chain = [0, 0]
        step = crf._step

        def counting(prev, shifted, trans, shift):
            for c in range(len(prev)):
                before = len(exact_rows)
                step(prev[c:c + 1], shifted[c:c + 1], trans[c:c + 1], shift[c:c + 1])
                per_chain[c] += sum(exact_rows[before:])
            return step(prev, shifted, trans, shift)

        monkeypatch.setattr(crf, "_step", counting)
        return per_chain

    @pytest.mark.parametrize("penalized", [False, True])
    def test_forward_backward_matches_oracle_recursions(self, penalized):
        # both chains against the oracle recursions at every real position
        rng = np.random.default_rng(31 + penalized)
        for scale in (1.0, 30.0):
            emis, trans, lengths = self.ragged_batch(rng, scale, penalized)
            layout = RowLayout(lengths)
            _, packed, sums = crf._chains(layout.gather(emis), trans, layout, 2)
            np.testing.assert_allclose(
                layout.unpack(sums[0] + packed),
                layout.gather(reference_crf_alphas(emis, trans.matrix, trans.start)),
                rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(
                layout.unpack(sums[1][layout.rev]),
                layout.gather(reference_crf_betas(emis, trans.matrix, trans.end, lengths)),
                rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("scale", [300.0, 3000.0])
    def test_wide_emissions_with_penalties(self, monkeypatch, scale):
        per_chain = self.count_exact_rows_per_chain(monkeypatch)
        rng = np.random.default_rng(int(scale))
        for _ in range(10):
            self.check(*self.ragged_batch(rng, scale, True))
        # the exact-column path ran in both chains
        forward, backward = per_chain
        assert forward > 0 and backward > 0

    def test_underflowed_column_is_recomputed(self, monkeypatch):
        # I-PER's only allowed predecessor B-PER sits 800 below O, whose
        # move into I-PER is penalized: the shifted product's I-PER column
        # underflows to exactly 0, yet the best path B-PER I-PER scores 1200
        tagset = TagSet(["PER"])
        b, i = tagset.index("B-PER"), tagset.index("I-PER")
        emis = np.zeros((2, 3))
        emis[0, [b, i]] = -800.0
        emis[1, i] = 2000.0
        trans = Transitions.zeros(3).penalized(*bio_constraint_penalty(tagset))
        start = trans.start + emis[0]
        colmax = trans.matrix.max(axis=0)
        product = np.exp(start - start.max()) @ np.exp(trans.matrix - colmax)
        assert product[i] == 0.0
        exact_rows = self.count_exact_rows(monkeypatch)
        log_z, *_ = enumerate_crf(emis, trans.matrix, trans.start, trans.end)
        assert log_partition(emis, trans, one(emis))[0] == pytest.approx(log_z, rel=1e-12)
        assert log_z == pytest.approx(1200.0)
        assert sum(exact_rows) >= 1
