"""Tagger tests: config parsing, early stopping, model construction,
forward/backward consistency, prediction contracts, model files, and a
small training run."""

import hashlib
import json
import math
import struct
import sys
import tracemalloc

import numpy as np
import pytest

from seqtag.corpus import CorpusError, LabeledCorpus, Sentence, TagSet, validate_bio
from seqtag.crf import _VITERBI_BLOCK, Transitions, bio_constraint_penalty
from seqtag.tagger import (
    ConfigError,
    EarlyStopper,
    ModelError,
    TaggerConfig,
    TaggerModel,
    TokenPrediction,
    build_model,
    check_gradients,
    load_model,
    model_bytes,
    parse_config,
    predict,
    predict_corpus,
    save_model,
    train,
)
from seqtag import tagger as tagger_module
from seqtag.tagger import MODEL_MAGIC, _Encoding, _forward, _log_softmax, _sentence_loss
from seqtag.tagger import _model_spec
from seqtag.nn import ParamStore
from seqtag.nn import params as nn_params

from helpers import enumerate_crf, random_corpus, tiny_fixture_corpus


def small_config(**overrides):
    base = dict(word_dim=6, hidden=4, lstm_layers=1, dropout=0.0,
                batch_size=4, max_epochs=3, patience=2, seed=11)
    base.update(overrides)
    return TaggerConfig(**base)


def emissions_of(model, sentence, contextual=None):
    """Eval-mode head rows (n, T) of one sentence run as a batch of one."""
    return _forward(model, _Encoding(model, [sentence], contextual).batch(), "eval", None)[0]


class TestConfigParsing:
    def test_defaults_round_trip(self):
        text = (
            "word_dim = 32\nuse_char_cnn = false\nchar_dim = 8\nchar_kernel = 3\n"
            "char_filters = 16\nuse_pos = false\npos_dim = 8\n"
            "use_contextual_slot = false\nuse_mha = false\nmha_heads = 2\n"
            "use_crf = true\ncrf_constrain_bio = false\ncrf_decode_only = false\n"
            "lstm_layers = 2\nhidden = 32\ndropout = 0.1\nbatch_size = 8\n"
            "max_epochs = 50\npatience = 5\nlearning_rate = 0.001\n"
            "weight_decay = 0.01\nearly_stop_metric = eval_f1\nseed = 42\n"
        )
        assert parse_config(text) == TaggerConfig() == parse_config("")

    def test_non_default_round_trip(self):
        # every key, each away from its default
        text = (
            "word_dim = 12\nuse_char_cnn = TRUE\nchar_dim = 5\nchar_kernel = 2\n"
            "char_filters = 7\nuse_pos = true\npos_dim = 3\n"
            "use_contextual_slot = true\nuse_mha = true\nmha_heads = 4\n"
            "use_crf = False\ncrf_constrain_bio = true\ncrf_decode_only = false\n"
            "lstm_layers = 3\nhidden = 8\ndropout = 0.25\nbatch_size = 16\n"
            "max_epochs = 7\npatience = 2\nlearning_rate = 5e-2\n"
            "weight_decay = 0\nearly_stop_metric = eval_loss\nseed = 7\n"
        )
        assert parse_config(text) == TaggerConfig(
            word_dim=12, use_char_cnn=True, char_dim=5, char_kernel=2, char_filters=7,
            use_pos=True, pos_dim=3, use_contextual_slot=True, use_mha=True,
            mha_heads=4, use_crf=False, crf_constrain_bio=True, crf_decode_only=False,
            lstm_layers=3, hidden=8, dropout=0.25, batch_size=16, max_epochs=7,
            patience=2, learning_rate=0.05, weight_decay=0.0,
            early_stop_metric="eval_loss", seed=7,
        )

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# a comment\n\nword_dim = 12\n  \nhidden = 9\n")
        assert cfg.word_dim == 12
        assert cfg.hidden == 9

    def test_unknown_key(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("worddim = 3\n")
        assert str(exc.value) == "line 1: unknown config key 'worddim'"

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("hidden = 3\nhidden = 4\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("hidden 3\n")

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="as int"):
            parse_config("hidden = big\n")
        with pytest.raises(ConfigError, match="true or false"):
            parse_config("use_crf = 1\n")
        with pytest.raises(ConfigError, match="as float"):
            parse_config("dropout = lots\n")

    def test_bool_parsing(self):
        assert parse_config("use_crf = false\n").use_crf is False
        assert parse_config("use_mha = True\nmha_heads = 2\n").use_mha is True


class TestConfigValidation:
    def test_collects_all_problems(self):
        cfg = TaggerConfig(hidden=0, dropout=1.5, learning_rate=-1.0)
        with pytest.raises(ConfigError) as exc:
            cfg.validate()
        assert str(exc.value) == ("invalid config: hidden: must be >= 1; dropout: must lie in "
                                  "[0, 1); learning_rate: must be positive and finite")

    def test_bilstm_is_mandatory(self):
        with pytest.raises(ConfigError, match="lstm_layers"):
            TaggerConfig(lstm_layers=0).validate()

    def test_mha_heads_must_divide_width(self):
        with pytest.raises(ConfigError, match="mha_heads"):
            TaggerConfig(use_mha=True, hidden=3, mha_heads=4).validate()
        TaggerConfig(use_mha=True, hidden=4, mha_heads=4).validate()

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="^invalid config: seed: must be >= 0$"):
            parse_config("seed = -1\n")
        TaggerConfig(seed=0).validate()

    def test_decode_only_requires_crf(self):
        with pytest.raises(ConfigError, match="crf_decode_only"):
            TaggerConfig(use_crf=False, crf_decode_only=True).validate()

    def test_metric_enum(self):
        with pytest.raises(ConfigError, match="early_stop_metric"):
            TaggerConfig(early_stop_metric="train_loss").validate()

    @pytest.mark.parametrize("key", ["learning_rate", "weight_decay"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_rates_rejected(self, key, value):
        with pytest.raises(ConfigError) as exc:
            parse_config(f"{key} = {value}\n")
        bound = "positive" if key == "learning_rate" else "non-negative"
        assert str(exc.value) == f"invalid config: {key}: must be {bound} and finite"


class TestTokenPrediction:
    def test_valid(self):
        p = TokenPrediction("B-PER", 0.5)
        assert p.label == "B-PER"


class TestEarlyStopper:
    def test_loss_sequence_stops_at_seven_best_at_two(self):
        losses = [1.0, 0.9, 0.95, 0.96, 0.97, 0.98, 0.99]
        stopper = EarlyStopper(patience=5, mode="min")
        stops = [stopper.update(e, v) for e, v in enumerate(losses, start=1)]
        assert stops == [False, False, False, False, False, False, True]
        assert stopper.best_epoch == 2

    def test_ties_count_toward_patience(self):
        stopper = EarlyStopper(patience=2, mode="min")
        assert stopper.update(1, 0.5) is False
        assert stopper.update(2, 0.5) is False
        assert stopper.update(3, 0.5) is True
        assert stopper.best_epoch == 1

    def test_improvement_resets_counter(self):
        stopper = EarlyStopper(patience=2, mode="max")
        assert stopper.update(1, 0.1) is False
        assert stopper.update(2, 0.05) is False
        assert stopper.update(3, 0.2) is False
        assert stopper.update(4, 0.2) is False
        assert stopper.update(5, 0.1) is True
        assert stopper.best_epoch == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="patience"):
            EarlyStopper(0, "min")
        with pytest.raises(ValueError, match="mode"):
            EarlyStopper(1, "median")


class TestBuildModel:
    def test_vocab_reserves_unknown_slot(self):
        corpus = tiny_fixture_corpus()
        model = build_model(small_config(), corpus)
        assert 0 not in model.word_vocab.values()
        assert min(model.word_vocab.values()) == 1
        surfaces = {w for s in corpus.sentences for w in s.surfaces}
        assert set(model.word_vocab) == surfaces
        assert set(model.char_vocab) == {ch for s in surfaces for ch in s}

    def test_same_seed_same_parameters(self):
        corpus = tiny_fixture_corpus()
        a = build_model(small_config(), corpus)
        b = build_model(small_config(), corpus)
        assert a.store.names() == b.store.names()
        for name in a.store.names():
            np.testing.assert_array_equal(a.store[name], b.store[name])

    def test_different_seed_differs(self):
        corpus = tiny_fixture_corpus()
        a = build_model(small_config(seed=1), corpus)
        b = build_model(small_config(seed=2), corpus)
        assert any(
            not np.array_equal(a.store[n], b.store[n]) for n in a.store.names()
        )

    def test_pretrained_rows_copied_verbatim(self):
        corpus = tiny_fixture_corpus()
        vec = np.arange(6, dtype=float) / 10.0
        wv = {"mehta": vec, "absent": vec * 2}
        model = build_model(small_config(), corpus, pretrained_vectors=wv)
        np.testing.assert_array_equal(
            model.store["word.emb"][model.word_vocab["mehta"]], vec
        )

    def test_pretrained_dim_mismatch(self):
        corpus = tiny_fixture_corpus()
        wv = {"mehta": np.zeros(3)}
        with pytest.raises(ConfigError) as exc:
            build_model(small_config(), corpus, pretrained_vectors=wv)
        assert str(exc.value) == "pretrained vectors have dimension 3, config word_dim is 6"

    def test_pretrained_vectors_of_two_sizes_are_refused_by_shape(self):
        corpus = tiny_fixture_corpus()
        wv = {"mehta": np.zeros(6), "dhaka": np.zeros(5), "rahim": np.zeros(6)}
        with pytest.raises(ConfigError) as exc:
            build_model(small_config(), corpus, pretrained_vectors=wv)
        assert str(exc.value) == "pretrained vectors must share one 1-D shape, got (5,), (6,)"

    def test_empty_pretrained_table_counts_as_none(self):
        corpus = tiny_fixture_corpus()
        a = build_model(small_config(), corpus, pretrained_vectors={})
        b = build_model(small_config(), corpus)
        assert model_bytes(a) == model_bytes(b)

    def test_pos_requires_pos_column(self):
        corpus = random_corpus(np.random.default_rng(0), 3)
        with pytest.raises(ConfigError, match="POS"):
            build_model(small_config(use_pos=True), corpus)
        build_model(small_config(use_pos=True), tiny_fixture_corpus())

    def test_contextual_slot_requires_vectors(self):
        corpus = tiny_fixture_corpus()
        for empty in (None, {}):
            with pytest.raises(ConfigError) as exc:
                build_model(small_config(use_contextual_slot=True), corpus,
                            contextual_vectors=empty)
            assert str(exc.value) == "use_contextual_slot requires a contextual vector file"
        ragged = {("s0", 0): np.zeros(3), ("s0", 1): np.zeros((3, 1))}
        with pytest.raises(ConfigError) as exc:
            build_model(small_config(use_contextual_slot=True), corpus,
                        contextual_vectors=ragged)
        assert str(exc.value) == "contextual vectors must share one 1-D shape, got (3,), (3, 1)"

    def test_crf_parameters_present_only_with_crf(self):
        corpus = tiny_fixture_corpus()
        with_crf = build_model(small_config(use_crf=True), corpus)
        without = build_model(small_config(use_crf=False), corpus)
        assert "crf.matrix" in with_crf.store.names()
        assert "crf.matrix" not in without.store.names()
        n_labels = len(corpus.tagset)
        np.testing.assert_array_equal(
            with_crf.store["crf.matrix"], np.zeros((n_labels, n_labels))
        )


class TestForward:
    def test_softmax_head_rows_are_distributions(self):
        corpus = tiny_fixture_corpus()
        model = build_model(small_config(use_crf=False), corpus)
        for sent in corpus.sentences:
            probs = np.exp(_log_softmax(emissions_of(model, sent)))
            assert probs.shape == (len(sent), len(corpus.tagset))
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
            assert (probs >= 0).all()

    def test_crf_head_returns_raw_emissions(self):
        corpus = tiny_fixture_corpus()
        model = build_model(small_config(use_crf=True), corpus)
        emissions = emissions_of(model, corpus.sentences[0])
        assert emissions.shape == (4, len(corpus.tagset))
        # raw scores, not normalized
        assert not np.allclose(np.exp(emissions).sum(axis=1), 1.0)

    def test_unknown_words_map_to_slot_zero(self):
        # two different unseen surfaces share the unknown embedding, so two
        # single-token sentences built from them score identically
        corpus = tiny_fixture_corpus()
        model = build_model(small_config(use_crf=False), corpus)
        a = emissions_of(model, Sentence("u0", ("zzzz",), ("O",)))
        b = emissions_of(model, Sentence("u1", ("qqqq",), ("O",)))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_train_mode_dropout_needs_rng(self):
        corpus = tiny_fixture_corpus()
        model = build_model(small_config(dropout=0.5), corpus)
        with pytest.raises(ModelError, match="rng"):
            _forward(model, _Encoding(model, corpus.sentences[:1]).batch(), "train", None)

    def test_contextual_vectors_enter_the_input(self):
        corpus = tiny_fixture_corpus()
        vectors = {}
        rng = np.random.default_rng(4)
        for sent in corpus.sentences:
            for i in range(len(sent)):
                vectors[(sent.id, i)] = rng.normal(size=3)
        model = build_model(small_config(use_contextual_slot=True), corpus,
                            contextual_vectors=vectors)
        sent = corpus.sentences[0]
        out_a = emissions_of(model, sent, contextual=vectors)
        shifted = {k: v + 1.0 for k, v in vectors.items()}
        out_b = emissions_of(model, sent, contextual=shifted)
        assert not np.allclose(out_a, out_b)

    def test_contextual_errors_name_the_sentence(self):
        corpus = tiny_fixture_corpus()
        ctx = {(s.id, i): np.zeros(3) for s in corpus.sentences for i in range(len(s))}
        model = build_model(small_config(use_contextual_slot=True), corpus,
                            contextual_vectors=ctx)
        s0, s9 = corpus.sentences[0], Sentence("s9", ("mehta",), ("O",))
        for absent in (None, {}):
            with pytest.raises(ModelError) as exc:
                emissions_of(model, s0, contextual=absent)
            assert str(exc.value) == ("sentence 's0': model uses contextual vectors "
                                      "but none were provided")
        for sent, message in [(s0, "no contextual vector for sentence 's0' token 1"),
                              (s9, "no contextual vector for sentence 's9' token 0")]:
            with pytest.raises(ModelError) as exc:
                emissions_of(model, sent, contextual={("s0", 0): np.zeros(3)})
            assert str(exc.value) == message
        wrong_dim = {("s0", 0): np.zeros(5)}
        with pytest.raises(ModelError) as exc:
            emissions_of(model, s0, contextual=wrong_dim)
        assert str(exc.value) == "contextual vectors have dimension 5, model expects 3"

    def test_contextual_vector_of_the_wrong_size_is_refused_by_name(self):
        # one vector of the table that predict or train reads has the
        # wrong size: a ModelError, not numpy's broadcast error
        corpus = tiny_fixture_corpus()
        ctx = {(s.id, i): np.zeros(3) for s in corpus.sentences for i in range(len(s))}
        model = build_model(small_config(use_contextual_slot=True), corpus,
                            contextual_vectors=ctx)
        bad = dict(ctx)
        bad["s1", 2] = np.zeros(2)
        message = "contextual vectors have dimension 2, model expects 3"
        with pytest.raises(ModelError) as exc:
            predict(model, corpus.sentences[1], bad)
        assert str(exc.value) == message
        with pytest.raises(ModelError) as exc:
            predict_corpus(model, corpus, bad)
        assert str(exc.value) == message
        with pytest.raises(ModelError) as exc:
            train(model, corpus, corpus, contextual=bad)
        assert str(exc.value) == message


class TestWholeModelGradients:
    # Composite tolerance is looser than the per-layer suite: with a deep
    # chain the loss roundoff (~1e-10 absolute on the derivative) lands on
    # near-zero attention gradients, so the relative error floats up to a
    # few 1e-4 even when every analytic gradient is right. A real wiring
    # bug (wrong route split, dropped scale factor) shows up orders of
    # magnitude above 1e-3.
    COMPOSITE_TOL = 1e-3

    def check_model(self, config, use_crf_loss_sentence=0):
        corpus = tiny_fixture_corpus()
        model = build_model(config, corpus)
        report = check_gradients(model, [corpus.sentences[use_crf_loss_sentence]])
        assert report.passed(self.COMPOSITE_TOL), report.render()

    def test_full_feature_stack_with_crf(self):
        self.check_model(small_config(
            use_char_cnn=True, char_dim=3, char_kernel=2, char_filters=3,
            use_pos=True, pos_dim=2, use_mha=True, mha_heads=2,
            use_crf=True, seed=3,
        ))

    def test_softmax_head(self):
        self.check_model(small_config(use_crf=False, seed=5), 1)

    def test_stacked_lstm(self):
        self.check_model(small_config(lstm_layers=2, seed=7), 2)


class TestPredict:
    def test_predictions_are_valid_bio_with_bounded_scores(self):
        rng = np.random.default_rng(12)
        corpus = random_corpus(rng, 6)
        for use_crf in (True, False):
            model = build_model(small_config(use_crf=use_crf), corpus)
            for preds in predict_corpus(model, corpus):
                assert validate_bio([p.label for p in preds]) == []
                assert all(0.0 <= p.score <= 1.0 for p in preds)

    def test_pos_model_refuses_tokens_without_pos(self):
        corpus = tiny_fixture_corpus()
        model = build_model(small_config(use_pos=True), corpus)
        last = corpus.sentences[-1]
        bare = Sentence(last.id, last.surfaces, last.gold_tags)
        damaged = LabeledCorpus(corpus.sentences[:-1] + [bare], corpus.tagset)
        message = (f"sentence {last.id!r}: model uses POS features but has no POS column "
                   r"\(pass --pos-col\)")
        with pytest.raises(ModelError, match=message):
            predict_corpus(model, damaged)
        with pytest.raises(ModelError, match=message):
            predict(model, bare)
        assert len(predict_corpus(model, corpus)) == len(corpus)

    def test_peak_memory_does_not_grow_with_the_corpus(self):
        # eval passes run in chunks of at most _CHUNK_POSITIONS positions and
        # hold nothing from one chunk into the next, so the corpus repeated
        # 4 times peaks higher only by the predictions it returns and its
        # index bookkeeping (under 100 bytes a sentence; a chunk's emissions
        # held on would add 448)
        rng = np.random.default_rng(4)
        corpus = random_corpus(rng, 2 * tagger_module._CHUNK_POSITIONS // 8, min_len=8,
                               max_len=8)
        four = LabeledCorpus([Sentence(f"{k}.{s.id}", s.surfaces, s.gold_tags)
                              for k in range(4) for s in corpus.sentences], corpus.tagset)
        model = build_model(small_config(word_dim=8, hidden=16, use_crf=True), corpus)

        def above_predictions(c):
            predict_corpus(model, c)
            tracemalloc.start()
            try:
                predictions = predict_corpus(model, c)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(predictions) == len(c)
            return peak - held

        assert above_predictions(four) - above_predictions(corpus) <= 100 * 3 * len(corpus)

    def test_one_chunk_holds_only_the_lstm_working_set(self):
        # predict_wide's widths: word_dim d 32, hidden h 32, 18 classes (37
        # labels) under the BIO constraint. An eval pass must hold at once
        # the LSTM's (2, N, 4h) gates, its (2, N, h) hidden states and the
        # pass's (N, d) input: 8 * (10h + d) bytes a row. The slack is 64
        # bytes a row for the index arrays of the encoding, the batch and
        # its RowLayout (52 measured), and 128 KiB for buffers that do not
        # grow with N: numpy's 64 KiB ufunc buffer (the bias added to the
        # gates) and one step's (2, B, 4h) temporaries. The CRF's chain
        # inputs, sums and emissions, 5 * 8 * T bytes a row, come after the
        # gates are gone. Gates kept alive while the next layer's input is
        # built would add 8 * 3h bytes a row.
        rng = np.random.default_rng(3)
        corpus = random_corpus(rng, 12, classes=tuple(f"C{k}" for k in range(18)),
                               min_len=30, max_len=40)
        assert len(tagger_module._chunks([len(s) for s in corpus.sentences])) == 1
        d = h = 32
        model = build_model(TaggerConfig(word_dim=d, hidden=h, lstm_layers=1, use_crf=True,
                                         crf_constrain_bio=True, seed=3), corpus)
        predict_corpus(model, corpus)
        tracemalloc.start()
        try:
            predictions = predict_corpus(model, corpus)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(predictions) == len(corpus)
        rows = corpus.n_tokens
        assert peak - held <= (8 * (10 * h + d) + 64) * rows + 128 * 1024

    @pytest.mark.parametrize("n_sentences, length", [(1024, 2), (682, 3)])
    def test_short_sentence_chunks_stay_within_the_eval_budget(self, n_sentences, length):
        # the widths above; each chunk holds b = 512 or 341 short sentences
        # in its N rows. The call peaks in the larger of two stages, plus the
        # 128 KiB of fixed buffers above:
        # - the LSTM: the 8 * (10h + d) + 64 bytes a row above, and at the
        #   first step, where all b sentences run, the gates' copy and the
        #   sigmoid's denominators (2, b, 4h), tanh(g), the cell states and
        #   their tanh (2, b, h): 8 * 22h bytes a sentence;
        # - the CRF: 5 * 8 * T bytes a row of chains (Viterbi's head rows,
        #   packed emissions and backpointers are fewer) and 64 of indices,
        #   and Viterbi's tiled transitions, step scores and repeated scores,
        #   (block * T, T) floats each, whatever b is.
        # Step scores (b, T, T) would add 8 * T * T bytes a sentence: 6.9 and
        # 8.4 MiB against bounds of 5.7 and 4.8.
        rng = np.random.default_rng(3)
        corpus = random_corpus(rng, n_sentences, classes=tuple(f"C{k}" for k in range(18)),
                               min_len=length, max_len=length)
        b = tagger_module._CHUNK_POSITIONS // length
        assert [len(c) for c in tagger_module._chunks([length] * n_sentences)] == [b, b]
        d = h = 32
        model = build_model(TaggerConfig(word_dim=d, hidden=h, lstm_layers=1, use_crf=True,
                                         crf_constrain_bio=True, seed=3), corpus)
        predict_corpus(model, corpus)
        tracemalloc.start()
        try:
            predictions = predict_corpus(model, corpus)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(predictions) == len(corpus)
        rows, n_tags = b * length, len(model.tagset)
        lstm = (8 * (10 * h + d) + 64) * rows + 8 * 22 * h * b
        crf = (5 * 8 * n_tags + 64) * rows + 3 * 8 * _VITERBI_BLOCK * n_tags ** 2
        assert peak - held <= max(lstm, crf) + 128 * 1024

    def test_crf_scores_are_path_marginals(self):
        corpus = tiny_fixture_corpus()
        model = build_model(small_config(use_crf=True, seed=9), corpus)
        # make transitions non-trivial so marginals are informative
        rng = np.random.default_rng(1)
        model.store["crf.matrix"][:] = rng.normal(size=model.store["crf.matrix"].shape)
        model.store["crf.start"][:] = rng.normal(size=model.store["crf.start"].shape)
        model.store["crf.end"][:] = rng.normal(size=model.store["crf.end"].shape)
        for sent in corpus.sentences:
            emissions = emissions_of(model, sent)
            trans = model.transitions()
            _, best_path, _, marginals, _ = enumerate_crf(
                emissions, trans.matrix, trans.start, trans.end
            )
            preds = predict(model, sent)
            for i, (pred, tag) in enumerate(zip(preds, best_path)):
                assert pred.score == pytest.approx(marginals[i, tag], abs=1e-9)

    def test_decode_only_mode_ignores_transitions_in_training(self):
        corpus = tiny_fixture_corpus()
        model = build_model(
            small_config(use_crf=True, crf_decode_only=True), corpus
        )
        sent = corpus.sentences[0]
        batch = _Encoding(model, [sent], gold=True).batch()
        rows, _ = _forward(model, batch, "eval", None)
        loss, _ = _sentence_loss(model, rows, batch.layout, batch.gold)
        # cross-entropy loss, so transition values play no role in the loss
        model.store["crf.matrix"][:] = 5.0
        loss2, _ = _sentence_loss(model, rows, batch.layout, batch.gold)
        assert loss == pytest.approx(loss2)

    def test_repair_applies_to_output_labels(self):
        # force an invalid sequence through the head by rigging emissions:
        # use a softmax model whose head bias strongly favors I-PER
        corpus = tiny_fixture_corpus()
        model = build_model(small_config(use_crf=False), corpus)
        iper = corpus.tagset.index("I-PER")
        model.store["head.w"][:] = 0.0
        model.store["head.b"][:] = 0.0
        model.store["head.b"][iper] = 10.0
        preds = predict(model, corpus.sentences[0])
        labels = [p.label for p in preds]
        assert labels[0] == "B-PER"
        assert labels[1:] == ["I-PER"] * 3
        assert validate_bio(labels) == []

    def test_bio_penalty_is_built_once_per_model(self, monkeypatch):
        rng = np.random.default_rng(21)
        corpus = random_corpus(rng, 60)
        # a budget small enough that the corpus runs as several chunks
        monkeypatch.setattr(tagger_module, "_CHUNK_POSITIONS", 64)
        assert len(tagger_module._chunks([len(s) for s in corpus.sentences])) > 1
        model = build_model(small_config(crf_constrain_bio=True), corpus)
        for name in ("crf.matrix", "crf.start", "crf.end"):
            model.store[name][...] = rng.normal(size=model.store[name].shape)

        def rebuilt(self):
            trans = Transitions(self.store["crf.matrix"], self.store["crf.start"],
                                self.store["crf.end"])
            return trans.penalized(*bio_constraint_penalty(self.tagset))

        with monkeypatch.context() as patch:
            patch.setattr(TaggerModel, "transitions", rebuilt)
            expected = predict_corpus(model, corpus)
        calls = []

        def counting(tagset):
            calls.append(tagset)
            return bio_constraint_penalty(tagset)

        monkeypatch.setattr(tagger_module, "bio_constraint_penalty", counting)
        assert predict_corpus(model, corpus) == expected
        assert calls == []


class TestTraining:
    def test_overfits_small_corpus(self):
        rng = np.random.default_rng(0)
        vocab = ["alice", "bob", "paris", "tokyo", "the", "saw", "ran"]
        sentences = []
        for i in range(16):
            words = [vocab[rng.integers(len(vocab))] for _ in range(int(rng.integers(3, 6)))]
            tags = ["B-PER" if w in ("alice", "bob") else
                    "B-LOC" if w in ("paris", "tokyo") else "O" for w in words]
            sentences.append(Sentence(f"s{i}", tuple(words), tuple(tags)))
        corpus = LabeledCorpus(sentences, TagSet(["PER", "LOC"]))
        cfg = small_config(word_dim=8, hidden=8, learning_rate=0.02,
                           max_epochs=25, patience=8)
        model = build_model(cfg, corpus)
        model, history = train(model, corpus, corpus)
        best = history.epochs[history.best_epoch - 1]
        assert best.eval_macro_f1 >= 0.95
        assert history.stopped_epoch == len(history.epochs)
        assert 1 <= history.best_epoch <= history.stopped_epoch

    def test_restores_best_epoch_parameters(self):
        rng = np.random.default_rng(3)
        corpus = random_corpus(rng, 8, classes=("PER",))
        cfg = small_config(max_epochs=6, patience=2, learning_rate=0.05,
                           early_stop_metric="eval_loss")
        model = build_model(cfg, corpus)
        model, history = train(model, corpus, corpus)
        from seqtag.tagger import _evaluate_dev

        eval_loss, eval_f1 = _evaluate_dev(model, corpus,
                                           _Encoding(model, corpus.sentences, gold=True))
        best = history.epochs[history.best_epoch - 1]
        assert eval_loss == pytest.approx(best.eval_loss, abs=1e-9)
        assert eval_f1 == pytest.approx(best.eval_macro_f1, abs=1e-9)

    @pytest.mark.parametrize("decode_only", [False, True])
    def test_crf_forward_backward_runs_at_most_once_per_pass(self, monkeypatch, decode_only):
        # one two-chain pass per training batch and one forward-chain pass
        # per dev chunk for its loss; dev decoding is Viterbi alone, so with
        # the CRF only decoding a dev chunk runs none
        from seqtag import crf

        chain_counts = []

        def counting(rows, trans, layout, n_chains):
            chain_counts.append(n_chains)
            return real_chains(rows, trans, layout, n_chains)

        real_chains = crf._chains
        monkeypatch.setattr(crf, "_chains", counting)
        # a budget small enough that the dev corpus runs as several chunks
        monkeypatch.setattr(tagger_module, "_CHUNK_POSITIONS", 64)
        rng = np.random.default_rng(6)
        corpus = random_corpus(rng, 10, classes=("PER", "LOC"))
        dev = random_corpus(rng, 40, classes=("PER", "LOC"), max_len=20, prefix="d")
        cfg = small_config(max_epochs=1, use_crf=True, crf_decode_only=decode_only)
        train(build_model(cfg, corpus), corpus, dev)
        n_chunks = len(tagger_module._chunks([len(s) for s in dev.sentences]))
        assert n_chunks > 1
        want = [] if decode_only else [2] * math.ceil(10 / cfg.batch_size) + [1] * n_chunks
        assert chain_counts == want

    def test_dev_gold_with_an_orphan_inside_tag(self):
        # an I- tag with no B- before it opens a gold chunk, so the dev
        # score equals the score against the repaired corpus
        from seqtag.tagger import _evaluate_dev

        rng = np.random.default_rng(9)
        corpus = random_corpus(rng, 6, classes=("PER", "LOC"))

        def with_first_tag(tag):
            orphan = Sentence("orphan", ("w1", "w2", "w3"), (tag, "I-PER", "O"))
            return LabeledCorpus(corpus.sentences + [orphan], corpus.tagset)

        dev = with_first_tag("I-PER")
        model, history = train(build_model(small_config(max_epochs=1), corpus), corpus, dev)
        repaired = with_first_tag("B-PER")
        _, repaired_f1 = _evaluate_dev(model, repaired,
                                       _Encoding(model, repaired.sentences, gold=True))
        assert history.epochs[0].eval_macro_f1 == pytest.approx(repaired_f1, abs=1e-12)

    @pytest.mark.parametrize("which", ["train", "dev"])
    def test_gold_class_outside_the_tagset_fails_before_training(self, monkeypatch, which):
        # the error names the sentence, and no batch runs
        rng = np.random.default_rng(4)
        corpus = random_corpus(rng, 6, classes=("PER",))
        model = build_model(small_config(), corpus)
        loc = Sentence("x", ("paris",), ("B-LOC",))
        both = {"train": corpus, "dev": corpus}
        both[which] = LabeledCorpus(corpus.sentences + [loc], TagSet(["PER", "LOC"]))
        batches = []
        monkeypatch.setattr(tagger_module, "_train_batch", lambda *a: batches.append(a))
        with pytest.raises(CorpusError) as info:
            train(model, both["train"], both["dev"])
        assert str(info.value) == "sentence 'x': tag 'B-LOC' outside tagset ['PER']"
        assert batches == []

    def test_config_differing_in_a_model_field_fails_before_training(self, monkeypatch):
        # a pass reads dropout and the head from model.config, so a train
        # config that differs there is refused, naming each field
        rng = np.random.default_rng(4)
        corpus = random_corpus(rng, 6, classes=("PER",))
        model = build_model(small_config(), corpus)
        batches = []
        monkeypatch.setattr(tagger_module, "_train_batch", lambda *a: batches.append(a))
        with pytest.raises(ConfigError) as info:
            train(model, corpus, corpus, small_config(dropout=0.9, use_crf=False))
        assert str(info.value) == (
            "config differs from the model's in use_crf, dropout: training may change only "
            "batch_size, early_stop_metric, learning_rate, max_epochs, patience, seed, "
            "weight_decay")
        assert batches == []

    def test_config_differing_only_in_training_fields_trains(self):
        rng = np.random.default_rng(4)
        corpus = random_corpus(rng, 6, classes=("PER",))
        model = build_model(small_config(max_epochs=3), corpus)
        _, history = train(model, corpus, corpus,
                           small_config(max_epochs=1, learning_rate=0.05))
        assert [e.epoch for e in history.epochs] == [1]

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(5)
        corpus = random_corpus(rng, 6, classes=("PER", "LOC"))
        cfg = small_config(max_epochs=3, dropout=0.2)
        runs = []
        for _ in range(2):
            model = build_model(cfg, corpus)
            model, history = train(model, corpus, corpus)
            runs.append((history, model.store.copy_values()))
        assert runs[0][0] == runs[1][0]
        for name in runs[0][1]:
            np.testing.assert_array_equal(runs[0][1][name], runs[1][1][name])

    def test_history_render_format(self):
        rng = np.random.default_rng(4)
        corpus = random_corpus(rng, 4, classes=("PER",))
        model = build_model(small_config(max_epochs=2, patience=5), corpus)
        _, history = train(model, corpus, corpus)
        lines = history.render().splitlines()
        assert lines[0] == "# epoch train_loss eval_loss eval_macro_f1"
        assert lines[1].startswith("1 ")
        assert lines[-2] == f"# stopped_epoch {history.stopped_epoch}"
        assert lines[-1] == f"# best_epoch {history.best_epoch}"

    def test_non_finite_loss_raises(self):
        corpus = tiny_fixture_corpus()
        model = build_model(small_config(use_crf=False, max_epochs=2), corpus)
        model.store["word.emb"][:] = np.nan
        with pytest.raises(ModelError, match="non-finite"):
            train(model, corpus, corpus)


class TestModelFiles:
    def test_round_trip_preserves_predictions(self, tmp_path):
        corpus = tiny_fixture_corpus()
        cfg = small_config(use_char_cnn=True, char_dim=3, char_filters=3,
                           use_pos=True, pos_dim=2)
        model = build_model(cfg, corpus)
        path = tmp_path / "m.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        assert loaded.word_vocab == model.word_vocab
        assert loaded.pos_vocab == model.pos_vocab
        assert loaded.tagset.labels == model.tagset.labels
        for name in model.store.names():
            np.testing.assert_array_equal(loaded.store[name], model.store[name])
        a = predict_corpus(model, corpus)
        b = predict_corpus(loaded, corpus)
        assert [[p.label for p in s] for s in a] == [[p.label for p in s] for s in b]

    def test_saves_are_byte_identical(self, tmp_path):
        corpus = tiny_fixture_corpus()
        model = build_model(small_config(), corpus)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_starts_with_magic(self, tmp_path):
        model = build_model(small_config(), tiny_fixture_corpus())
        path = tmp_path / "m.bin"
        save_model(model, path)
        assert path.read_bytes()[:8] == MODEL_MAGIC

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMODEL" + b"\x00" * 32)
        with pytest.raises(ModelError, match="not a model file"):
            load_model(path)

    def test_truncation_rejected(self, tmp_path):
        model = build_model(small_config(), tiny_fixture_corpus())
        path = tmp_path / "m.bin"
        save_model(model, path)
        data = path.read_bytes()
        for cut in (12, len(data) // 2, len(data) - 1):
            clipped = tmp_path / f"cut{cut}.bin"
            clipped.write_bytes(data[:cut])
            with pytest.raises(ModelError, match="truncated|not a model"):
                load_model(clipped)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = build_model(small_config(), tiny_fixture_corpus())
        path = tmp_path / "m.bin"
        save_model(model, path)
        padded = tmp_path / "padded.bin"
        padded.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ModelError, match="trailing"):
            load_model(padded)

    def test_unsupported_version_rejected(self, tmp_path):
        model = build_model(small_config(), tiny_fixture_corpus())
        path = tmp_path / "m.bin"
        save_model(model, path)
        data = path.read_bytes()
        header_len = struct.unpack_from("<Q", data, 8)[0]
        header = json.loads(data[16:16 + header_len])
        header["format_version"] = 99
        new_header = json.dumps(header, sort_keys=True,
                                separators=(",", ":")).encode("utf-8")
        rewritten = tmp_path / "v99.bin"
        rewritten.write_bytes(
            MODEL_MAGIC + struct.pack("<Q", len(new_header)) + new_header
            + data[16 + header_len:]
        )
        with pytest.raises(ModelError, match="version"):
            load_model(rewritten)

    def test_negative_seed_in_header_named_with_the_path(self, tmp_path):
        model = build_model(small_config(), tiny_fixture_corpus())
        path = tmp_path / "m.bin"
        save_model(model, path)
        data = path.read_bytes()
        header_len = struct.unpack_from("<Q", data, 8)[0]
        header = json.loads(data[16:16 + header_len])
        header["config"]["seed"] = -1
        raw = json.dumps(header, sort_keys=True).encode("utf-8")
        rewritten = tmp_path / "seed.bin"
        rewritten.write_bytes(MODEL_MAGIC + struct.pack("<Q", len(raw)) + raw
                              + data[16 + header_len:])
        with pytest.raises(ModelError) as exc:
            load_model(rewritten)
        assert str(exc.value) == f"{rewritten}: invalid config: seed: must be >= 0"

    @pytest.mark.parametrize("declared", ["file inventory", "config inventory"])
    def test_oversized_header_rejected_before_building(self, tmp_path, monkeypatch,
                                                       declared):
        # a ~2 KB file whose config asks for hidden 1000 and two BiLSTM
        # layers (~100 MB of parameters): rejected from the header and the
        # file size alone, whether its params list keeps the file's real
        # inventory or declares the one its config implies
        corpus = tiny_fixture_corpus()
        model = build_model(small_config(), corpus)
        path = tmp_path / "m.bin"
        save_model(model, path)
        data = path.read_bytes()
        header_len = struct.unpack_from("<Q", data, 8)[0]
        header = json.loads(data[16:16 + header_len])
        header["config"].update(hidden=1000, lstm_layers=2)
        if declared == "config inventory":
            shapes = ParamStore.spec_shapes(_model_spec(
                TaggerConfig(**header["config"]), len(corpus.tagset), len(model.word_vocab),
                len(model.char_vocab), None, 0))
            header["params"] = [[name, list(shapes[name])] for name in sorted(shapes)]
        raw = json.dumps(header, sort_keys=True).encode("utf-8")
        hostile = tmp_path / "hostile.bin"
        hostile.write_bytes(MODEL_MAGIC + struct.pack("<Q", len(raw)) + raw)

        def refuse(*args, **kwargs):
            raise AssertionError("TaggerModel built from a hostile header")

        monkeypatch.setattr(tagger_module, "TaggerModel", refuse)
        match = "inventory" if declared == "file inventory" else "truncated"
        with pytest.raises(ModelError, match=match):
            load_model(hostile)

    @pytest.mark.parametrize("overrides, digest", [
        ({}, "cb21c9670c9a43cb4f7de6fdc61180447a2f233e620bc056e08b92358383d5a6"),
        (dict(lstm_layers=3, hidden=5),
         "5e0ec20250dfbab34d471f463910505ea25ed190185236051752958c1e585f8a"),
        (dict(use_char_cnn=True, char_dim=3, char_kernel=2, char_filters=4,
              use_pos=True, pos_dim=2, use_mha=True, mha_heads=2, use_crf=False),
         "a7039d56b05229e3923bb7c60ca7ea3a1aa167da3b1e4107a3252537c9e9c6bd"),
        (dict(use_contextual_slot=True, crf_constrain_bio=True),
         "f95416b470828b00589eb8190cf78c6879d1f91b9561225021b33a7361295604"),
    ])
    def test_initial_models_are_pinned(self, overrides, digest):
        # every parameter's draw order, shape and init bound, bit for bit:
        # no BLAS is involved in drawing a model
        corpus = tiny_fixture_corpus()
        ctx = {(s.id, i): np.zeros(3) for s in corpus.sentences for i in range(len(s))}
        model = build_model(small_config(**overrides), corpus, contextual_vectors=ctx)
        assert hashlib.sha256(model_bytes(model)).hexdigest() == digest

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        # a loaded model's store is filled from the file's blocks alone
        corpus = tiny_fixture_corpus()
        cfg = small_config(use_char_cnn=True, char_dim=3, char_filters=3, use_pos=True,
                           pos_dim=2, use_mha=True, mha_heads=2)
        model = build_model(cfg, corpus)
        path = tmp_path / "m.bin"
        save_model(model, path)

        def refuse(*args, **kwargs):
            raise AssertionError("load_model drew a parameter")

        # wherever a seqtag module has bound it
        for name, module in list(sys.modules.items()):
            if (name.startswith("seqtag")
                    and getattr(module, "uniform_init", None) is nn_params.uniform_init):
                monkeypatch.setattr(module, "uniform_init", refuse)
        assert model_bytes(load_model(path)) == model_bytes(model)
