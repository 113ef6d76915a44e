"""Threshold-gated majority voting: hand-worked rule applications, a
brute-force oracle sweep, the whole-corpus vote against the per-token
reference, vote invariants, alignment errors, and the prediction file
format."""

import unicodedata
from itertools import chain

import numpy as np
import pytest

from seqtag import ensemble as ensemble_module
from seqtag.corpus import parse_conll, repair_bio, validate_bio
from seqtag.ensemble import (
    OUTCOMES,
    EnsembleError,
    PredictionSet,
    VoteConfig,
    check_alignment,
    ensemble_corpus,
    majority_vote,
    read_prediction_file,
    write_prediction_file,
)
from seqtag.tagger import SentencePredictions, TokenPrediction

from helpers import (
    brute_vote,
    random_bio_tags,
    random_corpus,
    reference_vote,
    sentence_predictions,
)


def votes(*pairs):
    return [TokenPrediction(label, score) for label, score in pairs]


class TestVoteConfig:
    def test_defaults(self):
        cfg = VoteConfig()
        assert cfg.score_threshold == 0.5
        assert cfg.majority_of == "models"
        corpus = parse_conll("# s\nx O\n")
        sets = [PredictionSet(m, [sentence_predictions([("O", 0.9)])], ["s"], [("x",)])
                for m in "ab"]
        _, diagnostics = ensemble_corpus(sets, corpus, cfg)
        assert diagnostics.render().splitlines()[:4] == [
            "# threshold 0.5", "# fallback highest-total-score",
            "# majority_of models", "# models a,b",
        ]

    def test_validation(self):
        with pytest.raises(EnsembleError):
            VoteConfig(score_threshold=-0.1)
        with pytest.raises(EnsembleError):
            VoteConfig(score_threshold=1.5)
        with pytest.raises(EnsembleError):
            VoteConfig(majority_of="friends")


class TestMajorityVote:
    def test_two_of_three_majority(self):
        assert majority_vote(
            votes(("B-PER", 0.9), ("B-PER", 0.6), ("O", 0.95))
        ) == "B-PER"

    def test_five_model_fallback_by_total_score(self):
        # surviving: B-PER x2 (0.9 + 0.7), O x1 (0.95); no label clears
        # 2.5 of the 5 original models, totals pick B-PER (1.6 > 0.95)
        assert majority_vote(
            votes(("B-PER", 0.9), ("B-PER", 0.7), ("O", 0.95),
                  ("B-LOC", 0.4), ("B-PER", 0.45))
        ) == "B-PER"

    def test_all_discarded_yields_o(self):
        assert majority_vote(
            votes(("B-PER", 0.5), ("B-LOC", 0.3), ("I-PER", 0.1))
        ) == "O"

    def test_threshold_is_strict(self):
        # a score exactly at the threshold is discarded
        assert majority_vote(votes(("B-PER", 0.5), ("B-PER", 0.5))) == "O"
        assert majority_vote(votes(("B-PER", 0.500001), ("B-PER", 0.3))) == "B-PER"

    def test_fallback_tie_breaks_lexicographically(self):
        assert majority_vote(
            votes(("B-PER", 0.8), ("B-LOC", 0.8), ("O", 0.6), ("I-CW", 0.55))
        ) == "B-LOC"

    def test_majority_counts_original_models_by_default(self):
        # 2 survivors agree, but 2 of 5 is not a majority of the models
        v = votes(("B-PER", 0.9), ("B-PER", 0.8), ("O", 0.2), ("O", 0.2),
                  ("O", 0.2))
        assert majority_vote(v) == "B-PER"  # via fallback, not majority
        assert _single_token_ensemble(v)[2] == "fallback"

    def test_survivor_denominator_switch(self):
        v = votes(("B-PER", 0.9), ("B-PER", 0.8), ("O", 0.2), ("O", 0.2),
                  ("O", 0.2))
        cfg = VoteConfig(majority_of="survivors")
        assert majority_vote(v, cfg) == "B-PER"
        assert _single_token_ensemble(v, cfg)[2] == "majority"

    def test_empty_vote_list_rejected(self):
        with pytest.raises(EnsembleError, match="empty"):
            majority_vote([])

    def test_raising_threshold_never_resurrects(self):
        v = votes(("B-PER", 0.6), ("O", 0.9))
        low = {x.label for x in v if x.score > 0.5}
        high = {x.label for x in v if x.score > 0.7}
        assert high <= low
        assert majority_vote(v, VoteConfig(score_threshold=0.7)) == "O"


def _single_token_ensemble(token_votes, config=VoteConfig()):
    """Run ensemble_corpus over one single-token sentence and return its
    label, surviving vote count and outcome."""
    corpus = random_corpus(np.random.default_rng(0), 1, min_len=1, max_len=1)
    sent = corpus.sentences[0]
    sets = [
        PredictionSet(f"m{i}", [sentence_predictions([v])], [sent.id], [sent.surfaces])
        for i, v in enumerate(token_votes)
    ]
    labels, diags = ensemble_corpus(sets, corpus, config)
    return labels[0][0], int(diags.surviving[0]), OUTCOMES[diags.outcome[0]]


# the four configurations the voted text and .diag digests were compared under
VOTE_CONFIGS = [VoteConfig(), VoteConfig(0.3, "survivors"), VoteConfig(0.0), VoteConfig(1.0)]
LABEL_POOL = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC", "B-CW"]


def random_vote_sets(rng, corpus, n_models, threshold):
    """``n_models`` aligned prediction sets over ``corpus`` with raw labels
    from LABEL_POOL. Three scores in four come from a grid that holds
    ``threshold``, so scores equal to the threshold, tied totals and
    tokens with no surviving vote are common; the rest are uniform."""
    grid = [0.0, 0.25, 0.5, 0.75, 1.0, threshold]
    ids, surfaces = [s.id for s in corpus.sentences], [s.surfaces for s in corpus.sentences]
    sets = []
    for m in range(n_models):
        preds = []
        for sent in corpus.sentences:
            labels = tuple(LABEL_POOL[i] for i in rng.integers(len(LABEL_POOL), size=len(sent)))
            scores = [float(grid[rng.integers(len(grid))]) if rng.random() < 0.75
                      else float(rng.random()) for _ in range(len(sent))]
            preds.append(SentencePredictions(labels, scores))
        sets.append(PredictionSet(f"m{m}", preds, ids, surfaces))
    return sets


class TestWholeCorpusVote:
    @pytest.mark.parametrize("window", [None, 7], ids=["one window", "windows of 7"])
    @pytest.mark.parametrize("config", VOTE_CONFIGS)
    def test_every_token_has_the_reference_bits(self, config, window, monkeypatch):
        # (label, surviving, outcome, support) of the array vote equal the
        # per-token reference's, the support to the last bit, before and
        # after BIO repair, and through majority_vote's one-token entry;
        # voted in one window or in many, sentences crossing their edges
        if window:
            monkeypatch.setattr(ensemble_module, "_TALLY_TOKENS", window)
        rng = np.random.default_rng(2027)
        corpus = random_corpus(rng, 80, min_len=1, max_len=9)
        seen = {"empty": 0, "tie": 0, "at threshold": 0}
        for n_models in (2, 3, 4, 7):
            sets = random_vote_sets(rng, corpus, n_models, config.score_threshold)
            columns = [(list(chain.from_iterable(p.labels for p in s.predictions)),
                        list(chain.from_iterable(p.scores for p in s.predictions)))
                       for s in sets]
            labels, surviving, outcome, support = ensemble_module._tally(columns, config)
            fast = [(lab, int(n), ensemble_module.OUTCOMES[o], float.hex(float(x)))
                    for lab, n, o, x in zip(labels, surviving, outcome, support)]
            token_votes = [list(v) for v in zip(*[chain.from_iterable(s.predictions)
                                                   for s in sets])]
            reference = [reference_vote(v, config) for v in token_votes]
            assert fast == [(lab, n, o, float.hex(x)) for lab, n, o, x in reference]
            assert [majority_vote(v, config) for v in token_votes] == [r[0] for r in reference]

            voted, diagnostics = ensemble_corpus(sets, corpus, config)
            at = 0
            for sent, repaired in zip(corpus.sentences, voted):
                assert repaired == repair_bio([r[0] for r in reference[at:at + len(sent)]])
                at += len(sent)
            # the vote is one set over the reference's columns
            votes = diagnostics.votes
            assert votes.sentence_ids == [sent.id for sent in corpus.sentences]
            assert votes.lengths == votes.prediction_lengths == list(map(len, corpus.sentences))
            assert votes.tokens == tuple(chain.from_iterable(s.surfaces for s in corpus.sentences))
            assert list(votes.labels) == list(chain.from_iterable(voted))
            assert diagnostics.surviving.tolist() == [r[1] for r in reference]
            assert [OUTCOMES[o] for o in diagnostics.outcome] == [r[2] for r in reference]
            assert [float.hex(x) for x in votes.scores] == [float.hex(r[3]) for r in reference]
            for v, (_, _, result, _) in zip(token_votes, reference):
                seen["empty"] += result == "empty"
                seen["at threshold"] += any(x.score == config.score_threshold for x in v)
                totals = {}
                for x in v:
                    if x.score > config.score_threshold:
                        totals[x.label] = totals.get(x.label, 0.0) + x.score
                seen["tie"] += (result == "fallback"
                                and sorted(totals.values())[-2:].count(max(totals.values())) == 2)
        # no score exceeds a threshold of 1.0, so every vote there is empty
        assert seen["empty"] >= 20 and seen["at threshold"] >= 20, seen
        assert seen["tie"] >= 20 if config.score_threshold < 1.0 else seen["tie"] == 0, seen

    def test_one_token_vote_is_the_corpus_vote(self):
        # majority_vote runs the same tally as ensemble_corpus, unrepaired:
        # a lone I-PER majority stays I-PER
        v = votes(("I-PER", 0.9), ("I-PER", 0.8), ("O", 0.7))
        assert majority_vote(v) == "I-PER"
        assert _single_token_ensemble(v) == ("B-PER", 3, "majority")


class TestEnsembleCorpus:
    def build_sets(self, rng, corpus, n_models, classes=("PER", "LOC", "CW")):
        sets = []
        for m in range(n_models):
            preds = []
            for sent in corpus.sentences:
                tags = random_bio_tags(rng, len(sent), list(classes))
                scores = rng.random(len(sent))
                preds.append(sentence_predictions(
                    TokenPrediction(t, float(s)) for t, s in zip(tags, scores)))
            sets.append(PredictionSet(
                f"model{m}", preds, [s.id for s in corpus.sentences],
                [s.surfaces for s in corpus.sentences]
            ))
        return sets

    def test_unanimity(self):
        rng = np.random.default_rng(0)
        corpus = random_corpus(rng, 10)
        base = self.build_sets(rng, corpus, 1)[0]
        # clone the same labels with different, always-surviving scores
        sets = []
        for m in range(3):
            preds = [
                sentence_predictions(TokenPrediction(p.label, min(1.0, 0.6 + 0.1 * m))
                                     for p in sent_preds)
                for sent_preds in base.predictions
            ]
            sets.append(PredictionSet(f"m{m}", preds, base.sentence_ids, base.surfaces))
        labels, diags = ensemble_corpus(sets, corpus)
        from seqtag.corpus import repair_bio

        for got, sent_preds in zip(labels, base.predictions):
            assert got == repair_bio([p.label for p in sent_preds])
        assert {OUTCOMES[o] for o in diags.outcome} == {"majority"}

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2024)
        corpus = random_corpus(rng, 50, min_len=1, max_len=10)
        sets = self.build_sets(rng, corpus, 8)
        labels, _ = ensemble_corpus(sets, corpus)
        for si, sent in enumerate(corpus.sentences):
            voted = []
            for ti in range(len(sent)):
                vs = [s.predictions[si][ti] for s in sets]
                voted.append(brute_vote(
                    [v.label for v in vs], [v.score for v in vs], 0.5, 8
                ))
            from seqtag.corpus import repair_bio

            assert labels[si] == repair_bio(voted)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(77)
        corpus = random_corpus(rng, 12)
        sets = self.build_sets(rng, corpus, 5)
        base, _ = ensemble_corpus(sets, corpus)
        for trial in range(10):
            order = rng.permutation(len(sets))
            shuffled = [sets[i] for i in order]
            labels, _ = ensemble_corpus(shuffled, corpus)
            assert labels == base

    def test_output_is_valid_bio(self):
        rng = np.random.default_rng(31)
        corpus = random_corpus(rng, 20)
        sets = self.build_sets(rng, corpus, 3)
        labels, _ = ensemble_corpus(sets, corpus)
        for seq in labels:
            assert validate_bio(seq) == []

    def test_needs_two_sets(self):
        rng = np.random.default_rng(1)
        corpus = random_corpus(rng, 2)
        sets = self.build_sets(rng, corpus, 1)
        with pytest.raises(EnsembleError, match="at least 2"):
            ensemble_corpus(sets, corpus)

    def test_alignment_errors_name_model_and_sentence(self):
        rng = np.random.default_rng(3)
        corpus = random_corpus(rng, 3)
        sets = self.build_sets(rng, corpus, 2)
        short = PredictionSet("shorty", sets[0].predictions[:-1], sets[0].sentence_ids,
                              sets[0].surfaces)
        with pytest.raises(EnsembleError, match="shorty"):
            ensemble_corpus([sets[0], short], corpus)

        bad_len = [list(p) for p in sets[1].predictions]
        bad_len[1] = bad_len[1][:-1] if len(bad_len[1]) > 1 else bad_len[1] + [
            TokenPrediction("O", 0.9)
        ]
        bad_len = [sentence_predictions(p) for p in bad_len]
        broken = PredictionSet("lenny", bad_len, sets[1].sentence_ids, sets[1].surfaces)
        with pytest.raises(EnsembleError) as exc:
            ensemble_corpus([sets[0], broken], corpus)
        assert "lenny" in str(exc.value)
        assert corpus.sentences[1].id in str(exc.value)

        wrong_ids = PredictionSet(
            "iddy", sets[0].predictions, ["x" + s.id for s in corpus.sentences],
            sets[0].surfaces
        )
        with pytest.raises(EnsembleError, match="iddy"):
            ensemble_corpus([sets[0], wrong_ids], corpus)

        # three prediction lists but two ids (or two surface tuples)
        for column, what in (("sentence_ids", "sentence ids"), ("surfaces", "surface tuples")):
            lists = {name: getattr(sets[0], name)
                     for name in ("predictions", "sentence_ids", "surfaces")}
            lists[column] = lists[column][:-1]
            stubby = PredictionSet("stubby", **lists)
            with pytest.raises(EnsembleError,
                               match=f"^model 'stubby': 2 {what}, reference has 3$"):
                ensemble_corpus([sets[0], stubby], corpus)

    def test_every_alignment_message(self):
        # check_alignment compares whole columns and walks the sentences
        # only to name a fault; each message is pinned, through
        # check_alignment and ensemble_corpus alike
        corpus = parse_conll("# a\nx B-PER\ny O\n\n# b\nz O\n")
        preds = [sentence_predictions([("B-PER", 0.9), ("O", 0.8)]),
                 sentence_predictions([("O", 0.7)])]
        ids, surfaces = ["a", "b"], [("x", "y"), ("z",)]
        good = PredictionSet("g", preds, ids, surfaces)
        check_alignment(good, corpus)
        three = [preds[0], sentence_predictions([("O", 0.7), ("O", 0.6)])]
        cases = [
            (PredictionSet("m", preds[:1], ids, surfaces), "1 sentences, reference has 2"),
            (PredictionSet("m", preds, ids[:1], surfaces), "1 sentence ids, reference has 2"),
            (PredictionSet("m", preds, ids, surfaces[:1]), "1 surface tuples, reference has 2"),
            (PredictionSet("m", preds, ["a", "c"], surfaces),
             "sentence 'c' where reference has 'b'"),
            (PredictionSet("m", preds, ids, [("x", "w"), ("z",)]),
             "sentence 'a' tokens do not match the reference corpus"),
            # every token in order, cut into other sentences
            (read_prediction_file("# a\nx O 0.9\n\n# b\ny O 0.8\nz O 0.7\n"),
             "sentence 'a' tokens do not match the reference corpus"),
            (PredictionSet("m", three, ids, surfaces),
             "sentence 'b' has 2 predictions for 1 tokens"),
        ]
        for pset, message in cases:
            pset = pset.to_set("m")
            for check in (lambda: check_alignment(pset, corpus),
                          lambda: ensemble_corpus([good, pset], corpus)):
                with pytest.raises(EnsembleError) as info:
                    check()
                assert str(info.value) == f"model 'm': {message}"

    def test_diagnostics_counts_and_render(self):
        rng = np.random.default_rng(8)
        corpus = random_corpus(rng, 4)
        sets = self.build_sets(rng, corpus, 3)
        _, diags = ensemble_corpus(sets, corpus)
        manual = sum(OUTCOMES[o] != "majority" for o in diags.outcome)
        assert diags.n_fallbacks == manual
        text = diags.render()
        assert text.startswith("# threshold 0.5\n")
        assert "# majority_of models" in text
        assert f"# non_majority_tokens {manual}" in text
        for sent in corpus.sentences:
            assert f"# sentence {sent.id}" in text

    def test_vote_writes_as_its_set(self):
        # the vote is a PredictionSet over the reference: written, it reads
        # back as the same columns, scores to the writer's six decimals, and
        # per_sentence gives each sentence's voted labels
        rng = np.random.default_rng(12)
        corpus = random_corpus(rng, 15)
        voted, diags = ensemble_corpus(self.build_sets(rng, corpus, 4), corpus)
        votes = diags.votes
        assert votes.model_id is None
        data = read_prediction_file(write_prediction_file(corpus, votes.predictions))
        check_alignment(data.to_set("vote"), corpus)
        assert (data.sentence_ids, data.lengths, data.tokens, data.labels) == (
            votes.sentence_ids, votes.lengths, votes.tokens, votes.labels)
        assert data.scores == pytest.approx(votes.scores, abs=1e-6)
        assert [(sid, list(p.labels)) for sid, p in diags.per_sentence] == list(
            zip(votes.sentence_ids, voted))


class TestPredictionFiles:
    def make(self, rng, n=4):
        corpus = random_corpus(rng, n)
        preds = [
            sentence_predictions(TokenPrediction(t, float(rng.random()))
                                 for t in random_bio_tags(rng, len(s), ["PER", "LOC"]))
            for s in corpus.sentences
        ]
        return corpus, preds

    def test_round_trip_with_gold(self):
        rng = np.random.default_rng(5)
        corpus, preds = self.make(rng)
        text = write_prediction_file(corpus, preds)
        data = read_prediction_file(text)
        assert data.sentence_ids == [s.id for s in corpus.sentences]
        assert data.surfaces == [s.surfaces for s in corpus.sentences]
        for got, want in zip(data.predictions, preds):
            assert [p.label for p in got] == [p.label for p in want]
            for g, w in zip(got, want):
                assert g.score == pytest.approx(w.score, abs=1e-6)

    def test_round_trip_without_gold(self):
        rng = np.random.default_rng(6)
        corpus, preds = self.make(rng)
        text = write_prediction_file(corpus, preds, include_gold=False)
        data = read_prediction_file(text)
        assert [len(p) for p in data.predictions] == [len(s) for s in corpus.sentences]

    def test_read_surfaces_compare_equal_to_sentence_surfaces(self):
        # a list never equals a tuple, so surfaces read back as lists would
        # fail every sentence of check_alignment
        rng = np.random.default_rng(8)
        corpus, preds = self.make(rng, n=12)
        data = read_prediction_file(write_prediction_file(corpus, preds))
        for i, sent in enumerate(corpus.sentences):
            assert type(data.surfaces[i]) is type(sent.surfaces)
            assert data.surfaces[i] == sent.surfaces
        check_alignment(data.to_set("m"), corpus)

    def test_to_set_carries_model_id_and_ids(self):
        rng = np.random.default_rng(7)
        corpus, preds = self.make(rng)
        data = read_prediction_file(write_prediction_file(corpus, preds))
        assert data.model_id is None
        pset = data.to_set("model-a")
        assert pset.model_id == "model-a"
        assert pset.sentence_ids == [s.id for s in corpus.sentences]
        assert pset.surfaces == [s.surfaces for s in corpus.sentences]
        labels, _ = ensemble_corpus([pset, data.to_set("model-b")], corpus)
        assert len(labels) == len(corpus.sentences)

    @pytest.mark.parametrize("fault", ["surfaces", "sentence count"])
    def test_file_sets_are_held_to_the_reference(self, fault):
        # the same ids and token counts over other words, or one sentence
        # short: ensemble_corpus and check_alignment both refuse the set
        corpus = parse_conll("# a\nx B-PER\ny O\n\n# b\nz O\n")
        text = "# a\nx B-PER B-PER 0.9\ny O O 0.8\n\n# b\nz O O 0.7\n"
        if fault == "surfaces":
            text = text.replace("y O O", "w O O")
            message = "model 'p.txt': sentence 'a' tokens do not match the reference corpus"
        else:
            text = text.split("\n\n")[0] + "\n"
            message = "model 'p.txt': 1 sentences, reference has 2"
        pset = read_prediction_file(text).to_set("p.txt")
        good = read_prediction_file(write_prediction_file(
            corpus, [sentence_predictions([("O", 0.9)] * len(s)) for s in corpus.sentences]
        )).to_set("q.txt")
        check_alignment(good, corpus)
        with pytest.raises(EnsembleError) as info:
            check_alignment(pset, corpus)
        assert str(info.value) == message
        with pytest.raises(EnsembleError) as info:
            ensemble_corpus([good, pset], corpus)
        assert str(info.value) == message

    def test_blocks_ids_and_surfaces_follow_the_corpus_rules(self):
        nfd = unicodedata.normalize("NFD", "é")
        rows = ["# dropped", "", f"x{nfd}", "", f"# {nfd}", "y", "", "# early", "z",
                "# late", "z", "", "", "w", "w"]
        text = "\n".join(r if not r or r.startswith("#") else f"{r} O B-PER 0.5"
                         for r in rows)
        corpus = parse_conll("\n".join(r if not r or r.startswith("#") else f"{r} O"
                                       for r in rows))
        data = read_prediction_file(text)
        assert data.sentence_ids == [s.id for s in corpus.sentences]
        assert data.sentence_ids == ["s0", "é", "late", "s1"]
        assert data.surfaces == [s.surfaces for s in corpus.sentences]
        assert data.surfaces[0] == ("xé",)

    def test_mixed_column_counts_rejected(self):
        text = "# s0\nalice O B-PER 0.9\nbob O 0.8\n"
        from seqtag.corpus import ParseError

        with pytest.raises(ParseError):
            read_prediction_file(text)

    def test_bad_score_and_label_rejected(self):
        from seqtag.corpus import ParseError

        with pytest.raises((ParseError, Exception)):
            read_prediction_file("# s0\nalice O B-PER 1.7\n")
        with pytest.raises((ParseError, Exception)):
            read_prediction_file("# s0\nalice O PER 0.5\n")
