"""Chunk-level scoring checked against a brute-force set-intersection
oracle, plus hand-computed cases and report arithmetic."""

import numpy as np
import pytest

from seqtag.corpus import CorpusError, LabeledCorpus, Sentence, TagSet
from seqtag.evaluation import evaluate

from helpers import brute_chunks, brute_prf, random_bio_tags, random_corpus


def corpus_from_tags(tag_lists, classes):
    sentences = [
        Sentence(f"s{i}", tuple(f"w{j}" for j in range(len(tags))), tuple(tags))
        for i, tags in enumerate(tag_lists)
    ]
    return LabeledCorpus(sentences, TagSet(classes))


class TestHandCases:
    def test_one_matched_one_missed_gives_macro_half(self):
        # gold: PER over [0,2), LOC over [3,4); predicted: PER only
        gold = corpus_from_tags([["B-PER", "I-PER", "O", "B-LOC"]], ["PER", "LOC"])
        report = evaluate(gold, [["B-PER", "I-PER", "O", "O"]])
        per = report.per_class["PER"]
        assert (per.precision, per.recall, per.f1) == (1.0, 1.0, 1.0)
        loc = report.per_class["LOC"]
        assert (loc.precision, loc.recall, loc.f1) == (0.0, 0.0, 0.0)
        assert report.macro_f1 == pytest.approx(0.5)

    def test_exact_match_required_for_tp(self):
        # boundary off by one token: no credit
        gold = corpus_from_tags([["B-PER", "I-PER", "O"]], ["PER"])
        report = evaluate(gold, [["B-PER", "O", "O"]])
        assert report.per_class["PER"].f1 == 0.0
        # class mismatch on identical span: no credit either
        gold2 = corpus_from_tags([["B-PER", "I-PER"]], ["PER", "LOC"])
        report2 = evaluate(gold2, [["B-LOC", "I-LOC"]])
        assert report2.per_class["PER"].f1 == 0.0
        assert report2.per_class["LOC"].precision == 0.0

    def test_perfect_prediction(self):
        tags = [["B-PER", "I-PER", "O", "B-LOC"], ["O", "B-CW", "I-CW"]]
        gold = corpus_from_tags(tags, ["PER", "LOC", "CW"])
        report = evaluate(gold, tags)
        assert report.macro_f1 == 1.0
        assert report.macro_precision == 1.0
        assert report.macro_recall == 1.0
        assert report.token_accuracy == 1.0
        assert report.n_tokens == 7

    def test_all_o_prediction_scores_zero(self):
        gold = corpus_from_tags([["B-PER", "O", "B-LOC"]], ["PER", "LOC"])
        report = evaluate(gold, [["O", "O", "O"]])
        assert report.macro_f1 == 0.0
        assert report.token_accuracy == pytest.approx(1 / 3)

    def test_macro_universe_is_gold_union_predicted(self):
        # predicted invents a class absent from gold; it must drag the macro
        gold = corpus_from_tags([["B-PER", "O"]], ["PER", "LOC"])
        report = evaluate(gold, [["B-PER", "B-LOC"]])
        assert set(report.per_class) == {"PER", "LOC"}
        assert report.per_class["LOC"].support == 0
        assert report.macro_f1 == pytest.approx(0.5)

    def test_support_counts_gold_chunks(self):
        gold = corpus_from_tags(
            [["B-PER", "B-PER", "O"], ["B-PER", "I-PER"]], ["PER"]
        )
        report = evaluate(gold, [["O", "O", "O"], ["O", "O"]])
        assert report.per_class["PER"].support == 3


class TestValidation:
    def test_sentence_count_mismatch(self):
        gold = corpus_from_tags([["O"], ["O"]], ["PER"])
        with pytest.raises(CorpusError, match="count"):
            evaluate(gold, [["O"]])

    def test_length_mismatch_names_sentence(self):
        gold = corpus_from_tags([["O", "O"]], ["PER"])
        with pytest.raises(CorpusError, match="s0"):
            evaluate(gold, [["O"]])

    def test_invalid_predicted_tag_rejected(self):
        gold = corpus_from_tags([["O"]], ["PER"])
        with pytest.raises(CorpusError, match="BIO"):
            evaluate(gold, [["PER"]])


class TestOracleAgreement:
    def test_matches_brute_force_on_random_corpora(self):
        rng = np.random.default_rng(20240817)
        for trial in range(200):
            classes = ["PER", "LOC", "CW"][: int(rng.integers(1, 4))]
            gold = random_corpus(rng, int(rng.integers(1, 9)), classes)
            pred_tags = [
                random_bio_tags(rng, len(s), classes) for s in gold.sentences
            ]
            report = evaluate(gold, pred_tags)

            gold_chunks = [brute_chunks(s.gold_tags) for s in gold.sentences]
            pred_chunks = [brute_chunks(t) for t in pred_tags]
            expected, expected_macro = brute_prf(gold_chunks, pred_chunks)

            assert set(report.per_class) == set(expected)
            for cls, (p, r, f) in expected.items():
                got = report.per_class[cls]
                assert got.precision == pytest.approx(p, abs=1e-12)
                assert got.recall == pytest.approx(r, abs=1e-12)
                assert got.f1 == pytest.approx(f, abs=1e-12)
            assert report.macro_f1 == pytest.approx(expected_macro, abs=1e-12)

    def test_token_accuracy_matches_direct_count(self):
        rng = np.random.default_rng(5)
        for trial in range(50):
            gold = random_corpus(rng, 5, ["PER"])
            pred = [random_bio_tags(rng, len(s), ["PER"]) for s in gold.sentences]
            report = evaluate(gold, pred)
            hits = sum(
                g == p
                for s, tags in zip(gold.sentences, pred)
                for g, p in zip(s.gold_tags, tags)
            )
            assert report.token_accuracy == pytest.approx(hits / report.n_tokens)


class TestRendering:
    def test_table_lists_classes_and_macro(self):
        gold = corpus_from_tags([["B-PER", "O", "B-LOC"]], ["PER", "LOC"])
        report = evaluate(gold, [["B-PER", "O", "O"]])
        table = report.render_table()
        lines = table.splitlines()
        assert lines[0].startswith("class")
        assert any(line.startswith("LOC") for line in lines)
        assert any(line.startswith("PER") for line in lines)
        assert any(line.startswith("macro") for line in lines)
        assert "token accuracy" in lines[-1]

    def test_kv_output_is_parseable(self):
        gold = corpus_from_tags([["B-PER", "O"]], ["PER"])
        report = evaluate(gold, [["B-PER", "O"]])
        kv = dict(
            line.split(" = ") for line in report.render_kv().splitlines()
        )
        assert float(kv["macro_f1"]) == 1.0
        assert int(kv["n_tokens"]) == 2
        assert float(kv["precision.PER"]) == 1.0
