"""Embedding file formats: whole-word vectors and per-token contextual
vectors, parse/write round trips, and malformed-input errors."""

import numpy as np
import pytest

from seqtag.corpus import ParseError
from seqtag.vectors import (
    parse_contextual_vectors,
    parse_word_vectors,
    write_contextual_vectors,
    write_word_vectors,
)


class TestWordVectors:
    def test_parse_basic(self):
        wv = parse_word_vectors("alice 0.5 -1.0 2.0\nbob 1 2 3\n")
        assert wv.dim == 3
        assert len(wv) == 2
        assert "alice" in wv
        assert "carol" not in wv
        np.testing.assert_allclose(wv.get("alice"), [0.5, -1.0, 2.0])
        assert wv.get("carol") is None

    def test_count_dim_header_skipped(self):
        wv = parse_word_vectors("2 3\nalice 1 2 3\nbob 4 5 6\n")
        assert len(wv) == 2
        assert wv.dim == 3

    def test_two_field_data_line_is_not_a_header(self):
        # a real vector of dimension 1 also has two fields; only an
        # all-integer first line is treated as a header
        wv = parse_word_vectors("alice 0.5\nbob 1.5\n")
        assert len(wv) == 2
        assert wv.dim == 1

    def test_dim_mismatch_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_word_vectors("alice 1 2 3\nbob 1 2\n")

    def test_duplicate_token_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_word_vectors("alice 1 2\nalice 3 4\n")

    def test_malformed_component(self):
        with pytest.raises(ParseError, match="component"):
            parse_word_vectors("alice 1 x\n")

    def test_empty_file_rejected(self):
        with pytest.raises(ParseError, match="no vectors"):
            parse_word_vectors("\n\n")

    @pytest.mark.parametrize("component", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_component_names_the_line(self, component):
        with pytest.raises(ParseError, match="line 2: non-finite vector component"):
            parse_word_vectors(f"alice 1 2\nbob {component} 1\n")

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        text = write_word_vectors(
            parse_word_vectors(
                "\n".join(
                    f"w{i} " + " ".join(f"{x:.6f}" for x in rng.normal(size=4))
                    for i in range(10)
                )
            )
        )
        again = parse_word_vectors(text)
        assert len(again) == 10
        assert text == write_word_vectors(again)


class TestContextualVectors:
    def test_parse_and_lookup(self):
        text = "s0\t0\t1.0\t2.0\ns0\t1\t3.0\t4.0\ns1\t0\t5.0\t6.0\n"
        cv = parse_contextual_vectors(text)
        assert cv.dim == 2
        assert len(cv) == 3
        rows = cv.lookup_sentence("s0", 2)
        np.testing.assert_allclose(rows, [[1.0, 2.0], [3.0, 4.0]])

    def test_missing_position_names_sentence_and_index(self):
        cv = parse_contextual_vectors("s0\t0\t1.0\n")
        with pytest.raises(KeyError, match="'s0' token 1"):
            cv.lookup_sentence("s0", 2)
        with pytest.raises(KeyError, match="'s9' token 0"):
            cv.lookup_sentence("s9", 1)

    def test_bad_index_and_duplicates(self):
        with pytest.raises(ParseError, match="not an integer"):
            parse_contextual_vectors("s0\tx\t1.0\n")
        with pytest.raises(ParseError, match="negative"):
            parse_contextual_vectors("s0\t-1\t1.0\n")
        with pytest.raises(ParseError, match="duplicate"):
            parse_contextual_vectors("s0\t0\t1.0\ns0\t0\t2.0\n")

    def test_dim_mismatch(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_contextual_vectors("s0\t0\t1.0\t2.0\ns0\t1\t1.0\n")

    @pytest.mark.parametrize("component", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_component_names_the_line(self, component):
        with pytest.raises(ParseError, match="line 2: non-finite vector component"):
            parse_contextual_vectors(f"s0\t0\t1.0\ns0\t1\t{component}\n")

    def test_too_few_fields(self):
        with pytest.raises(ParseError, match="expected sentence id"):
            parse_contextual_vectors("s0\t0\n")

    def test_round_trip(self):
        rng = np.random.default_rng(9)
        entries = []
        for sid in ("a", "b"):
            for idx in range(3):
                comps = "\t".join(f"{x:.6f}" for x in rng.normal(size=3))
                entries.append(f"{sid}\t{idx}\t{comps}")
        text = write_contextual_vectors(parse_contextual_vectors("\n".join(entries)))
        again = parse_contextual_vectors(text)
        assert len(again) == 6
        assert write_contextual_vectors(again) == text
