"""Embedding file formats: whole-word vectors and per-token contextual
vectors, parsing, NFC keys, and malformed-input errors."""

import numpy as np
import pytest

from seqtag.corpus import ParseError
from seqtag.vectors import parse_contextual_vectors, parse_word_vectors


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
        wv = parse_word_vectors("2 3\nw0 0.125000 -1.500000 2.000000\nw1 1e-3 -0 7\n")
        assert sorted(wv.vectors) == ["w0", "w1"]
        np.testing.assert_array_equal(wv.get("w0"), [0.125, -1.5, 2.0])
        np.testing.assert_array_equal(wv.get("w1"), [0.001, 0.0, 7.0])

    def test_tokens_are_nfc_normalized_like_corpus_surfaces(self):
        # U+09DF is not NFC: normalization decomposes it into U+09AF U+09BC
        wv = parse_word_vectors("\u09df 1 2\n")
        assert "\u09af\u09bc" in wv
        with pytest.raises(ParseError, match="line 2: duplicate token"):
            parse_word_vectors("\u09df 1 2\n\u09af\u09bc 3 4\n")


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
        cv = parse_contextual_vectors("a\t0\t0.5\t-1\na\t1\t2\t3e-1\nb\t0\t-0.25\t4\n")
        assert sorted(cv.vectors) == [("a", 0), ("a", 1), ("b", 0)]
        np.testing.assert_array_equal(cv.lookup_sentence("a", 2), [[0.5, -1.0], [2.0, 0.3]])
        np.testing.assert_array_equal(cv.lookup_sentence("b", 1), [[-0.25, 4.0]])

    def test_sentence_ids_are_nfc_normalized_like_corpus_ids(self):
        cv = parse_contextual_vectors("\u09df-1\t0\t1.0\n")
        np.testing.assert_array_equal(cv.lookup_sentence("\u09af\u09bc-1", 1), [[1.0]])


@pytest.mark.parametrize("parser, text, message", [
    (parse_word_vectors, "alice 1 2\nbob\n", "line 2: expected token and components"),
    (parse_word_vectors, "alice 1 2\n\nbob 1 x\n", "line 3: malformed vector component"),
    (parse_word_vectors, "alice 1 2\nbob 1\n", "line 2: vector has 1 components, expected 2"),
    (parse_word_vectors, "2 2\nalice 1 2\nalice 3 4\n", "line 3: duplicate token 'alice'"),
    (parse_contextual_vectors, "s0\t0\t1\ns0\tx\t1\n", "line 2: token index 'x' not an integer"),
    (parse_contextual_vectors, "s0\t-1\t1\n", "line 1: negative token index"),
    (parse_contextual_vectors, "s0\t0\t1\ns0\t0\t2\n", "line 2: duplicate entry for 's0' token 0"),
])
def test_parse_errors_carry_the_line_number(parser, text, message):
    with pytest.raises(ParseError) as info:
        parser(text)
    assert str(info.value) == message
    assert info.value.line_number == int(message.split(":")[0].split()[1])
