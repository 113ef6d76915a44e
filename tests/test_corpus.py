import numpy as np
import pytest

from seqtag.corpus import (
    Chunk,
    ColumnConfig,
    CorpusError,
    ParseError,
    Token,
    corpus_stats,
    extract_chunks,
    parse_conll,
    repair_bio,
    split_corpus,
    validate_bio,
    write_conll,
)

from helpers import brute_chunks, random_bio_tags, tiny_fixture_corpus


class TestParseConll:
    def test_two_token_sentence(self):
        corpus = parse_conll("dhaka B-LOC\nuniversity O\n\n")
        assert len(corpus) == 1
        assert corpus.sentences[0].surfaces == ["dhaka", "university"]
        assert corpus.sentences[0].gold_tags == ["B-LOC", "O"]
        assert corpus.tagset.classes == ("LOC",)

    def test_missing_tag_column_names_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_conll("token\n\n")

    def test_bad_tag_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_conll("a O\nb X-LOC\n\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_conll("   \n  \n")

    def test_comment_ids_and_generated_ids(self):
        corpus = parse_conll("# doc1\na O\n\nb O\n\n")
        assert [s.id for s in corpus.sentences] == ["doc1", "s0"]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(CorpusError, match="duplicate"):
            parse_conll("# x\na O\n\n# x\nb O\n\n")

    def test_filler_columns_preserved(self):
        corpus = parse_conll("dhaka _ _ B-LOC\n\n")
        tok = corpus.sentences[0].tokens[0]
        assert tok.extras == ("_", "_")
        assert write_conll(corpus).splitlines()[1] == "dhaka _ _ B-LOC"

    def test_pos_column(self):
        corpus = parse_conll("dhaka NNP B-LOC\n\n", ColumnConfig(pos_col=1))
        assert corpus.sentences[0].tokens[0].pos == "NNP"

    def test_nfc_normalization(self):
        # e + combining acute composes to a single code point
        corpus = parse_conll("café O\n\n")
        assert corpus.sentences[0].tokens[0].surface == "café"


class TestWriteConll:
    def test_round_trip_text(self):
        text = "# s0\ndhaka B-LOC\nuniversity I-LOC\n\n# s1\nhello O\n"
        corpus = parse_conll(text)
        canonical = write_conll(corpus)
        assert parse_conll(canonical).sentences == corpus.sentences
        # canonical form is a fixed point
        assert write_conll(parse_conll(canonical)) == canonical

    def test_fixture_round_trip_bit_identical(self):
        corpus = tiny_fixture_corpus()
        text = write_conll(corpus)
        reparsed = parse_conll(text, ColumnConfig(pos_col=1))
        assert reparsed.sentences == corpus.sentences
        assert write_conll(reparsed) == text


class TestBioValidation:
    def test_clean_sequence(self):
        assert validate_bio(["B-PER", "I-PER", "O"]) == []

    def test_orphan_inside(self):
        assert validate_bio(["O", "I-PER"]) == [1]

    def test_class_mismatch(self):
        assert validate_bio(["B-PER", "I-LOC"]) == [1]

    def test_repair_orphans(self):
        assert repair_bio(["O", "I-PER", "I-PER"]) == ["O", "B-PER", "I-PER"]

    def test_repair_identity_on_valid(self):
        assert repair_bio(["B-LOC", "I-LOC"]) == ["B-LOC", "I-LOC"]

    def test_repair_always_validates_clean(self):
        rng = np.random.default_rng(7)
        labels = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]
        for _ in range(200):
            tags = [labels[i] for i in rng.integers(0, len(labels), size=10)]
            assert validate_bio(repair_bio(tags)) == []


class TestExtractChunks:
    def test_basic(self):
        chunks = extract_chunks(["B-PER", "I-PER", "O", "B-LOC"])
        assert chunks == [Chunk("PER", 0, 2), Chunk("LOC", 3, 4)]

    def test_empty(self):
        assert extract_chunks(["O", "O"]) == []

    def test_orphan_inside_opens_a_chunk_as_if_repaired(self):
        # conlleval reads an I-X with no B-X/I-X before it as a chunk start
        assert extract_chunks(["O", "I-PER", "I-PER", "I-LOC"]) == [
            Chunk("PER", 1, 3), Chunk("LOC", 3, 4)]
        rng = np.random.default_rng(13)
        labels = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]
        for _ in range(300):
            tags = [labels[i] for i in rng.integers(0, len(labels), size=rng.integers(1, 12))]
            assert extract_chunks(tags) == extract_chunks(repair_bio(tags))

    def test_grammar_violation_rejected(self):
        with pytest.raises(CorpusError, match="BIO grammar"):
            extract_chunks(["O", "X-PER"])

    def test_exhaustive_against_run_scanner(self):
        # all valid sequences of length <= 5 over {O, B-PER, I-PER}
        import itertools

        labels = ["O", "B-PER", "I-PER"]
        for length in range(1, 6):
            for seq in itertools.product(labels, repeat=length):
                if validate_bio(list(seq)):
                    continue
                got = [(c.cls, c.start, c.end) for c in extract_chunks(list(seq))]
                assert got == brute_chunks(list(seq))

    def test_repaired_chunks_cover_non_o_tokens(self):
        rng = np.random.default_rng(11)
        labels = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]
        for _ in range(200):
            tags = [labels[i] for i in rng.integers(0, len(labels), size=12)]
            repaired = repair_bio(tags)
            covered = set()
            for c in extract_chunks(repaired):
                covered.update(range(c.start, c.end))
            expected = {i for i, t in enumerate(repaired) if t != "O"}
            assert covered == expected


class TestSplitCorpus:
    def test_sizes(self, ):
        from helpers import random_corpus

        corpus = random_corpus(np.random.default_rng(0), 10)
        train, dev = split_corpus(corpus, 0.7, seed=1)
        assert (len(train), len(dev)) == (7, 3)

    def test_deterministic(self):
        from helpers import random_corpus

        corpus = random_corpus(np.random.default_rng(0), 20)
        a = split_corpus(corpus, 0.5, seed=42)
        b = split_corpus(corpus, 0.5, seed=42)
        assert [s.id for s in a[0].sentences] == [s.id for s in b[0].sentences]
        assert [s.id for s in a[1].sentences] == [s.id for s in b[1].sentences]

    def test_partition(self):
        from helpers import random_corpus

        corpus = random_corpus(np.random.default_rng(3), 23)
        train, dev = split_corpus(corpus, 0.31, seed=5)
        train_ids = {s.id for s in train.sentences}
        dev_ids = {s.id for s in dev.sentences}
        assert not (train_ids & dev_ids)
        assert train_ids | dev_ids == {s.id for s in corpus.sentences}

    def test_bad_fraction(self):
        from helpers import random_corpus

        corpus = random_corpus(np.random.default_rng(0), 4)
        for frac in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(CorpusError):
                split_corpus(corpus, frac, seed=0)


class TestCorpusStats:
    def test_single_vs_multi(self):
        corpus = parse_conll("a B-PER\nb O\nc B-LOC\nd I-LOC\n\n")
        stats = corpus_stats(corpus)
        assert stats.single_token_chunks == 1
        assert stats.multi_token_chunks == 1
        assert stats.class_chunks == {"PER": 1, "LOC": 1}

    def test_all_o(self):
        corpus = parse_conll("a O\nb O\n\n")
        stats = corpus_stats(corpus)
        assert stats.total_chunks == 0
        assert stats.class_chunks == {}

    def test_fixture_hand_count(self):
        stats = corpus_stats(tiny_fixture_corpus())
        # hand count: PER chunks s0:1 s2:2; LOC s0:1; CW s1:1
        assert stats.n_sentences == 3
        assert stats.n_tokens == 13
        assert stats.class_chunks == {"PER": 3, "LOC": 1, "CW": 1}
        assert stats.single_token_chunks == 3
        assert stats.multi_token_chunks == 2
        assert stats.total_chunks == 5

    def test_single_plus_multi_equals_total(self):
        from helpers import random_corpus

        rng = np.random.default_rng(9)
        for _ in range(20):
            corpus = random_corpus(rng, 6)
            stats = corpus_stats(corpus)
            assert stats.single_token_chunks + stats.multi_token_chunks == sum(
                stats.class_chunks.values()
            )


class TestTokenInvariants:
    def test_whitespace_surface_rejected(self):
        with pytest.raises(CorpusError):
            Token("two words", "O")

    def test_empty_surface_rejected(self):
        with pytest.raises(CorpusError):
            Token("", "O")

    def test_bad_tag_rejected(self):
        with pytest.raises(CorpusError):
            Token("a", "B-")
