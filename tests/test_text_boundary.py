"""Checks made once where text enters the program: the parsers' row faults
keep their messages and line numbers, records built through the trusted
path equal (and weigh the same as) publicly constructed ones, and the
shortcuts that skip work (unanimous votes, unchanged translations, the
whitespace rule) agree with the slow forms they replace."""

import gc
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from seqtag import cli
from seqtag import corpus as corpus_module
from seqtag import tagger
from seqtag.augment import Lexicon, OfflineLexiconBackend, _entry_problem, token_translate
from seqtag.corpus import (
    ColumnConfig,
    CorpusError,
    LabeledCorpus,
    ParseError,
    Sentence,
    TagSet,
    Token,
    parse_conll,
    repair_bio,
)
from seqtag.ensemble import (
    PredictionFileData,
    PredictionSet,
    VoteConfig,
    _vote,
    ensemble_corpus,
    read_prediction_file,
)
from seqtag.evaluation import evaluate
from seqtag.tagger import TokenPrediction

from helpers import random_bio_tags, random_corpus

# every code point but the surrogates, which no UTF-8 input can hold
ALL_CHARS = "".join(chr(cp) for cp in range(0x110000) if not 0xD800 <= cp <= 0xDFFF)
WHITESPACE = sorted(ch for ch in ALL_CHARS if ch.isspace())


class TestWhitespaceRule:
    def test_split_splits_at_exactly_the_isspace_characters(self):
        assert set(ALL_CHARS) - set("".join(ALL_CHARS.split())) == set(WHITESPACE)
        assert len(WHITESPACE) == 29

    @pytest.mark.parametrize("ws", WHITESPACE)
    def test_token_and_lexicon_reject_each_whitespace_character(self, ws):
        for surface in (ws, f"a{ws}", f"{ws}a", f"a{ws}b"):
            with pytest.raises(CorpusError, match="empty or contains whitespace"):
                Token(surface)
            assert _entry_problem(surface, "x") is not None
            assert _entry_problem("x", surface) is not None

    def test_empty_surface_is_rejected_and_others_accepted(self):
        with pytest.raises(CorpusError, match="empty or contains whitespace"):
            Token("")
        assert _entry_problem("", "x") is not None
        for surface in ("a", "ঢাকা", "\u200b", "\x00", "café"):
            assert Token(surface).surface == surface
            assert _entry_problem(surface, surface) is None


# (text, columns, message): each row has one or two faults, and the message
# is the one the checks gave when every record re-ran its own validation
CONLL_FAULTS = [
    ("a O\nb\n", None, "line 2: expected at least 2 distinct columns, got 1: 'b'"),
    ("a O\nb X-LOC\n", None, "line 2: tag 'X-LOC' does not match the BIO grammar"),
    ("a B-PER\nb B-PER\n\nc B-\n", None, "line 4: tag 'B-' does not match the BIO grammar"),
    ("a NN X\n", None, "line 1: tag 'X' does not match the BIO grammar"),
    ("a NN B-PER\nb B-PER\n# id\nc O O O Q\n", None,
     "line 4: tag 'Q' does not match the BIO grammar"),
    ("a NN O\nb X\n", ColumnConfig(pos_col=1),
     "line 2: expected at least 3 distinct columns, got 2: 'b X'"),
    ("a NN\n", ColumnConfig(pos_col=1, tag_col=1),
     "line 1: expected at least 3 distinct columns, got 2: 'a NN'"),
    ("a O\nb Y\nc\n", None, "line 2: tag 'Y' does not match the BIO grammar"),
    ("a O\nb\nc Y\n", None, "line 2: expected at least 2 distinct columns, got 1: 'b'"),
    ("a b c\nd e\n", ColumnConfig(tag_col=None, pos_col=2),
     "line 2: expected at least 2 distinct columns, got 2: 'd e'"),
]

PREDICTION_FAULTS = [
    ("a O\n", "line 1: expected 3 or 4 columns (token [gold] predicted score), got 2"),
    ("a O O 0.5\nb O 0.5\n", "line 2: mixed 3- and 4-column rows in one file"),
    ("a O 0.5\nb O O 0.5\n", "line 2: mixed 3- and 4-column rows in one file"),
    ("a X O 0.5\n", "line 1: gold tag 'X' does not match the BIO grammar"),
    ("a O O x\n", "line 1: malformed score 'x'"),
    ("a O B- 0.5\n", "line 1: invalid BIO label 'B-'"),
    ("a O O 1.5\n", "line 1: prediction score 1.5 outside [0, 1]"),
    ("a O O -0.1\n", "line 1: prediction score -0.1 outside [0, 1]"),
    ("a O O nan\n", "line 1: prediction score nan outside [0, 1]"),
    ("a B-X B-X 0.5\n\nb O I-X 0.5\nc I-X Q 0.5\n", "line 4: invalid BIO label 'Q'"),
    # two faults in one row: the earlier check names the fault
    ("a X Y 0.5\n", "line 1: gold tag 'X' does not match the BIO grammar"),
    ("a X O zz\n", "line 1: gold tag 'X' does not match the BIO grammar"),
    ("a O Y zz\n", "line 1: malformed score 'zz'"),
    ("a O Y 2\n", "line 1: invalid BIO label 'Y'"),
    ("a Y 7\n", "line 1: invalid BIO label 'Y'"),
    ("a b c d e\n", "line 1: expected 3 or 4 columns (token [gold] predicted score), got 5"),
    ("a O O 0.5\nb Y 7\n", "line 2: mixed 3- and 4-column rows in one file"),
    ("a O 0.5\nb X Y 2\n", "line 2: mixed 3- and 4-column rows in one file"),
]


class TestRowFaults:
    @pytest.mark.parametrize("text, columns, message", CONLL_FAULTS)
    def test_parse_conll(self, text, columns, message):
        with pytest.raises(ParseError) as info:
            parse_conll(text, columns or ColumnConfig())
        assert str(info.value) == message
        assert info.value.line_number == int(message.split(":")[0].split()[1])

    @pytest.mark.parametrize("text, message", PREDICTION_FAULTS)
    def test_read_prediction_file(self, text, message):
        with pytest.raises(ParseError) as info:
            read_prediction_file(text)
        assert str(info.value) == message
        assert info.value.line_number == int(message.split(":")[0].split()[1])

    def test_surface_that_normalizes_to_whitespace_is_rejected(self, monkeypatch):
        # NFC maps no non-space character to a space; the parser checks anyway
        monkeypatch.setattr(corpus_module, "_normalize",
                            lambda s: "x y" if s == "b" else s)
        with pytest.raises(ParseError) as info:
            parse_conll("a O\nb O\n")
        assert str(info.value) == (
            "line 2: token surface 'x y' is empty or contains whitespace")

    def test_evaluate_names_the_first_invalid_tag(self):
        gold = parse_conll("# s1\na B-PER\nb O\n\n# s2\nc O\nd O\n")
        with pytest.raises(CorpusError) as info:
            evaluate(gold, [["B-PER", "O"], ["O", "B-"]])
        assert str(info.value) == "sentence 's2': invalid BIO tag 'B-'"


# Token's and TokenPrediction's fields in classes of their own, built only
# through their constructors. A trusted path that filled the instance
# __dict__ would change how every Token is stored, public ones included, so
# the yardstick cannot be Token itself.
@dataclass(frozen=True)
class TokenFields:
    surface: str
    gold_tag: str
    pos: str | None
    extras: tuple


@dataclass(frozen=True)
class PredictionFields:
    label: str
    score: float


def retained_bytes(build):
    """Bytes still allocated after ``build()`` returns, its result kept."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = build()  # noqa: F841 (held until the measurement)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


class TestTrustedRecords:
    N = 10_000

    def test_parsed_tokens_equal_public_ones(self):
        text = "# x\nAda NNP e1 B-PER\nLovelace NNP e2 I-PER\nwrote VBD e3 O\n\nCafé NN O\n"
        parsed = parse_conll(text, ColumnConfig(pos_col=1))
        expected = [
            [Token("Ada", "B-PER", "NNP", ("e1",)), Token("Lovelace", "I-PER", "NNP", ("e2",)),
             Token("wrote", "O", "VBD", ("e3",))],
            [Token("Café", "O", "NN", ())],
        ]
        assert [list(s.tokens) for s in parsed.sentences] == expected
        assert all(type(t) is Token for s in parsed.sentences for t in s.tokens)

    def test_read_predictions_equal_public_ones(self):
        data = read_prediction_file("a O B-PER 0.250000\nb O I-PER 1.000000\n")
        assert data.predictions == [[TokenPrediction("B-PER", 0.25),
                                     TokenPrediction("I-PER", 1.0)]]

    def test_parsed_tokens_weigh_what_public_ones_do(self):
        text = "# s\n" + "a O\n" * self.N
        parse_conll(text)  # warm any per-module caches
        parsed = retained_bytes(lambda: parse_conll(text))
        public = retained_bytes(lambda: LabeledCorpus(
            [Sentence("s", tuple([TokenFields("a", "O", None, ()) for _ in range(self.N)]))],
            TagSet([])))
        # a materialized per-instance __dict__ costs more than 64 bytes a token
        assert parsed - public < 8 * self.N

    def test_read_predictions_weigh_what_public_ones_do(self):
        text = "# s\n" + "a O O 0.500000\n" * self.N
        read_prediction_file(text)
        parsed = retained_bytes(lambda: read_prediction_file(text))
        public = retained_bytes(lambda: PredictionFileData(
            ["s"], [["a" for _ in range(self.N)]], [["O" for _ in range(self.N)]],
            [[PredictionFields("O", float("0.500000")) for _ in range(self.N)]]))
        assert parsed - public < 8 * self.N

    def test_translation_shares_unchanged_tokens(self):
        base = parse_conll("a NN B-PER\nb NN O\nc NN O\n", ColumnConfig(pos_col=1))
        lexicon = Lexicon("lex", "src", "tgt", {"a": "x", "b": "b"})
        kept = token_translate(base, OfflineLexiconBackend(lexicon), "keep")
        marked = token_translate(base, OfflineLexiconBackend(lexicon), "mark-unknown")
        old = base.sentences[0].tokens
        assert list(kept.sentences[0].tokens) == [
            Token("x", "B-PER", "NN"), Token("b", "O", "NN"), Token("c", "O", "NN")]
        assert kept.sentences[0].tokens[1] is old[1]
        assert kept.sentences[0].tokens[2] is old[2]
        assert marked.sentences[0].tokens[2] == Token("<unk>", "O", "NN")


class TestUnanimousVotes:
    @pytest.mark.parametrize("config", [
        VoteConfig(), VoteConfig(0.3, "survivors"), VoteConfig(0.0), VoteConfig(1.0)])
    def test_diagnostics_equal_the_full_tally(self, config):
        rng = np.random.default_rng(5)
        reference = random_corpus(rng, 40, min_len=1, max_len=9)
        base = [random_bio_tags(rng, len(sent), ["PER", "LOC"]) for sent in reference.sentences]
        sets = []
        for m in range(5):
            # each model keeps the shared label of a token with probability 0.8
            preds = [[TokenPrediction(t if rng.random() < 0.8 else "B-PER", float(rng.random()))
                      for t in tags] for tags in base]
            sets.append(PredictionSet(f"m{m}", preds))
        labels, diagnostics = ensemble_corpus(sets, reference, config)
        unanimous = 0
        for si, (sid, diags) in enumerate(diagnostics.per_sentence):
            full = [_vote([s.predictions[si][ti] for s in sets], config)
                    for ti in range(len(diags))]
            unanimous += sum(
                len({s.predictions[si][ti].label for s in sets}) == 1 for ti in range(len(diags)))
            assert labels[si] == repair_bio([f[0] for f in full])
            assert [(d.label, d.surviving, d.outcome, d.score) for d in diags] == [
                (lab, f[1], f[2], f[3]) for lab, f in zip(labels[si], full)]
        assert unanimous > 20


class TestModelLabels:
    def test_a_class_that_cannot_form_a_label_fails_at_load(self, tmp_path, capsys):
        corpus = parse_conll("alice B-PER\nbob O\n\nbob O\nalice B-PER\n")
        config = tagger.TaggerConfig(word_dim=4, hidden=4, lstm_layers=1, max_epochs=1)
        path = tmp_path / "m.bin"
        tagger.save_model(tagger.build_model(config, corpus), path)
        # a hand-edited class name of the same length: "B-P R" breaks the grammar
        path.write_bytes(path.read_bytes().replace(b'"PER"', b'"P R"', 1))
        with pytest.raises(tagger.ModelError) as info:
            tagger.load_model(path)
        assert str(info.value) == (
            f"{path}: model header classes: 'P R' cannot form a BIO label")
        (tmp_path / "in.conll").write_text("alice B-PER\n", encoding="utf-8")
        code = cli.main(["predict", str(path), str(tmp_path / "in.conll"),
                         str(tmp_path / "out.txt")])
        assert code == 1
        assert f"{path}: model header classes" in capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()

    def test_predictions_equal_public_ones(self):
        rng = np.random.default_rng(3)
        corpus = random_corpus(rng, 12, min_len=1, max_len=9)
        config = tagger.TaggerConfig(word_dim=4, hidden=4, lstm_layers=1, max_epochs=1)
        model = tagger.build_model(config, corpus)
        for preds in tagger.predict_corpus(model, corpus):
            assert preds == [TokenPrediction(p.label, p.score) for p in preds]
            assert all(type(p.score) is float for p in preds)
