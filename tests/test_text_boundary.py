"""Checks made once where text enters or leaves the program: the parsers'
row faults keep their messages and line numbers, the prediction writer
refuses what the reader would, parsed sentences and predictions equal
publicly constructed ones (and read predictions weigh no more than plain
two-field records), the shortcuts that skip work (translations that share
columns, the whitespace rule) agree with the slow forms they replace, and
ensemble diagnostics, unanimous votes included, equal the per-token tally."""

import dataclasses
import gc
import json
import random
import tracemalloc
import unicodedata
from dataclasses import dataclass

import numpy as np
import pytest

from seqtag import cli
from seqtag import corpus as corpus_module
from seqtag import tagger
from seqtag.augment import (
    Lexicon,
    OfflineLexiconBackend,
    _entry_problem,
    combine,
    token_translate,
)
from seqtag.corpus import (
    ColumnConfig,
    CorpusError,
    ParseError,
    Sentence,
    parse_conll,
    repair_bio,
)
from seqtag.ensemble import (
    EnsembleError,
    PredictionSet,
    SentenceVotes,
    VoteConfig,
    ensemble_corpus,
    read_prediction_file,
    write_prediction_file,
)
from seqtag.evaluation import evaluate
from seqtag.tagger import SentencePredictions, TokenPrediction

from helpers import (
    random_bio_tags,
    random_corpus,
    reference_conll_blocks,
    reference_vote,
    sentence_predictions,
)

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
                Sentence("s", (surface,), ("O",))
            assert _entry_problem(surface, "x") is not None
            assert _entry_problem("x", surface) is not None

    def test_empty_surface_is_rejected_and_others_accepted(self):
        with pytest.raises(CorpusError, match="empty or contains whitespace"):
            Sentence("s", ("",), ("O",))
        assert _entry_problem("", "x") is not None
        for surface in ("a", "ঢাকা", "\u200b", "\x00", "café"):
            assert Sentence("s", (surface,), ("O",)).surfaces == (surface,)
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
    ("a NN\n", ColumnConfig(pos_col=1),
     "line 1: expected at least 3 distinct columns, got 2: 'a NN'"),
    ("a O\nb Y\nc\n", None, "line 2: tag 'Y' does not match the BIO grammar"),
    ("a O\nb\nc Y\n", None, "line 2: expected at least 2 distinct columns, got 1: 'b'"),
    ("a b c\nd e\n", ColumnConfig(labeled=False, pos_col=2),
     "line 2: --pos-col 2 is not a column of a 2-column row: 'd e'"),
    ("a NN O\nb X\n", ColumnConfig(pos_col=0),
     "line 1: --pos-col 0 is the token column: 'a NN O'"),
    ("a NN O\n", ColumnConfig(pos_col=2), "line 1: --pos-col 2 is the tag column: 'a NN O'"),
    ("a NN O\n", ColumnConfig(pos_col=-1),
     "line 1: --pos-col -1 is not a column of a 3-column row: 'a NN O'"),
]

PREDICTION_FAULTS = [
    ("  \n", "empty prediction file"),
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
        line = int(message.split(":")[0].split()[1]) if message.startswith("line ") else None
        assert info.value.line_number == line

    @pytest.mark.parametrize("votes, rows, message", [
        (False, [("O", 1.0), ("PER", 0.5)], "sentence 'b': invalid BIO label 'PER'"),
        (False, [("O", 1.0), ("O", 1.5)], "sentence 'b': prediction score 1.5 outside [0, 1]"),
        (False, [("O", 1.0), ("O", -0.1)], "sentence 'b': prediction score -0.1 outside [0, 1]"),
        (False, [("O", 1.0), ("O", float("nan"))],
         "sentence 'b': prediction score nan outside [0, 1]"),
        # the first faulty row names the fault, as the reader's rows do
        (False, [("O", 2.5), ("PER", 0.5)], "sentence 'b': prediction score 2.5 outside [0, 1]"),
        (False, [("Q", 0.5), ("O", -1.0)], "sentence 'b': invalid BIO label 'Q'"),
        (True, [("O", 1.0), ("B-", 0.9)], "sentence 'b': invalid BIO label 'B-'"),
        (True, [("O", 1.0), ("O", 2.0)], "sentence 'b': prediction score 2.0 outside [0, 1]"),
    ])
    def test_prediction_writer_refuses_what_the_reader_would(
            self, votes, rows, message, tmp_path, monkeypatch, capsys):
        corpus = parse_conll("# a\nx O\n\n# b\ny O\nz O\n")

        def column(rows):
            preds = sentence_predictions(rows)
            if votes:  # an ensemble's columns write the same way
                return SentenceVotes(preds.labels, preds.scores, [5] * len(rows),
                                     ("majority",) * len(rows))
            return preds

        predictions = [column([("O", 1.0)]), column(rows)]
        for include_gold in (True, False):
            with pytest.raises(EnsembleError) as info:
                write_prediction_file(corpus, predictions, include_gold)
            assert str(info.value) == message
        # the predict command writes nothing
        monkeypatch.setattr(cli, "load_model", lambda path: None)
        monkeypatch.setattr(cli, "predict_corpus", lambda *args: predictions)
        (tmp_path / "in.conll").write_text("# a\nx O\n\n# b\ny O\nz O\n", encoding="utf-8")
        code = cli.main(["predict", str(tmp_path / "m.bin"), str(tmp_path / "in.conll"),
                         str(tmp_path / "out.txt")])
        assert (code, capsys.readouterr().err) == (1, f"error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.conll"]

    @pytest.mark.parametrize("predictions, message", [
        ([], "0 prediction lists for 1 sentences"),
        ([sentence_predictions([("O", 0.5)])], "sentence 's0': 1 predictions for 2 tokens"),
    ])
    def test_prediction_writer_refuses_misaligned_lists(self, predictions, message):
        with pytest.raises(EnsembleError) as info:
            write_prediction_file(parse_conll("# s0\nx O\ny O\n"), predictions)
        assert str(info.value) == message

    def test_surface_that_normalizes_to_whitespace_is_rejected(self, monkeypatch):
        # NFC maps no non-space character to a space; the parser checks anyway
        monkeypatch.setattr(corpus_module, "_normalize",
                            lambda s: "x y" if s == "b" else s)
        with pytest.raises(ParseError) as info:
            parse_conll("a O\nb O\n")
        assert str(info.value) == (
            "line 2: token surface 'x y' is empty or contains whitespace")

    def test_surface_that_normalizes_to_a_comment_mark_is_rejected(self, monkeypatch):
        # NFC maps no character to '#' either; both readers name the row
        monkeypatch.setattr(corpus_module, "_normalize",
                            lambda s: "#b" if s == "b" else s)
        for read, text in ((parse_conll, "a O\nb O\n"),
                           (read_prediction_file, "a O 0.5\nb O 0.5\n")):
            with pytest.raises(ParseError) as info:
                read(text)
            assert str(info.value) == (
                "line 2: token surface '#b' starts with '#', as an id line does")
            assert info.value.line_number == 2

    def test_evaluate_names_the_first_invalid_tag(self):
        gold = parse_conll("# s1\na B-PER\nb O\n\n# s2\nc O\nd O\n")
        with pytest.raises(CorpusError) as info:
            evaluate(gold, [["B-PER", "O"], ["O", "B-"]])
        assert str(info.value) == "sentence 's2': invalid BIO tag 'B-'"


SURFACES = ["a", "dhaka", "cafe\u0301", "A\u030angstrom", "ঢাকা", "x#y", "1.5", "O", "\u212b"]
SCORE_TEXTS = ["0.5", "1", "0", "0.000000", "1.000000", "1e-3", "+0.25", "-0", ".5", "0E0",
               "0.1234567"]
TAGS = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC", "I-X.Y"]


def random_conll_text(r, row_fields):
    """A random valid CoNLL-style text whose rows hold ``row_fields()``:
    ids before a block, inside it, empty or absent, NFC-rewritten ids,
    dropped names, any whitespace between columns and around rows,
    whitespace-only separator lines, and LF or CRLF line ends."""
    spaces = [ch for ch in WHITESPACE if ch != "\n"]

    def gap():
        return r.choice([" ", " ", "\t", "  ", r.choice(spaces)])

    lines = []
    for k in range(r.randint(1, 7)):
        if r.random() < 0.1:
            lines += ["# dropped", ""]
        rows = []
        for _ in range(r.randint(1, 6)):
            fields = row_fields()
            row = gap().join(fields)
            rows.append(row if r.random() < 0.8 else gap() + row + gap())
        name = r.choice([None, f"# id{k}", f"#e\u0301{k}", f"  # New York {k} ", "#"])
        if name is not None:
            rows.insert(0 if r.random() < 0.7 else r.randint(1, len(rows)), name)
        lines += rows + [r.choice(["", "", "  ", "\t", r.choice(spaces)])
                         for _ in range(r.randint(1, 2))]
    newline = "\r\n" if r.random() < 0.3 else "\n"
    return newline.join(lines[:-1] if r.random() < 0.5 else lines)


def random_prediction_text(r, width):
    """A random valid prediction file of ``width`` columns, with
    NFC-rewritten surfaces (``random_conll_text``)."""
    return random_conll_text(r, lambda: [r.choice(SURFACES)] + [r.choice(TAGS)] * (width == 4)
                             + [r.choice(TAGS), r.choice(SCORE_TEXTS + [f"{r.random():.6f}"])])


POS_TAGS = ["NN", "NNP", "VBD", "O"]
EXTRAS = ["e1", "x", "O", "B-PER", "1.5", "ঢাকা", "cafe\u0301"]
# the column configurations a corpus is parsed under, each with the fewest
# columns a row needs under it
LEAST_COLUMNS = {ColumnConfig(): 2, ColumnConfig(pos_col=1): 3, ColumnConfig(labeled=False): 1,
                 ColumnConfig(labeled=False, pos_col=2): 3}
CORPUS_COLUMNS = list(LEAST_COLUMNS)
COLUMN_IDS = ["labeled", "pos1", "unlabeled", "unlabeled-pos2"]


def random_corpus_text(r, columns):
    """A random valid corpus under ``columns``: NFC-rewritten surfaces, pos
    tags in ``columns.pos_col``, and zero to two extra columns a row, so
    that the rows of a block may differ in width (``random_conll_text``)."""
    def row_fields():
        fields = [r.choice(EXTRAS) for _ in range(LEAST_COLUMNS[columns] + r.choice([0, 0, 1, 2]))]
        fields[0] = r.choice(SURFACES)
        if columns.pos_col is not None:
            fields[columns.pos_col] = r.choice(POS_TAGS)
        if columns.labeled:
            fields[-1] = r.choice(TAGS)
        return fields

    return random_conll_text(r, row_fields)


def read_row_by_row(text, monkeypatch):
    """``read_prediction_file`` with every block read by the per-row
    reference path."""
    with monkeypatch.context() as patch:
        patch.setattr(corpus_module, "_block_bulk", lambda *args: None)
        return read_prediction_file(text)


def outcome(read, text):
    try:
        data = read(text)
    except ParseError as exc:
        return str(exc), exc.line_number
    return (data.sentence_ids, data.surfaces, [p.labels for p in data.predictions],
            [p.scores for p in data.predictions])


def parse_row_by_row(text, columns, monkeypatch):
    """``parse_conll`` with every block read by the per-row reference
    path."""
    with monkeypatch.context() as patch:
        patch.setattr(corpus_module, "_block_bulk", lambda *args: None)
        return parse_conll(text, columns)


def parsed(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.line_number


class TestBulkReader:
    @pytest.mark.parametrize("width", [3, 4])
    def test_valid_files_read_as_row_by_row(self, width, monkeypatch):
        rows_read = []
        real_rows = corpus_module._block_rows
        monkeypatch.setattr(corpus_module, "_block_rows",
                            lambda *args: rows_read.append(args) or real_rows(*args))
        r = random.Random(width)
        for _ in range(300):
            text = random_prediction_text(r, width)
            blocks = reference_conll_blocks(text)
            assert [(sid, list(numbers), lines)
                    for sid, numbers, lines in corpus_module._conll_blocks(text)] == blocks
            expected = ([sid for sid, _, _ in blocks],
                        [tuple(unicodedata.normalize("NFC", line.split()[0]) for line in lines)
                         for _, _, lines in blocks],
                        [tuple(line.split()[-2] for line in lines) for _, _, lines in blocks],
                        [[float(line.split()[-1]) for line in lines] for _, _, lines in blocks])
            assert outcome(read_prediction_file, text) == expected
            assert rows_read == []  # every block passed the bulk checks
            assert outcome(lambda t: read_row_by_row(t, monkeypatch), text) == expected
            assert len(rows_read) == len(blocks)
            rows_read.clear()

    @pytest.mark.parametrize("width", [3, 4])
    def test_faulty_files_fail_as_row_by_row(self, width, monkeypatch):
        r = random.Random(10 + width)
        faults = 0
        for _ in range(300):
            lines = random_prediction_text(r, width).split("\n")
            rows = [i for i, line in enumerate(lines)
                    if line.strip() and not line.strip().startswith("#")]
            at = r.choice(rows)
            fields = lines[at].split()
            column = r.choice(["score", "label", "gold", "extra", "drop"])
            if column == "score":
                fields[-1] = r.choice(["x", "1.5", "nan", "-0.1", "inf", "1e9", "0,5"])
            elif column == "label":
                fields[-2] = r.choice(["Q", "B-", "I-", "PER", "o"])
            elif column == "gold" and width == 4:
                fields[1] = r.choice(["X", "B-", "i-PER"])
            elif column == "extra":
                fields.insert(r.randint(1, len(fields)), "O")
            else:
                del fields[r.randint(0, len(fields) - 1)]
            lines[at] = " ".join(fields)
            text = "\n".join(lines)
            bulk = outcome(read_prediction_file, text)
            assert bulk == outcome(lambda t: read_row_by_row(t, monkeypatch), text)
            faults += isinstance(bulk[0], str)
        assert faults > 200

    @pytest.mark.parametrize("columns", CORPUS_COLUMNS, ids=COLUMN_IDS)
    def test_valid_corpora_parse_as_row_by_row(self, columns, monkeypatch):
        rows_read = []
        real_rows = corpus_module._block_rows
        monkeypatch.setattr(corpus_module, "_block_rows",
                            lambda *args: rows_read.append(args) or real_rows(*args))
        r = random.Random(20 + CORPUS_COLUMNS.index(columns))
        mixed = 0
        for _ in range(300):
            text = random_corpus_text(r, columns)
            blocks = reference_conll_blocks(text)
            corpus = parse_conll(text, columns)
            # only a block whose rows differ in width is read row by row
            assert len(rows_read) == sum(len({len(line.split()) for line in lines}) > 1
                                         for _, _, lines in blocks)
            mixed += len(rows_read)
            assert [(s.id, s.surfaces) for s in corpus.sentences] == [
                (sid, tuple(unicodedata.normalize("NFC", line.split()[0]) for line in lines))
                for sid, _, lines in blocks]
            if columns.labeled:
                assert [s.gold_tags for s in corpus.sentences] == [
                    tuple(line.split()[-1] for line in lines) for _, _, lines in blocks]
            rows_read.clear()
            assert parse_row_by_row(text, columns, monkeypatch) == corpus
            assert len(rows_read) == len(blocks)
            rows_read.clear()
        assert mixed > 100

    @pytest.mark.parametrize("columns", [c for c in CORPUS_COLUMNS if c.labeled or c.pos_col],
                             ids=["labeled", "pos1", "unlabeled-pos2"])
    def test_faulty_corpora_fail_as_row_by_row(self, columns, monkeypatch):
        # NFC never rewrites a surface into one with whitespace; "MARK" is
        # made to, so that a row can fail the surface check
        monkeypatch.setattr(corpus_module, "_normalize", lambda s: "M K" if s == "MARK"
                            else unicodedata.normalize("NFC", s))
        least = LEAST_COLUMNS[columns]
        r = random.Random(30 + CORPUS_COLUMNS.index(columns))
        for _ in range(300):
            lines = random_corpus_text(r, columns).split("\n")
            rows = [i for i, line in enumerate(lines)
                    if line.strip() and not line.strip().startswith("#")]
            at = r.choice(rows)
            fields = lines[at].split()
            fault = r.choice(["drop", "block", "surface"] + ["tag"] * columns.labeled)
            if fault == "tag":
                fields[-1] = r.choice(["X", "B-", "I-", "i-PER", "o"])
            elif fault == "drop":
                fields = fields[:r.randint(1, least - 1)]
            elif fault == "surface":
                fields[0] = "MARK"
            lines[at] = " ".join(fields)
            if fault == "block":  # every row of the block too narrow, all alike
                block = {at}
                for step in (-1, 1):
                    i = at + step
                    while 0 <= i < len(lines) and lines[i].strip():
                        block.add(i)
                        i += step
                narrow = r.randint(1, least - 1)
                for i in block & set(rows):
                    lines[i] = " ".join(lines[i].split()[:narrow])
            text = "\n".join(lines)
            bulk = parsed(lambda t: parse_conll(t, columns), text)
            assert isinstance(bulk[0], str)
            assert bulk == parsed(lambda t: parse_row_by_row(t, columns, monkeypatch), text)


# TokenPrediction's fields in a class of its own: the yardstick for what a
# read prediction weighs. A change to the record type that made every
# TokenPrediction heavier would move both sides of a comparison with
# TokenPrediction itself, so the yardstick cannot be TokenPrediction.
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

    def test_parsed_sentences_equal_public_ones(self):
        text = "# x\nAda NNP e1 B-PER\nLovelace NNP e2 I-PER\nwrote VBD e3 O\n\nCafé NN O\n"
        parsed = parse_conll(text, ColumnConfig(pos_col=1))
        expected = [
            Sentence("x", ("Ada", "Lovelace", "wrote"), ("B-PER", "I-PER", "O"),
                     ("NNP", "NNP", "VBD"), (("e1",), ("e2",), ("e3",))),
            Sentence("s0", ("Café",), ("O",), ("NN",)),
        ]
        assert parsed.sentences == expected
        assert all(type(column) is tuple for s in parsed.sentences
                   for column in (s.surfaces, s.gold_tags, s.pos))

    @pytest.mark.parametrize("columns", CORPUS_COLUMNS, ids=COLUMN_IDS)
    def test_unchecked_sentences_equal_public_ones(self, columns):
        # parse_conll, token_translate and combine build their sentences
        # without Sentence's checks; each must equal Sentence(*fields), in
        # the same field types
        r = random.Random(50 + CORPUS_COLUMNS.index(columns))
        lexicon = Lexicon("lex", {"a": "x", "dhaka": "ঢাকা", "cafe\u0301": "cafe", "O": "o"})
        extras = set()
        for _ in range(100):
            base = parse_conll(random_corpus_text(r, columns), columns)
            built = [base] + [token_translate(base, OfflineLexiconBackend(lexicon), fallback)
                              for fallback in ("keep", "mark-unknown")]
            built.append(combine(built, "out"))
            for sent in (s for corpus in built for s in corpus.sentences):
                fields = [getattr(sent, f.name) for f in dataclasses.fields(Sentence)]
                public = Sentence(*fields)
                assert sent == public
                assert list(map(type, fields)) == [type(getattr(public, f.name))
                                                   for f in dataclasses.fields(Sentence)]
                assert all(type(row) is tuple for row in sent.extras or ())
                extras.add(sent.extras is None)
        # an unlabeled row with pos in column 2 always has column 1 as an extra
        assert extras == ({False} if columns.pos_col == 2 else {True, False})

    def test_sentences_hold_slots_and_replace_checks(self):
        sent = parse_conll("# s\na B-PER\nb O\n").sentences[0]
        assert not hasattr(sent, "__dict__")
        assert dataclasses.replace(sent, surfaces=["x", "y"]).surfaces == ("x", "y")
        for change, message in (
                ({"surfaces": ("a", "#b")}, "token surface '#b' starts with '#', as an id line does"),
                ({"gold_tags": ("B-PER", "I-")}, corpus_module._GRAMMAR_FAULT.format("I-")),
                ({"id": " s"}, "sentence id ' s' would not read back from '# <id>'")):
            with pytest.raises(CorpusError) as info:
                dataclasses.replace(sent, **change)
            assert str(info.value) == message

    def test_read_predictions_equal_public_ones(self):
        data = read_prediction_file("a O B-PER 0.250000\nb O I-PER 1.000000\n")
        assert data.predictions == [SentencePredictions(("B-PER", "I-PER"), [0.25, 1.0])]
        assert list(data.predictions[0]) == [TokenPrediction("B-PER", 0.25),
                                             TokenPrediction("I-PER", 1.0)]

    def test_read_predictions_weigh_what_public_ones_do(self):
        text = "# s\n" + "a O O 0.500000\n" * self.N
        read_prediction_file(text)
        parsed = retained_bytes(lambda: read_prediction_file(text))
        public = retained_bytes(lambda: PredictionSet(
            None, [[PredictionFields("O", float("0.500000")) for _ in range(self.N)]],
            ["s"], [tuple(["a" for _ in range(self.N)])]))
        assert parsed - public < 8 * self.N

    def test_translation_shares_unchanged_tokens(self):
        base = parse_conll("a NN e1 B-PER\nb NN O\nc NN O\n", ColumnConfig(pos_col=1))
        lexicon = Lexicon("lex", {"a": "x", "b": "b"})
        kept = token_translate(base, OfflineLexiconBackend(lexicon), "keep")
        marked = token_translate(base, OfflineLexiconBackend(lexicon), "mark-unknown")
        old = base.sentences[0]
        assert kept.sentences[0] == Sentence(
            old.id, ("x", "b", "c"), ("B-PER", "O", "O"), ("NN", "NN", "NN"),
            (("e1",), (), ()))
        assert marked.sentences[0].surfaces == ("x", "b", "<unk>")
        # translation changes surfaces only: the other columns are shared
        for out in (kept, marked):
            new = out.sentences[0]
            assert new.gold_tags is old.gold_tags
            assert new.pos is old.pos
            assert new.extras is old.extras

    def test_combine_shares_every_column(self):
        base = parse_conll("a NN e1 B-PER\nb NN O\n", ColumnConfig(pos_col=1))
        old = base.sentences[0]
        new = combine([base], "out", names=["b"]).sentences[0]
        assert new.id == "b/s0"
        for name in ("surfaces", "gold_tags", "pos", "extras"):
            assert getattr(new, name) is getattr(old, name)


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
            preds = [sentence_predictions(
                TokenPrediction(t if rng.random() < 0.8 else "B-PER", float(rng.random()))
                for t in tags) for tags in base]
            sets.append(PredictionSet(f"m{m}", preds, [s.id for s in reference.sentences],
                                      [s.surfaces for s in reference.sentences]))
        labels, diagnostics = ensemble_corpus(sets, reference, config)
        unanimous = 0
        for si, (sid, diags) in enumerate(diagnostics.per_sentence):
            full = [reference_vote([s.predictions[si][ti] for s in sets], config)
                    for ti in range(len(diags))]
            unanimous += sum(
                len({s.predictions[si][ti].label for s in sets}) == 1 for ti in range(len(diags)))
            assert labels[si] == repair_bio([f[0] for f in full])
            assert list(zip(diags.labels, diags.surviving, diags.outcomes, diags.scores)) == [
                (lab, f[1], f[2], f[3]) for lab, f in zip(labels[si], full)]
        assert unanimous > 20


class TestModelLabels:
    @pytest.mark.parametrize("edited", [b'"P R"', b'"P\\n"'], ids=["space", "newline"])
    def test_a_class_that_cannot_form_a_label_fails_at_load(self, tmp_path, capsys, edited):
        corpus = parse_conll("alice B-PER\nbob O\n\nbob O\nalice B-PER\n")
        config = tagger.TaggerConfig(word_dim=4, hidden=4, lstm_layers=1, max_epochs=1)
        path = tmp_path / "m.bin"
        tagger.save_model(tagger.build_model(config, corpus), path)
        # a hand-edited class name of the same length: "B-P R" and "B-P\n"
        # break the grammar
        path.write_bytes(path.read_bytes().replace(b'"PER"', edited, 1))
        with pytest.raises(tagger.ModelError) as info:
            tagger.load_model(path)
        name = json.loads(edited)
        assert str(info.value) == (
            f"{path}: model header classes: {name!r} cannot form a BIO label")
        (tmp_path / "in.conll").write_text("alice B-PER\n", encoding="utf-8")
        code = cli.main(["predict", str(path), str(tmp_path / "in.conll"),
                         str(tmp_path / "out.txt")])
        assert code == 1
        assert f"{path}: model header classes" in capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()

    def test_unsorted_classes_fail_at_load(self, tmp_path, capsys):
        # save_model writes the classes sorted; TagSet would silently read
        # an edited ["PER", "LOC"] as ["LOC", "PER"]
        corpus = parse_conll("alice B-PER\nparis B-LOC\n\nbob O\n")
        config = tagger.TaggerConfig(word_dim=4, hidden=4, lstm_layers=1, max_epochs=1)
        path = tmp_path / "m.bin"
        tagger.save_model(tagger.build_model(config, corpus), path)
        data = path.read_bytes()
        assert b'"classes":["LOC","PER"]' in data
        path.write_bytes(data.replace(b'"classes":["LOC","PER"]',
                                      b'"classes":["PER","LOC"]', 1))
        with pytest.raises(tagger.ModelError) as info:
            tagger.load_model(path)
        assert str(info.value) == f"{path}: model header classes: expected sorted order"
        (tmp_path / "in.conll").write_text("alice B-PER\n", encoding="utf-8")
        code = cli.main(["predict", str(path), str(tmp_path / "in.conll"),
                         str(tmp_path / "out.txt")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}: model header classes: expected sorted order\n")
        assert not (tmp_path / "out.txt").exists()

    def test_predictions_equal_public_ones(self):
        rng = np.random.default_rng(3)
        corpus = random_corpus(rng, 12, min_len=1, max_len=9)
        config = tagger.TaggerConfig(word_dim=4, hidden=4, lstm_layers=1, max_epochs=1)
        model = tagger.build_model(config, corpus)
        for preds in tagger.predict_corpus(model, corpus):
            assert preds == sentence_predictions(preds)
            assert type(preds.labels) is tuple and type(preds.scores) is list
            assert all(type(label) is str for label in preds.labels)
            assert all(type(score) is float for score in preds.scores)
