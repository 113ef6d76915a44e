"""CoNLL-style corpus handling: parsing, BIO validation/repair, chunking,
splitting and statistics.

A sentence is stored as columns, one tuple per field (surfaces, gold tags,
POS tags, extra file columns), not as one record per token.

File conventions: UTF-8, LF line endings, blank line between sentences,
``# <id>`` comment lines carry sentence ids, fields joined by single spaces
on write. One block reader parses corpora and, by the ensemble module's
row layout and checks, prediction files, Unicode-NFC-normalizing token
text and ids: it checks a block's columns in bulk and reads a block that
fails again row by row, which names the first faulty row.

Each ``Sentence`` invariant is checked once, where its column is made:
``Sentence(...)`` checks every field of columns from outside the program;
the block reader checks what it reads (its columns are str.split fields,
the tags are checked against the BIO grammar, and a surface NFC rewrote is
checked again), ``augment.token_translate`` checks only its new surfaces
and ``augment.combine`` only its new ids. Those three build their
sentences through ``_checked_sentence``, which checks nothing again.
"""

import functools
import math
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, count
from operator import itemgetter
from typing import NamedTuple

import numpy as np

__all__ = [
    "Sentence",
    "TagSet",
    "LabeledCorpus",
    "Chunk",
    "ColumnConfig",
    "StatsReport",
    "CorpusError",
    "ParseError",
    "parse_conll",
    "write_conll",
    "validate_bio",
    "repair_bio",
    "extract_chunks",
    "split_corpus",
    "corpus_stats",
]

# \Z, not $: $ also matches before a final newline, so "B-P\n" would pass
BIO_TAG_RE = re.compile(r"^(O|[BI]-\S+)\Z")
_GRAMMAR_FAULT = "tag {!r} does not match the BIO grammar O | B-<class> | I-<class>"


class CorpusError(ValueError):
    """Invalid corpus content or misuse of a corpus operation."""


class ParseError(CorpusError):
    """Malformed CoNLL input; carries the 1-based line number."""

    def __init__(self, message, line_number=None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


def _bio_tags(message, tags, seen):
    """``tags``, when each is a BIO label; else CorpusError names the first
    that is not by ``message``, the tag in place of ``{!r}``. ``seen`` is
    the caller's set of tags already matched; it gains the new valid ones,
    as validity depends on the string alone."""
    if not seen.issuperset(tags):
        new = set(tags).difference(seen)
        if not all(map(BIO_TAG_RE.match, new)):
            bad = next(tag for tag in tags if tag in new and not BIO_TAG_RE.match(tag))
            raise CorpusError(message.format(bad))
        seen |= new
    return tags


# a C-level callable: it runs once per token of every corpus and prediction file
_normalize = functools.partial(unicodedata.normalize, "NFC")


def _joined(what, fields):
    """``fields`` joined by single spaces. Raises CorpusError unless each
    field is non-empty and free of whitespace, so that the join splits
    back into the fields."""
    # str.split() splits at exactly the characters str.isspace() accepts
    joined = " ".join(fields)
    if joined.split() != list(fields):
        bad = next(f for f in fields if f.split() != [f])
        raise CorpusError(f"{what} {bad!r} is empty or contains whitespace")
    return joined


def _check_surfaces(surfaces):
    """Raise CorpusError unless each surface is a single column of CoNLL
    text (``_joined``) that does not start with ``#``."""
    joined = _joined("token surface", surfaces)
    if joined.startswith("#") or " #" in joined:
        bad = next(s for s in surfaces if s.startswith("#"))
        raise CorpusError(f"token surface {bad!r} starts with '#', as an id line does")


def _check_id(sid):
    """Raise CorpusError unless ``sid`` reads back from a ``# <id>`` line:
    non-empty, stripped, NFC and on one line."""
    if not sid or "\n" in sid or sid != _normalize(sid.strip()):
        raise CorpusError(f"sentence id {sid!r} would not read back from '# <id>'")


@dataclass(frozen=True, slots=True)
class Sentence:
    """One sentence as tuple columns of equal length: token surfaces, gold
    BIO tags, optionally one POS tag per token, and optionally each token's
    extra file columns, kept verbatim for round-tripping (rows may differ
    in width; None when no token has any). Every field is a single
    non-empty column of CoNLL text, no surface starts with ``#`` and the id
    is non-empty, stripped, NFC and on one line, so a sentence reads back
    from ``write_conll`` as it was.

    ``Sentence(...)`` (and so ``dataclasses.replace``) checks all of this
    and turns the columns into tuples. The program's own readers and
    rewrites check only the columns they make and build the sentence
    through ``_checked_sentence``."""

    id: str
    surfaces: tuple[str, ...]
    gold_tags: tuple[str, ...]
    pos: tuple[str, ...] | None = None
    extras: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self):
        _check_id(self.id)
        n = len(self.surfaces)
        if not n:
            raise CorpusError(f"sentence {self.id!r} has no tokens")
        for name in ("surfaces", "gold_tags", "pos", "extras"):
            column = getattr(self, name)
            if column is not None:
                if len(column) != n:
                    raise CorpusError(
                        f"sentence {self.id!r}: {len(column)} entries in {name} for {n} tokens"
                    )
                object.__setattr__(self, name, tuple(column))
        if self.extras is not None and not any(self.extras):
            object.__setattr__(self, "extras", None)
        _check_surfaces(self.surfaces)
        if self.pos is not None:
            _joined("POS tag", self.pos)
        if self.extras is not None:
            _joined("extra field", [f for row in self.extras for f in row])
        _bio_tags(_GRAMMAR_FAULT, self.gold_tags, set())

    def __len__(self):
        return len(self.surfaces)


_SENTENCE_SLOTS = tuple(getattr(Sentence, name).__set__ for name in Sentence.__slots__)


def _checked_sentence(sid, surfaces, gold_tags, pos, extras):
    """The Sentence of columns that already hold every invariant
    ``Sentence`` checks, in the types it leaves them (tuples; ``extras``
    None unless some row has any), built without checking them again.
    Only the code that checked the columns may call it; ``Sentence(...)``
    is the reference it must equal."""
    sent = object.__new__(Sentence)
    for put, column in zip(_SENTENCE_SLOTS, (sid, surfaces, gold_tags, pos, extras)):
        put(sent, column)
    return sent


class TagSet:
    """Ordered entity-class inventory with the derived BIO label list.

    Labels are ``O`` followed by ``B-X``/``I-X`` per class in sorted class
    order; label <-> index is a bijection.
    """

    def __init__(self, classes):
        self.classes = tuple(sorted(set(classes)))
        for c in self.classes:
            if not BIO_TAG_RE.match(f"B-{c}"):
                raise CorpusError(f"{c!r} cannot form a BIO label")
        self.labels = ["O"]
        for c in self.classes:
            self.labels.append(f"B-{c}")
            self.labels.append(f"I-{c}")
        self._index = {lab: i for i, lab in enumerate(self.labels)}

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        return isinstance(other, TagSet) and self.classes == other.classes

    def __repr__(self):
        return f"TagSet(classes={list(self.classes)})"

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise CorpusError(f"label {label!r} not in tagset {list(self.labels)}") from None

    def union(self, other):
        return TagSet(self.classes + other.classes)


@dataclass
class LabeledCorpus:
    sentences: list[Sentence]
    tagset: TagSet

    def __post_init__(self):
        if not self.sentences:
            raise CorpusError("corpus has no sentences")
        seen = set()
        # every sentence's tags are BIO-valid, so a tag is a label of the
        # tagset exactly when its class is one of the tagset's
        labels = set(self.tagset.labels)
        for sent in self.sentences:
            if sent.id in seen:
                raise CorpusError(f"duplicate sentence id {sent.id!r}")
            seen.add(sent.id)
            if not labels.issuperset(sent.gold_tags):
                tag = next(t for t in sent.gold_tags if t not in labels)
                raise CorpusError(
                    f"sentence {sent.id!r}: tag {tag!r} outside tagset "
                    f"{list(self.tagset.classes)}"
                )

    def __len__(self):
        return len(self.sentences)

    @property
    def n_tokens(self):
        return sum(len(s) for s in self.sentences)


class Chunk(NamedTuple):
    """Entity mention of class ``cls`` over the token span [start, end)."""

    cls: str
    start: int
    end: int


@dataclass(frozen=True)
class ColumnConfig:
    """Which whitespace-separated columns hold what; the token is always
    column 0 and the gold tag, when ``labeled``, the last column.

    An input that is not ``labeled`` has no gold column and every token is
    tagged ``O``. ``pos_col`` is optional. Columns that are neither token
    nor tag nor pos are kept verbatim in ``Sentence.extras``.
    """

    labeled: bool = True
    pos_col: int | None = None


# the first character of a blank line or a '#' line: the lines that end or
# name a block, the only lines _conll_blocks visits one at a time
_IS_MARK = frozenset(("", "#")).__contains__
_FIRST_CHAR = itemgetter(slice(0, 1))


def _conll_blocks(text):
    """Yield (sentence id, line numbers, lines) for each blank-line-separated
    block of CoNLL-style text: its token lines, stripped, and their 1-based
    line numbers.

    A ``#`` line names the block it precedes or lies in (a blank line drops
    a pending name); ids are NFC-normalized, and unnamed blocks are numbered
    s0, s1, ... in order. Token lines are sliced out in runs between the
    blank and ``#`` lines.
    """
    lines = list(map(str.strip, text.split("\n")))
    lines.append("")
    sid, generated, start, runs = None, 0, 0, []
    for at in compress(count(), map(_IS_MARK, map(_FIRST_CHAR, lines))):
        if at > start:
            runs.append((start, at))
        start = at + 1
        if lines[at]:
            sid = _normalize(lines[at][1:].strip()) or None
            continue
        if runs:
            if sid is None:
                sid, generated = f"s{generated}", generated + 1
            if len(runs) == 1:
                ((a, b),) = runs
                yield sid, range(a + 1, b + 1), lines[a:b]
            else:  # '#' lines inside the block
                kept = [i for a, b in runs for i in range(a, b)]
                yield sid, [i + 1 for i in kept], [lines[i] for i in kept]
        sid, runs = None, []


def _block_fields(fmt, lines, rows, n, layouts, seen):
    """The fields of ``rows``, the split ``lines``, all ``n`` columns wide,
    read as ``fmt`` says, the token column NFC-normalized last. Raises
    CorpusError on the first fault found."""
    layout_of, checks = fmt
    layout = layouts.get(n) or layout_of(n, layouts)
    if isinstance(layout, str):
        raise CorpusError(layout.format(lines[0]))
    layouts[n] = layout
    columns = list(zip(*rows))
    fields = [p if p is None else columns[p] if type(p) is int
              else tuple(zip(*[columns[i] for i in p])) or ((),) * len(rows) for p in layout]
    for at, check in checks:
        if fields[at] is not None:
            fields[at] = check(fields[at], seen)
    # a str.split() column is non-empty and free of whitespace, and a token
    # line does not start with '#', so the surfaces are checked again only
    # when NFC rewrote one
    fields[0] = tuple(map(_normalize, columns[0]))
    if fields[0] != columns[0]:
        _check_surfaces(fields[0])
    return fields


def _block_bulk(fmt, lines, rows, layouts, seen):
    """``_block_fields`` of a whole block, or None when its rows differ in
    column count or it fails, for ``_block_rows`` to read."""
    widths = set(map(len, rows))
    if len(widths) > 1:
        return None
    try:
        return _block_fields(fmt, lines, rows, widths.pop(), layouts, seen)
    except CorpusError:
        return None


def _block_rows(fmt, numbers, lines, rows, layouts, seen):
    """The block read one row at a time, the reference reader: raises
    ParseError at the first faulty row, or joins the rows' fields as
    ``_block_bulk`` gives them."""
    read = []
    for lineno, line, cols in zip(numbers, lines, rows):
        try:
            read.append(_block_fields(fmt, [line], [cols], len(cols), layouts, seen))
        except CorpusError as fault:
            raise ParseError(str(fault), lineno) from None
    return [None if field[0] is None else type(field[0])(chain.from_iterable(field))
            for field in zip(*read)]


def _read_blocks(text, what, fmt, seen):
    """Yield (sentence id, fields) for each ``_conll_blocks`` block of
    ``text``, an input of the kind ``what`` names, read in bulk or else row
    by row; ``seen`` is the caller's set of tags seen valid. ``fmt`` is
    (layout, checks): ``layout(n, layouts)`` picks the fields of an
    ``n``-column row, token first (a column, a tuple of columns kept as one
    tuple a row, or None), given the picks of the counts accepted so far,
    or refuses the row by a message (``{!r}`` for the row). ``checks`` are
    (field, check) pairs run in turn on each present field: ``check(column,
    seen)`` returns the field's new column or raises CorpusError."""
    if not text.strip():
        raise ParseError(f"empty {what}")
    layouts = {}
    for sid, numbers, lines in _conll_blocks(text):
        rows = list(map(str.split, lines))
        yield sid, (_block_bulk(fmt, lines, rows, layouts, seen)
                    or _block_rows(fmt, numbers, lines, rows, layouts, seen))
    if not layouts:  # every block read adds its rows' column count
        raise ParseError(f"{what} contains no sentences")


def _row_layout(columns, n_fields, n, layouts):
    """Picks (token, tag, pos, extras) of an ``n``-column row, or a message
    saying why the row lacks a distinct column for each of the
    ``n_fields`` fields of ``columns``."""
    if n < n_fields:
        return f"expected at least {n_fields} distinct columns, got {n}: {{!r}}"
    tag_idx = n - 1 if columns.labeled else None
    pos = columns.pos_col
    if pos is not None:
        if pos == 0:
            return "--pos-col 0 is the token column: {!r}"
        if pos == tag_idx:
            return f"--pos-col {pos} is the tag column: {{!r}}"
        if not 0 < pos < n:
            return f"--pos-col {pos} is not a column of a {n}-column row: {{!r}}"
    needed = {0, tag_idx, pos} - {None}
    return 0, tag_idx, pos, tuple(i for i in range(n) if i not in needed)


def parse_conll(text, columns=ColumnConfig()):
    """Parse CoNLL-style text into a LabeledCorpus.

    Blank lines separate sentences; ``#``-prefixed lines carry the id of the
    sentence that follows; ids are generated as s0, s1, ... where absent.

    Raises ParseError with a line number on malformed lines. The reader
    has checked every field (an id, a stripped NFC line, reads back as it
    is), so the sentences are built by ``_checked_sentence``.
    """
    tags_seen = set()
    n_fields = 1 + columns.labeled + (columns.pos_col is not None)
    fmt = (functools.partial(_row_layout, columns, n_fields),
           ((1, functools.partial(_bio_tags, "tag {!r} does not match the BIO grammar")),))
    sentences = [_checked_sentence(sid, surfaces, tags or ("O",) * len(surfaces), pos,
                                   extras if any(extras) else None)
                 for sid, (surfaces, tags, pos, extras)
                 in _read_blocks(text, "input", fmt, tags_seen)]
    return LabeledCorpus(sentences, TagSet(tag[2:] for tag in tags_seen if tag != "O"))


def write_conll(corpus):
    """Render a corpus back to CoNLL text (canonical form).

    Column order per line: token, pos (if set), extras, gold tag.
    """
    lines = []
    for sent in corpus.sentences:
        lines.append(f"# {sent.id}")
        heads = sent.surfaces if sent.pos is None else map(" ".join, zip(sent.surfaces, sent.pos))
        extras = sent.extras or ((),) * len(sent)
        for head, extra, tag in zip(heads, extras, sent.gold_tags):
            lines.append(" ".join((head, *extra, tag)))
        lines.append("")
    return "\n".join(lines)


def validate_bio(tags):
    """Positions where an I-tag has no matching B-/I- of the same class
    directly before it: the tags ``repair_bio`` rewrites. Grammar
    violations raise; scheme violations are data.
    """
    return [i for i, (tag, fixed) in enumerate(zip(tags, repair_bio(tags))) if tag != fixed]


def repair_bio(tags):
    """``tags`` with the first tag of each ``extract_chunks`` chunk set to
    B-X, so an orphan I-X becomes B-X. Valid input comes back unchanged;
    output always validates clean."""
    repaired = list(tags)
    for cls, start, _ in extract_chunks(tags):
        repaired[start] = f"B-{cls}"
    return repaired


def extract_chunks(tags):
    """Maximal B-X (I-X)* runs as Chunks ordered by start: the one scan of
    the rule that I-X continues a chunk only right after B-X or I-X. An
    orphan I-X (after O, at the start, or after a chunk of another class)
    opens a chunk, as in conlleval, so the result equals
    ``extract_chunks(repair_bio(tags))``. Tags outside the BIO grammar
    raise CorpusError; callers whose tags are checked already (a
    Sentence's gold tags, or labels they checked themselves) scan them with
    ``_scan_chunks``."""
    return _scan_chunks(_bio_tags(_GRAMMAR_FAULT, tags, set()))


def _scan_chunks(tags):
    """``extract_chunks`` of ``tags`` known to be BIO labels."""
    chunks = []
    start = None
    cls = None
    for i, tag in enumerate(tags):
        if tag == "O":
            if start is not None:
                chunks.append(Chunk(cls, start, i))
            start, cls = None, None
        elif tag[0] == "B" or tag[2:] != cls:
            if start is not None:
                chunks.append(Chunk(cls, start, i))
            start, cls = i, tag[2:]
        # I-X after B-X or I-X continues the open chunk
    if start is not None:
        chunks.append(Chunk(cls, start, len(tags)))
    return chunks


def split_corpus(corpus, train_fraction, seed):
    """Sentence-level shuffle under ``seed``, then split at
    ceil(n * train_fraction). Returns (train, dev); together they partition
    the corpus."""
    if not (0.0 < train_fraction < 1.0):
        raise CorpusError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    if seed < 0:
        raise CorpusError(f"seed must be >= 0, got {seed}")
    n = len(corpus.sentences)
    if n < 2:
        raise CorpusError("need at least 2 sentences to split")
    order = np.random.default_rng(seed).permutation(n)
    # tolerate float fuzz so e.g. 15300 * 0.7 lands on 10710, not 10711
    n_train = math.ceil(round(n * train_fraction, 9))
    n_train = min(max(n_train, 1), n - 1)
    train_sents = [corpus.sentences[i] for i in order[:n_train]]
    dev_sents = [corpus.sentences[i] for i in order[n_train:]]
    return LabeledCorpus(train_sents, corpus.tagset), LabeledCorpus(dev_sents, corpus.tagset)


@dataclass
class StatsReport:
    n_sentences: int
    n_tokens: int
    class_chunks: dict[str, int]
    single_token_chunks: int
    multi_token_chunks: int

    @property
    def total_chunks(self):
        return self.single_token_chunks + self.multi_token_chunks

    def render_table(self):
        rows = [
            ("sentences", self.n_sentences),
            ("tokens", self.n_tokens),
            ("chunks", self.total_chunks),
            ("single-token chunks", self.single_token_chunks),
            ("multi-token chunks", self.multi_token_chunks),
        ]
        rows.extend((f"chunks[{c}]", n) for c, n in sorted(self.class_chunks.items()))
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def corpus_stats(corpus):
    """Sentence/token counts, per-class chunk frequencies, and the
    single- vs multi-token chunk tally."""
    class_chunks = Counter()
    single = 0
    multi = 0
    n_tokens = 0
    for sent in corpus.sentences:
        n_tokens += len(sent)
        for chunk in _scan_chunks(sent.gold_tags):
            class_chunks[chunk.cls] += 1
            if chunk.end - chunk.start == 1:
                single += 1
            else:
                multi += 1
    return StatsReport(len(corpus.sentences), n_tokens, dict(class_chunks), single, multi)
