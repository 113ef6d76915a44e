"""CoNLL-style corpus handling: parsing, BIO validation/repair, chunking,
splitting and statistics.

File conventions: UTF-8, LF line endings, blank line between sentences,
``# <id>`` comment lines carry sentence ids, fields joined by single spaces
on write. Token text and ids are Unicode-NFC-normalized at parse time.
"""

import functools
import math
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Token",
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

BIO_TAG_RE = re.compile(r"^(O|[BI]-\S+)$")


class CorpusError(ValueError):
    """Invalid corpus content or misuse of a corpus operation."""


class ParseError(CorpusError):
    """Malformed CoNLL input; carries the 1-based line number."""

    def __init__(self, message, line_number=None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


def _check_bio_grammar(tag):
    if not BIO_TAG_RE.match(tag):
        raise CorpusError(f"tag {tag!r} does not match the BIO grammar O | B-<class> | I-<class>")


def tag_class(tag):
    """Entity class of a BIO tag, or None for O."""
    return None if tag == "O" else tag[2:]


@dataclass(frozen=True)
class Token:
    """One token: surface form, optional POS, gold BIO tag, plus any
    extra file columns preserved for round-tripping."""

    surface: str
    gold_tag: str = "O"
    pos: str | None = None
    extras: tuple[str, ...] = ()

    def __post_init__(self):
        # str.split() splits at exactly the characters str.isspace() accepts,
        # so this rejects an empty surface and any whitespace in C
        if self.surface.split() != [self.surface]:
            raise CorpusError(f"token surface {self.surface!r} is empty or contains whitespace")
        _check_bio_grammar(self.gold_tag)

    @classmethod
    def _trusted(cls, surface, gold_tag, pos, extras):
        """A Token of fields its caller has already checked, built without
        ``__post_init__``. Fields are set one by one, never through the
        instance ``__dict__``, which would materialize one dict per token."""
        tok = object.__new__(cls)
        object.__setattr__(tok, "surface", surface)
        object.__setattr__(tok, "gold_tag", gold_tag)
        object.__setattr__(tok, "pos", pos)
        object.__setattr__(tok, "extras", extras)
        return tok


@dataclass(frozen=True)
class Sentence:
    id: str
    tokens: tuple[Token, ...]

    def __post_init__(self):
        if not self.tokens:
            raise CorpusError(f"sentence {self.id!r} has no tokens")

    def __len__(self):
        return len(self.tokens)

    @property
    def surfaces(self):
        return [t.surface for t in self.tokens]

    @property
    def gold_tags(self):
        return [t.gold_tag for t in self.tokens]


class TagSet:
    """Ordered entity-class inventory with the derived BIO label list.

    Labels are ``O`` followed by ``B-X``/``I-X`` per class in sorted class
    order; label <-> index is a bijection.
    """

    def __init__(self, classes):
        self.classes = tuple(sorted(set(classes)))
        for c in self.classes:
            if not c:
                raise CorpusError("entity class names must be non-empty")
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

    def label(self, index):
        return self.labels[index]

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
        for sent in self.sentences:
            if sent.id in seen:
                raise CorpusError(f"duplicate sentence id {sent.id!r}")
            seen.add(sent.id)
            for tok in sent.tokens:
                cls = tag_class(tok.gold_tag)
                if cls is not None and cls not in self.tagset.classes:
                    raise CorpusError(
                        f"sentence {sent.id!r}: tag {tok.gold_tag!r} outside tagset "
                        f"{list(self.tagset.classes)}"
                    )

    def __len__(self):
        return len(self.sentences)

    @property
    def n_tokens(self):
        return sum(len(s) for s in self.sentences)


@dataclass(frozen=True)
class Chunk:
    """Entity mention as a half-open token span."""

    cls: str
    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise CorpusError(f"invalid chunk span [{self.start}, {self.end})")


@dataclass(frozen=True)
class ColumnConfig:
    """Which whitespace-separated columns hold what; the token is always
    column 0.

    ``tag_col`` indexes from the end when negative (default: last column);
    None means the input has no gold column and every token is tagged
    ``O``. ``pos_col`` is optional. Columns that are neither token nor tag
    nor pos are kept verbatim in ``Token.extras``.
    """

    tag_col: int | None = -1
    pos_col: int | None = None


# a C-level callable: it runs once per token of every corpus and prediction file
_normalize = functools.partial(unicodedata.normalize, "NFC")


def _conll_blocks(text):
    """Yield (sentence id, rows) for each blank-line-separated block of
    CoNLL-style text, one (line number, line, columns) row per token line.

    A ``#`` line names the block it precedes or lies in (a blank line drops
    a pending name); ids are NFC-normalized, and unnamed blocks are numbered
    s0, s1, ... in order.
    """
    sid, rows, generated = None, [], 0
    for lineno, raw in enumerate(text.split("\n") + [""], start=1):
        line = raw.strip()
        if line.startswith("#"):
            sid = _normalize(line[1:].strip()) or None
        elif line:
            rows.append((lineno, line, line.split()))
        else:
            if rows:
                if sid is None:
                    sid, generated = f"s{generated}", generated + 1
                yield sid, rows
            sid, rows = None, []


def _row_layout(columns, n_fields, n):
    """(tag column index, extra column indices) of an ``n``-column row, or
    None when the row lacks a distinct column for each of the ``n_fields``
    fields of ``columns``."""
    tag_idx = columns.tag_col
    if tag_idx is not None and tag_idx < 0:
        tag_idx += n
    needed = {0, tag_idx, columns.pos_col} - {None}
    if max(needed) >= n or min(needed) < 0 or len(needed) < n_fields:
        return None
    return tag_idx, tuple(i for i in range(n) if i not in needed)


def parse_conll(text, columns=ColumnConfig()):
    """Parse CoNLL-style text into a LabeledCorpus.

    Blank lines separate sentences; ``#``-prefixed lines carry the id of the
    sentence that follows; ids are generated as s0, s1, ... where absent.

    Raises ParseError with a line number on malformed lines.
    """
    if not text.strip():
        raise ParseError("empty input")

    sentences = []
    classes = set()
    pos_col = columns.pos_col
    labeled = columns.tag_col is not None
    n_fields = 1 + labeled + (pos_col is not None)
    layouts = {}  # column count -> _row_layout
    valid_tags = set()  # tags that matched BIO_TAG_RE; validity depends on the string alone
    tag = "O"  # unless a gold column gives the tag
    for sid, rows in _conll_blocks(text):
        tokens = []
        for lineno, line, cols in rows:
            n = len(cols)
            if n not in layouts:
                layouts[n] = _row_layout(columns, n_fields, n)
            layout = layouts[n]
            if layout is None:
                raise ParseError(
                    f"expected at least {n_fields} distinct columns, got {n}: {line!r}", lineno
                )
            tag_idx, extra_cols = layout
            raw = cols[0]
            surface = _normalize(raw)
            if labeled:
                tag = cols[tag_idx]
                if tag not in valid_tags:
                    if not BIO_TAG_RE.match(tag):
                        raise ParseError(f"tag {tag!r} does not match the BIO grammar", lineno)
                    valid_tags.add(tag)
                    cls = tag_class(tag)
                    if cls is not None:
                        classes.add(cls)
            # a str.split() column is non-empty and holds no whitespace, so
            # only a surface that NFC rewrote is checked again
            if surface is not raw and surface.split() != [surface]:
                raise ParseError(
                    f"token surface {surface!r} is empty or contains whitespace", lineno
                )
            pos = cols[pos_col] if pos_col is not None else None
            extras = tuple([cols[i] for i in extra_cols]) if extra_cols else ()
            tokens.append(Token._trusted(surface, tag, pos, extras))
        sentences.append(Sentence(sid, tuple(tokens)))

    if not sentences:
        raise ParseError("input contains no sentences")
    return LabeledCorpus(sentences, TagSet(classes))


def write_conll(corpus):
    """Render a corpus back to CoNLL text (canonical form).

    Column order per line: token, pos (if set), extras, gold tag.
    """
    lines = []
    for sent in corpus.sentences:
        lines.append(f"# {sent.id}")
        for tok in sent.tokens:
            cols = [tok.surface]
            if tok.pos is not None:
                cols.append(tok.pos)
            cols.extend(tok.extras)
            cols.append(tok.gold_tag)
            lines.append(" ".join(cols))
        lines.append("")
    return "\n".join(lines)


def validate_bio(tags):
    """Positions where an I-tag has no matching B-/I- of the same class
    directly before it. Grammar violations raise; scheme violations are data.
    """
    violations = []
    prev = "O"
    for i, tag in enumerate(tags):
        _check_bio_grammar(tag)
        if tag.startswith("I-"):
            cls = tag_class(tag)
            if not (prev == f"B-{cls}" or prev == f"I-{cls}"):
                violations.append(i)
        prev = tag
    return violations


def repair_bio(tags):
    """Rewrite orphan I-X tags to B-X, left to right. Valid input comes back
    unchanged; output always validates clean."""
    repaired = []
    prev = "O"
    for tag in tags:
        _check_bio_grammar(tag)
        if tag.startswith("I-"):
            cls = tag_class(tag)
            if not (prev == f"B-{cls}" or prev == f"I-{cls}"):
                tag = f"B-{cls}"
        repaired.append(tag)
        prev = tag
    return repaired


def extract_chunks(tags):
    """Maximal B-X (I-X)* runs as Chunk objects, ordered by start.

    An orphan I-X (after O, at the start, or after a chunk of another
    class) opens a chunk, as in conlleval, so the result equals
    ``extract_chunks(repair_bio(tags))``. Tags outside the BIO grammar
    raise CorpusError.
    """
    chunks = []
    start = None
    cls = None
    for i, tag in enumerate(tags):
        _check_bio_grammar(tag)
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

    def render_kv(self):
        pairs = [
            ("sentences", self.n_sentences),
            ("tokens", self.n_tokens),
            ("chunks_total", self.total_chunks),
            ("chunks_single", self.single_token_chunks),
            ("chunks_multi", self.multi_token_chunks),
        ]
        pairs.extend((f"chunks.{c}", n) for c, n in sorted(self.class_chunks.items()))
        return "\n".join(f"{k} = {v}" for k, v in pairs)


def corpus_stats(corpus):
    """Sentence/token counts, per-class chunk frequencies, and the
    single- vs multi-token chunk tally."""
    class_chunks = Counter()
    single = 0
    multi = 0
    n_tokens = 0
    for sent in corpus.sentences:
        n_tokens += len(sent)
        for chunk in extract_chunks(sent.gold_tags):
            class_chunks[chunk.cls] += 1
            if chunk.end - chunk.start == 1:
                single += 1
            else:
                multi += 1
    return StatsReport(len(corpus.sentences), n_tokens, dict(class_chunks), single, multi)
