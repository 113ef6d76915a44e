"""Text-format embedding files, read into plain dicts of 1-D float
vectors: whole-word vectors as ``{token: vector}`` and per-token
contextual vectors as ``{(sentence id, token index): vector}``. All
vectors of a file share one dimension. Tokens and sentence ids are
NFC-normalized, as the corpus parser normalizes surfaces and ids."""

import numpy as np

from .corpus import ParseError, _normalize

__all__ = ["parse_word_vectors", "parse_contextual_vectors"]


def _vector(fields, dim, line_no):
    """The components ``fields`` of line ``line_no`` as a vector, which
    must have ``dim`` of them (any number when ``dim`` is None)."""
    try:
        vec = np.array([float(f) for f in fields])
    except ValueError:
        raise ParseError("malformed vector component", line_no) from None
    if not np.isfinite(vec).all():
        raise ParseError("non-finite vector component", line_no)
    if dim is not None and vec.size != dim:
        raise ParseError(f"vector has {vec.size} components, expected {dim}", line_no)
    return vec


def parse_word_vectors(text):
    """Parse `token c1 c2 ... cd` lines into ``{token: vector}``; a leading
    `count dim` header line (two integer fields) is recognized, and must
    state the count and the dimension of the vectors that follow."""
    vectors = {}
    dim = None
    lines = text.splitlines()
    header = None
    if lines:
        fields = lines[0].split()
        if len(fields) == 2:
            try:
                header = int(fields[0]), int(fields[1])
            except ValueError:
                pass
    start = 0 if header is None else 1
    for line_no, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) < 2:
            raise ParseError("expected token and components", line_no)
        token = _normalize(fields[0])
        vec = _vector(fields[1:], dim, line_no)
        dim = vec.size
        if token in vectors:
            raise ParseError(f"duplicate token {token!r}", line_no)
        vectors[token] = vec
    if dim is None:
        raise ParseError("no vectors in file")
    if header is not None and header != (len(vectors), dim):
        raise ParseError(f"header says {header[0]} vectors of dimension {header[1]}, "
                         f"the file has {len(vectors)} of dimension {dim}", 1)
    return vectors


def parse_contextual_vectors(text):
    """Parse tab-separated `sentence_id TAB token_index TAB c1 TAB ... cd`
    lines into ``{(sentence id, token index): vector}``."""
    vectors = {}
    dim = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < 3:
            raise ParseError("expected sentence id, token index, and components", line_no)
        sid = _normalize(fields[0])
        try:
            idx = int(fields[1])
        except ValueError:
            raise ParseError(f"token index {fields[1]!r} not an integer", line_no) from None
        if idx < 0:
            raise ParseError("negative token index", line_no)
        vec = _vector(fields[2:], dim, line_no)
        dim = vec.size
        key = (sid, idx)
        if key in vectors:
            raise ParseError(f"duplicate entry for {sid!r} token {idx}", line_no)
        vectors[key] = vec
    if dim is None:
        raise ParseError("no vectors in file")
    return vectors
