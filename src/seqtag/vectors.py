"""Text-format embedding files: whole-word vectors and per-token
contextual vectors keyed by (sentence id, token index). Tokens and
sentence ids are NFC-normalized, as the corpus parser normalizes
surfaces and ids."""

import numpy as np

from .corpus import ParseError, _normalize

__all__ = [
    "WordVectors",
    "ContextualVectors",
    "parse_word_vectors",
    "parse_contextual_vectors",
]


class WordVectors:
    """token -> vector map with a single shared dimension."""

    def __init__(self, vectors, dim):
        self.vectors = vectors
        self.dim = dim

    def __len__(self):
        return len(self.vectors)

    def __contains__(self, token):
        return token in self.vectors

    def get(self, token):
        return self.vectors.get(token)


class ContextualVectors:
    """(sentence id, token index) -> vector map with a shared dimension."""

    def __init__(self, vectors, dim):
        self.vectors = vectors
        self.dim = dim

    def __len__(self):
        return len(self.vectors)

    def lookup_sentence(self, sentence_id, n_tokens):
        """All vectors for one sentence, in token order.

        Raises KeyError naming the sentence id if any position is missing.
        """
        rows = np.empty((n_tokens, self.dim))
        for i in range(n_tokens):
            vec = self.vectors.get((sentence_id, i))
            if vec is None:
                raise KeyError(
                    f"no contextual vector for sentence {sentence_id!r} token {i}"
                )
            rows[i] = vec
        return rows


def _parse_floats(fields, line_no):
    try:
        vec = np.array([float(f) for f in fields])
    except ValueError:
        raise ParseError("malformed vector component", line_no) from None
    if not np.isfinite(vec).all():
        raise ParseError("non-finite vector component", line_no)
    return vec


def parse_word_vectors(text):
    """Parse `token c1 c2 ... cd` lines; a leading `count dim` header line
    (two integer fields) is recognized, and must state the count and the
    dimension of the vectors that follow."""
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
        vec = _parse_floats(fields[1:], line_no)
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise ParseError(f"vector has {vec.size} components, expected {dim}", line_no)
        if token in vectors:
            raise ParseError(f"duplicate token {token!r}", line_no)
        vectors[token] = vec
    if dim is None:
        raise ParseError("no vectors in file")
    if header is not None and header != (len(vectors), dim):
        raise ParseError(f"header says {header[0]} vectors of dimension {header[1]}, "
                         f"the file has {len(vectors)} of dimension {dim}", 1)
    return WordVectors(vectors, dim)


def parse_contextual_vectors(text):
    """Parse tab-separated `sentence_id TAB token_index TAB c1 TAB ... cd`
    lines into a ContextualVectors map."""
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
        vec = _parse_floats(fields[2:], line_no)
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise ParseError(f"vector has {vec.size} components, expected {dim}", line_no)
        key = (sid, idx)
        if key in vectors:
            raise ParseError(f"duplicate entry for {sid!r} token {idx}", line_no)
        vectors[key] = vec
    if dim is None:
        raise ParseError("no vectors in file")
    return ContextualVectors(vectors, dim)

