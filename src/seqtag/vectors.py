"""Text-format embedding files: whole-word vectors and per-token
contextual vectors keyed by (sentence id, token index)."""

import numpy as np

from .corpus import ParseError

__all__ = [
    "WordVectors",
    "ContextualVectors",
    "parse_word_vectors",
    "write_word_vectors",
    "parse_contextual_vectors",
    "write_contextual_vectors",
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
        raise ParseError(f"line {line_no}: malformed vector component") from None
    if not np.isfinite(vec).all():
        raise ParseError(f"line {line_no}: non-finite vector component")
    return vec


def parse_word_vectors(text):
    """Parse `token c1 c2 ... cd` lines; a leading `count dim` header line
    (two integer fields) is recognized and skipped."""
    vectors = {}
    dim = None
    lines = text.splitlines()
    start = 0
    if lines:
        fields = lines[0].split()
        if len(fields) == 2:
            try:
                int(fields[0]), int(fields[1])
                start = 1
            except ValueError:
                pass
    for line_no, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) < 2:
            raise ParseError(f"line {line_no}: expected token and components")
        token = fields[0]
        vec = _parse_floats(fields[1:], line_no)
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise ParseError(
                f"line {line_no}: vector has {vec.size} components, expected {dim}"
            )
        if token in vectors:
            raise ParseError(f"line {line_no}: duplicate token {token!r}")
        vectors[token] = vec
    if dim is None:
        raise ParseError("no vectors in file")
    return WordVectors(vectors, dim)


def write_word_vectors(wv, header=True):
    lines = []
    if header:
        lines.append(f"{len(wv.vectors)} {wv.dim}")
    for token in sorted(wv.vectors):
        comps = " ".join(f"{x:.6f}" for x in wv.vectors[token])
        lines.append(f"{token} {comps}")
    return "\n".join(lines) + "\n"


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
            raise ParseError(
                f"line {line_no}: expected sentence id, token index, and components"
            )
        sid = fields[0]
        try:
            idx = int(fields[1])
        except ValueError:
            raise ParseError(f"line {line_no}: token index {fields[1]!r} not an integer") from None
        if idx < 0:
            raise ParseError(f"line {line_no}: negative token index")
        vec = _parse_floats(fields[2:], line_no)
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise ParseError(
                f"line {line_no}: vector has {vec.size} components, expected {dim}"
            )
        key = (sid, idx)
        if key in vectors:
            raise ParseError(f"line {line_no}: duplicate entry for {sid!r} token {idx}")
        vectors[key] = vec
    if dim is None:
        raise ParseError("no vectors in file")
    return ContextualVectors(vectors, dim)


def write_contextual_vectors(cv):
    lines = []
    for sid, idx in sorted(cv.vectors):
        comps = "\t".join(f"{x:.6f}" for x in cv.vectors[(sid, idx)])
        lines.append(f"{sid}\t{idx}\t{comps}")
    return "\n".join(lines) + "\n"
