"""Threshold-gated majority voting over aligned per-token predictions.

The rule per token: discard votes whose score does not exceed the
threshold; if one label is held by strictly more than half of the models,
it wins; otherwise the surviving label with the highest total score wins
(ties broken toward the lexicographically smallest label); if nothing
survives, O. Voting happens on raw labels; BIO repair runs once on the
voted sequence, never on the inputs.
"""

from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .corpus import BIO_TAG_RE, ParseError, _conll_blocks, _normalize, repair_bio
from .tagger import TokenPrediction

__all__ = [
    "EnsembleError",
    "VoteConfig",
    "PredictionSet",
    "TokenDiag",
    "EnsembleDiagnostics",
    "majority_vote",
    "check_alignment",
    "ensemble_corpus",
    "read_prediction_file",
    "write_prediction_file",
]

# the rule a token without a majority falls back on, named in diagnostics
FALLBACK_POLICY = "highest-total-score"
MAJORITY_DENOMINATORS = ("models", "survivors")


class EnsembleError(ValueError):
    pass


@dataclass(frozen=True)
class VoteConfig:
    score_threshold: float = 0.5
    majority_of: str = "models"

    def __post_init__(self):
        if not (0.0 <= self.score_threshold <= 1.0):
            raise EnsembleError(
                f"score threshold {self.score_threshold} outside [0, 1]"
            )
        if self.majority_of not in MAJORITY_DENOMINATORS:
            raise EnsembleError(f"majority_of must be one of {MAJORITY_DENOMINATORS}")


@dataclass
class PredictionSet:
    """One model's predictions aligned to a reference corpus: per sentence,
    its id, its token surfaces (a tuple, as ``Sentence.surfaces`` is) and a
    list of (label, score) records. ``read_prediction_file`` returns a set
    with no ``model_id``; ``to_set`` names it."""

    model_id: str | None
    predictions: list
    sentence_ids: list
    surfaces: list

    def to_set(self, model_id):
        return replace(self, model_id=model_id)


def _vote(votes, config):
    """Returns (label, surviving_count, outcome, support) with outcome in
    {majority, fallback, empty}. One pass tallies each surviving label's
    count and score total, summed in vote order; support is the winner's
    total over its count, its mean surviving score."""
    threshold = config.score_threshold
    counts, totals = {}, {}
    for v in votes:
        if v.score > threshold:
            counts[v.label] = counts.get(v.label, 0) + 1
            totals[v.label] = totals.get(v.label, 0.0) + v.score
    if not counts:
        return "O", 0, "empty", 0.0
    surviving = sum(counts.values())
    denominator = len(votes) if config.majority_of == "models" else surviving
    for label, count in counts.items():
        if 2 * count > denominator:  # true of at most one label
            return label, surviving, "majority", totals[label] / count
    label = min(totals, key=lambda lab: (-totals[lab], lab))
    return label, surviving, "fallback", totals[label] / counts[label]


def majority_vote(votes, config=VoteConfig()):
    """Ensemble label for one token given one vote per model."""
    if not votes:
        raise EnsembleError("cannot vote on an empty vote list")
    return _vote(votes, config)[0]


class TokenDiag(NamedTuple):
    label: str  # final (post-repair) label
    surviving: int
    outcome: str  # majority | fallback | empty
    score: float  # mean surviving score behind the winning label


@dataclass
class EnsembleDiagnostics:
    config: VoteConfig
    model_ids: list
    per_sentence: list = field(default_factory=list)  # (sentence_id, [TokenDiag])

    @property
    def n_fallbacks(self):
        return sum(
            1 for _, diags in self.per_sentence
            for d in diags if d.outcome != "majority"
        )

    def render(self):
        lines = [
            f"# threshold {self.config.score_threshold}",
            f"# fallback {FALLBACK_POLICY}",
            f"# majority_of {self.config.majority_of}",
            f"# models {','.join(self.model_ids)}",
            f"# non_majority_tokens {self.n_fallbacks}",
        ]
        for sid, diags in self.per_sentence:
            lines.append(f"# sentence {sid}")
            for i, d in enumerate(diags):
                lines.append(f"{i} {d.label} {d.surviving} {d.outcome}")
        return "\n".join(lines) + "\n"


def check_alignment(pset, reference):
    """Raise EnsembleError, naming the model, unless ``pset`` has one
    prediction list, sentence id and surface tuple per sentence of
    ``reference``, in order: the same sentence ids and token surfaces, and
    one prediction per token."""
    n = len(reference.sentences)
    for what, column in (("sentences", pset.predictions), ("sentence ids", pset.sentence_ids),
                         ("surface tuples", pset.surfaces)):
        if len(column) != n:
            raise EnsembleError(f"model {pset.model_id!r}: {len(column)} {what}, reference has {n}")
    for sent, sid, surfaces, preds in zip(reference.sentences, pset.sentence_ids,
                                          pset.surfaces, pset.predictions):
        if sid != sent.id:
            raise EnsembleError(
                f"model {pset.model_id!r}: sentence {sid!r} where reference has {sent.id!r}"
            )
        if surfaces != sent.surfaces:
            raise EnsembleError(
                f"model {pset.model_id!r}: sentence {sent.id!r} tokens do not match "
                "the reference corpus"
            )
        if len(preds) != len(sent):
            raise EnsembleError(
                f"model {pset.model_id!r}: sentence {sent.id!r} has "
                f"{len(preds)} predictions for {len(sent)} tokens"
            )


def ensemble_corpus(sets, reference, config=VoteConfig()):
    """Vote every token across ``sets``, repair the voted sequences, and
    return (label sequences, diagnostics)."""
    if len(sets) < 2:
        raise EnsembleError(f"need at least 2 prediction sets, got {len(sets)}")
    for pset in sets:
        check_alignment(pset, reference)

    diagnostics = EnsembleDiagnostics(config, [p.model_id for p in sets])
    all_labels = []
    for si, sent in enumerate(reference.sentences):
        tallies = [_vote(votes, config) for votes in zip(*[p.predictions[si] for p in sets])]
        repaired = repair_bio([t[0] for t in tallies])
        all_labels.append(repaired)
        diagnostics.per_sentence.append(
            (sent.id, [TokenDiag(lab, s, o, sc)
                       for lab, (_, s, o, sc) in zip(repaired, tallies)])
        )
    return all_labels, diagnostics


def write_prediction_file(corpus, predictions, include_gold=True):
    """Render per-token predictions (records with a ``label`` and a
    ``score``, such as TokenPrediction or TokenDiag) as CoNLL-style text:
    `# id` headers and `token [gold] predicted score` rows, blank line
    between sentences. Raises EnsembleError, naming the sentence, on a
    label outside the BIO grammar or a score outside [0, 1]."""
    if len(predictions) != len(corpus.sentences):
        raise EnsembleError(
            f"{len(predictions)} prediction lists for {len(corpus.sentences)} sentences"
        )
    lines = []
    valid_labels = set()  # labels that matched BIO_TAG_RE
    for sent, preds in zip(corpus.sentences, predictions):
        if len(preds) != len(sent):
            raise EnsembleError(
                f"sentence {sent.id!r}: {len(preds)} predictions for {len(sent)} tokens"
            )
        lines.append(f"# {sent.id}")
        for surface, gold, p in zip(sent.surfaces, sent.gold_tags, preds):
            label, score = p.label, p.score
            if label not in valid_labels:
                if not BIO_TAG_RE.match(label):
                    raise EnsembleError(f"sentence {sent.id!r}: invalid BIO label {label!r}")
                valid_labels.add(label)
            if not 0.0 <= score <= 1.0:  # NaN included
                raise EnsembleError(
                    f"sentence {sent.id!r}: prediction score {score} outside [0, 1]")
            lines.append(f"{surface} {gold} {label} {score:.6f}" if include_gold
                         else f"{surface} {label} {score:.6f}")
        lines.append("")
    return "\n".join(lines)


def read_prediction_file(text):
    """Parse prediction text into an unnamed PredictionSet: per sentence,
    its id, its surfaces and one TokenPrediction per row.

    Rows carry 4 columns (token gold predicted score) or 3 (token predicted
    score); the two may not be mixed within one file. A gold column is
    checked against the BIO grammar but not kept. Blocks, ids and surfaces
    follow the corpus rules of ``parse_conll``, NFC included.
    """
    if not text.strip():
        raise ParseError("empty prediction file")
    sentence_ids, all_surfaces, all_predictions = [], [], []
    width = None  # 4 with a gold column, 3 without; set by the first row
    valid_tags = set()  # labels that matched BIO_TAG_RE; validity depends on the string alone
    for sid, rows in _conll_blocks(text):
        surfaces, predictions = [], []
        for lineno, _, cols in rows:
            if len(cols) != width:
                if len(cols) not in (3, 4):
                    raise ParseError(
                        f"expected 3 or 4 columns (token [gold] predicted score), got {len(cols)}",
                        lineno,
                    )
                if width is not None:
                    raise ParseError("mixed 3- and 4-column rows in one file", lineno)
                width = len(cols)
            pred, score_text = cols[-2], cols[-1]
            if width == 4 and cols[1] not in valid_tags:
                if not BIO_TAG_RE.match(cols[1]):
                    raise ParseError(f"gold tag {cols[1]!r} does not match the BIO grammar",
                                     lineno)
                valid_tags.add(cols[1])
            try:
                score = float(score_text)
            except ValueError:
                raise ParseError(f"malformed score {score_text!r}", lineno) from None
            # the label, then the score: the writer refuses the same faults
            if pred not in valid_tags:
                if not BIO_TAG_RE.match(pred):
                    raise ParseError(f"invalid BIO label {pred!r}", lineno)
                valid_tags.add(pred)
            if not (0.0 <= score <= 1.0):
                raise ParseError(f"prediction score {score} outside [0, 1]", lineno)
            predictions.append(TokenPrediction(pred, score))
            surfaces.append(_normalize(cols[0]))
        sentence_ids.append(sid)
        # a tuple, as Sentence.surfaces is: check_alignment compares the two
        all_surfaces.append(tuple(surfaces))
        all_predictions.append(predictions)

    if not all_surfaces:
        raise ParseError("prediction file contains no sentences")
    return PredictionSet(None, all_predictions, sentence_ids, all_surfaces)
