"""Threshold-gated majority voting over aligned per-token predictions.

The rule per token: discard votes whose score does not exceed the
threshold; if one label is held by strictly more than half of the models,
it wins; otherwise the surviving label with the highest total score wins
(ties broken toward the lexicographically smallest label); if nothing
survives, O. Voting happens on raw labels; BIO repair runs once on the
voted sequence, never on the inputs.
"""

from dataclasses import dataclass, field

from .corpus import BIO_TAG_RE, ParseError, _conll_blocks, _normalize, repair_bio
from .tagger import TokenPrediction

__all__ = [
    "EnsembleError",
    "VoteConfig",
    "PredictionSet",
    "TokenDiag",
    "EnsembleDiagnostics",
    "majority_vote",
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
    """One model's predictions aligned to a reference corpus: one
    TokenPrediction list per sentence. ``sentence_ids`` is kept when read
    from a file so misalignments can be reported precisely."""

    model_id: str
    predictions: list
    sentence_ids: list | None = None


def _support(survivors, label):
    scores = [v.score for v in survivors if v.label == label]
    return sum(scores) / len(scores) if scores else 0.0


def _vote(votes, config):
    """Returns (label, surviving_count, outcome, support) with outcome in
    {majority, fallback, empty}; support is the mean surviving score for
    the winning label."""
    survivors = [v for v in votes if v.score > config.score_threshold]
    denominator = len(votes) if config.majority_of == "models" else len(survivors)
    counts = {}
    for v in survivors:
        counts[v.label] = counts.get(v.label, 0) + 1
    for label in sorted(counts):
        if 2 * counts[label] > denominator:
            return label, len(survivors), "majority", _support(survivors, label)
    if not survivors:
        return "O", 0, "empty", 0.0
    totals = {}
    for v in survivors:
        totals[v.label] = totals.get(v.label, 0.0) + v.score
    label = min(totals.items(), key=lambda kv: (-kv[1], kv[0]))[0]
    return label, len(survivors), "fallback", _support(survivors, label)


def majority_vote(votes, config=VoteConfig()):
    """Ensemble label for one token given one vote per model."""
    if not votes:
        raise EnsembleError("cannot vote on an empty vote list")
    return _vote(votes, config)[0]


@dataclass(frozen=True)
class TokenDiag:
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


def _check_alignment(pset, reference):
    if len(pset.predictions) != len(reference.sentences):
        raise EnsembleError(
            f"model {pset.model_id!r}: {len(pset.predictions)} sentences, "
            f"reference has {len(reference.sentences)}"
        )
    for si, sent in enumerate(reference.sentences):
        if pset.sentence_ids is not None and pset.sentence_ids[si] != sent.id:
            raise EnsembleError(
                f"model {pset.model_id!r}: sentence {pset.sentence_ids[si]!r} "
                f"where reference has {sent.id!r}"
            )
        if len(pset.predictions[si]) != len(sent):
            raise EnsembleError(
                f"model {pset.model_id!r}: sentence {sent.id!r} has "
                f"{len(pset.predictions[si])} predictions for {len(sent)} tokens"
            )


def ensemble_corpus(sets, reference, config=VoteConfig()):
    """Vote every token across ``sets``, repair the voted sequences, and
    return (label sequences, diagnostics)."""
    if len(sets) < 2:
        raise EnsembleError(f"need at least 2 prediction sets, got {len(sets)}")
    for pset in sets:
        _check_alignment(pset, reference)

    diagnostics = EnsembleDiagnostics(config, [p.model_id for p in sets])
    threshold = config.score_threshold
    all_labels = []
    for si, sent in enumerate(reference.sentences):
        voted = []
        details = []
        for votes in zip(*[pset.predictions[si] for pset in sets]):
            # a unanimous vote above the threshold is a majority under either
            # denominator; its support is _support's mean, summed in vote order
            label = votes[0].label
            scores = [v.score for v in votes if v.label == label and v.score > threshold]
            if len(scores) == len(votes):
                voted.append(label)
                details.append((len(votes), "majority", sum(scores) / len(votes)))
                continue
            label, surviving, outcome, support = _vote(votes, config)
            voted.append(label)
            details.append((surviving, outcome, support))
        repaired = repair_bio(voted)
        all_labels.append(repaired)
        diagnostics.per_sentence.append(
            (sent.id, [TokenDiag(lab, s, o, sc)
                       for lab, (s, o, sc) in zip(repaired, details)])
        )
    return all_labels, diagnostics


def write_prediction_file(corpus, predictions, include_gold=True):
    """Render per-token predictions as CoNLL-style text: `# id` headers and
    `token [gold] predicted score` rows, blank line between sentences."""
    if len(predictions) != len(corpus.sentences):
        raise EnsembleError(
            f"{len(predictions)} prediction lists for {len(corpus.sentences)} sentences"
        )
    lines = []
    for sent, preds in zip(corpus.sentences, predictions):
        if len(preds) != len(sent):
            raise EnsembleError(
                f"sentence {sent.id!r}: {len(preds)} predictions for {len(sent)} tokens"
            )
        lines.append(f"# {sent.id}")
        for tok, p in zip(sent.tokens, preds):
            cols = [tok.surface]
            if include_gold:
                cols.append(tok.gold_tag)
            cols.append(p.label)
            cols.append(f"{p.score:.6f}")
            lines.append(" ".join(cols))
        lines.append("")
    return "\n".join(lines)


@dataclass
class PredictionFileData:
    sentence_ids: list
    surfaces: list
    gold_tags: list | None  # None when the file has no gold column
    predictions: list

    def to_set(self, model_id):
        return PredictionSet(model_id, self.predictions, list(self.sentence_ids))


def read_prediction_file(text):
    """Parse prediction text back into sentences of TokenPredictions.

    Rows carry 4 columns (token gold predicted score) or 3 (token predicted
    score); the two may not be mixed within one file. Blocks, ids and
    surfaces follow the corpus rules of ``parse_conll``, NFC included.
    """
    if not text.strip():
        raise ParseError("empty prediction file")
    data = PredictionFileData([], [], [], [])
    width = None  # 4 with a gold column, 3 without; set by the first row
    valid_tags = set()  # labels that matched BIO_TAG_RE; validity depends on the string alone
    for sid, rows in _conll_blocks(text):
        surfaces, gold_tags, predictions = [], [], []
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
            if width == 4:
                gold = cols[1]
                if gold not in valid_tags:
                    if not BIO_TAG_RE.match(gold):
                        raise ParseError(f"gold tag {gold!r} does not match the BIO grammar",
                                         lineno)
                    valid_tags.add(gold)
                gold_tags.append(gold)
            try:
                score = float(score_text)
            except ValueError:
                raise ParseError(f"malformed score {score_text!r}", lineno) from None
            # TokenPrediction's checks, in its order and with its messages
            if pred not in valid_tags:
                if not BIO_TAG_RE.match(pred):
                    raise ParseError(f"invalid BIO label {pred!r}", lineno)
                valid_tags.add(pred)
            if not (0.0 <= score <= 1.0):
                raise ParseError(f"prediction score {score} outside [0, 1]", lineno)
            predictions.append(TokenPrediction._trusted(pred, score))
            surfaces.append(_normalize(cols[0]))
        data.sentence_ids.append(sid)
        data.surfaces.append(surfaces)
        data.gold_tags.append(gold_tags)
        data.predictions.append(predictions)

    if not data.surfaces:
        raise ParseError("prediction file contains no sentences")
    if width == 3:
        data.gold_tags = None
    return data
