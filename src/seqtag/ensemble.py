"""Threshold-gated majority voting over aligned per-token predictions.

The rule per token: discard votes whose score does not exceed the
threshold; if one label is held by strictly more than half of the models,
it wins; otherwise the surviving label with the highest total score wins
(ties broken toward the lexicographically smallest label); if nothing
survives, O. Voting happens on raw labels; BIO repair runs once on the
voted sequence, never on the inputs.

Predictions travel as per-sentence columns (``SentencePredictions``): a
prediction file is read into them by the corpus module's block reader,
the one that reads corpora, given this module's row layout and checks;
the vote runs on every token of the corpus at once as arrays, and the
diagnostics keep each token's result as per-sentence columns
(``SentenceVotes``), which write as voted text.
"""

from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain

import numpy as np

from .corpus import CorpusError, _bio_tags, _read_blocks, repair_bio
from .tagger import SentencePredictions

__all__ = [
    "EnsembleError",
    "VoteConfig",
    "PredictionSet",
    "SentenceVotes",
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
OUTCOMES = ("majority", "fallback", "empty")


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
    its id, its token surfaces (a tuple, as ``Sentence.surfaces`` is) and
    its SentencePredictions. ``read_prediction_file`` returns a set with no
    ``model_id``; ``to_set`` names it."""

    model_id: str | None
    predictions: list
    sentence_ids: list
    surfaces: list

    def to_set(self, model_id):
        return replace(self, model_id=model_id)


# tokens per window of _tally: a window's (tokens, labels) arrays take
# about 0.25 MiB per label, so a large corpus's vote needs little memory
# beyond its results (on 300k tokens, 37 labels and five models, one
# window of all tokens added 174 MiB to the peak RSS, these windows 43)
_TALLY_TOKENS = 1 << 14


def _tally(columns, config):
    """Vote every token of aligned flat columns, one (labels, scores) pair
    per model in vote order. Returns per token the winning label (a list),
    then as arrays its surviving vote count, its outcome (an index into
    OUTCOMES) and its support, the winner's mean surviving score. Tokens
    are voted in windows of _TALLY_TOKENS."""
    names = sorted(set(chain.from_iterable(labels for labels, _ in columns)) | {"O"})
    code = {name: i for i, name in enumerate(names)}
    parts = [_tally_window([(labels[a:a + _TALLY_TOKENS], scores[a:a + _TALLY_TOKENS])
                            for labels, scores in columns], code, config)
             for a in range(0, len(columns[0][0]), _TALLY_TOKENS)]
    winner, surviving, outcome, support = map(np.concatenate, zip(*parts))
    return np.array(names, dtype=object)[winner].tolist(), surviving, outcome, support


def _tally_window(columns, code, config):
    """``_tally`` of one window, with each label's index in ``code`` and
    the winners as indices. Each label gets a column of (tokens, labels)
    count and total arrays; every model adds its surviving votes to them in
    turn, so each total is summed in vote order. A label held by more than
    half of the models (or of the survivors) wins; otherwise the highest
    total does, and ``argmax`` breaks a tie toward the first, i.e. the
    lexicographically smallest, label (``code`` numbers them in sorted
    order). A surviving score exceeds a threshold >= 0, so a label with no
    survivor has the lowest total, 0."""
    n = len(columns[0][0])
    counts = np.zeros((n, len(code)), np.int32)
    totals = np.zeros((n, len(code)))
    base = np.arange(n) * len(code)
    for labels, scores in columns:
        at = base + np.fromiter(map(code.__getitem__, labels), np.intp, n)
        scores = np.asarray(scores, dtype=float)
        alive = scores > config.score_threshold
        counts.ravel()[at] += alive
        totals.ravel()[at] += np.where(alive, scores, 0.0)
    surviving = counts.sum(axis=1)
    denominator = len(columns) if config.majority_of == "models" else surviving[:, None]
    majority = 2 * counts > denominator  # true of at most one label per token
    has_majority = majority.any(axis=1)
    winner = np.where(has_majority, majority.argmax(axis=1), totals.argmax(axis=1))
    empty = surviving == 0
    winner[empty] = code["O"]
    outcome = np.where(empty, 2, np.where(has_majority, 0, 1))
    rows = np.arange(n)
    count = counts[rows, winner]
    support = np.divide(totals[rows, winner], count, out=np.zeros(n), where=count > 0)
    return winner, surviving, outcome, support


def majority_vote(votes, config=VoteConfig()):
    """Ensemble label for one token given one vote per model (records with
    a ``label`` and a ``score``), by the vote ``ensemble_corpus`` runs; the
    label is not BIO-repaired."""
    if not votes:
        raise EnsembleError("cannot vote on an empty vote list")
    return _tally([([v.label], [v.score]) for v in votes], config)[0][0]


@dataclass(slots=True)
class SentenceVotes(SentencePredictions):
    """One sentence's vote as columns: the final (post-repair) ``labels``,
    each one's support as ``scores`` (the mean surviving score behind the
    winning label, 0.0 for an empty vote), and each token's surviving vote
    count and outcome (majority | fallback | empty). As a
    SentencePredictions it writes as the voted prediction text."""

    surviving: list
    outcomes: tuple


@dataclass
class EnsembleDiagnostics:
    config: VoteConfig
    model_ids: list
    per_sentence: list = field(default_factory=list)  # (sentence_id, SentenceVotes)

    @property
    def n_fallbacks(self):
        return sum(len(v.outcomes) - v.outcomes.count("majority")
                   for _, v in self.per_sentence)

    def render(self):
        lines = [
            f"# threshold {self.config.score_threshold}",
            f"# fallback {FALLBACK_POLICY}",
            f"# majority_of {self.config.majority_of}",
            f"# models {','.join(self.model_ids)}",
            f"# non_majority_tokens {self.n_fallbacks}",
        ]
        for sid, votes in self.per_sentence:
            lines.append(f"# sentence {sid}")
            lines.extend(map(" ".join, zip(map(str, range(len(votes))), votes.labels,
                                           map(str, votes.surviving), votes.outcomes)))
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
    # whole columns first; only a set that fails is walked sentence by sentence
    if (pset.sentence_ids == [sent.id for sent in reference.sentences]
            and pset.surfaces == [sent.surfaces for sent in reference.sentences]
            and list(map(len, pset.predictions)) == list(map(len, pset.surfaces))):
        return
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
    """Vote every token across ``sets`` at once (``_tally``), repair each
    voted sentence, and return (label lists, diagnostics)."""
    if len(sets) < 2:
        raise EnsembleError(f"need at least 2 prediction sets, got {len(sets)}")
    for pset in sets:
        check_alignment(pset, reference)

    columns = [(list(chain.from_iterable(p.labels for p in pset.predictions)),
                list(chain.from_iterable(p.scores for p in pset.predictions)))
               for pset in sets]
    voted, surviving, outcome, support = _tally(columns, config)
    surviving, support = surviving.tolist(), support.tolist()
    outcomes = np.array(OUTCOMES, dtype=object)[outcome].tolist()
    diagnostics = EnsembleDiagnostics(config, [p.model_id for p in sets])
    all_labels = []
    a = 0
    for sent in reference.sentences:
        b = a + len(sent)
        repaired = repair_bio(voted[a:b])
        all_labels.append(repaired)
        diagnostics.per_sentence.append((sent.id, SentenceVotes(
            tuple(repaired), support[a:b], surviving[a:b], tuple(outcomes[a:b]))))
        a = b
    return all_labels, diagnostics


def _prediction_layout(n, layouts):
    """Picks (token, gold, label, score) of an ``n``-column row: all rows of
    a file have 4 columns (token gold predicted score) or all have 3."""
    if n not in (3, 4):
        return f"expected 3 or 4 columns (token [gold] predicted score), got {n}"
    if layouts:  # the file's rows so far have the other count
        return "mixed 3- and 4-column rows in one file"
    return 0, 1 if n == 4 else None, n - 2, n - 1


def _parsed_scores(texts, seen):
    """``texts`` parsed by ``float``; CorpusError names the first it refuses."""
    try:
        return list(map(float, texts))
    except ValueError:
        for text in texts:
            try:
                float(text)
            except ValueError:
                raise CorpusError(f"malformed score {text!r}") from None


def _unit_scores(scores, seen):
    """``scores`` when every one lies in [0, 1]; CorpusError names the
    first that does not, NaN included. A NaN can hide from ``min`` and
    ``max`` but not from the sum, and once both bounds hold no infinity is
    left to make the sum NaN."""
    total = sum(scores)
    if 0.0 <= min(scores) and max(scores) <= 1.0 and total == total:
        return scores
    bad = next(score for score in scores if not 0.0 <= score <= 1.0)
    raise CorpusError(f"prediction score {bad} outside [0, 1]")


_label_check = partial(_bio_tags, "invalid BIO label {!r}")
# a row's checks in the order that names its fault; the writer refuses
# the same labels and scores
_PREDICTION_FORMAT = _prediction_layout, (
    (1, partial(_bio_tags, "gold tag {!r} does not match the BIO grammar")),
    (3, _parsed_scores), (2, _label_check), (3, _unit_scores))


def write_prediction_file(corpus, predictions, include_gold=True):
    """Render per-sentence prediction columns (anything with ``labels`` and
    ``scores``, such as SentencePredictions or SentenceVotes) as
    CoNLL-style text: `# id` headers and `token [gold] predicted score`
    rows, blank line between sentences. Raises EnsembleError, naming the
    sentence, on a label outside the BIO grammar or a score outside
    [0, 1]."""
    if len(predictions) != len(corpus.sentences):
        raise EnsembleError(
            f"{len(predictions)} prediction lists for {len(corpus.sentences)} sentences"
        )
    lines = []
    labels_seen = set()
    for sent, preds in zip(corpus.sentences, predictions):
        labels, scores = preds.labels, preds.scores
        if len(labels) != len(sent):
            raise EnsembleError(
                f"sentence {sent.id!r}: {len(labels)} predictions for {len(sent)} tokens"
            )
        try:
            _label_check(labels, labels_seen)
            _unit_scores(scores, labels_seen)
        except CorpusError:  # row by row: the first faulty row names the fault
            for label, score in zip(labels, scores):
                try:
                    _label_check((label,), labels_seen)
                    _unit_scores((score,), labels_seen)
                except CorpusError as fault:
                    raise EnsembleError(f"sentence {sent.id!r}: {fault}") from None
        lines.append(f"# {sent.id}")
        fields = (sent.surfaces, sent.gold_tags) if include_gold else (sent.surfaces,)
        lines.extend(map(" ".join, zip(*fields, labels, map("%.6f".__mod__, scores))))
        lines.append("")
    return "\n".join(lines)


def read_prediction_file(text):
    """Parse prediction text into an unnamed PredictionSet: per sentence,
    its id, its surfaces and its SentencePredictions.

    Rows carry 4 columns (token gold predicted score) or 3 (token predicted
    score); the two may not be mixed within one file. A gold column is
    checked against the BIO grammar but not kept. The reader is
    ``parse_conll``'s, so blocks, ids and surfaces follow the corpus rules,
    NFC included: each block is checked a column at a time, and a block
    that fails is read again row by row, which names the first faulty row.
    """
    sentence_ids, all_surfaces, all_predictions = [], [], []
    blocks = _read_blocks(text, "prediction file", _PREDICTION_FORMAT, set())
    for sid, (surfaces, _, labels, scores) in blocks:
        sentence_ids.append(sid)
        # a tuple, as Sentence.surfaces is: check_alignment compares the two
        all_surfaces.append(surfaces)
        all_predictions.append(SentencePredictions(labels, scores))
    return PredictionSet(None, all_predictions, sentence_ids, all_surfaces)
