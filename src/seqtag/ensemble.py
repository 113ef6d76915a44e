"""Threshold-gated majority voting over aligned per-token predictions.

The rule per token: discard votes whose score does not exceed the
threshold; if one label is held by strictly more than half of the models,
it wins; otherwise the surviving label with the highest total score wins
(ties broken toward the lexicographically smallest label); if nothing
survives, O. Voting happens on raw labels; BIO repair runs once on the
voted sequence, never on the inputs.

A model's predictions travel as corpus-wide columns (``PredictionSet``):
a prediction file is read into them by the corpus module's reader, the
one that reads corpora, given this module's row layout and checks; a set
is held to its reference corpus column by column, the vote runs on every
token of the corpus at once as arrays over those columns, and the vote
is one more set, the reference's columns with the repaired labels and
their support, which the diagnostics hold beside per-token columns of
surviving vote counts and outcomes and which writes as voted text.
"""

from copy import copy
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice

import numpy as np

from .corpus import CorpusError, _bio_tags, _cuts, _read_columns, repair_bio
from .tagger import SentencePredictions

__all__ = [
    "EnsembleError",
    "VoteConfig",
    "PredictionSet",
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


class PredictionSet:
    """One model's predictions aligned to a reference corpus, as corpus-wide
    columns: per sentence its id (``sentence_ids``), its surface count
    (``lengths``) and its prediction count (``prediction_lengths``, the
    same list when read from a file); per token, in sentence order, its
    surface (``tokens``), label (``labels``) and score (``scores``).

    ``PredictionSet(model_id, predictions, sentence_ids, surfaces)`` takes
    per-sentence lists: SentencePredictions-like columns and surface
    tuples. ``predictions`` and ``surfaces`` read them back, built from
    the columns on demand. ``read_prediction_file`` and ``ensemble_corpus``
    (its vote) return sets with no ``model_id``; ``to_set`` names one."""

    __slots__ = ("model_id", "sentence_ids", "lengths", "prediction_lengths", "tokens",
                 "labels", "scores")

    def __init__(self, model_id, predictions, sentence_ids, surfaces):
        self.model_id = model_id
        self.sentence_ids = list(sentence_ids)
        self.lengths = list(map(len, surfaces))
        self.prediction_lengths = list(map(len, predictions))
        self.tokens = tuple(chain.from_iterable(surfaces))
        self.labels = tuple(chain.from_iterable(p.labels for p in predictions))
        self.scores = list(chain.from_iterable(p.scores for p in predictions))

    @property
    def predictions(self):
        cuts = _cuts(self.prediction_lengths)
        return list(map(SentencePredictions, map(self.labels.__getitem__, cuts),
                        map(self.scores.__getitem__, cuts)))

    @property
    def surfaces(self):
        return list(map(self.tokens.__getitem__, _cuts(self.lengths)))

    def to_set(self, model_id):
        named = copy(self)
        named.model_id = model_id
        return named


def _read_set(sentence_ids, lengths, tokens, labels, scores):
    """The unnamed PredictionSet of these columns, one prediction a
    surface: those a prediction file was read into, or a vote's."""
    pset = object.__new__(PredictionSet)
    pset.model_id = None
    pset.sentence_ids, pset.tokens, pset.labels, pset.scores = sentence_ids, tokens, labels, scores
    pset.lengths = pset.prediction_lengths = lengths
    return pset


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


@dataclass
class EnsembleDiagnostics:
    """An ``ensemble_corpus`` vote: its config, the model ids in vote
    order, ``votes`` (a PredictionSet over the reference's columns of each
    token's final, post-repair label with its support as its score: the
    mean surviving score behind it, 0.0 for an empty vote), and per token
    as arrays its ``surviving`` vote count and ``outcome`` (an index into
    OUTCOMES)."""

    config: VoteConfig
    model_ids: list
    votes: PredictionSet
    surviving: np.ndarray
    outcome: np.ndarray

    @property
    def per_sentence(self):
        """(sentence id, SentencePredictions) of each voted sentence, read
        from ``votes``. Only perfbench reads it; ROADMAP 10B(m) deletes it."""
        return list(zip(self.votes.sentence_ids, self.votes.predictions))

    @property
    def n_fallbacks(self):
        return int(np.count_nonzero(self.outcome != OUTCOMES.index("majority")))

    def render(self):
        lines = [
            f"# threshold {self.config.score_threshold}",
            f"# fallback {FALLBACK_POLICY}",
            f"# majority_of {self.config.majority_of}",
            f"# models {','.join(self.model_ids)}",
            f"# non_majority_tokens {self.n_fallbacks}",
        ]
        votes = self.votes
        rows = map(" ".join, zip(map(str, chain.from_iterable(map(range, votes.lengths))),
                                 votes.labels, map(str, self.surviving.tolist()),
                                 map(OUTCOMES.__getitem__, self.outcome.tolist())))
        for sid, n in zip(votes.sentence_ids, votes.lengths):
            lines.append(f"# sentence {sid}")
            lines.extend(islice(rows, n))
        return "\n".join(lines) + "\n"


def check_alignment(pset, reference):
    """Raise EnsembleError, naming the model, unless ``pset`` has one
    prediction list, sentence id and surface tuple per sentence of
    ``reference``, in order: the same sentence ids and token surfaces, and
    one prediction per token."""
    _check_alignment(pset, reference, _reference_columns(reference))


def _reference_columns(reference):
    """(sentence ids, lengths, surfaces of every token) of ``reference``:
    the columns ``_check_alignment`` holds a set's columns to."""
    sentences = reference.sentences
    return ([sent.id for sent in sentences], list(map(len, sentences)),
            tuple(chain.from_iterable(sent.surfaces for sent in sentences)))


def _check_alignment(pset, reference, columns):
    """``check_alignment`` given ``_reference_columns(reference)``."""
    ids, lengths, tokens = columns
    n = len(ids)
    for what, k in (("sentences", len(pset.prediction_lengths)),
                    ("sentence ids", len(pset.sentence_ids)), ("surface tuples", len(pset.lengths))):
        if k != n:
            raise EnsembleError(f"model {pset.model_id!r}: {k} {what}, reference has {n}")
    # whole columns first; only a set that fails is walked sentence by sentence
    if (pset.sentence_ids == ids and pset.lengths == lengths
            and pset.prediction_lengths == lengths and pset.tokens == tokens):
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
    """Vote every token across ``sets`` at once (``_tally``) on their label
    and score columns, repair each voted sentence, and return (label
    lists, diagnostics)."""
    if len(sets) < 2:
        raise EnsembleError(f"need at least 2 prediction sets, got {len(sets)}")
    columns = _reference_columns(reference)
    for pset in sets:
        _check_alignment(pset, reference, columns)

    voted, surviving, outcome, support = _tally([(p.labels, p.scores) for p in sets], config)
    ids, lengths, tokens = columns
    labels = list(map(repair_bio, map(voted.__getitem__, _cuts(lengths))))
    votes = _read_set(ids, lengths, tokens, tuple(chain.from_iterable(labels)), support.tolist())
    return labels, EnsembleDiagnostics(config, [p.model_id for p in sets], votes, surviving,
                                       outcome)


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
    ``scores``: SentencePredictions, or a PredictionSet's ``predictions``,
    a vote's included) as CoNLL-style text: `# id` headers and `token [gold] predicted score`
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
    """Parse prediction text into an unnamed PredictionSet of the file's
    columns: sentence ids and lengths, and every token's surface, label and
    score.

    Rows carry 4 columns (token gold predicted score) or 3 (token predicted
    score); the two may not be mixed within one file. A gold column is
    checked against the BIO grammar but not kept. The reader is
    ``parse_conll``'s, so blocks, ids and surfaces follow the corpus rules,
    NFC included: the whole file is checked a column at a time, and a file
    that fails is read again row by row, which names the first faulty row.
    """
    ids, lengths, (tokens, _, labels, scores) = _read_columns(
        text, "prediction file", _PREDICTION_FORMAT, set())
    return _read_set(ids, lengths, tokens, labels, scores)
