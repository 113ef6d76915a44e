"""BiLSTM sequence tagger: configurable feature stack (word, contextual,
char-CNN, POS embeddings), softmax or CRF head, mini-batch training with
early stopping, and byte-deterministic model files.

Each call encodes its corpora once into flat index arrays over their
tokens; a batch gathers its sentences' rows from them. Pipeline per
batch, on the real tokens' rows: concatenate enabled embeddings, apply
dropout, run the BiLSTM stack, optionally multi-head attention, then a
linear head giving one row of tag scores per token. With the CRF head the
rows are emission scores, which the CRF reads with the batch's RowLayout;
otherwise they pass through a row softmax. Training runs each optimizer
batch as one pass; evaluation and prediction run length-sorted batches of
at most 1024 padded positions and keep no backward cache. Prediction
returns one SentencePredictions per sentence: its label and score
columns, from which TokenPrediction records are built only on demand.
"""

import json
import math
import struct
from collections import namedtuple
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from .corpus import CorpusError, LabeledCorpus, TagSet, repair_bio
from .crf import (
    Transitions,
    bio_constraint_penalty,
    crf_marginals,
    crf_nll_grad,
    log_partition,
    path_score,
    viterbi,
)
from .evaluation import evaluate
from .fileio import write_staged
from .nn import (
    AdamOptimizer,
    BiLstm,
    CharCNN,
    EmbeddingTable,
    Linear,
    MultiHeadAttention,
    ParamStore,
    RowLayout,
    dropout_apply,
    gradient_check,
)

__all__ = [
    "ConfigError",
    "ModelError",
    "TaggerConfig",
    "TaggerModel",
    "TokenPrediction",
    "SentencePredictions",
    "EpochStats",
    "TrainHistory",
    "EarlyStopper",
    "parse_config",
    "build_model",
    "check_gradients",
    "train",
    "predict",
    "predict_corpus",
    "model_bytes",
    "save_model",
    "load_model",
]

MODEL_MAGIC = b"SEQTAGM1"
MODEL_FORMAT_VERSION = 2


class ConfigError(ValueError):
    """Invalid configuration; the message names every offending field."""


class ModelError(ValueError):
    """Model construction, loading, or inference failure."""


@dataclass
class TaggerConfig:
    word_dim: int = 32
    use_char_cnn: bool = False
    char_dim: int = 8
    char_kernel: int = 3
    char_filters: int = 16
    use_pos: bool = False
    pos_dim: int = 8
    use_contextual_slot: bool = False
    use_mha: bool = False
    mha_heads: int = 2
    use_crf: bool = True
    crf_constrain_bio: bool = False
    crf_decode_only: bool = False
    lstm_layers: int = 2
    hidden: int = 32
    dropout: float = 0.1
    batch_size: int = 8
    max_epochs: int = 50
    patience: int = 5
    learning_rate: float = 0.001
    weight_decay: float = 0.01
    early_stop_metric: str = "eval_f1"
    seed: int = 42

    def validate(self):
        problems = []
        for key in ("word_dim", "char_dim", "char_kernel", "char_filters",
                    "pos_dim", "mha_heads", "lstm_layers", "hidden",
                    "batch_size", "max_epochs", "patience"):
            if getattr(self, key) < 1:
                problems.append((key, "must be >= 1"))
        if self.seed < 0:
            problems.append(("seed", "must be >= 0"))
        if not (0.0 <= self.dropout < 1.0):
            problems.append(("dropout", "must lie in [0, 1)"))
        if not (0.0 < self.learning_rate < math.inf):
            problems.append(("learning_rate", "must be positive and finite"))
        if not (0.0 <= self.weight_decay < math.inf):
            problems.append(("weight_decay", "must be non-negative and finite"))
        if self.early_stop_metric not in ("eval_loss", "eval_f1"):
            problems.append(("early_stop_metric", "must be eval_loss or eval_f1"))
        if self.use_mha and self.mha_heads >= 1 and (2 * self.hidden) % self.mha_heads != 0:
            problems.append(("mha_heads", f"must divide BiLSTM output dim {2 * self.hidden}"))
        if self.crf_decode_only and not self.use_crf:
            problems.append(("crf_decode_only", "requires use_crf"))
        if problems:
            detail = "; ".join(f"{k}: {msg}" for k, msg in problems)
            raise ConfigError(f"invalid config: {detail}")
        return self


_CONFIG_KINDS = {f.name: type(f.default) for f in fields(TaggerConfig)}


def _convert(name, kind, raw):
    if kind is bool:
        low = raw.lower()
        if low in ("true", "false"):
            return low == "true"
        raise ConfigError(f"key {name}: expected true or false, got {raw!r}")
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"key {name}: cannot parse {raw!r} as {kind.__name__}") from None


def parse_config(text):
    """Parse flat ``key = value`` lines into a TaggerConfig. Field names
    match the dataclass exactly; ``#`` lines are comments."""
    values = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected key = value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _CONFIG_KINDS:
            raise ConfigError(f"line {line_no}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate config key {key!r}")
        values[key] = _convert(key, _CONFIG_KINDS[key], raw)
    return TaggerConfig(**values).validate()


class TokenPrediction(NamedTuple):
    """One token's predicted label and its score in [0, 1], as a
    SentencePredictions builds it on demand. Prediction text is checked
    where it is read or written (``seqtag.ensemble``)."""

    label: str
    score: float


@dataclass(slots=True)
class SentencePredictions:
    """One sentence's predictions as two columns, one entry per token: a
    tuple of labels and a list of scores in [0, 1]. ``len`` counts the
    tokens, and indexing and iteration give TokenPrediction records built
    from the columns on demand; none is stored."""

    labels: tuple
    scores: list

    def __len__(self):
        return len(self.labels)

    def __getitem__(self, i):
        return TokenPrediction(self.labels[i], self.scores[i])

    def __iter__(self):
        return map(TokenPrediction, self.labels, self.scores)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    eval_loss: float
    eval_macro_f1: float


@dataclass
class TrainHistory:
    epochs: list[EpochStats]
    stopped_epoch: int
    best_epoch: int

    def render(self):
        lines = ["# epoch train_loss eval_loss eval_macro_f1"]
        for e in self.epochs:
            lines.append(
                f"{e.epoch} {e.train_loss:.6f} {e.eval_loss:.6f} {e.eval_macro_f1:.6f}"
            )
        lines.append(f"# stopped_epoch {self.stopped_epoch}")
        lines.append(f"# best_epoch {self.best_epoch}")
        return "\n".join(lines) + "\n"


class EarlyStopper:
    """Stop after ``patience`` consecutive evaluations without strict
    improvement; ties count as non-improving."""

    def __init__(self, patience, mode):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        if mode not in ("min", "max"):
            raise ValueError(f"mode must be min or max, got {mode!r}")
        self.patience = patience
        self.mode = mode
        self.best_value = None
        self.best_epoch = 0
        self.bad_count = 0

    def update(self, epoch, value):
        """Record one evaluation; returns True when training should stop."""
        if self.best_value is None:
            improved = True
        elif self.mode == "min":
            improved = value < self.best_value
        else:
            improved = value > self.best_value
        if improved:
            self.best_value = value
            self.best_epoch = epoch
            self.bad_count = 0
        else:
            self.bad_count += 1
        return self.bad_count >= self.patience


def _model_spec(config, n_labels, n_words, n_chars, n_pos, contextual_dim):
    """The spec (``ParamStore.draw``) of a TaggerModel with this config
    and these vocabulary sizes (each without its unknown slot; ``n_pos``
    None without a POS vocabulary): the layers' rows, then the CRF's zero
    rows. A feature's vocabulary or width is a ConfigError unless the
    config switches the feature on, and so is its absence if it does."""
    config.validate()
    if config.use_contextual_slot != (contextual_dim > 0):
        raise ConfigError("use_contextual_slot requires a contextual vector file" if
                          config.use_contextual_slot else "a contextual width needs the slot")
    if config.use_pos != (n_pos is not None):
        raise ConfigError("use_pos requires a corpus with a POS column" if config.use_pos
                          else "a POS vocabulary requires use_pos")
    spec = EmbeddingTable.spec("word.emb", n_words + 1, config.word_dim)
    input_dim = config.word_dim + contextual_dim
    if config.use_char_cnn:
        spec += CharCNN.spec("char", n_chars + 1, config.char_dim, config.char_kernel,
                             config.char_filters)
        input_dim += config.char_filters
    if config.use_pos:
        spec += EmbeddingTable.spec("pos.emb", n_pos + 1, config.pos_dim)
        input_dim += config.pos_dim
    spec += BiLstm.spec("lstm", input_dim, config.hidden, config.lstm_layers)
    if config.use_mha:
        spec += MultiHeadAttention.spec("mha", 2 * config.hidden)
    spec += Linear.spec("head", 2 * config.hidden, n_labels)
    if config.use_crf:
        spec += [("crf.matrix", (n_labels, n_labels), 0), ("crf.start", (n_labels,), 0),
                 ("crf.end", (n_labels,), 0)]
    return spec


def _vocab(tokens):
    """Token -> index map: the i-th token gets index i + 1, as index 0 is
    the unknown slot. Iterating the map yields ``tokens`` in order."""
    return {tok: i + 1 for i, tok in enumerate(tokens)}


class TaggerModel:
    """Immutable-by-convention container: config, vocabularies, tagset, and
    the parameter store with all layer objects. Forward passes share the
    model across threads safely; only training mutates parameters.

    The vocabularies are built from the token lists ``word_tokens``,
    ``char_tokens`` and ``pos_tokens`` (None without POS features); the
    layers take their arrays from ``store``, drawn or loaded."""

    def __init__(self, config, tagset, word_tokens, char_tokens, pos_tokens, contextual_dim,
                 store):
        self.config = config
        self.tagset = tagset
        self.word_vocab = _vocab(word_tokens)
        self.char_vocab = _vocab(char_tokens)
        self.pos_vocab = None if pos_tokens is None else _vocab(pos_tokens)
        self.contextual_dim = contextual_dim
        self.store = store
        self.word_emb = EmbeddingTable(store, "word.emb")
        self.char_cnn = CharCNN(store, "char") if config.use_char_cnn else None
        self.pos_emb = EmbeddingTable(store, "pos.emb") if config.use_pos else None
        self.bilstm = BiLstm(store, "lstm")
        self.mha = MultiHeadAttention(store, "mha", config.mha_heads) if config.use_mha else None
        self.head = Linear(store, "head")
        self._bio_penalty = (bio_constraint_penalty(tagset)
                             if config.use_crf and config.crf_constrain_bio else None)

    def transitions(self):
        """Effective CRF transitions: stored parameters plus the optional
        BIO-validity penalty."""
        trans = Transitions(
            self.store["crf.matrix"], self.store["crf.start"], self.store["crf.end"]
        )
        if self._bio_penalty is not None:
            trans = trans.penalized(*self._bio_penalty)
        return trans


def _table_dim(vectors, name):
    """The dimension shared by the 1-D vectors of the dict ``vectors``, 0
    for None or an empty dict; a ConfigError names any other shapes."""
    shapes = sorted({np.shape(vec) for vec in (vectors or {}).values()})
    if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
        raise ConfigError(f"{name} vectors must share one 1-D shape, got "
                          f"{', '.join(map(str, shapes))}")
    return shapes[0][0] if shapes else 0


def build_model(config, corpus, pretrained_vectors=None, contextual_vectors=None):
    """Construct a model whose vocabularies come from ``corpus``; index 0 of
    every vocabulary is the unknown slot. Word rows for tokens covered by
    ``pretrained_vectors``, a ``{token: vector}`` dict, are copied
    verbatim; everything else is random under ``config.seed``. With
    ``use_contextual_slot`` the slot's width is the dimension of
    ``contextual_vectors``, a ``{(sentence id, token index): vector}``
    dict. Each table's vectors must share one 1-D shape."""
    config.validate()
    word_dim = _table_dim(pretrained_vectors, "pretrained")
    if word_dim and word_dim != config.word_dim:
        raise ConfigError(f"pretrained vectors have dimension {word_dim}, "
                          f"config word_dim is {config.word_dim}")
    surfaces = sorted({w for s in corpus.sentences for w in s.surfaces})
    chars = sorted({ch for tok in surfaces for ch in tok})
    pos_tags = None
    if config.use_pos:
        if any(s.pos is None for s in corpus.sentences):
            raise ConfigError("use_pos is enabled but the corpus has tokens without POS tags")
        pos_tags = sorted({p for s in corpus.sentences for p in s.pos})
    contextual_dim = 0
    if config.use_contextual_slot:
        contextual_dim = _table_dim(contextual_vectors, "contextual")
    spec = _model_spec(config, len(corpus.tagset), len(surfaces), len(chars),
                       None if pos_tags is None else len(pos_tags), contextual_dim)
    store = ParamStore.draw(spec, np.random.default_rng(config.seed))
    model = TaggerModel(config, corpus.tagset, surfaces, chars, pos_tags, contextual_dim, store)
    if word_dim:
        table = model.store["word.emb"]
        for token, idx in model.word_vocab.items():
            vec = pretrained_vectors.get(token)
            if vec is not None:
                table[idx] = vec
    return model


# One pass's sentences: their RowLayout; per row, the word, contextual,
# char and POS inputs of the enabled features (None when off), chars as
# (N, L) indices right-padded to char_lengths, and the gold tag (None
# unless encoded).
_Batch = namedtuple("_Batch", "layout words contextual chars char_lengths pos gold")


class _Encoding:
    """Sentences as flat index arrays over their tokens, sentence-major:
    sentence s holds rows ``offsets[s] .. offsets[s + 1] - 1``. Only the
    features the model uses are encoded, and gold only when asked for;
    unknown items get index 0. Chars are one flat array with per-token
    offsets. Raises ModelError for a sentence the model cannot read."""

    def __init__(self, model, sentences, contextual=None, gold=False):
        cfg = model.config
        self.sentences = sentences
        self.lengths = _indices(map(len, sentences), len(sentences))
        self.offsets = np.concatenate([[0], np.cumsum(self.lengths)])
        n = int(self.offsets[-1])
        self.words = _indices((model.word_vocab.get(w, 0)
                               for s in sentences for w in s.surfaces), n)
        self.gold = self.contextual = self.chars = self.pos = None
        if gold:
            self.gold = _indices((model.tagset.index(t) for s in sentences for t in s.gold_tags), n)
        if cfg.use_contextual_slot:
            if sentences and not contextual:
                raise ModelError(f"sentence {sentences[0].id!r}: model uses contextual vectors "
                                 "but none were provided")
            dim = model.contextual_dim
            self.contextual = np.empty((n, dim))
            keys = ((s.id, i) for s in sentences for i in range(len(s)))
            for row, (sid, i) in enumerate(keys):
                vec = contextual.get((sid, i))
                if vec is None:
                    raise ModelError(f"no contextual vector for sentence {sid!r} token {i}")
                if np.shape(vec) != (dim,):
                    raise ModelError(f"contextual vectors have dimension {np.size(vec)}, "
                                     f"model expects {dim}")
                self.contextual[row] = vec
        if cfg.use_char_cnn:
            self.char_lengths = _indices((len(w) for s in sentences for w in s.surfaces), n)
            self.char_offsets = np.cumsum(self.char_lengths) - self.char_lengths
            self.chars = _indices((model.char_vocab.get(ch, 0) for s in sentences
                                   for w in s.surfaces for ch in w), self.char_lengths.sum())
        if cfg.use_pos:
            for sent in sentences:
                if sent.pos is None:
                    raise ModelError(f"sentence {sent.id!r}: model uses POS features but has "
                                     "no POS column (pass --pos-col)")
            self.pos = _indices((model.pos_vocab.get(p, 0) for s in sentences for p in s.pos), n)

    def batch(self, idx=None):
        """The sentences ``idx``, all of them by default, as one _Batch."""
        idx = np.arange(len(self.lengths)) if idx is None else np.asarray(idx)
        lengths = self.lengths[idx]
        layout = RowLayout(lengths)
        rows = np.repeat(self.offsets[idx] - layout.offsets, lengths) + np.arange(len(layout.grid))
        chars = char_lengths = None
        if self.chars is not None:
            char_lengths = self.char_lengths[rows]
            at = self.char_offsets[rows][:, None] + np.arange(char_lengths.max())
            chars = self.chars[np.minimum(at, len(self.chars) - 1)]
        return _Batch(layout, self.words[rows],
                      None if self.contextual is None else self.contextual[rows], chars,
                      char_lengths, None if self.pos is None else self.pos[rows],
                      None if self.gold is None else self.gold[rows])


def _indices(values, count):
    # int32 halves what an encoded corpus holds for the whole call
    return np.fromiter(values, dtype=np.int32, count=count)


def _forward(model, batch, mode, rng):
    """Run a _Batch through the network. Returns the head's rows (N, T),
    one per token, and the cache for ``_backward``. Nothing reads a cache
    in eval mode, so there the cache is None and no layer's cache outlives
    its layer."""
    cfg = model.config
    train = mode == "train"
    layout = batch.layout
    if train and cfg.dropout > 0.0 and rng is None:
        raise ModelError("training-mode forward pass needs an rng for dropout")
    x, routes = _features(model, batch)
    x, drop_mask = dropout_apply(x, cfg.dropout, mode, rng)
    if not train:
        del routes
    h, lstm_caches = model.bilstm.forward(x, layout, mode)
    del x
    mha_cache = None
    if cfg.use_mha:
        h, mha_cache = model.mha.forward(h, layout)
        if not train:
            del mha_cache
    rows, head_cache = model.head.forward(h)
    if not train:
        return rows, None
    return rows, (routes, drop_mask, lstm_caches, mha_cache, head_cache)


def _features(model, batch):
    """The input rows (N, width) of the enabled features, and per feature
    the layer its gradient goes back to (None for frozen contextual
    vectors), its width and its cache."""
    feats = [(model.word_emb, *model.word_emb.lookup(batch.words))]
    if batch.contextual is not None:
        feats.append((None, batch.contextual, None))
    if batch.chars is not None:
        feats.append((model.char_cnn, *model.char_cnn.forward(batch.chars, batch.char_lengths)))
    if batch.pos is not None:
        feats.append((model.pos_emb, *model.pos_emb.lookup(batch.pos)))
    parts = [rows for _, rows, _ in feats]
    x = np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]
    return x, [(layer, rows.shape[1], cache) for layer, rows, cache in feats]


def _backward(model, d_rows, cache):
    """Backprop a batch from the gradient ``d_rows`` (N, T) of the head's
    rows."""
    routes, drop_mask, lstm_caches, mha_cache, head_cache = cache
    d = model.head.backward(d_rows, head_cache)
    if mha_cache is not None:
        d = model.mha.backward(d, mha_cache)
    d = model.bilstm.backward(d, lstm_caches)
    if drop_mask is not None:
        d *= drop_mask
    offset = 0
    for layer, width, route_cache in routes:
        if layer is not None:  # frozen contextual vectors take no gradient
            layer.backward(d[:, offset:offset + width], route_cache)
        offset += width


def _log_softmax(scores):
    m = scores.max(axis=-1, keepdims=True)
    shifted = scores - m
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _uses_crf_loss(cfg):
    return cfg.use_crf and not cfg.crf_decode_only


def _sentence_loss(model, rows, layout, gold, weight=1.0, want_grad=False):
    """Per-sentence losses (B,) of a batch from its head rows (N, T) and
    gold tags (N,): CRF NLL, or mean per-token cross-entropy. With
    ``want_grad`` also returns d_loss/d_rows (N, T), each sentence's share
    scaled by ``weight``, and accumulates CRF transition gradients;
    without it the CRF NLL is log Z minus the gold path's score, the same
    bits as ``crf_nll_grad``'s loss, and no gradient is built."""
    if _uses_crf_loss(model.config):
        trans = model.transitions()
        if not want_grad:
            return log_partition(rows, trans, layout) - path_score(rows, trans, gold, layout), None
        losses, d_rows, d_matrix, d_start, d_end = crf_nll_grad(rows, trans, gold, layout)
        acc = model.store.accumulate
        acc("crf.matrix", weight * d_matrix)
        acc("crf.start", weight * d_start)
        acc("crf.end", weight * d_end)
        return losses, weight * d_rows
    logp = _log_softmax(rows)
    at = np.arange(len(gold))
    losses = -np.add.reduceat(logp[at, gold], layout.offsets) / layout.lengths
    if not want_grad:
        return losses, None
    d = np.exp(logp)
    d[at, gold] -= 1.0
    d *= np.repeat(weight / layout.lengths, layout.lengths)[:, None]
    return losses, d


def check_gradients(model, sentences, contextual=None, dropout_seed=0):
    """``nn.gradient_check`` of the training loss of ``sentences`` run as
    one batch: the sum of their losses, through ``_forward``,
    ``_sentence_loss`` and ``_backward`` as in training. Every loss call
    draws the dropout mask afresh from ``dropout_seed``, so all calls see
    the same mask. Returns the GradCheckReport."""
    batch = _Encoding(model, sentences, contextual, gold=True).batch()

    def loss_fn(grad=False):
        rng = np.random.default_rng(dropout_seed)
        rows, cache = _forward(model, batch, "train", rng)
        losses, d_rows = _sentence_loss(model, rows, batch.layout, batch.gold, want_grad=grad)
        if grad:
            _backward(model, d_rows, cache)
        return float(losses.sum())

    return gradient_check(loss_fn, model.store)


def _check_probabilities(probs):
    """Raise ModelError unless every row of ``probs`` (N, T) sums to 1
    within 1e-6; a NaN or inf entry fails too, as its row sum does."""
    if not np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-6):
        raise ModelError(
            "tag scores are not finite probabilities: the model's parameters "
            "are out of range"
        )


def _decode(model, rows, layout):
    """Each row's tag (N,) from a batch's head rows (N, T), and the
    probabilities (N, T) it was picked from: the Viterbi path and None
    under the CRF head, the argmax of the row softmax and the softmax
    otherwise. Overflow is not warned about."""
    with np.errstate(over="ignore", invalid="ignore"):
        if model.config.use_crf:
            return viterbi(rows, model.transitions(), layout)[0], None
        probs = np.exp(_log_softmax(rows))
        return probs.argmax(axis=1), probs


def _labels(model, best, layout):
    """The BIO-repaired label column of each sentence from its rows' tags
    ``best`` (N,)."""
    names = [model.tagset.labels[t] for t in best.tolist()]
    return [repair_bio(names[a:a + n])
            for a, n in zip(layout.offsets.tolist(), layout.lengths.tolist())]


def _predictions(model, rows, layout):
    """One SentencePredictions per sentence of a batch, from
    its head rows (N, T); under the CRF head the scores are the marginals.
    Scores that overflowed are caught by ``_check_probabilities``, not
    warned about."""
    best, probs = _decode(model, rows, layout)
    if probs is None:
        with np.errstate(over="ignore", invalid="ignore"):
            probs = crf_marginals(rows, model.transitions(), layout)
    _check_probabilities(probs)
    # the scores are finite probabilities, clamped into [0, 1]
    scores = np.clip(probs[np.arange(len(best)), best], 0.0, 1.0).tolist()
    return [SentencePredictions(tuple(labels), scores[a:a + n]) for labels, a, n in
            zip(_labels(model, best, layout), layout.offsets.tolist(), layout.lengths.tolist())]


def predict(model, sentence, contextual=None):
    """Label a sentence: Viterbi path with marginal scores under the CRF
    head, per-row argmax probability otherwise. Labels are BIO-repaired
    with scores carried over unchanged. ``contextual`` is a
    ``{(sentence id, token index): vector}`` dict, read by a model with
    the contextual slot. Returns a SentencePredictions."""
    _, batch, rows = next(_eval_passes(model, _Encoding(model, [sentence], contextual)))
    return _predictions(model, rows, batch.layout)[0]


# Eval-mode passes take length-sorted sentences up to this many padded
# positions (a longer sentence runs alone), so peak memory does not grow
# with the corpus. A position costs 64 * h bytes of LSTM gates, the
# (2, N, 4h) projection and the pass's largest array (16 MiB per chunk at
# hidden 256), 8 * heads * n bytes of attention scores (n the chunk's
# longest sentence) and about 5 * 8 * T bytes of CRF chains (T tags). The
# curve behind the budget, on perfbench's predict_wide (two untraced 20 s
# runs per budget at seed 47, one BLAS thread, 2-CPU Xeon) and the
# tracemalloc peak of one predict_corpus call on its corpus (the 0.27 MiB
# of predictions included). "held" rows kept each layer's gates alive
# while the next layer's input was built, and stacked copies of the CRF
# chain inputs:
#   budget        tok_s         peak_rss_mb   one call's peak
#   512 (held)    61.4k-63.7k   68.1-68.6     1.86 MiB
#   512           61.3k-62.1k   67.2-67.8     1.59 MiB
#   768           68.5k-68.8k   70.6-71.1     2.23 MiB
#   1024 (held)   74.4k-74.5k   74.6-75.2     3.40 MiB
#   1024          73.4k-74.3k   72.6-73.8     2.81 MiB
#   1536          81.0k-81.5k   75.7-75.8     3.91 MiB
# peak_rss_mb also grows ~0.1 MiB per extra repetition perfbench fits in
# its window (it keeps each one's prediction text). 1024 is the largest
# budget whose one-call peak stays under 3 MiB; 1536 read ~10% faster.
_CHUNK_POSITIONS = 1024


def _chunks(lengths):
    """Index arrays covering sentences of ``lengths``, each a run of
    length-sorted sentences whose padded batch has at most
    _CHUNK_POSITIONS positions."""
    order = np.argsort(lengths, kind="stable")
    starts, size = [], 0
    for k, n in enumerate(np.asarray(lengths)[order].tolist()):
        if not starts or (size + 1) * n > _CHUNK_POSITIONS:
            starts.append(k)
            size = 0
        size += 1
    return np.split(order, starts[1:]) if starts else []


def _eval_passes(model, encoding):
    """Eval-mode forward passes over length-sorted chunks of an _Encoding;
    yields (indices of the chunk's sentences, its _Batch, its head rows).
    Overflow is not warned about: saturated gates are the right limit, and
    an inf or NaN that reaches the scores fails ``_check_probabilities``.
    Callers drop a chunk's arrays before they ask for the next, so no two
    chunks' arrays are alive at once."""
    for idx in _chunks(encoding.lengths):
        batch = encoding.batch(idx)
        with np.errstate(over="ignore", invalid="ignore"):
            rows, _ = _forward(model, batch, "eval", None)
        yield idx, batch, rows
        del rows


def predict_corpus(model, corpus, contextual=None):
    """``predict`` for every sentence, run in length-sorted batches: one
    SentencePredictions per sentence of ``corpus``, in its order.
    ``contextual`` is a ``{(sentence id, token index): vector}`` dict, as
    for ``predict``."""
    predictions = [None] * len(corpus.sentences)
    encoding = _Encoding(model, corpus.sentences, contextual)
    for idx, batch, rows in _eval_passes(model, encoding):
        for i, preds in zip(idx.tolist(), _predictions(model, rows, batch.layout)):
            predictions[i] = preds
        del rows
    return predictions


def _evaluate_dev(model, dev, encoding):
    """Mean loss and macro-F1 of the ``dev`` corpus, whose _Encoding (with
    gold) is ``encoding``: per chunk the loss without a gradient and the
    decoded labels, with no scores (so no CRF marginals)."""
    losses = np.empty(len(dev.sentences))
    predictions = [None] * len(dev.sentences)
    for idx, batch, rows in _eval_passes(model, encoding):
        losses[idx], _ = _sentence_loss(model, rows, batch.layout, batch.gold)
        best, _ = _decode(model, rows, batch.layout)
        for i, labels in zip(idx, _labels(model, best, batch.layout)):
            predictions[i] = labels
        del rows
    report = evaluate(dev, predictions)
    return float(np.mean(losses)), report.macro_f1


def _train_batch(model, encoding, idx, rng, epoch):
    """Forward and backward of the optimizer batch of sentences ``idx`` of
    an _Encoding (with gold) as one pass, each sentence's loss weighted
    1/len(idx); returns the per-sentence losses. The batch's caches die
    with this call, before the next batch runs."""
    batch = encoding.batch(idx)
    rows, cache = _forward(model, batch, "train", rng)
    losses, d_rows = _sentence_loss(model, rows, batch.layout, batch.gold,
                                    weight=1.0 / len(idx), want_grad=True)
    for i, loss in zip(idx, losses):
        if not math.isfinite(loss):
            raise ModelError(
                f"non-finite training loss at epoch {epoch}, "
                f"sentence {encoding.sentences[i].id!r}"
            )
    _backward(model, d_rows, cache)
    return [float(loss) for loss in losses]


# The fields ``train`` takes from its ``config``; a pass reads every other
# field from ``model.config``.
_TRAINING_KEYS = {"batch_size", "max_epochs", "patience", "learning_rate", "weight_decay",
                  "early_stop_metric", "seed"}


def train(model, train_corpus, dev_corpus, config=None, contextual=None):
    """Mini-batch training with per-epoch dev evaluation and early
    stopping; returns the model restored to its best-epoch parameters plus
    the full history. Each optimizer batch runs as one pass; its loss is
    the mean of the per-sentence losses. ``contextual``, a
    ``{(sentence id, token index): vector}`` dict, serves both corpora. A
    gold tag outside the model's tagset, in either corpus, raises
    CorpusError naming its sentence before the first epoch; a ``config``
    that differs from ``model.config`` outside _TRAINING_KEYS raises
    ConfigError."""
    cfg = (config or model.config).validate()
    clashes = [f.name for f in fields(cfg) if f.name not in _TRAINING_KEYS
               and getattr(cfg, f.name) != getattr(model.config, f.name)]
    if clashes:
        raise ConfigError(f"config differs from the model's in {', '.join(clashes)}: training "
                          f"may change only {', '.join(sorted(_TRAINING_KEYS))}")
    for corpus in (train_corpus, dev_corpus):
        LabeledCorpus(corpus.sentences, model.tagset)
    train_encoding, dev_encoding = (_Encoding(model, c.sentences, contextual, gold=True)
                                    for c in (train_corpus, dev_corpus))
    optimizer = AdamOptimizer(model.store, cfg.learning_rate, cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed + 1)
    mode = "min" if cfg.early_stop_metric == "eval_loss" else "max"
    stopper = EarlyStopper(cfg.patience, mode)
    best_values = model.store.copy_values()
    history = []
    stopped_epoch = cfg.max_epochs

    for epoch in range(1, cfg.max_epochs + 1):
        stopped_epoch = epoch
        order = rng.permutation(len(train_corpus.sentences))
        epoch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            epoch_losses.extend(_train_batch(model, train_encoding,
                                             order[start:start + cfg.batch_size], rng, epoch))
            optimizer.step()

        eval_loss, eval_f1 = _evaluate_dev(model, dev_corpus, dev_encoding)
        if not math.isfinite(eval_loss):
            raise ModelError(f"non-finite evaluation loss at epoch {epoch}")
        history.append(EpochStats(epoch, float(np.mean(epoch_losses)), eval_loss, eval_f1))
        metric = eval_loss if cfg.early_stop_metric == "eval_loss" else eval_f1
        should_stop = stopper.update(epoch, metric)
        if stopper.best_epoch == epoch:
            best_values = model.store.copy_values()
        if should_stop:
            break

    model.store.load_values(best_values)
    return model, TrainHistory(history, stopped_epoch=stopped_epoch,
                               best_epoch=stopper.best_epoch)


def _header_dict(model):
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "config": asdict(model.config),
        "classes": list(model.tagset.classes),
        "word_tokens": list(model.word_vocab),
        "char_tokens": list(model.char_vocab),
        "pos_tokens": None if model.pos_vocab is None else list(model.pos_vocab),
        "contextual_dim": model.contextual_dim,
        "params": [[name, list(model.store[name].shape)]
                   for name in model.store.names()],
    }


def model_bytes(model):
    """The model as a self-describing binary: magic, length-prefixed JSON
    header, then raw little-endian float64 parameter blocks in sorted name
    order. Byte-deterministic for a given model."""
    header = json.dumps(_header_dict(model), sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    blocks = [MODEL_MAGIC, struct.pack("<Q", len(header)), header]
    for name in model.store.names():
        blocks.append(np.ascontiguousarray(model.store[name], dtype="<f8").tobytes())
    return b"".join(blocks)


def save_model(model, path):
    """Write ``model_bytes(model)`` to ``path``, replacing it atomically."""
    write_staged([(path, model_bytes(model))])


_HEADER_KEYS = frozenset(
    ("format_version", "config", "classes", "word_tokens", "char_tokens",
     "pos_tokens", "contextual_dim", "params")
)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _has_kind(value, kind):
    """True when a JSON value fits a TaggerConfig field of type ``kind``;
    ``TaggerConfig.validate`` checks the ranges, finiteness included."""
    if kind is int:
        return _is_int(value)
    if kind is float:
        return _is_int(value) or isinstance(value, float)
    return isinstance(value, kind)


def _distinct_names(value):
    return (isinstance(value, list)
            and all(isinstance(v, str) and v for v in value)
            and len(set(value)) == len(value))


def _key_mismatch(what, found, expected):
    missing, unknown = sorted(expected - set(found)), sorted(set(found) - expected)
    if missing or unknown:
        return f"{what} keys: missing {missing}, unknown {unknown}"
    return None


def _header_problem(header):
    """Describe the first way ``header`` departs from the model-file schema,
    or return None when it conforms."""
    if not isinstance(header, dict):
        return "model header is not a JSON object"
    if header.get("format_version") != MODEL_FORMAT_VERSION:
        return f"unsupported model format version {header.get('format_version')}"
    problem = _key_mismatch("model header", header, _HEADER_KEYS)
    if problem:
        return problem
    config = header["config"]
    if not isinstance(config, dict):
        return "model header config is not a JSON object"
    problem = _key_mismatch("model config", config, set(_CONFIG_KINDS))
    if problem:
        return problem
    for key, kind in _CONFIG_KINDS.items():
        if not _has_kind(config[key], kind):
            return f"model config key {key}: expected {kind.__name__}, got {config[key]!r}"
    for key in ("classes", "word_tokens", "char_tokens"):
        if not _distinct_names(header[key]):
            return f"model header {key}: expected a list of distinct non-empty strings"
    try:
        TagSet(header["classes"])
    except CorpusError as exc:
        return f"model header classes: {exc}"
    # TagSet sorts its classes, so an unsorted list would be read reordered
    if header["classes"] != sorted(header["classes"]):
        return "model header classes: expected sorted order"
    if header["pos_tokens"] is not None and not _distinct_names(header["pos_tokens"]):
        return "model header pos_tokens: expected null or a list of distinct non-empty strings"
    if not _is_int(header["contextual_dim"]) or header["contextual_dim"] < 0:
        return "model header contextual_dim: expected a non-negative integer"
    params = header["params"]
    if not (isinstance(params, list) and all(
            isinstance(p, list) and len(p) == 2 and isinstance(p[0], str)
            and isinstance(p[1], list) and all(_is_int(d) for d in p[1])
            for p in params)):
        return "model header params: expected a list of [name, shape] pairs"
    return None


def load_model(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MODEL_MAGIC) + 8 or not data.startswith(MODEL_MAGIC):
        raise ModelError(f"{path}: not a model file")
    header_len = struct.unpack_from("<Q", data, len(MODEL_MAGIC))[0]
    body_start = len(MODEL_MAGIC) + 8
    if len(data) < body_start + header_len:
        raise ModelError(f"{path}: truncated model file")
    try:
        header = json.loads(data[body_start:body_start + header_len])
    except (ValueError, RecursionError):  # invalid JSON or UTF-8, or nested too deep
        raise ModelError(f"{path}: corrupt model header") from None
    problem = _header_problem(header)
    if problem:
        raise ModelError(f"{path}: {problem}")
    config = TaggerConfig(**header["config"])
    # each LSTM layer has three blocks: the inventory bounds the layer loop below
    if 3 * config.lstm_layers > len(header["params"]):
        raise ModelError(f"{path}: parameter inventory does not match its config")
    tagset = TagSet(header["classes"])
    pos_tokens = header["pos_tokens"]
    try:
        shapes = ParamStore.spec_shapes(_model_spec(
            config, len(tagset), len(header["word_tokens"]), len(header["char_tokens"]),
            None if pos_tokens is None else len(pos_tokens), header["contextual_dim"],
        ))
    except ConfigError as exc:
        raise ModelError(f"{path}: {exc}") from None
    inventory = sorted(shapes.items())
    if [(name, tuple(shape)) for name, shape in header["params"]] != inventory:
        raise ModelError(f"{path}: parameter inventory does not match its config")
    offset = body_start + header_len
    size = offset + 8 * sum(math.prod(shape) for _, shape in inventory)
    if size > len(data):
        raise ModelError(f"{path}: truncated model file")
    if size < len(data):
        raise ModelError(f"{path}: trailing bytes after parameter blocks")

    store = ParamStore()
    for name, shape in inventory:
        block = np.frombuffer(data, "<f8", math.prod(shape), offset).reshape(shape).copy()
        if not np.isfinite(block).all():
            raise ModelError(f"{path}: non-finite values in parameter block {name}")
        store.add(name, block)
        offset += 8 * block.size
    return TaggerModel(config, tagset, header["word_tokens"], header["char_tokens"],
                       pos_tokens, header["contextual_dim"], store)
