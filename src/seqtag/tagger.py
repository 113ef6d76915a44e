"""BiLSTM sequence tagger: configurable feature stack (word, contextual,
char-CNN, POS embeddings), softmax or CRF head, mini-batch training with
early stopping, and byte-deterministic model files.

Pipeline per batch of right-padded sentences: concatenate enabled
embeddings, apply dropout, run the BiLSTM stack, optionally multi-head
attention, then a linear head. With the CRF head the linear outputs are
emission scores; otherwise they pass through a row softmax. Training runs
each optimizer batch as one pass; evaluation and prediction run
length-sorted batches of at most 512 padded positions and keep no
backward cache.
"""

import json
import math
import struct
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from .corpus import BIO_TAG_RE, LabeledCorpus, TagSet, repair_bio
from .crf import (
    Transitions,
    bio_constraint_penalty,
    crf_marginals,
    crf_nll_grad,
    crf_nll_marginals,
    viterbi,
)
from .evaluation import evaluate
from .fileio import write_atomic
from .nn import (
    AdamOptimizer,
    BiLstm,
    CharCNN,
    EmbeddingTable,
    Linear,
    MultiHeadAttention,
    ParamStore,
    dropout_apply,
    gradient_check,
)

__all__ = [
    "ConfigError",
    "ModelError",
    "TaggerConfig",
    "TaggerModel",
    "TokenPrediction",
    "EpochStats",
    "TrainHistory",
    "EarlyStopper",
    "parse_config",
    "build_model",
    "check_gradients",
    "train",
    "predict",
    "predict_corpus",
    "save_model",
    "load_model",
]

MODEL_MAGIC = b"SEQTAGM1"
MODEL_FORMAT_VERSION = 2


class ConfigError(ValueError):
    """Invalid configuration; ``keys`` names every offending field."""

    def __init__(self, message, keys=()):
        super().__init__(message)
        self.keys = tuple(keys)


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
            raise ConfigError(f"invalid config: {detail}", keys=[k for k, _ in problems])
        return self


_CONFIG_KINDS = {f.name: type(f.default) for f in fields(TaggerConfig)}


def _convert(name, kind, raw):
    if kind is bool:
        low = raw.lower()
        if low in ("true", "false"):
            return low == "true"
        raise ConfigError(f"key {name}: expected true or false, got {raw!r}", keys=[name])
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(
            f"key {name}: cannot parse {raw!r} as {kind.__name__}", keys=[name]
        ) from None


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
            raise ConfigError(f"line {line_no}: unknown config key {key!r}", keys=[key])
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate config key {key!r}", keys=[key])
        values[key] = _convert(key, _CONFIG_KINDS[key], raw)
    return TaggerConfig(**values).validate()


class TokenPrediction(NamedTuple):
    """One token's predicted label and its score in [0, 1]. Prediction
    text is checked where it is read or written (``seqtag.ensemble``)."""

    label: str
    score: float


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


def _param_shapes(config, n_labels, n_words, n_chars, n_pos, contextual_dim):
    """Name -> shape of every parameter of a TaggerModel with this config
    and these vocabulary sizes (each without its unknown slot; ``n_pos``
    None without a POS vocabulary), worked out without allocating. The
    model takes its feature width from here, and ``load_model`` checks a
    file's inventory and size against it before building anything."""
    config.validate()
    if config.use_contextual_slot and contextual_dim < 1:
        raise ConfigError(
            "use_contextual_slot requires a contextual vector file",
            keys=["use_contextual_slot"],
        )
    if config.use_pos and n_pos is None:
        raise ConfigError("use_pos requires a corpus with a POS column", keys=["use_pos"])
    h = config.hidden
    shapes = {"word.emb": (n_words + 1, config.word_dim)}
    input_dim = config.word_dim
    if config.use_char_cnn:
        shapes["char.chars"] = (n_chars + 1, config.char_dim)
        shapes["char.w"] = (config.char_kernel * config.char_dim, config.char_filters)
        shapes["char.b"] = (config.char_filters,)
        input_dim += config.char_filters
    if config.use_pos:
        shapes["pos.emb"] = (n_pos + 1, config.pos_dim)
        input_dim += config.pos_dim
    if config.use_contextual_slot:
        input_dim += contextual_dim
    for layer in range(config.lstm_layers):
        # both directions of a layer stacked, as BiLstm stores them
        shapes[f"lstm.l{layer}.w_x"] = (2, input_dim, 4 * h)
        shapes[f"lstm.l{layer}.w_h"] = (2, h, 4 * h)
        shapes[f"lstm.l{layer}.b"] = (2, 4 * h)
        input_dim = 2 * h
    if config.use_mha:
        for name in ("w_q", "w_k", "w_v", "w_o"):
            shapes[f"mha.{name}"] = (2 * h, 2 * h)
        shapes["mha.b_o"] = (2 * h,)
    shapes["head.w"] = (2 * h, n_labels)
    shapes["head.b"] = (n_labels,)
    if config.use_crf:
        shapes["crf.matrix"] = (n_labels, n_labels)
        shapes["crf.start"] = (n_labels,)
        shapes["crf.end"] = (n_labels,)
    return shapes


def _vocab(tokens):
    """Token -> index map: the i-th token gets index i + 1, as index 0 is
    the unknown slot. Iterating the map yields ``tokens`` in order."""
    return {tok: i + 1 for i, tok in enumerate(tokens)}


class TaggerModel:
    """Immutable-by-convention container: config, vocabularies, tagset, and
    the parameter store with all layer objects. Forward passes share the
    model across threads safely; only training mutates parameters.

    The vocabularies are built from the token lists ``word_tokens``,
    ``char_tokens`` and ``pos_tokens`` (None without POS features)."""

    def __init__(self, config, tagset, word_tokens, char_tokens, pos_tokens,
                 contextual_dim=0):
        shapes = _param_shapes(
            config, len(tagset), len(word_tokens), len(char_tokens),
            None if pos_tokens is None else len(pos_tokens), contextual_dim,
        )
        self.config = config
        self.tagset = tagset
        self.word_vocab = _vocab(word_tokens)
        self.char_vocab = _vocab(char_tokens)
        self.pos_vocab = None if pos_tokens is None else _vocab(pos_tokens)
        self.contextual_dim = contextual_dim
        self.store = ParamStore()
        rng = np.random.default_rng(config.seed)

        self.word_emb = EmbeddingTable(
            self.store, "word.emb", len(word_tokens) + 1, config.word_dim, rng
        )
        self.char_cnn = None
        if config.use_char_cnn:
            self.char_cnn = CharCNN(
                self.store, "char", len(char_tokens) + 1, config.char_dim,
                config.char_kernel, config.char_filters, rng,
            )
        self.pos_emb = None
        if config.use_pos:
            self.pos_emb = EmbeddingTable(
                self.store, "pos.emb", len(pos_tokens) + 1, config.pos_dim, rng
            )
        self.bilstm = BiLstm(
            self.store, "lstm", shapes["lstm.l0.w_x"][1], config.hidden,
            config.lstm_layers, rng,
        )
        self.mha = None
        if config.use_mha:
            self.mha = MultiHeadAttention(
                self.store, "mha", 2 * config.hidden, config.mha_heads, rng
            )
        self.head = Linear(self.store, "head", 2 * config.hidden, len(tagset), rng)
        if config.use_crf:
            t = len(tagset)
            self.store.add("crf.matrix", np.zeros((t, t)))
            self.store.add("crf.start", np.zeros(t))
            self.store.add("crf.end", np.zeros(t))
        self._bio_penalty = None
        if config.use_crf and config.crf_constrain_bio:
            self._bio_penalty = bio_constraint_penalty(tagset)

    def transitions(self):
        """Effective CRF transitions: stored parameters plus the optional
        BIO-validity penalty."""
        trans = Transitions(
            self.store["crf.matrix"], self.store["crf.start"], self.store["crf.end"]
        )
        if self._bio_penalty is not None:
            trans = trans.penalized(*self._bio_penalty)
        return trans


def build_model(config, corpus, pretrained_vectors=None, contextual_vectors=None):
    """Construct a model whose vocabularies come from ``corpus``; index 0 of
    every vocabulary is the unknown slot. Word rows for tokens covered by
    ``pretrained_vectors`` are copied verbatim; everything else is random
    under ``config.seed``."""
    config.validate()
    if pretrained_vectors is not None and pretrained_vectors.dim != config.word_dim:
        raise ConfigError(
            f"pretrained vectors have dimension {pretrained_vectors.dim}, "
            f"config word_dim is {config.word_dim}",
            keys=["word_dim"],
        )
    surfaces = sorted({w for s in corpus.sentences for w in s.surfaces})
    chars = sorted({ch for tok in surfaces for ch in tok})
    pos_tags = None
    if config.use_pos:
        if any(s.pos is None for s in corpus.sentences):
            raise ConfigError(
                "use_pos is enabled but the corpus has tokens without POS tags",
                keys=["use_pos"],
            )
        pos_tags = sorted({p for s in corpus.sentences for p in s.pos})
    contextual_dim = 0
    if config.use_contextual_slot and contextual_vectors is not None:
        contextual_dim = contextual_vectors.dim
    model = TaggerModel(config, corpus.tagset, surfaces, chars, pos_tags, contextual_dim)
    if pretrained_vectors is not None:
        table = model.store["word.emb"]
        for token, idx in model.word_vocab.items():
            vec = pretrained_vectors.get(token)
            if vec is not None:
                table[idx] = vec
    return model


def _forward(model, sentences, mode, rng, contextual):
    """Run a list of sentences as one right-padded batch. Returns emissions
    (B, n, T), the lengths (B,) and the cache for ``_backward``. Nothing
    reads a cache in eval mode, so there the cache is None and no layer's
    cache outlives its layer."""
    cfg = model.config
    train = mode == "train"
    lengths = np.array([len(s) for s in sentences], dtype=np.int64)
    if train and cfg.dropout > 0.0 and rng is None:
        raise ModelError("training-mode forward pass needs an rng for dropout")
    x, routes = _features(model, sentences, lengths, contextual)
    x, drop_mask = dropout_apply(x, cfg.dropout, mode, rng, lengths)
    if not train:
        del routes
    h, lstm_caches = model.bilstm.forward(x, lengths, mode)
    del x
    mha_cache = None
    if cfg.use_mha:
        h, mha_cache = model.mha.forward(h, lengths)
        if not train:
            del mha_cache
    emissions, head_cache = model.head.forward(h)
    if not train:
        return emissions, lengths, None
    return emissions, lengths, (routes, drop_mask, lstm_caches, mha_cache, head_cache)


def _features(model, sentences, lengths, contextual):
    """The padded input (B, n, width) of the enabled features, and how to
    route its gradient back to each of them."""
    cfg = model.config
    n_batch, n = len(sentences), int(lengths.max())
    widx = np.zeros((n_batch, n), dtype=np.int64)
    for b, sent in enumerate(sentences):
        widx[b, :lengths[b]] = [model.word_vocab.get(s, 0) for s in sent.surfaces]
    word_rows, word_cache = model.word_emb.lookup(widx)
    parts = [word_rows]
    routes = [("word", cfg.word_dim, word_cache)]

    if cfg.use_contextual_slot:
        if contextual is None:
            raise ModelError(
                f"sentence {sentences[0].id!r}: model uses contextual vectors "
                "but none were provided"
            )
        if contextual.dim != model.contextual_dim:
            raise ModelError(
                f"contextual vectors have dimension {contextual.dim}, "
                f"model expects {model.contextual_dim}"
            )
        ctx_rows = np.zeros((n_batch, n, model.contextual_dim))
        for b, sent in enumerate(sentences):
            try:
                ctx_rows[b, :lengths[b]] = contextual.lookup_sentence(sent.id, lengths[b])
            except KeyError as exc:
                raise ModelError(str(exc.args[0])) from None
        parts.append(ctx_rows)
        routes.append(("frozen", model.contextual_dim, None))

    if cfg.use_char_cnn:
        # every real token of the batch is one row of a padded (W, L) pass
        surfaces = [surface for sent in sentences for surface in sent.surfaces]
        cidx = np.zeros((len(surfaces), max(map(len, surfaces))), dtype=np.int64)
        for w, surface in enumerate(surfaces):
            cidx[w, :len(surface)] = [model.char_vocab.get(ch, 0) for ch in surface]
        per_word, char_cache = model.char_cnn.forward(cidx, [len(s) for s in surfaces])
        real = np.arange(n) < lengths[:, None]
        char_rows = np.zeros((n_batch, n, cfg.char_filters))
        char_rows[real] = per_word
        parts.append(char_rows)
        routes.append(("char", cfg.char_filters, (real, char_cache)))

    if cfg.use_pos:
        pidx = np.zeros((n_batch, n), dtype=np.int64)
        for b, sent in enumerate(sentences):
            if sent.pos is None:
                raise ModelError(
                    f"sentence {sent.id!r}: model uses POS features but has no "
                    "POS column (pass --pos-col)"
                )
            pidx[b, :lengths[b]] = [model.pos_vocab.get(p, 0) for p in sent.pos]
        pos_rows, pos_cache = model.pos_emb.lookup(pidx)
        parts.append(pos_rows)
        routes.append(("pos", cfg.pos_dim, pos_cache))

    x = np.concatenate(parts, axis=2) if len(parts) > 1 else parts[0]
    return x, routes


def _backward(model, d_emissions, cache):
    """Backprop a batch; ``d_emissions`` (B, n, T) is zero at padding."""
    routes, drop_mask, lstm_caches, mha_cache, head_cache = cache
    d = model.head.backward(d_emissions, head_cache)
    if mha_cache is not None:
        d = model.mha.backward(d, mha_cache)
    d = model.bilstm.backward(d, lstm_caches)
    if drop_mask is not None:
        d = d * drop_mask
    offset = 0
    for kind, width, route_cache in routes:
        part = d[:, :, offset:offset + width]
        offset += width
        if kind == "word":
            model.word_emb.backward(part, route_cache)
        elif kind == "char":
            real, char_cache = route_cache
            model.char_cnn.backward(part[real], char_cache)
        elif kind == "pos":
            model.pos_emb.backward(part, route_cache)
        # frozen slots (contextual vectors) receive no gradient


def _log_softmax(emissions):
    m = emissions.max(axis=-1, keepdims=True)
    shifted = emissions - m
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _uses_crf_loss(cfg):
    return cfg.use_crf and not cfg.crf_decode_only


def _sentence_loss(model, emissions, lengths, gold_idx, weight=1.0, want_grad=False):
    """Per-sentence losses (B,) of a padded batch: CRF NLL, or mean
    per-token cross-entropy. With ``want_grad`` also returns
    d_loss/d_emissions, each sentence's share scaled by ``weight`` and zero
    at padding, and accumulates CRF transition gradients."""
    if _uses_crf_loss(model.config):
        losses, d_emis, d_matrix, d_start, d_end = crf_nll_grad(
            emissions, model.transitions(), gold_idx, lengths
        )
        if not want_grad:
            return losses, None
        acc = model.store.accumulate
        acc("crf.matrix", weight * d_matrix)
        acc("crf.start", weight * d_start)
        acc("crf.end", weight * d_end)
        return losses, weight * d_emis
    real = np.arange(emissions.shape[1])[None, :] < lengths[:, None]
    logp = _log_softmax(emissions)
    gold = gold_idx[:, :, None]
    gold_logp = np.take_along_axis(logp, gold, axis=2)[:, :, 0]
    losses = -np.where(real, gold_logp, 0.0).sum(axis=1) / lengths
    if not want_grad:
        return losses, None
    d = np.exp(logp)
    np.put_along_axis(d, gold, np.take_along_axis(d, gold, axis=2) - 1.0, axis=2)
    d *= np.where(real, weight / lengths[:, None], 0.0)[:, :, None]
    return losses, d


def check_gradients(model, sentences, contextual=None, dropout_seed=0):
    """``nn.gradient_check`` of the training loss of ``sentences`` run as
    one padded batch: the sum of their losses, through ``_forward``,
    ``_sentence_loss`` and ``_backward`` as in training. Every loss call
    draws the dropout mask afresh from ``dropout_seed``, so all calls see
    the same mask. Returns the GradCheckReport."""
    gold = _gold_indices(model, sentences, max(len(s) for s in sentences))

    def loss_fn(grad=False):
        rng = np.random.default_rng(dropout_seed)
        emissions, lengths, cache = _forward(model, sentences, "train", rng, contextual)
        losses, d_emis = _sentence_loss(model, emissions, lengths, gold, want_grad=grad)
        if grad:
            _backward(model, d_emis, cache)
        return float(losses.sum())

    return gradient_check(loss_fn, model.store)


def _check_probabilities(probs, lengths):
    """Raise ModelError unless every real row of ``probs`` (B, n, T) sums to
    1 within 1e-6; a NaN or inf entry fails too, as its row sum does."""
    real = np.arange(probs.shape[1]) < lengths[:, None]
    if not np.all(np.abs(probs.sum(axis=2)[real] - 1.0) <= 1e-6):
        raise ModelError(
            "tag scores are not finite probabilities: the model's parameters "
            "are out of range"
        )


def _predictions(model, emissions, lengths, marginals=None):
    """One (labels, scores) pair of columns per sentence of a padded batch;
    under the CRF head the scores are ``marginals`` when the caller has
    them already. Scores that overflowed are caught by
    ``_check_probabilities``, not warned about."""
    with np.errstate(over="ignore", invalid="ignore"):
        if model.config.use_crf:
            trans = model.transitions()
            best, _ = viterbi(emissions, trans, lengths)
            if marginals is None:
                marginals = crf_marginals(emissions, trans, lengths)
            probs = marginals
        else:
            probs = np.exp(_log_softmax(emissions))
            best = [probs[b, :n].argmax(axis=1) for b, n in enumerate(lengths)]
    _check_probabilities(probs, lengths)
    names = model.tagset.labels
    # the scores are finite probabilities, clamped into [0, 1]
    return [(repair_bio([names[t] for t in path]),
             np.clip(probs[b, np.arange(len(path)), path], 0.0, 1.0).tolist())
            for b, path in enumerate(best)]


def predict(model, sentence, contextual=None):
    """Label a sentence: Viterbi path with marginal scores under the CRF
    head, per-row argmax probability otherwise. Labels are BIO-repaired
    with scores carried over unchanged."""
    _, _, emissions, lengths = next(_eval_passes(model, [sentence], contextual))
    labels, scores = _predictions(model, emissions, lengths)[0]
    return list(map(TokenPrediction, labels, scores))


# Eval-mode passes take length-sorted sentences up to this many padded
# positions (a longer sentence runs alone), so peak memory does not grow
# with the corpus. The curve behind it, on perfbench's predict_wide (two
# untraced 20 s runs per budget at seed 47, one BLAS thread, 2-CPU Xeon)
# and the tracemalloc peak of one predict_corpus call on its corpus
# (seed 5, the 0.5 MiB of predictions included):
#   budget   tok_s         peak_rss_mb   one call's peak
#   256      39.8k-41.3k   50.4-51.0     1.25 MiB
#   512      55.7k-57.8k   54.5-54.7     1.97 MiB
#   768      60.0k-63.0k   55.8-56.3     2.72 MiB
#   1024     64.0k-64.3k   58.1-60.2     3.46 MiB
# With the backward cache still built, 256 read 36.3k-36.7k, 50.2-50.4 and
# 1.78 MiB. Each step up adds ~0.75 MiB of peak, mostly the LSTM's
# (2, N, 4h) gate buffer, while the gain shrinks; peak_rss_mb also grows
# ~0.1 MiB per extra repetition perfbench fits in its window. 512 is the
# largest budget whose peak_rss_mb stays within 10% of 256's.
_CHUNK_POSITIONS = 512


def _chunks(sentences):
    """Index lists covering ``sentences``, each a run of length-sorted
    sentences whose padded batch has at most _CHUNK_POSITIONS positions."""
    order = sorted(range(len(sentences)), key=lambda i: len(sentences[i]))
    chunks = []
    for i in order:
        n = len(sentences[i])
        if chunks and (len(chunks[-1]) + 1) * n <= _CHUNK_POSITIONS:
            chunks[-1].append(i)
        else:
            chunks.append([i])
    return chunks


def _eval_passes(model, sentences, contextual):
    """Eval-mode forward passes over length-sorted chunks; yields
    (indices into ``sentences``, the chunk, emissions, lengths). Overflow
    is not warned about: saturated gates are the right limit, and an inf
    or NaN that reaches the scores fails ``_check_probabilities``. Callers
    drop a chunk's arrays before they ask for the next, so no two chunks'
    arrays are alive at once."""
    for idx in _chunks(sentences):
        batch = [sentences[i] for i in idx]
        with np.errstate(over="ignore", invalid="ignore"):
            emissions, lengths, _ = _forward(model, batch, "eval", None, contextual)
        yield idx, batch, emissions, lengths
        del emissions


def predict_corpus(model, corpus, contextual=None):
    """``predict`` for every sentence, run in length-sorted batches."""
    predictions = [None] * len(corpus.sentences)
    for idx, _, emissions, lengths in _eval_passes(model, corpus.sentences, contextual):
        for i, (labels, scores) in zip(idx, _predictions(model, emissions, lengths)):
            predictions[i] = list(map(TokenPrediction, labels, scores))
        del emissions
    return predictions


def _gold_indices(model, sentences, n):
    """Gold tag indices (B, n), zero at padding."""
    gold = np.zeros((len(sentences), n), dtype=np.int64)
    for b, sent in enumerate(sentences):
        gold[b, :len(sent)] = [model.tagset.index(t) for t in sent.gold_tags]
    return gold


def _evaluate_dev(model, dev, contextual):
    losses = np.empty(len(dev.sentences))
    predictions = [None] * len(dev.sentences)
    for idx, batch, emissions, lengths in _eval_passes(model, dev.sentences, contextual):
        gold = _gold_indices(model, batch, emissions.shape[1])
        marginals = None
        if _uses_crf_loss(model.config):
            # one forward-backward pass gives the loss and the scores
            losses[idx], marginals = crf_nll_marginals(
                emissions, model.transitions(), gold, lengths
            )
        else:
            losses[idx], _ = _sentence_loss(model, emissions, lengths, gold)
        for i, (labels, _) in zip(idx, _predictions(model, emissions, lengths, marginals)):
            predictions[i] = labels
        del emissions, marginals
    report = evaluate(dev, predictions)
    return float(np.mean(losses)), report.macro_f1


def _train_batch(model, batch, rng, contextual, epoch):
    """Forward and backward of one optimizer batch as one padded pass, each
    sentence's loss weighted 1/len(batch); returns the per-sentence losses.
    The batch's caches die with this call, before the next batch runs."""
    emissions, lengths, cache = _forward(model, batch, "train", rng, contextual)
    losses, d_emis = _sentence_loss(
        model, emissions, lengths, _gold_indices(model, batch, emissions.shape[1]),
        weight=1.0 / len(batch), want_grad=True,
    )
    for sent, loss in zip(batch, losses):
        if not math.isfinite(loss):
            raise ModelError(
                f"non-finite training loss at epoch {epoch}, sentence {sent.id!r}"
            )
    _backward(model, d_emis, cache)
    return [float(loss) for loss in losses]


def train(model, train_corpus, dev_corpus, config=None, contextual=None):
    """Mini-batch training with per-epoch dev evaluation and early
    stopping; returns the model restored to its best-epoch parameters plus
    the full history. Each optimizer batch runs as one padded pass; its
    loss is the mean of the per-sentence losses. ``contextual`` vectors,
    keyed by sentence id and token index, serve both corpora. A gold tag
    outside the model's tagset, in either corpus, raises CorpusError naming
    its sentence before the first epoch."""
    cfg = (config or model.config).validate()
    for corpus in (train_corpus, dev_corpus):
        LabeledCorpus(corpus.sentences, model.tagset)
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
            batch = [train_corpus.sentences[si]
                     for si in order[start:start + cfg.batch_size]]
            epoch_losses.extend(_train_batch(model, batch, rng, contextual, epoch))
            optimizer.step()

        eval_loss, eval_f1 = _evaluate_dev(model, dev_corpus, contextual)
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


def save_model(model, path):
    """Serialize to a self-describing binary: magic, length-prefixed JSON
    header, then raw little-endian float64 parameter blocks in sorted name
    order. Byte-deterministic for a given model; the file is replaced
    atomically."""
    header = json.dumps(_header_dict(model), sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    blocks = [MODEL_MAGIC, struct.pack("<Q", len(header)), header]
    for name in model.store.names():
        blocks.append(np.ascontiguousarray(model.store[name], dtype="<f8").tobytes())
    write_atomic(path, b"".join(blocks))


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
    bad = [c for c in header["classes"] if not BIO_TAG_RE.match(f"B-{c}")]
    if bad:
        return f"model header classes: {bad[0]!r} cannot form a BIO label"
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
    except ValueError:  # invalid JSON or invalid UTF-8
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
        shapes = _param_shapes(
            config, len(tagset), len(header["word_tokens"]), len(header["char_tokens"]),
            None if pos_tokens is None else len(pos_tokens), header["contextual_dim"],
        )
    except ConfigError as exc:
        raise ModelError(f"{path}: {exc}") from None
    names = sorted(shapes)
    header_params = [(name, tuple(shape)) for name, shape in header["params"]]
    if header_params != [(name, shapes[name]) for name in names]:
        raise ModelError(f"{path}: parameter inventory does not match its config")
    offset = body_start + header_len
    size = offset + 8 * sum(math.prod(shapes[name]) for name in names)
    if size > len(data):
        raise ModelError(f"{path}: truncated model file")
    if size < len(data):
        raise ModelError(f"{path}: trailing bytes after parameter blocks")

    values = {}
    for name in names:
        shape = shapes[name]
        end = offset + 8 * math.prod(shape)
        values[name] = np.frombuffer(data[offset:end], dtype="<f8").reshape(shape).copy()
        if not np.isfinite(values[name]).all():
            raise ModelError(f"{path}: non-finite values in parameter block {name}")
        offset = end
    model = TaggerModel(config, tagset, header["word_tokens"], header["char_tokens"],
                        pos_tokens, header["contextual_dim"])
    model.store.load_values(values)
    return model
