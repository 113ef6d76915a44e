"""The public entry points the traced run wraps, grouped by module (the
layers), and the per-layer metrics reported from their spans.

Each entry names the sites where its callers look it up, so the wrapper
sees every call: the kernels where ``seqtag.nn.layers`` and ``seqtag.crf``
import them, the CRF functions where ``seqtag.tagger`` imports them, layer
methods on their classes, and the corpus/ensemble functions on their own
modules, which the benchmark calls through.

Flop counts are computed from argument shapes, not measured:
- ``lstm_forward``: the recurrent matmul, 2 * rows * h * 4h;
- ``lstm_backward``: the d_h matmul and the d_w_h outer products,
  2 * (2 * rows * h * 4h);
- ``crf_alphas`` / ``crf_betas``: 3 operations (add, exp, sum) per pairwise
  score, 3 * rows * T^2;
- ``viterbi_decode``: 2 operations (add, max) per pairwise score.
"""

import numpy as np

from spans import Entry


def _rows(a):
    """Rows of an array argument: every axis but the last."""
    shape = np.shape(a)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else int(shape[0]) if shape else 1


def _n_tokens(c):
    return int(c.n_tokens)


def _lstm_fw_flops(args, kwargs, result):
    h = np.shape(args[1])[0]
    return {"flops_computed": 8 * _rows(args[0]) * h * h}


def _lstm_bw_flops(args, kwargs, result):
    h = np.shape(args[5])[0]
    return {"flops_computed": 16 * _rows(args[0]) * h * h}


def _crf_flops(ops):
    def flops(args, kwargs, result):
        t = np.shape(args[0])[-1]
        return {"flops_computed": ops * _rows(args[0]) * t * t}
    return flops


def _bilstm_padding(args, kwargs, result):
    positions = _rows(args[1])
    lengths = kwargs.get("lengths", args[2] if len(args) > 2 else None)
    real = int(np.sum(lengths)) if lengths is not None else positions
    return {"positions": positions, "real_tokens": real}


def _repair_changed(args, kwargs, result):
    return {"changed": sum(a != b for a, b in zip(args[0], result))}


def _fallbacks(args, kwargs, result):
    return {"fallback_tokens": int(result[1].n_fallbacks)}


def entries():
    """Fresh Entry objects for one traced run."""
    first = lambda a, k, r: _rows(a[0])
    second = lambda a, k, r: _rows(a[1])
    return [
        Entry("kernels.lstm_forward", [("seqtag.nn.layers", "lstm_forward")],
              first, _lstm_fw_flops),
        Entry("kernels.lstm_backward", [("seqtag.nn.layers", "lstm_backward")],
              first, _lstm_bw_flops),
        Entry("kernels.crf_alphas", [("seqtag.crf", "crf_alphas")], first, _crf_flops(3)),
        Entry("kernels.crf_betas", [("seqtag.crf", "crf_betas")], first, _crf_flops(3)),
        Entry("kernels.viterbi_decode", [("seqtag.crf", "viterbi_decode")],
              first, _crf_flops(2)),

        Entry("nn.layers.BiLstm.forward", [("seqtag.nn.layers", "BiLstm.forward")],
              second, _bilstm_padding),
        Entry("nn.layers.BiLstm.backward", [("seqtag.nn.layers", "BiLstm.backward")], second),
        Entry("nn.layers.CharCNN.forward", [("seqtag.nn.layers", "CharCNN.forward")],
              lambda a, k, r: len(a[1])),
        Entry("nn.layers.CharCNN.backward", [("seqtag.nn.layers", "CharCNN.backward")],
              lambda a, k, r: 1),
        Entry("nn.layers.MultiHeadAttention.forward",
              [("seqtag.nn.layers", "MultiHeadAttention.forward")], second),
        Entry("nn.layers.MultiHeadAttention.backward",
              [("seqtag.nn.layers", "MultiHeadAttention.backward")], second),
        Entry("nn.layers.Linear.forward", [("seqtag.nn.layers", "Linear.forward")], second),
        Entry("nn.layers.Linear.backward", [("seqtag.nn.layers", "Linear.backward")], second),
        Entry("nn.layers.EmbeddingTable.lookup",
              [("seqtag.nn.layers", "EmbeddingTable.lookup")],
              lambda a, k, r: int(np.size(a[1]))),
        Entry("nn.layers.EmbeddingTable.backward",
              [("seqtag.nn.layers", "EmbeddingTable.backward")], second),
        Entry("nn.layers.dropout_apply", [("seqtag.tagger", "dropout_apply")], first),

        Entry("crf.crf_nll_grad", [("seqtag.tagger", "crf_nll_grad")], first),
        Entry("crf.viterbi", [("seqtag.tagger", "viterbi")], first),
        Entry("crf.crf_marginals", [("seqtag.tagger", "crf_marginals")], first),

        Entry("nn.optim.AdamOptimizer.step", [("seqtag.nn.optim", "AdamOptimizer.step")]),

        Entry("tagger.build_model", [("seqtag.tagger", "build_model")],
              lambda a, k, r: _n_tokens(a[1])),
        Entry("tagger.load_model", [("seqtag.tagger", "load_model")]),
        Entry("tagger.save_model", [("seqtag.tagger", "save_model")]),
        Entry("tagger.train", [("seqtag.tagger", "train")],
              lambda a, k, r: _n_tokens(a[1]) * len(r[1].epochs)),
        Entry("tagger.predict_corpus", [("seqtag.tagger", "predict_corpus")],
              lambda a, k, r: _n_tokens(a[1])),

        Entry("corpus.parse_conll", [("seqtag.corpus", "parse_conll")],
              lambda a, k, r: _n_tokens(r)),
        Entry("corpus.repair_bio", [("seqtag.tagger", "repair_bio"),
                                    ("seqtag.ensemble", "repair_bio")],
              lambda a, k, r: len(a[0]), _repair_changed),

        Entry("vectors.parse_word_vectors", [("seqtag.vectors", "parse_word_vectors")],
              lambda a, k, r: len(r)),

        Entry("augment.parse_lexicon", [("seqtag.augment", "parse_lexicon")],
              lambda a, k, r: len(r.mapping)),
        Entry("augment.token_translate", [("seqtag.augment", "token_translate")],
              lambda a, k, r: _n_tokens(a[0])),
        Entry("augment.combine", [("seqtag.augment", "combine")],
              lambda a, k, r: sum(_n_tokens(c) for c in a[0])),

        Entry("ensemble.read_prediction_file",
              [("seqtag.ensemble", "read_prediction_file")],
              lambda a, k, r: sum(len(p) for p in r.predictions)),
        Entry("ensemble.ensemble_corpus", [("seqtag.ensemble", "ensemble_corpus")],
              lambda a, k, r: _n_tokens(a[1]), _fallbacks),
        Entry("ensemble.write_prediction_file",
              [("seqtag.ensemble", "write_prediction_file")],
              lambda a, k, r: _n_tokens(a[0])),

        Entry("evaluation.evaluate", [("seqtag.evaluation", "evaluate"),
                                      ("seqtag.tagger", "evaluate")],
              lambda a, k, r: _n_tokens(a[0])),
    ]


ENTRY_NAMES = [e.name for e in entries()]

# busy_s and tokens are reported for the entries an optimisation of the
# named ROADMAP items is most likely to move; calls and self_s for all.
BUSY = ["tagger.train", "tagger.predict_corpus", "nn.layers.BiLstm.forward",
        "nn.layers.BiLstm.backward", "nn.layers.CharCNN.forward",
        "nn.layers.MultiHeadAttention.forward", "crf.crf_nll_grad", "crf.viterbi",
        "crf.crf_marginals", "corpus.parse_conll", "augment.token_translate",
        "ensemble.read_prediction_file", "ensemble.ensemble_corpus",
        "evaluation.evaluate"]
TOKENS = ["kernels.lstm_forward", "kernels.lstm_backward", "kernels.crf_alphas",
          "kernels.crf_betas", "kernels.viterbi_decode", "nn.layers.BiLstm.forward",
          "crf.crf_nll_grad", "crf.viterbi", "crf.crf_marginals", "tagger.train",
          "tagger.predict_corpus", "corpus.parse_conll",
          "ensemble.read_prediction_file", "ensemble.ensemble_corpus",
          "evaluation.evaluate"]
FLOPS = [n for n in ENTRY_NAMES if n.startswith("kernels.")]

# Derived figures: (metric, unit).
DERIVED = [
    ("nn.layers.BiLstm.forward.pad_ratio", "ratio"),
    ("corpus.repair_bio.changed", "count"),
    ("ensemble.fallback_share", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_sum_ratio", "ratio"),
]


def per_layer_metrics():
    """Every per-layer metric the traced run prints, as (name, unit)."""
    out = []
    for name in ENTRY_NAMES:
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
        if name in BUSY:
            out.append((f"{name}.busy_s", "s"))
        if name in TOKENS:
            out.append((f"{name}.tokens", "count"))
        if name in FLOPS:
            out.append((f"{name}.flops_computed", "flop"))
    return out + DERIVED


def traced_metrics(report):
    """The per-layer metrics of a traced run, in BENCHMARK.json's order."""
    figures = report["per_layer"]
    out = {}
    for name, unit in per_layer_metrics():
        value = figures.get(name, 0)
        if unit in ("count", "flop") and float(value).is_integer():
            value = int(value)
        out[name] = {"value": value, "unit": unit}
    return out


def table(report):
    """Lines of the full per-layer table, largest self time first."""
    figures = report["per_layer"]
    wall = figures["trace.wall_s"] or 1.0
    rows = sorted(ENTRY_NAMES, key=lambda n: -figures.get(f"{n}.self_s", 0))
    lines = [f"{'layer entry':44} {'calls':>8} {'tokens':>9} {'busy_s':>9} "
             f"{'self_s':>9} {'self%':>6}"]
    for name in rows:
        calls = figures.get(f"{name}.calls", 0)
        self_s = figures.get(f"{name}.self_s", 0)
        lines.append(f"{name:44} {calls:8.0f} {figures.get(name + '.tokens', 0):9.0f} "
                     f"{figures.get(name + '.busy_s', 0):9.4f} {self_s:9.4f} "
                     f"{100 * self_s / wall:6.1f}")
    return lines
