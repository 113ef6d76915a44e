"""Command-line interface for the full pipeline: stats, split, augment,
train, predict, ensemble, evaluate, gradcheck.

Reports go to stdout, errors and diagnostics to stderr. Exit codes: 0 on
success, 1 on validation or computation failure, 2 on I/O failure.
"""

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .augment import OfflineLexiconBackend, parse_lexicon, parse_plan, run_plan
from .corpus import (
    ColumnConfig,
    corpus_stats,
    parse_conll,
    split_corpus,
    write_conll,
)
from .ensemble import (
    EnsembleError,
    VoteConfig,
    check_alignment,
    ensemble_corpus,
    read_prediction_file,
    write_prediction_file,
)
from .evaluation import evaluate
from .fileio import write_staged
from .tagger import (
    build_model,
    check_gradients,
    load_model,
    model_bytes,
    parse_config,
    predict_corpus,
    train,
)
from .vectors import parse_contextual_vectors, parse_word_vectors

__all__ = ["main", "entry"]

DEFAULT_SEED = 42


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse(path, parser, *args, **kwargs):
    """``parser`` applied to the UTF-8 text of the file at ``path``; a
    validation error (exit 1) names the file, e.g. ``vec.txt: line 3: ...``."""
    try:
        return parser(Path(path).read_text(encoding="utf-8"), *args, **kwargs)
    except ValueError as exc:  # parse errors and invalid UTF-8
        raise ValueError(f"{path}: {exc}") from exc


def _write(*outputs):
    """Write each (path, text) pair as UTF-8, all or none (``write_staged``)."""
    write_staged([(path, text.encode("utf-8")) for path, text in outputs])


def _columns(args):
    return ColumnConfig(pos_col=args.pos_col)


def _distinct_outputs(outputs, inputs=()):
    """Refuse, before the inputs are read, an output that names a directory
    or sits in a directory that does not exist (an OSError), and one that
    names one of the command's inputs or another output, which its write
    would silently replace (a ValueError). Both are (name, path) pairs; a
    None path is skipped."""
    named = [(name, path) for name, path in inputs if path is not None]
    for name, path in outputs:
        if os.path.isdir(path):
            raise IsADirectoryError(f"{name} names a directory: {path}")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(f"{name} names a file in a missing directory: {path}")
        for other, other_path in named:
            if os.path.realpath(other_path) == os.path.realpath(path):
                raise ValueError(f"{other} and {name} name the same file: {path}")
        named.append((name, path))


def cmd_stats(args):
    corpus = _parse(args.corpus, parse_conll, _columns(args))
    print(corpus_stats(corpus).render_table())
    return 0


def cmd_split(args):
    _distinct_outputs([("--train-out", args.train_out), ("--dev-out", args.dev_out)],
                      [("corpus", args.corpus)])
    corpus = _parse(args.corpus, parse_conll, _columns(args))
    train_part, dev_part = split_corpus(corpus, args.train_fraction, args.seed)
    _write((args.train_out, write_conll(train_part)), (args.dev_out, write_conll(dev_part)))
    print(f"train {len(train_part)} sentences -> {args.train_out}")
    print(f"dev {len(dev_part)} sentences -> {args.dev_out}")
    return 0


def cmd_augment(args):
    manifest_path = args.manifest or args.out + ".manifest"
    outputs = [("--out", args.out), ("--manifest", manifest_path)]
    _distinct_outputs(outputs, [("plan", args.plan)])
    plan = _parse(args.plan, parse_plan)
    # a relative corpus or lexicon path names a file beside the plan;
    # joining leaves an absolute one unchanged
    plan_dir = Path(args.plan).parent
    _distinct_outputs(outputs, [(f"source {s.name!r}", plan_dir / s.path) for s in plan.sources]
                      + [(f"lexicon of source {s.name!r}", plan_dir / s.lexicon_path)
                         for s in plan.sources if s.lexicon_path is not None])
    corpora = {}
    backends = {}
    for source in plan.sources:
        corpora[source.name] = _parse(plan_dir / source.path, parse_conll)
        if source.lexicon_path is not None:
            backends[source.name] = OfflineLexiconBackend(
                _parse(plan_dir / source.lexicon_path, parse_lexicon, name=source.lexicon_path)
            )
    result, manifest = run_plan(plan, corpora, backends)
    _write((args.out, write_conll(result)), (manifest_path, manifest))
    print(manifest, end="")
    print(f"wrote {len(result)} sentences -> {args.out}")
    return 0


def cmd_train(args):
    history_path = args.history_out or args.model_out + ".history"
    _distinct_outputs([("model_out", args.model_out), ("--history-out", history_path)],
                      [("config", args.config), ("train", args.train), ("dev", args.dev),
                       ("--pretrained-vectors", args.pretrained_vectors),
                       ("--contextual-vectors", args.contextual_vectors)])
    config = _parse(args.config, parse_config)
    columns = _columns(args)
    train_corpus = _parse(args.train, parse_conll, columns)
    dev_corpus = _parse(args.dev, parse_conll, columns)
    pretrained = None
    if args.pretrained_vectors:
        pretrained = _parse(args.pretrained_vectors, parse_word_vectors)
    contextual = None
    if args.contextual_vectors:
        contextual = _parse(args.contextual_vectors, parse_contextual_vectors)
    model = build_model(config, train_corpus, pretrained, contextual)
    model, history = train(model, train_corpus, dev_corpus, config, contextual)
    write_staged([(args.model_out, model_bytes(model)),
                  (history_path, history.render().encode("utf-8"))])
    best = history.epochs[history.best_epoch - 1]
    print(
        f"trained {history.stopped_epoch} epochs, best epoch {history.best_epoch} "
        f"(eval_loss {best.eval_loss:.6f}, eval_macro_f1 {best.eval_macro_f1:.4f})"
    )
    print(f"model -> {args.model_out}")
    print(f"history -> {history_path}")
    return 0


def cmd_predict(args):
    _distinct_outputs([("out", args.out)], [("model", args.model), ("corpus", args.corpus),
                                            ("--contextual-vectors", args.contextual_vectors)])
    model = load_model(args.model)
    columns = ColumnConfig(labeled=not args.no_gold, pos_col=args.pos_col)
    corpus = _parse(args.corpus, parse_conll, columns)
    contextual = None
    if args.contextual_vectors:
        contextual = _parse(args.contextual_vectors, parse_contextual_vectors)
    predictions = predict_corpus(model, corpus, contextual)
    _write((args.out, write_prediction_file(corpus, predictions,
                                            include_gold=not args.no_gold)))
    print(f"wrote predictions for {len(corpus)} sentences -> {args.out}")
    return 0


def cmd_ensemble(args):
    diag_path = args.diagnostics or args.out + ".diag"
    _distinct_outputs([("--out", args.out), ("--diagnostics", diag_path)],
                      [("predictions", path) for path in args.predictions]
                      + [("--reference", args.reference)])
    if len(args.predictions) < 2:
        raise EnsembleError(
            f"need at least 2 prediction files, got {len(args.predictions)}"
        )
    reference = _parse(args.reference, parse_conll, _columns(args))
    sets = [_parse(path, read_prediction_file).to_set(os.path.basename(path))
            for path in args.predictions]
    config = VoteConfig(args.threshold, args.majority_of)
    _, diagnostics = ensemble_corpus(sets, reference, config)
    # each sentence's SentenceVotes writes its voted labels with their support
    _write((args.out, write_prediction_file(
        reference, [votes for _, votes in diagnostics.per_sentence])),
        (diag_path, diagnostics.render()))
    print(
        f"ensembled {len(sets)} models over {len(reference)} sentences "
        f"({diagnostics.n_fallbacks} non-majority tokens) -> {args.out}"
    )
    return 0


def cmd_evaluate(args):
    gold = _parse(args.gold, parse_conll, _columns(args))
    pset = _parse(args.predictions, read_prediction_file).to_set(
        os.path.basename(args.predictions))
    check_alignment(pset, gold)
    report = evaluate(gold, [preds.labels for preds in pset.predictions])
    print(report.render_table())
    print()
    print(report.render_kv())
    return 0


# The built-in batch of ``gradcheck``: two ragged sentences with POS tags
# and BIO-valid gold paths (an invalid path would add the -1e4 BIO penalty
# to the loss, and its roundoff would swamp the check).
_GRADCHECK_BATCH = """\
Ada NNP B-PER
met VBD O
New NNP B-LOC
York NNP I-LOC

Bo NNP B-PER
ran VBD O
"""

# parameter name prefixes in pipeline order, one report line each
_PARAM_GROUPS = ("word", "char", "pos", "lstm", "mha", "head", "crf")


def cmd_gradcheck(args):
    """Central-difference check of the tagger a config describes: its
    switches (features, contextual slot, attention heads, CRF, BIO
    constraint, decode-only, LSTM layers, char kernel, dropout rate) at
    small widths, on the built-in batch, with ``--seed`` fixing the
    parameters, contextual vectors and dropout mask."""
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    config = _parse(args.config, parse_config)
    heads = config.mha_heads if config.use_mha else 1
    # the least hidden >= 2 whose BiLSTM output width 2 * hidden the heads divide
    hidden = max(2, heads // math.gcd(heads, 2))
    config = replace(config, word_dim=3, char_dim=2, char_filters=2, pos_dim=2,
                     hidden=hidden, seed=args.seed)
    corpus = parse_conll(_GRADCHECK_BATCH, ColumnConfig(pos_col=1))
    contextual = None
    if config.use_contextual_slot:
        rng = np.random.default_rng(args.seed)
        contextual = {(s.id, i): rng.normal(size=2)
                      for s in corpus.sentences for i in range(len(s))}
    model = build_model(config, corpus, contextual_vectors=contextual)
    report = check_gradients(model, corpus.sentences, contextual, dropout_seed=args.seed)
    worst = {}
    for name, ratio in report.per_param_bound.items():
        group = name.split(".")[0]
        worst[group] = max(worst.get(group, 0.0), ratio)
    failures = 0
    for group in sorted(worst, key=_PARAM_GROUPS.index):
        verdict = "PASS" if worst[group] <= 1.0 else "FAIL"
        failures += verdict == "FAIL"
        print(f"{group:<5} error/bound {worst[group]:.3f}  {verdict}")
    if failures:
        print(f"{failures} parameter group(s) failed the gradient check", file=sys.stderr)
        return 1
    return 0


def _build_parser():
    parser = _Parser(prog="seqtag",
                     description="sequence labeling pipeline: corpus tools, "
                                 "tagger training, ensembling, evaluation")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_pos_col(p):
        p.add_argument("--pos-col", type=int, default=None,
                       help="column index of POS tags in CoNLL input")

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("corpus")
    add_pos_col(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("split", help="shuffled train/dev split")
    p.add_argument("corpus")
    p.add_argument("--train-fraction", type=float, default=0.7)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--train-out", required=True)
    p.add_argument("--dev-out", required=True)
    add_pos_col(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("augment", help="run an augmentation plan")
    p.add_argument("plan")
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", default=None,
                   help="manifest path (default: <out>.manifest)")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("train", help="train a tagger")
    p.add_argument("config")
    p.add_argument("train")
    p.add_argument("dev")
    p.add_argument("model_out")
    p.add_argument("--history-out", default=None,
                   help="history log path (default: <model_out>.history)")
    p.add_argument("--pretrained-vectors", default=None)
    p.add_argument("--contextual-vectors", default=None)
    add_pos_col(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="label a corpus with a trained model")
    p.add_argument("model")
    p.add_argument("corpus")
    p.add_argument("out")
    p.add_argument("--contextual-vectors", default=None)
    p.add_argument("--no-gold", action="store_true",
                   help="input has no gold column; omit it from the output")
    add_pos_col(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("ensemble", help="majority-vote prediction files")
    p.add_argument("predictions", nargs="+")
    p.add_argument("--reference", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--diagnostics", default=None,
                   help="diagnostics path (default: <out>.diag)")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--majority-of", choices=["models", "survivors"],
                   default="models")
    add_pos_col(p)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("evaluate", help="chunk-level P/R/F1 report")
    p.add_argument("gold")
    p.add_argument("predictions")
    add_pos_col(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help prints and exits
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a config that asks for a huge array
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
