"""Command-line interface for the full pipeline: stats, split, augment,
train, predict, ensemble, evaluate, gradcheck.

Reports go to stdout, errors and diagnostics to stderr. Exit codes: 0 on
success, 1 on validation or computation failure, 2 on I/O failure.
"""

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .augment import OfflineLexiconBackend, parse_lexicon, parse_plan, run_plan
from .corpus import (
    ColumnConfig,
    CorpusError,
    LabeledCorpus,
    ParseError,
    Sentence,
    TagSet,
    Token,
    _normalize,
    corpus_stats,
    parse_conll,
    split_corpus,
    write_conll,
)
from .crf import Transitions, crf_nll_grad
from .ensemble import (
    EnsembleError,
    PredictionSet,
    VoteConfig,
    ensemble_corpus,
    read_prediction_file,
    write_prediction_file,
)
from .evaluation import evaluate
from .fileio import write_atomic
from .nn import (
    BiLstm,
    CharCNN,
    EmbeddingTable,
    Linear,
    MultiHeadAttention,
    ParamStore,
    gradient_check,
)
from .tagger import (
    ModelError,
    build_model,
    load_model,
    parse_config,
    predict_corpus,
    save_model,
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


def _write(path, text):
    write_atomic(path, text.encode("utf-8"))


def _columns(args):
    return ColumnConfig(pos_col=args.pos_col)


def _parse_unlabeled(text):
    """Token-only input: first column is the surface, no gold tags. Surfaces
    and ids are NFC-normalized as in ``parse_conll``."""
    if not text.strip():
        raise ParseError("empty input")
    sentences = []
    pending_id = None
    tokens = []
    generated = 0

    def flush():
        nonlocal pending_id, tokens, generated
        if tokens:
            sid = pending_id if pending_id is not None else f"s{generated}"
            generated += pending_id is None
            sentences.append(Sentence(sid, tuple(tokens)))
        pending_id = None
        tokens = []

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            flush()
            continue
        if line.startswith("#"):
            pending_id = _normalize(line[1:].strip()) or None
            continue
        try:
            tokens.append(Token(_normalize(line.split()[0])))
        except CorpusError as exc:
            raise ParseError(str(exc), lineno) from exc
    flush()
    if not sentences:
        raise ParseError("input contains no sentences")
    return LabeledCorpus(sentences, TagSet(()), provenance=["unlabeled input"])


def cmd_stats(args):
    corpus = _parse(args.corpus, parse_conll, _columns(args))
    print(corpus_stats(corpus).render_table())
    return 0


def cmd_split(args):
    corpus = _parse(args.corpus, parse_conll, _columns(args))
    train_part, dev_part = split_corpus(corpus, args.train_fraction, args.seed)
    _write(args.train_out, write_conll(train_part))
    _write(args.dev_out, write_conll(dev_part))
    print(f"train {len(train_part)} sentences -> {args.train_out}")
    print(f"dev {len(dev_part)} sentences -> {args.dev_out}")
    return 0


def cmd_augment(args):
    plan = _parse(args.plan, parse_plan)
    corpora = {}
    backends = {}
    for source in plan.sources:
        corpora[source.name] = _parse(source.path, parse_conll)
        if source.lexicon_path is not None:
            backends[source.name] = OfflineLexiconBackend(
                _parse(source.lexicon_path, parse_lexicon, name=source.lexicon_path)
            )
    result, manifest = run_plan(plan, corpora, backends)
    _write(args.out, write_conll(result))
    manifest_path = args.manifest or args.out + ".manifest"
    _write(manifest_path, manifest)
    print(manifest, end="")
    print(f"wrote {len(result)} sentences -> {args.out}")
    return 0


def cmd_train(args):
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
    model, history = train(model, train_corpus, dev_corpus, config,
                           train_contextual=contextual, dev_contextual=contextual)
    save_model(model, args.model_out)
    history_path = args.history_out or args.model_out + ".history"
    _write(history_path, history.render())
    best = history.epochs[history.best_epoch - 1]
    print(
        f"trained {history.stopped_epoch} epochs, best epoch {history.best_epoch} "
        f"(eval_loss {best.eval_loss:.6f}, eval_macro_f1 {best.eval_macro_f1:.4f})"
    )
    print(f"model -> {args.model_out}")
    print(f"history -> {history_path}")
    return 0


def cmd_predict(args):
    model = load_model(args.model)
    if args.no_gold:
        corpus = _parse(args.corpus, _parse_unlabeled)
    else:
        corpus = _parse(args.corpus, parse_conll, _columns(args))
    if model.config.use_pos:
        if any(t.pos is None for s in corpus.sentences for t in s.tokens):
            raise ModelError(
                "model uses POS features but the corpus has no POS column "
                "(pass --pos-col)"
            )
    contextual = None
    if args.contextual_vectors:
        contextual = _parse(args.contextual_vectors, parse_contextual_vectors)
    predictions = predict_corpus(model, corpus, contextual)
    _write(args.out, write_prediction_file(corpus, predictions,
                                           include_gold=not args.no_gold))
    print(f"wrote predictions for {len(corpus)} sentences -> {args.out}")
    return 0


def cmd_ensemble(args):
    if len(args.predictions) < 2:
        raise EnsembleError(
            f"need at least 2 prediction files, got {len(args.predictions)}"
        )
    reference = _parse(args.reference, parse_conll, _columns(args))
    sets = []
    for path in args.predictions:
        data = _parse(path, read_prediction_file)
        model_id = os.path.basename(path)
        for sid, surfaces, sent in zip(data.sentence_ids, data.surfaces,
                                       reference.sentences):
            if surfaces != sent.surfaces:
                raise EnsembleError(
                    f"model {model_id!r}: sentence {sid!r} tokens do not match "
                    "the reference corpus"
                )
        sets.append(data.to_set(model_id))
    config = VoteConfig(args.threshold, args.fallback, args.majority_of)
    labels, diagnostics = ensemble_corpus(sets, reference, config)
    from .tagger import TokenPrediction

    predictions = [
        [TokenPrediction(d.label, d.score) for d in diags]
        for _, diags in diagnostics.per_sentence
    ]
    _write(args.out, write_prediction_file(reference, predictions))
    diag_path = args.diagnostics or args.out + ".diag"
    _write(diag_path, diagnostics.render())
    print(
        f"ensembled {len(sets)} models over {len(reference)} sentences "
        f"({diagnostics.n_fallbacks} non-majority tokens) -> {args.out}"
    )
    return 0


def cmd_evaluate(args):
    gold = _parse(args.gold, parse_conll, _columns(args))
    data = _parse(args.predictions, read_prediction_file)
    if len(data.surfaces) != len(gold.sentences):
        raise CorpusError(
            f"prediction file has {len(data.surfaces)} sentences, "
            f"gold has {len(gold.sentences)}"
        )
    for surfaces, sent in zip(data.surfaces, gold.sentences):
        if surfaces != sent.surfaces:
            raise CorpusError(
                f"sentence {sent.id!r}: prediction tokens do not match gold"
            )
    labels = [[p.label for p in preds] for preds in data.predictions]
    report = evaluate(gold, labels)
    print(report.render_table())
    print()
    print(report.render_kv())
    return 0


def _gradcheck_cases(config, seed):
    """(name, loss_fn factory, tolerance) triples for every enabled piece.
    Each case owns a fresh store so checks stay independent."""
    cases = []

    def embedding_case():
        store = ParamStore()
        rng = np.random.default_rng(seed)
        emb = EmbeddingTable(store, "emb", 6, 3, rng)
        r = rng.normal(size=(4, 3))
        idx = [0, 5, 2, 5]

        def loss_fn(grad=False):
            out, cache = emb.lookup(idx)
            if grad:
                emb.backward(r, cache)
            return float(np.sum(out * r))

        return loss_fn, store

    cases.append(("embedding", embedding_case, 1e-4))

    if config.use_char_cnn:
        def char_case():
            store = ParamStore()
            rng = np.random.default_rng(seed + 1)
            cnn = CharCNN(store, "char", 8, 3, config.char_kernel, 4, rng)
            r = rng.normal(size=4)
            idx = list(rng.integers(0, 8, size=config.char_kernel + 3))

            def loss_fn(grad=False):
                out, cache = cnn.forward(idx)
                if grad:
                    cnn.backward(r, cache)
                return float(np.sum(out * r))

            return loss_fn, store

        cases.append(("char_cnn", char_case, 1e-4))

    def bilstm_case():
        store = ParamStore()
        rng = np.random.default_rng(seed + 2)
        rnn = BiLstm(store, "lstm", 3, 2, config.lstm_layers, rng)
        x = rng.normal(size=(3, 3))
        r = rng.normal(size=(3, 4))

        def loss_fn(grad=False):
            y, cache = rnn.forward(x)
            if grad:
                rnn.backward(r, cache)
            return float(np.sum(y * r))

        return loss_fn, store

    cases.append(("bilstm", bilstm_case, 1e-4))

    if config.use_mha:
        def mha_case():
            store = ParamStore()
            rng = np.random.default_rng(seed + 3)
            dim = 2 * config.mha_heads
            mha = MultiHeadAttention(store, "mha", dim, config.mha_heads, rng)
            x = rng.normal(size=(3, dim))
            r = rng.normal(size=(3, dim))

            def loss_fn(grad=False):
                y, cache = mha.forward(x)
                if grad:
                    mha.backward(r, cache)
                return float(np.sum(y * r))

            return loss_fn, store

        cases.append(("mha", mha_case, 1e-4))

    def linear_case():
        store = ParamStore()
        rng = np.random.default_rng(seed + 4)
        lin = Linear(store, "lin", 3, 4, rng)
        x = rng.normal(size=(5, 3))
        r = rng.normal(size=(5, 4))

        def loss_fn(grad=False):
            y, cache = lin.forward(x)
            if grad:
                lin.backward(r, cache)
            return float(np.sum(y * r))

        return loss_fn, store

    cases.append(("linear", linear_case, 1e-6))

    if config.use_crf:
        def crf_case():
            store = ParamStore()
            rng = np.random.default_rng(seed + 5)
            store.add("emissions", rng.normal(size=(3, 3)))
            store.add("matrix", rng.normal(size=(3, 3)))
            store.add("start", rng.normal(size=3))
            store.add("end", rng.normal(size=3))
            gold = list(rng.integers(0, 3, size=3))

            def loss_fn(grad=False):
                trans = Transitions(store["matrix"], store["start"], store["end"])
                loss, d_e, d_m, d_s, d_end = crf_nll_grad(
                    store["emissions"], trans, gold
                )
                if grad:
                    store.accumulate("emissions", d_e)
                    store.accumulate("matrix", d_m)
                    store.accumulate("start", d_s)
                    store.accumulate("end", d_end)
                return loss

            return loss_fn, store

        cases.append(("crf_nll", crf_case, 1e-6))

    return cases


def cmd_gradcheck(args):
    config = _parse(args.config, parse_config)
    failures = 0
    for name, factory, tol in _gradcheck_cases(config, args.seed):
        loss_fn, store = factory()
        report = gradient_check(loss_fn, store)
        verdict = "PASS" if report.passed(tol) else "FAIL"
        if verdict == "FAIL":
            failures += 1
        print(f"{name:<10} max_rel_err {report.max_rel_err:.3e}  tol {tol:.0e}  {verdict}")
    if failures:
        print(f"{failures} gradient check(s) failed", file=sys.stderr)
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
    p.add_argument("--fallback", default="highest-total-score")
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


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
