"""Acceptance gate: every primary requirement checked at its stated
tolerance, one pass/fail line per criterion in the terminal summary.
"""

import contextlib
import time

import numpy as np
import pytest

from seqtag import cli
from seqtag.corpus import (
    LabeledCorpus,
    Sentence,
    TagSet,
    extract_chunks,
    repair_bio,
    split_corpus,
    write_conll,
)
from seqtag.crf import Transitions, crf_marginals, crf_nll_grad, log_partition, path_score, viterbi
from seqtag.ensemble import PredictionSet, ensemble_corpus, majority_vote
from seqtag.evaluation import evaluate
from seqtag.augment import Lexicon, OfflineLexiconBackend, combine, token_translate
from seqtag.nn import (
    BiLstm,
    CharCNN,
    EmbeddingTable,
    Linear,
    MultiHeadAttention,
    ParamStore,
    RowLayout,
    gradient_check,
)
from seqtag.tagger import (
    EarlyStopper,
    SentencePredictions,
    TaggerConfig,
    TokenPrediction,
    build_model,
    train,
)

from helpers import brute_chunks, brute_prf, brute_vote, enumerate_crf, random_bio_tags, random_corpus


CRITERION_LINES = []


@contextlib.contextmanager
def criterion(name):
    """Record one PASS/FAIL line; the conftest summary hook prints them."""
    try:
        yield
    except BaseException:
        CRITERION_LINES.append(f"FAIL [PRIMARY] {name}")
        raise
    CRITERION_LINES.append(f"PASS [PRIMARY] {name}")


def test_crf_oracle_equivalence():
    with criterion("CRF oracle equivalence: 500 instances vs enumeration, 1e-9, <10s"):
        rng = np.random.default_rng(42)
        started = time.perf_counter()
        for instance in range(500):
            n = int(rng.integers(1, 5))
            n_tags = int(rng.integers(1, 5))
            emissions = rng.normal(scale=2.0, size=(n, n_tags))
            trans = Transitions(
                rng.normal(scale=1.5, size=(n_tags, n_tags)),
                rng.normal(size=n_tags),
                rng.normal(size=n_tags),
            )
            log_z, best_path, best_score, marginals, _ = enumerate_crf(
                emissions, trans.matrix, trans.start, trans.end
            )
            one = RowLayout([n])
            assert log_partition(emissions, trans, one)[0] == pytest.approx(log_z, abs=1e-9)
            path, (score,) = viterbi(emissions, trans, one)
            assert score == pytest.approx(best_score, abs=1e-9)
            assert list(path) == best_path
            assert path_score(emissions, trans, path, one)[0] == pytest.approx(
                score, abs=1e-9
            )
            got = crf_marginals(emissions, trans, one)
            np.testing.assert_allclose(got, marginals, atol=1e-9)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"CRF oracle sweep took {elapsed:.1f}s"


def _layer_gradient_cases(seed):
    """One small randomized instance per layer, each with its own store.
    Returns (name, loss_fn, store, tolerance) tuples."""
    cases = []
    rng = np.random.default_rng(seed)

    store = ParamStore.draw(EmbeddingTable.spec("emb", 5, 3), rng)
    emb = EmbeddingTable(store, "emb")
    idx = [int(i) for i in rng.integers(0, 5, size=4)]
    r = rng.normal(size=(4, 3))

    def emb_loss(grad=False, emb=emb, idx=idx, r=r):
        out, cache = emb.lookup(idx)
        if grad:
            emb.backward(r, cache)
        return float(np.sum(out * r))

    cases.append(("embedding", emb_loss, store, 1e-4))

    store = ParamStore.draw(CharCNN.spec("char", 6, 3, 2, 3), rng)
    cnn = CharCNN(store, "char")
    cidx = [int(i) for i in rng.integers(0, 6, size=5)]
    rc = rng.normal(size=3)

    def cnn_loss(grad=False, cnn=cnn, cidx=cidx, rc=rc):
        out, cache = cnn.forward([cidx], [len(cidx)])
        if grad:
            cnn.backward(rc[None], cache)
        return float(np.sum(out[0] * rc))

    cases.append(("char-cnn", cnn_loss, store, 1e-4))

    store = ParamStore.draw(BiLstm.spec("lstm", 3, 2, 1), rng)
    rnn = BiLstm(store, "lstm")
    x = rng.normal(size=(4, 3))
    rl = rng.normal(size=(4, 4))

    def rnn_loss(grad=False, rnn=rnn, x=x, rl=rl):
        y, cache = rnn.forward(x, RowLayout([len(x)]))
        if grad:
            rnn.backward(rl, cache)
        return float(np.sum(y * rl))

    cases.append(("bilstm", rnn_loss, store, 1e-4))

    store = ParamStore.draw(MultiHeadAttention.spec("mha", 4), rng)
    mha = MultiHeadAttention(store, "mha", 2)
    xm = rng.normal(size=(3, 4))
    rm = rng.normal(size=(3, 4))

    def mha_loss(grad=False, mha=mha, xm=xm, rm=rm):
        y, cache = mha.forward(xm, RowLayout([len(xm)]))
        if grad:
            mha.backward(rm, cache)
        return float(np.sum(y * rm))

    cases.append(("mha", mha_loss, store, 1e-4))

    store = ParamStore.draw(Linear.spec("lin", 3, 4), rng)
    lin = Linear(store, "lin")
    xl = rng.normal(size=(5, 3))
    rlin = rng.normal(size=(5, 4))

    def lin_loss(grad=False, lin=lin, xl=xl, rlin=rlin):
        y, cache = lin.forward(xl)
        if grad:
            lin.backward(rlin, cache)
        return float(np.sum(y * rlin))

    cases.append(("linear", lin_loss, store, 1e-6))

    store = ParamStore()
    n, n_tags = int(rng.integers(2, 5)), 3
    store.add("emissions", rng.normal(size=(n, n_tags)))
    store.add("matrix", rng.normal(size=(n_tags, n_tags)))
    store.add("start", rng.normal(size=n_tags))
    store.add("end", rng.normal(size=n_tags))
    gold = [int(g) for g in rng.integers(0, n_tags, size=n)]

    def crf_loss(grad=False, store=store, gold=gold):
        trans = Transitions(store["matrix"], store["start"], store["end"])
        (loss,), d_e, d_m, d_s, d_end = crf_nll_grad(store["emissions"], trans, gold,
                                                     RowLayout([len(gold)]))
        if grad:
            store.accumulate("emissions", d_e)
            store.accumulate("matrix", d_m)
            store.accumulate("start", d_s)
            store.accumulate("end", d_end)
        return loss

    cases.append(("crf-nll", crf_loss, store, 1e-6))
    return cases


def test_gradient_suite():
    with criterion("Gradient suite: all layers + CRF NLL, 20 seeds, 1e-4/1e-6, <60s"):
        started = time.perf_counter()
        for seed in range(20):
            for name, loss_fn, store, tol in _layer_gradient_cases(seed):
                report = gradient_check(loss_fn, store)
                assert report.passed(tol), (
                    f"seed {seed} {name}: max rel err {report.max_rel_err:.3e} "
                    f"exceeds {tol:.0e}\n{report.render()}"
                )
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


def _overfit_corpus(rng, n_sentences=32):
    """Synthetic corpus over 3 entity classes where the surface alone
    determines the tag, including two-token entities."""
    classes = ("PER", "LOC", "GRP")
    b_words = {c: [f"{c.lower()}{i}" for i in range(3)] for c in classes}
    i_words = {c: [f"{c.lower()}x{i}" for i in range(2)] for c in classes}
    fillers = ["the", "a", "saw", "met", "near", "old", "ran", "with"]
    sentences = []
    for si in range(n_sentences):
        tokens = []
        length = int(rng.integers(4, 9))
        while len(tokens) < length:
            roll = rng.random()
            if roll < 0.55:
                tokens.append((fillers[rng.integers(len(fillers))], "O"))
            else:
                cls = classes[rng.integers(3)]
                tokens.append(
                    (b_words[cls][rng.integers(3)], f"B-{cls}")
                )
                if roll > 0.8 and len(tokens) < length:
                    tokens.append(
                        (i_words[cls][rng.integers(2)], f"I-{cls}")
                    )
        sentences.append(Sentence(f"s{si}", *zip(*tokens)))
    return LabeledCorpus(sentences, TagSet(classes))


def test_overfit_small_tagger():
    with criterion("Overfit: 16/16/1-layer CRF tagger, lr 1e-3, train F1 >= 0.99 "
                   "within 300 epochs, <60s"):
        rng = np.random.default_rng(42)
        corpus = _overfit_corpus(rng)
        config = TaggerConfig(
            word_dim=16, hidden=16, lstm_layers=1, use_crf=True,
            learning_rate=1e-3, dropout=0.0, batch_size=4,
            max_epochs=300, patience=40, early_stop_metric="eval_f1", seed=42,
        )
        started = time.perf_counter()
        model = build_model(config, corpus)
        model, history = train(model, corpus, corpus)
        elapsed = time.perf_counter() - started
        best_f1 = max(e.eval_macro_f1 for e in history.epochs)
        reach = next(
            e.epoch for e in history.epochs if e.eval_macro_f1 >= 0.99
        )
        assert best_f1 >= 0.99, f"best train macro F1 {best_f1:.4f}"
        assert reach <= 300
        assert elapsed < 60.0, f"overfit run took {elapsed:.1f}s"


def test_early_stopping_contract():
    with criterion("Early stopping: patience-of-5 rule on scripted sequences"):
        # worked example: strict improvement only at epochs 1 and 2, then
        # five straight non-improving epochs
        losses = [1.0, 0.9, 0.95, 0.96, 0.97, 0.98, 0.99]
        stopper = EarlyStopper(patience=5, mode="min")
        stop_epoch = None
        for epoch, value in enumerate(losses, start=1):
            if stopper.update(epoch, value):
                stop_epoch = epoch
                break
        assert stop_epoch == 7
        assert stopper.best_epoch == 2

        # ties never count as improvement
        stopper = EarlyStopper(patience=5, mode="min")
        stops = [stopper.update(e, 0.5) for e in range(1, 7)]
        assert stops == [False, False, False, False, False, True]
        assert stopper.best_epoch == 1

        # a late improvement resets the countdown
        values = [0.30, 0.29, 0.31, 0.31, 0.31, 0.31, 0.25, 0.31, 0.31,
                  0.31, 0.31, 0.31]
        stopper = EarlyStopper(patience=5, mode="min")
        stop_epoch = None
        for epoch, value in enumerate(values, start=1):
            if stopper.update(epoch, value):
                stop_epoch = epoch
                break
        assert stop_epoch == 12
        assert stopper.best_epoch == 7

        # max mode mirrors min mode for scores
        stopper = EarlyStopper(patience=5, mode="max")
        scores = [0.1, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4]
        stops = [stopper.update(e, v) for e, v in enumerate(scores, start=1)]
        assert stops == [False] * 6 + [True]
        assert stopper.best_epoch == 2


def test_ensemble_oracle():
    with criterion("Ensemble oracle: 8 sets x 50 sentences vs brute force; "
                   "1000 unanimity/permutation cases"):
        rng = np.random.default_rng(42)
        corpus = random_corpus(rng, 50, min_len=1, max_len=10)
        classes = ["PER", "LOC", "CW"]
        sets = []
        for m in range(8):
            preds = []
            for sent in corpus.sentences:
                tags = random_bio_tags(rng, len(sent), classes)
                preds.append(SentencePredictions(
                    tuple(tags), [float(s) for s in rng.random(len(sent))]))
            sets.append(PredictionSet(f"m{m}", preds, [s.id for s in corpus.sentences],
                                      [s.surfaces for s in corpus.sentences]))
        labels, _ = ensemble_corpus(sets, corpus)
        for si, sent in enumerate(corpus.sentences):
            voted = []
            for ti in range(len(sent)):
                vs = [s.predictions[si][ti] for s in sets]
                voted.append(brute_vote(
                    [v.label for v in vs], [v.score for v in vs], 0.5, len(sets)
                ))
            assert labels[si] == repair_bio(voted), f"sentence {sent.id}"

        label_pool = ["O", "B-PER", "I-PER", "B-LOC"]
        for case in range(1000):
            k = int(rng.integers(2, 7))
            if case % 2 == 0:
                # unanimity: identical labels, surviving scores
                lab = label_pool[rng.integers(len(label_pool))]
                votes = [
                    TokenPrediction(lab, float(0.5 + 0.5 * rng.random()))
                    for _ in range(k)
                ]
                assert majority_vote(votes) == lab
            else:
                # permutation invariance on arbitrary votes
                votes = [
                    TokenPrediction(
                        label_pool[rng.integers(len(label_pool))],
                        float(rng.random()),
                    )
                    for _ in range(k)
                ]
                base = majority_vote(votes)
                for _ in range(3):
                    perm = [votes[i] for i in rng.permutation(k)]
                    assert majority_vote(perm) == base


def test_eval_oracle():
    with criterion("Eval oracle: 200 random corpora vs set-intersection scorer; "
                   "hand case macro F1 0.5"):
        rng = np.random.default_rng(42)
        for trial in range(200):
            classes = ["PER", "LOC", "CW"][: int(rng.integers(1, 4))]
            gold = random_corpus(rng, int(rng.integers(1, 9)), classes)
            preds = [random_bio_tags(rng, len(s), classes) for s in gold.sentences]
            report = evaluate(gold, preds)
            expected, _ = brute_prf(
                [brute_chunks(s.gold_tags) for s in gold.sentences],
                [brute_chunks(t) for t in preds],
            )
            assert set(report.per_class) == set(expected)
            for cls, (p, r, f) in expected.items():
                m = report.per_class[cls]
                assert (m.precision, m.recall, m.f1) == (p, r, f)
            # same summation order as the scorer: sorted class names
            macro = (
                sum(expected[c][2] for c in sorted(expected)) / len(expected)
                if expected else 0.0
            )
            assert report.macro_f1 == macro

        gold = LabeledCorpus(
            [Sentence("h0",
                      ("mehta", "rahman", "visited", "dhaka"),
                      ("B-PER", "I-PER", "O", "B-LOC"))],
            TagSet(["PER", "LOC"]),
        )
        report = evaluate(gold, [["B-PER", "I-PER", "O", "O"]])
        assert report.macro_f1 == 0.5


def test_augmentation_arithmetic():
    with criterion("Augmentation arithmetic: equal-size combine doubles; "
                   "translation preserves chunks on 100 corpora"):
        rng = np.random.default_rng(42)
        a = random_corpus(rng, 153, prefix="a")
        b = random_corpus(rng, 153, prefix="b")
        doubled = combine([a, b], "doubled")
        assert len(doubled) == 306
        assert doubled.n_tokens == a.n_tokens + b.n_tokens
        tripled = combine([doubled, random_corpus(rng, 153, prefix="c")], "tripled")
        assert len(tripled) == 459

        mapping = {f"w{i}": f"t{i}" for i in range(0, 30, 3)}
        backend = OfflineLexiconBackend(Lexicon("px", mapping))
        for trial in range(100):
            corpus = random_corpus(rng, int(rng.integers(1, 7)))
            fallback = "keep" if trial % 2 == 0 else "mark-unknown"
            translated = token_translate(corpus, backend, fallback)
            assert len(translated) == len(corpus)
            for before, after in zip(corpus.sentences, translated.sentences):
                assert extract_chunks(after.gold_tags) == extract_chunks(
                    before.gold_tags
                )


def _pipeline_run(root, corpus_text, config_text):
    """split -> train -> predict -> evaluate entirely through the CLI,
    reports captured to files. Returns {filename: bytes}."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "corpus.conll").write_text(corpus_text, encoding="utf-8")
    (root / "tagger.cfg").write_text(config_text, encoding="utf-8")
    import io
    from contextlib import redirect_stdout

    def call(*argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main([str(a) for a in argv])
        assert code == 0, f"{argv} exited {code}: {buf.getvalue()}"
        return buf.getvalue()

    call("split", root / "corpus.conll", "--seed", "42",
         "--train-out", root / "train.conll", "--dev-out", root / "dev.conll")
    call("train", root / "tagger.cfg", root / "train.conll",
         root / "dev.conll", root / "model.bin")
    call("predict", root / "model.bin", root / "dev.conll", root / "preds.txt")
    report = call("evaluate", root / "dev.conll", root / "preds.txt")
    (root / "report.txt").write_text(report, encoding="utf-8")
    stats = call("stats", root / "corpus.conll")
    (root / "stats.txt").write_text(stats, encoding="utf-8")
    return {
        name: (root / name).read_bytes()
        for name in ("train.conll", "dev.conll", "model.bin",
                     "model.bin.history", "preds.txt", "report.txt", "stats.txt")
    }


def test_pipeline_determinism(tmp_path):
    with criterion("Determinism: two seed-42 pipeline runs are byte-identical"):
        rng = np.random.default_rng(7)
        corpus_text = write_conll(random_corpus(rng, 20, min_len=2, max_len=6))
        config_text = (
            "word_dim = 8\nhidden = 8\nlstm_layers = 1\ndropout = 0.1\n"
            "batch_size = 4\nmax_epochs = 6\npatience = 3\n"
            "learning_rate = 0.01\nseed = 42\n"
        )
        first = _pipeline_run(tmp_path / "run1", corpus_text, config_text)
        second = _pipeline_run(tmp_path / "run2", corpus_text, config_text)
        assert set(first) == set(second)
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"


def test_split_arithmetic():
    with criterion("Split arithmetic: 15300 sentences at 0.7 -> 10710/4590"):
        rng = np.random.default_rng(42)
        corpus = random_corpus(rng, 15300, classes=("PER",), min_len=1, max_len=3)
        train_part, dev_part = split_corpus(corpus, 0.7, seed=42)
        assert len(train_part) == 10710
        assert len(dev_part) == 4590
        train_ids = {s.id for s in train_part.sentences}
        dev_ids = {s.id for s in dev_part.sentences}
        assert train_ids.isdisjoint(dev_ids)
        assert len(train_ids | dev_ids) == 15300
