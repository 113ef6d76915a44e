"""Batch equivalence: one batched call must match the per-sentence
(B = 1) calls it replaces, for every layer, the CRF and the whole tagger
loss, outputs and every parameter gradient alike. Layers take a batch's
sentence-major rows, so each sentence's output and input-gradient rows
must equal its lone call's; so must the CRF's, which takes the rows too.
The char-CNN's padded batch of words is checked against per-word calls and a
textbook per-word oracle.

Summation order differs between a batch and its sentences, so values are
compared to 1e-10; Viterbi paths and predicted labels must be identical.
"""

import numpy as np
import pytest

from seqtag.corpus import LabeledCorpus, Sentence, TagSet
from seqtag.crf import Transitions, crf_marginals, crf_nll_grad, log_partition, viterbi
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
from seqtag import tagger as tagger_module
from seqtag.tagger import (
    TaggerConfig,
    _backward,
    _Encoding,
    _evaluate_dev,
    _forward,
    _sentence_loss,
    _train_batch,
    build_model,
    predict,
    predict_corpus,
)

from helpers import random_bio_tags, random_corpus, reference_char_cnn

TOL = 1e-10


def length_cases():
    """Ragged batches: B 1-6, lengths 1-9, with single-token sentences and
    all-equal lengths among them."""
    rng = np.random.default_rng(2024)
    cases = [[1], [1, 1, 1], [5, 5, 5, 5], [9, 1, 4], [1, 9], [3, 3, 7, 1, 2, 8]]
    for _ in range(6):
        cases.append([int(n) for n in rng.integers(1, 10, size=rng.integers(1, 7))])
    return cases


CASES = length_cases()


def padded(rng, lengths, dim):
    """Random (B, n, dim) batch; padding holds garbage."""
    return rng.normal(size=(len(lengths), max(lengths), dim))


def sentence_rows(lengths):
    """Each sentence's slice of a batch's sentence-major rows."""
    return [slice(start, start + n) for start, n in zip(np.cumsum(lengths) - lengths, lengths)]


def grads(store):
    return {name: store.grad(name).copy() for name in store.names()}


def assert_grads_close(got, want):
    assert got.keys() == want.keys()
    for name in got:
        np.testing.assert_allclose(got[name], want[name], rtol=0, atol=TOL, err_msg=name)


def check_sequence_layer(layer, store, lengths, in_dim, out_dim, rng):
    """Batched forward/backward of ``layer`` on random rows against
    per-sentence calls on each sentence's rows as a batch of one."""
    x = rng.normal(size=(sum(lengths), in_dim))
    d_out = rng.normal(size=(sum(lengths), out_dim))
    y, cache = layer.forward(x, RowLayout(lengths))
    d_x = layer.backward(d_out, cache)
    batched = grads(store)
    store.zero_grads()
    for rows, n in zip(sentence_rows(lengths), lengths):
        y_b, cache_b = layer.forward(x[rows], RowLayout([n]))
        np.testing.assert_allclose(y[rows], y_b, rtol=0, atol=TOL)
        d_x_b = layer.backward(d_out[rows], cache_b)
        np.testing.assert_allclose(d_x[rows], d_x_b, rtol=0, atol=TOL)
    assert_grads_close(batched, grads(store))


@pytest.mark.parametrize("lengths", CASES)
def test_row_layout_scatter_and_gather(lengths):
    # the grid puts row r of sentence b at (b, t), the packed order visits
    # every row once, and a scatter then gather is the identity
    layout = RowLayout(lengths)
    rows = np.arange(sum(lengths))
    grid = layout.scatter(rows)
    for b, (span, n) in enumerate(zip(sentence_rows(lengths), lengths)):
        assert np.array_equal(grid[b, :n], rows[span]) and not grid[b, n:].any()
    assert np.array_equal(layout.gather(grid), rows)
    assert np.array_equal(np.sort(layout.packed), rows)
    assert np.array_equal(layout.unpack(rows[layout.packed]), rows)
    # the first step's packed rows are each sentence's first row, and
    # ``order`` is each sentence's place among them
    assert np.array_equal(layout.packed[layout.order], layout.offsets)


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("lengths", CASES)
def test_bilstm_batch_matches_sentences(layers, lengths):
    rng = np.random.default_rng(len(lengths) * 10 + layers)
    store = ParamStore.draw(BiLstm.spec("r", input_dim=3, hidden=4, layers=layers), rng)
    rnn = BiLstm(store, "r")
    check_sequence_layer(rnn, store, lengths, 3, 8, rng)


@pytest.mark.parametrize("lengths", CASES)
def test_masked_attention_batch_matches_sentences(lengths):
    rng = np.random.default_rng(len(lengths))
    store = ParamStore.draw(MultiHeadAttention.spec("a", dim=6), rng)
    mha = MultiHeadAttention(store, "a", heads=3)
    check_sequence_layer(mha, store, lengths, 6, 6, rng)


@pytest.mark.parametrize("lengths", CASES)
def test_linear_and_embedding_batch_match_sentences(lengths):
    rng = np.random.default_rng(sum(lengths))
    store = ParamStore.draw(EmbeddingTable.spec("e", 7, 3) + Linear.spec("l", 3, 5), rng)
    emb = EmbeddingTable(store, "e")
    lin = Linear(store, "l")
    idx = rng.integers(0, 7, size=sum(lengths))
    d_y = rng.normal(size=(sum(lengths), 5))
    rows, emb_cache = emb.lookup(idx)
    y, lin_cache = lin.forward(rows)
    emb.backward(lin.backward(d_y, lin_cache), emb_cache)
    batched = grads(store)
    store.zero_grads()
    for span in sentence_rows(lengths):
        rows_b, emb_cache_b = emb.lookup(idx[span])
        y_b, lin_cache_b = lin.forward(rows_b)
        np.testing.assert_allclose(y[span], y_b, rtol=0, atol=TOL)
        emb.backward(lin.backward(d_y[span], lin_cache_b), emb_cache_b)
    assert_grads_close(batched, grads(store))


@pytest.mark.parametrize("lengths", CASES)
def test_crf_batch_matches_sentences(lengths):
    rng = np.random.default_rng(max(lengths) * 7 + len(lengths))
    n_tags = 4
    trans = Transitions(rng.normal(size=(n_tags, n_tags)), rng.normal(size=n_tags),
                        rng.normal(size=n_tags))
    layout = RowLayout(lengths)
    emissions = layout.gather(padded(rng, lengths, n_tags) * 2.0)
    gold = layout.gather(rng.integers(0, n_tags, size=(len(lengths), max(lengths))))
    log_z = log_partition(emissions, trans, layout)
    marginals = crf_marginals(emissions, trans, layout)
    paths, scores = viterbi(emissions, trans, layout)
    loss, d_e, d_m, d_s, d_end = crf_nll_grad(emissions, trans, gold, layout)
    sums = [np.zeros((n_tags, n_tags)), np.zeros(n_tags), np.zeros(n_tags)]
    for b, (n, span) in enumerate(zip(lengths, sentence_rows(lengths))):
        e_b, one = emissions[span], RowLayout([n])
        assert log_z[b] == pytest.approx(log_partition(e_b, trans, one)[0], abs=TOL)
        np.testing.assert_allclose(marginals[span], crf_marginals(e_b, trans, one),
                                   rtol=0, atol=TOL)
        path_b, (score_b,) = viterbi(e_b, trans, one)
        np.testing.assert_array_equal(paths[span], path_b)
        assert scores[b] == pytest.approx(score_b, abs=TOL)
        (loss_b,), d_e_b, *d_trans = crf_nll_grad(e_b, trans, gold[span], one)
        assert loss[b] == pytest.approx(loss_b, abs=TOL)
        np.testing.assert_allclose(d_e[span], d_e_b, rtol=0, atol=TOL)
        for total, part in zip(sums, d_trans):
            total += part
    for got, want in zip((d_m, d_s, d_end), sums):
        np.testing.assert_allclose(got, want, rtol=0, atol=TOL)


def _feature_corpus(lengths, seed):
    rng = np.random.default_rng(seed)
    words = ["alice", "bob", "paris", "the", "saw", "ran", "x"]
    pos = ["NN", "VB", "DT"]
    sentences = []
    for i, n in enumerate(lengths):
        tags = random_bio_tags(rng, n, ["PER", "LOC"])
        surfaces, pos_tags = zip(*[
            (words[rng.integers(len(words))] * int(rng.integers(1, 3)),
             pos[rng.integers(len(pos))])
            for _ in tags
        ])
        sentences.append(Sentence(f"s{i}", surfaces, tuple(tags), pos_tags))
    corpus = LabeledCorpus(sentences, TagSet(["PER", "LOC"]))
    ctx = {(s.id, t): rng.normal(size=3) for s in sentences for t in range(len(s))}
    return corpus, ctx


def test_encoded_batch_matches_vocabulary_lookups():
    # a batch gathered from a corpus encoding holds, token by token in
    # batch order, what the vocabularies give (0 for an unknown item)
    seen, seen_ctx = _feature_corpus([2, 3], seed=1)
    corpus, ctx = _feature_corpus([4, 1, 6, 2, 5], seed=2)
    config = TaggerConfig(word_dim=4, use_char_cnn=True, char_dim=3, char_kernel=2,
                          char_filters=3, use_pos=True, pos_dim=2,
                          use_contextual_slot=True, hidden=4, seed=3)
    model = build_model(config, seen, contextual_vectors=seen_ctx)
    sents = [corpus.sentences[i] for i in (3, 0, 4)]
    batch = _Encoding(model, corpus.sentences, ctx, gold=True).batch([3, 0, 4])
    surfaces = [w for s in sents for w in s.surfaces]
    assert list(batch.layout.lengths) == [len(s) for s in sents]
    assert batch.words.tolist() == [model.word_vocab.get(w, 0) for w in surfaces]
    assert 0 in batch.words.tolist()
    assert batch.pos.tolist() == [model.pos_vocab.get(p, 0) for s in sents for p in s.pos]
    assert batch.char_lengths.tolist() == [len(w) for w in surfaces]
    for row, w in zip(batch.chars, surfaces):
        assert row[:len(w)].tolist() == [model.char_vocab.get(ch, 0) for ch in w]
    np.testing.assert_array_equal(
        batch.contextual, [ctx[s.id, t] for s in sents for t in range(len(s))])
    assert batch.gold.tolist() == [model.tagset.index(t) for s in sents for t in s.gold_tags]


@pytest.mark.parametrize("use_crf", [True, False])
@pytest.mark.parametrize("lengths", CASES[:8])
def test_tagger_loss_batch_matches_sentences(use_crf, lengths):
    corpus, ctx = _feature_corpus(lengths, seed=len(lengths) + use_crf)
    config = TaggerConfig(word_dim=4, use_char_cnn=True, char_dim=3, char_kernel=2,
                          char_filters=3, use_pos=True, pos_dim=2,
                          use_contextual_slot=True, use_mha=True, mha_heads=2,
                          use_crf=use_crf, lstm_layers=2, hidden=4, dropout=0.0, seed=3)
    model = build_model(config, corpus, contextual_vectors=ctx)
    rng = np.random.default_rng(0)
    for name in ("crf.matrix", "crf.start", "crf.end"):
        if name in model.store:
            model.store[name][...] = rng.normal(size=model.store[name].shape)
    sentences = corpus.sentences
    weight = 1.0 / len(sentences)
    encoding = _Encoding(model, sentences, ctx, gold=True)

    batch = encoding.batch()
    rows, cache = _forward(model, batch, "train", None)
    assert list(batch.layout.lengths) == lengths
    losses, d_rows = _sentence_loss(model, rows, batch.layout, batch.gold, weight, True)
    _backward(model, d_rows, cache)
    batched = grads(model.store)
    model.store.zero_grads()
    for b, at in enumerate(sentence_rows(lengths)):
        one = encoding.batch([b])
        rows_b, cache_b = _forward(model, one, "train", None)
        np.testing.assert_allclose(rows[at], rows_b, rtol=0, atol=TOL)
        loss_b, d_b = _sentence_loss(model, rows_b, one.layout, one.gold, weight, True)
        assert losses[b] == pytest.approx(loss_b[0], abs=TOL)
        _backward(model, d_b, cache_b)
    assert_grads_close(batched, grads(model.store))


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("use_crf", [True, False])
def test_eval_forward_keeps_no_cache_and_the_same_bits(use_crf, layers):
    # with dropout 0 an eval pass computes what a training pass does, every
    # feature and layer included, but hands back no cache
    corpus, ctx = _feature_corpus([3, 7, 1, 5], seed=layers)
    config = TaggerConfig(word_dim=4, use_char_cnn=True, char_dim=3, char_kernel=2,
                          char_filters=3, use_pos=True, pos_dim=2,
                          use_contextual_slot=True, use_mha=True, mha_heads=2,
                          use_crf=use_crf, lstm_layers=layers, hidden=4, dropout=0.0, seed=3)
    model = build_model(config, corpus, contextual_vectors=ctx)
    batch = _Encoding(model, corpus.sentences, ctx).batch()
    rows, cache = _forward(model, batch, "train", None)
    rows_eval, no_cache = _forward(model, batch, "eval", None)
    assert cache is not None and no_cache is None
    assert np.array_equal(rows_eval, rows)


def test_training_batch_draws_dropout_like_sentences():
    # one optimizer batch as one pass, dropout on: losses and the
    # gradient equal per-sentence passes that draw their masks from the
    # same rng stream in batch order (each pass weighs its sentence 1)
    rng = np.random.default_rng(8)
    corpus = random_corpus(rng, 6, min_len=1, max_len=9)
    model = build_model(TaggerConfig(word_dim=4, hidden=4, dropout=0.3, seed=2), corpus)
    encoding = _Encoding(model, corpus.sentences, gold=True)
    n = len(corpus.sentences)
    losses = _train_batch(model, encoding, np.arange(n), np.random.default_rng(7), 1)
    batched = grads(model.store)
    model.store.zero_grads()
    stream = np.random.default_rng(7)
    singles = [_train_batch(model, encoding, [i], stream, 1)[0] for i in range(n)]
    np.testing.assert_allclose(losses, singles, rtol=0, atol=TOL)
    summed = {name: g / n for name, g in grads(model.store).items()}
    assert_grads_close(batched, summed)


def _mixed_corpus_model(use_crf):
    """A length-diverse corpus, many short sentences and a long tail, so the
    length-sorted chunks mix sizes and a long sentence runs alone, and a
    2-layer model with confident, non-uniform predictions on it."""
    rng = np.random.default_rng(5)
    corpus = random_corpus(rng, 40, min_len=1, max_len=12)
    long_tail = random_corpus(rng, 4, min_len=60, max_len=300, prefix="long")
    corpus = LabeledCorpus(corpus.sentences + long_tail.sentences, corpus.tagset)
    config = TaggerConfig(word_dim=6, hidden=5, lstm_layers=2, use_crf=use_crf,
                          crf_constrain_bio=use_crf, seed=9)
    model = build_model(config, corpus)
    model.store["head.w"][...] *= 8.0
    return corpus, model


# chunk budgets: one sentence per chunk, the default, the whole corpus at once
BUDGETS = [1, tagger_module._CHUNK_POSITIONS, 10 ** 9]


@pytest.mark.parametrize("budget", [1, 64, tagger_module._CHUNK_POSITIONS, 10 ** 9])
def test_chunks_cover_each_sentence_once_within_the_budget(monkeypatch, budget):
    monkeypatch.setattr(tagger_module, "_CHUNK_POSITIONS", budget)
    rng = np.random.default_rng(budget)
    for _ in range(60):
        lengths = np.minimum(rng.lognormal(np.log(20), 1.0, size=rng.integers(0, 120)),
                             3000).astype(np.int64) + 1
        # the rows of a chunk, or with padded (attention) its (B, n) grid
        for padded in (False, True):
            chunks = tagger_module._chunks(lengths, padded)
            flat = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
            # every sentence once, longest first
            assert np.array_equal(np.sort(flat), np.arange(len(lengths)))
            assert np.all(np.diff(lengths[flat]) <= 0)

            def cost(chunk):
                return len(chunk) * lengths[chunk].max() if padded else lengths[chunk].sum()

            for chunk, after in zip(chunks, chunks[1:] + [None]):
                if len(chunk) > 1:
                    assert cost(chunk) <= budget
                # a chunk closes only on a sentence that would pass the budget
                if after is not None:
                    assert cost(np.append(chunk, after[0])) > budget
            for i in np.flatnonzero(lengths > budget):
                assert any(len(chunk) == 1 and chunk[0] == i for chunk in chunks)


def test_eval_passes_budget_rows_and_an_attention_models_grid(monkeypatch):
    # the packed layers allocate per row, so a chunk's rows are budgeted;
    # attention also scatters the chunk to its padded (B, n) grid, so an
    # attention model's chunks budget that grid
    corpus, _ = _mixed_corpus_model(True)
    monkeypatch.setattr(tagger_module, "_CHUNK_POSITIONS", 64)
    for use_mha in (False, True):
        model = build_model(TaggerConfig(word_dim=6, hidden=4, lstm_layers=1, use_mha=use_mha,
                                         mha_heads=2, seed=9), corpus)
        grids, rows = [], []
        for idx, batch, _ in tagger_module._eval_passes(model, _Encoding(model,
                                                                         corpus.sentences)):
            if len(idx) > 1:
                grids.append(len(idx) * batch.layout.n)
                rows.append(len(batch.layout.packed))
        assert max(rows) <= 64
        if use_mha:
            assert max(grids) <= 64
        else:
            # rows, not the padded grid, close a chunk
            assert max(grids) > 64
        batched = predict_corpus(model, corpus)
        for sent, preds in zip(corpus.sentences, batched):
            single = predict(model, sent)
            assert [p.label for p in preds] == [p.label for p in single]
            np.testing.assert_allclose([p.score for p in preds], [p.score for p in single],
                                       rtol=0, atol=1e-9)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("use_crf", [True, False])
def test_predict_corpus_matches_predict(monkeypatch, use_crf, budget):
    # a sentence's labels do not depend on its chunk companions, and its
    # scores move by at most 1e-9
    corpus, model = _mixed_corpus_model(use_crf)
    monkeypatch.setattr(tagger_module, "_CHUNK_POSITIONS", budget)
    n_chunks = len(tagger_module._chunks([len(s) for s in corpus.sentences]))
    assert n_chunks == {1: len(corpus), 10 ** 9: 1}.get(budget, n_chunks)
    batched = predict_corpus(model, corpus)
    for sent, preds in zip(corpus.sentences, batched):
        single = predict(model, sent)
        assert [p.label for p in preds] == [p.label for p in single]
        np.testing.assert_allclose([p.score for p in preds], [p.score for p in single],
                                   rtol=0, atol=1e-9)


@pytest.mark.parametrize("use_crf", [True, False])
def test_dev_evaluation_is_the_same_at_every_budget(monkeypatch, use_crf):
    corpus, model = _mixed_corpus_model(use_crf)
    encoding = _Encoding(model, corpus.sentences, gold=True)
    results = []
    for budget in BUDGETS:
        monkeypatch.setattr(tagger_module, "_CHUNK_POSITIONS", budget)
        results.append(_evaluate_dev(model, corpus, encoding))
    loss, f1 = results[0]
    for got in results[1:]:
        assert got[0].hex() == loss.hex() and got[1].hex() == f1.hex()


def _char_batch(rng, n_chars, word_lengths):
    """Char indices (W, L) right-padded to ``word_lengths`` with random
    valid indices, which must not leak into any word's features."""
    idx = rng.integers(0, n_chars, size=(len(word_lengths), max(word_lengths)))
    return idx, np.asarray(word_lengths)


def _char_cnn(seed, kernel=3, filters=5, char_dim=2, n_chars=9):
    store = ParamStore.draw(CharCNN.spec("c", n_chars, char_dim, kernel, filters),
                            np.random.default_rng(seed))
    cnn = CharCNN(store, "c")
    cnn.b[...] = np.random.default_rng(seed + 1).normal(scale=0.3, size=filters)
    return store, cnn


@pytest.mark.parametrize("kernel", [1, 2, 3])
def test_char_cnn_batch_matches_reference(kernel):
    # every word length from 1 to kernel + 4 in one call, shuffled
    store, cnn = _char_cnn(kernel, kernel=kernel)
    rng = np.random.default_rng(10 + kernel)
    word_lengths = [int(m) for m in rng.permutation(np.arange(1, kernel + 5))]
    idx, word_lengths = _char_batch(rng, 9, word_lengths)
    out, _ = cnn.forward(idx, word_lengths)
    assert out.shape == (len(idx), cnn.filters)
    for row, word, m in zip(out, idx, word_lengths):
        want, _ = reference_char_cnn(cnn.chars.table[word[:m]], cnn.w, cnn.b, kernel)
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cnn.forward(word[None, :m], [m])[0][0], want,
                                   rtol=0, atol=1e-12)


def test_char_cnn_batch_backward_matches_words():
    store, cnn = _char_cnn(4)
    rng = np.random.default_rng(4)
    idx, word_lengths = _char_batch(rng, 9, [1, 7, 3, 2, 5, 4, 6, 3])
    d_out = rng.normal(size=(len(idx), cnn.filters))
    _, cache = cnn.forward(idx, word_lengths)
    cnn.backward(d_out, cache)
    batched = grads(store)
    store.zero_grads()
    for word, m, d_word in zip(idx, word_lengths, d_out):
        _, cache = cnn.forward(word[None, :m], [m])
        cnn.backward(d_word[None], cache)
    assert_grads_close(batched, grads(store))


def test_char_cnn_tie_sends_gradient_to_first_window():
    # word 1 scores windows [1, 3, 3]: a tie at positions 1 and 2, from
    # chars 1 and 3; its padding (char 4) scores 10 but must never win
    store = ParamStore.draw(CharCNN.spec("c", 5, 1, 1, 1), np.random.default_rng(0))
    cnn = CharCNN(store, "c")
    cnn.chars.table[:, 0] = [0.0, 3.0, 1.0, 3.0, 10.0]
    cnn.w[...] = 1.0
    cnn.b[...] = 0.0
    idx = np.array([[4, 4, 4, 4], [2, 1, 3, 4]])
    out, cache = cnn.forward(idx, [4, 3])
    np.testing.assert_array_equal(out[:, 0], [10.0, 3.0])
    cnn.backward(np.array([[0.0], [1.0]]), cache)
    np.testing.assert_array_equal(store.grad("c.chars")[:, 0], [0.0, 1.0, 0.0, 0.0, 0.0])


def test_char_cnn_batch_gradient_check():
    store, cnn = _char_cnn(6, kernel=3, filters=3)
    rng = np.random.default_rng(6)
    idx, word_lengths = _char_batch(rng, 9, [1, 5, 3, 2])
    r = rng.normal(size=(len(idx), cnn.filters))

    def loss_fn(grad=False):
        out, cache = cnn.forward(idx, word_lengths)
        if grad:
            cnn.backward(r, cache)
        return float(np.sum(out * r))

    assert gradient_check(loss_fn, store).passed(1e-4)
