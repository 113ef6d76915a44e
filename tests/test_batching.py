"""Padding equivalence: one right-padded batched call must match the
per-sentence (B = 1) calls it replaces, for every layer, the CRF and the
whole tagger loss, outputs and every parameter gradient alike. The
char-CNN's padded batch of words is checked against per-word calls and a
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
    gradient_check,
)
from seqtag import tagger as tagger_module
from seqtag.tagger import (
    TaggerConfig,
    _backward,
    _evaluate_dev,
    _forward,
    _gold_indices,
    _sentence_loss,
    _train_batch,
    build_model,
    predict,
    predict_corpus,
)
from seqtag.vectors import ContextualVectors

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
    """Random (B, n, dim) batch; padding holds garbage, which must not
    leak into any real position or gradient."""
    return rng.normal(size=(len(lengths), max(lengths), dim))


def real_mask(lengths):
    return np.arange(max(lengths))[None, :] < np.asarray(lengths)[:, None]


def grads(store):
    return {name: store.grad(name).copy() for name in store.names()}


def assert_grads_close(got, want):
    assert got.keys() == want.keys()
    for name in got:
        np.testing.assert_allclose(got[name], want[name], rtol=0, atol=TOL, err_msg=name)


def check_sequence_layer(layer, store, x, lengths, out_dim, rng):
    """Batched forward/backward of ``layer`` against per-sentence calls on
    each sentence's unpadded rows as a batch of one; the output gradient is
    zero at padding."""
    d_out = rng.normal(size=x.shape[:2] + (out_dim,)) * real_mask(lengths)[:, :, None]
    y, cache = layer.forward(x, lengths)
    d_x = layer.backward(d_out, cache)
    batched = grads(store)
    store.zero_grads()
    for b, n in enumerate(lengths):
        y_b, cache_b = layer.forward(x[b:b + 1, :n], [n])
        np.testing.assert_allclose(y[b, :n], y_b[0], rtol=0, atol=TOL)
        d_x_b = layer.backward(d_out[b:b + 1, :n], cache_b)
        np.testing.assert_allclose(d_x[b, :n], d_x_b[0], rtol=0, atol=TOL)
    assert not d_x[~real_mask(lengths)].any()
    assert_grads_close(batched, grads(store))


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("lengths", CASES)
def test_bilstm_batch_matches_sentences(layers, lengths):
    rng = np.random.default_rng(len(lengths) * 10 + layers)
    store = ParamStore()
    rnn = BiLstm(store, "r", input_dim=3, hidden=4, layers=layers, rng=rng)
    check_sequence_layer(rnn, store, padded(rng, lengths, 3), lengths, 8, rng)


@pytest.mark.parametrize("lengths", CASES)
def test_masked_attention_batch_matches_sentences(lengths):
    rng = np.random.default_rng(len(lengths))
    store = ParamStore()
    mha = MultiHeadAttention(store, "a", dim=6, heads=3, rng=rng)
    check_sequence_layer(mha, store, padded(rng, lengths, 6), lengths, 6, rng)


@pytest.mark.parametrize("lengths", CASES)
def test_linear_and_embedding_batch_match_sentences(lengths):
    rng = np.random.default_rng(sum(lengths))
    store = ParamStore()
    emb = EmbeddingTable(store, "e", 7, 3, rng)
    lin = Linear(store, "l", 3, 5, rng)
    idx = rng.integers(0, 7, size=(len(lengths), max(lengths))) * real_mask(lengths)
    d_y = rng.normal(size=idx.shape + (5,)) * real_mask(lengths)[:, :, None]
    rows, emb_cache = emb.lookup(idx)
    y, lin_cache = lin.forward(rows)
    emb.backward(lin.backward(d_y, lin_cache), emb_cache)
    batched = grads(store)
    store.zero_grads()
    for b, n in enumerate(lengths):
        rows_b, emb_cache_b = emb.lookup(idx[b, :n])
        y_b, lin_cache_b = lin.forward(rows_b)
        np.testing.assert_allclose(y[b, :n], y_b, rtol=0, atol=TOL)
        emb.backward(lin.backward(d_y[b, :n], lin_cache_b), emb_cache_b)
    assert_grads_close(batched, grads(store))


@pytest.mark.parametrize("lengths", CASES)
def test_crf_batch_matches_sentences(lengths):
    rng = np.random.default_rng(max(lengths) * 7 + len(lengths))
    n_tags = 4
    trans = Transitions(rng.normal(size=(n_tags, n_tags)), rng.normal(size=n_tags),
                        rng.normal(size=n_tags))
    emissions = padded(rng, lengths, n_tags) * 2.0
    gold = rng.integers(0, n_tags, size=emissions.shape[:2])
    log_z = log_partition(emissions, trans, lengths)
    marginals = crf_marginals(emissions, trans, lengths)
    paths, scores = viterbi(emissions, trans, lengths)
    loss, d_e, d_m, d_s, d_end = crf_nll_grad(emissions, trans, gold, lengths)
    assert not marginals[~real_mask(lengths)].any()
    assert not d_e[~real_mask(lengths)].any()
    sums = [np.zeros((n_tags, n_tags)), np.zeros(n_tags), np.zeros(n_tags)]
    for b, n in enumerate(lengths):
        e_b = emissions[b:b + 1, :n]
        assert log_z[b] == pytest.approx(log_partition(e_b, trans, [n])[0], abs=TOL)
        np.testing.assert_allclose(marginals[b, :n], crf_marginals(e_b, trans, [n])[0],
                                   rtol=0, atol=TOL)
        (path_b,), (score_b,) = viterbi(e_b, trans, [n])
        assert paths[b] == path_b
        assert scores[b] == pytest.approx(score_b, abs=TOL)
        (loss_b,), (d_e_b,), *d_trans = crf_nll_grad(e_b, trans, gold[b:b + 1, :n], [n])
        assert loss[b] == pytest.approx(loss_b, abs=TOL)
        np.testing.assert_allclose(d_e[b, :n], d_e_b, rtol=0, atol=TOL)
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
    ctx = ContextualVectors({(s.id, t): rng.normal(size=3)
                             for s in sentences for t in range(len(s))}, dim=3)
    return corpus, ctx


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

    emissions, lengths_out, cache = _forward(model, sentences, "train", None, ctx)
    assert list(lengths_out) == lengths
    gold = _gold_indices(model, sentences, emissions.shape[1])
    losses, d_emis = _sentence_loss(model, emissions, lengths_out, gold, weight, True)
    _backward(model, d_emis, cache)
    batched = grads(model.store)
    model.store.zero_grads()
    for b, sent in enumerate(sentences):
        emis_b, lengths_b, cache_b = _forward(model, [sent], "train", None, ctx)
        np.testing.assert_allclose(emissions[b, :len(sent)], emis_b[0], rtol=0, atol=TOL)
        loss_b, d_b = _sentence_loss(model, emis_b, lengths_b,
                                     _gold_indices(model, [sent], len(sent)), weight, True)
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
    emissions, lengths, cache = _forward(model, corpus.sentences, "train", None, ctx)
    emis_eval, lengths_eval, no_cache = _forward(model, corpus.sentences, "eval", None, ctx)
    assert cache is not None and no_cache is None
    assert np.array_equal(lengths_eval, lengths)
    assert np.array_equal(emis_eval, emissions)


def test_training_batch_draws_dropout_like_sentences():
    # one optimizer batch as one padded pass, dropout on: losses and the
    # gradient equal per-sentence passes that draw their masks from the
    # same rng stream in batch order (each pass weighs its sentence 1)
    rng = np.random.default_rng(8)
    corpus = random_corpus(rng, 6, min_len=1, max_len=9)
    model = build_model(TaggerConfig(word_dim=4, hidden=4, dropout=0.3, seed=2), corpus)
    batch = corpus.sentences
    losses = _train_batch(model, batch, np.random.default_rng(7), None, 1)
    batched = grads(model.store)
    model.store.zero_grads()
    stream = np.random.default_rng(7)
    singles = [_train_batch(model, [sent], stream, None, 1)[0] for sent in batch]
    np.testing.assert_allclose(losses, singles, rtol=0, atol=TOL)
    summed = {name: g / len(batch) for name, g in grads(model.store).items()}
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


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("use_crf", [True, False])
def test_predict_corpus_matches_predict(monkeypatch, use_crf, budget):
    # a sentence's labels do not depend on its chunk companions, and its
    # scores move by at most 1e-9
    corpus, model = _mixed_corpus_model(use_crf)
    monkeypatch.setattr(tagger_module, "_CHUNK_POSITIONS", budget)
    n_chunks = len(tagger_module._chunks(corpus.sentences))
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
    results = []
    for budget in BUDGETS:
        monkeypatch.setattr(tagger_module, "_CHUNK_POSITIONS", budget)
        results.append(_evaluate_dev(model, corpus, None))
    loss, f1 = results[0]
    for got in results[1:]:
        assert got[0].hex() == loss.hex() and got[1].hex() == f1.hex()


def _char_batch(rng, n_chars, word_lengths):
    """Char indices (W, L) right-padded to ``word_lengths`` with random
    valid indices, which must not leak into any word's features."""
    idx = rng.integers(0, n_chars, size=(len(word_lengths), max(word_lengths)))
    return idx, np.asarray(word_lengths)


def _char_cnn(seed, kernel=3, filters=5, char_dim=2, n_chars=9):
    store = ParamStore()
    cnn = CharCNN(store, "c", n_chars, char_dim, kernel, filters, np.random.default_rng(seed))
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
    store = ParamStore()
    cnn = CharCNN(store, "c", 5, 1, 1, 1, np.random.default_rng(0))
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
