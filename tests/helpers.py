"""Independent brute-force oracles and fixture builders shared by the test
modules. Everything here is deliberately naive: enumeration, run scanning,
set intersection. None of it calls the code paths it checks."""

import itertools
import math
import re
import unicodedata

import numpy as np

from seqtag.corpus import LabeledCorpus, Sentence, TagSet
from seqtag.crf import Transitions
from seqtag.tagger import SentencePredictions


def enumerate_crf(emissions, matrix, start, end):
    """Exhaustive path enumeration for small (n, T) CRF instances.

    Returns (log_partition, best_path, best_score, marginals, pair_counts)
    where pair_counts[i, j] is the expected number of i->j transitions.
    """
    n, n_tags = emissions.shape
    scores = []
    paths = list(itertools.product(range(n_tags), repeat=n))
    for path in paths:
        s = start[path[0]] + end[path[-1]]
        for t, y in enumerate(path):
            s += emissions[t, y]
        for t in range(n - 1):
            s += matrix[path[t], path[t + 1]]
        scores.append(s)
    scores = np.array(scores)
    m = scores.max()
    log_z = m + math.log(np.sum(np.exp(scores - m)))
    probs = np.exp(scores - log_z)

    best_idx = int(np.argmax(scores))
    best_path = list(paths[best_idx])
    best_score = float(scores[best_idx])

    marginals = np.zeros((n, n_tags))
    pair_counts = np.zeros((n_tags, n_tags))
    for path, p in zip(paths, probs):
        for t, y in enumerate(path):
            marginals[t, y] += p
        for t in range(n - 1):
            pair_counts[path[t], path[t + 1]] += p
    return float(log_z), best_path, best_score, marginals, pair_counts


def reference_lstm(xw, w_h, h0, c0):
    """Textbook one-direction LSTM, one gate at a time.

    ``xw`` holds x_t @ W_x + b, gate order i, f, g, o. Per step:
    i = sigmoid(z_i), f = sigmoid(z_f), g = tanh(z_g), o = sigmoid(z_o),
    c_t = f * c_{t-1} + i * g and h_t = o * tanh(c_t), with
    sigmoid(z) = 1 / (1 + exp(-z)). Returns (hs, cs, tanh_cs, gates) of
    one direction and one sentence, as ``nn.layers.lstm_forward`` gives them
    at that sentence's packed rows: hs and cs as returned, the
    post-activation gates i, f, g, o as left in its ``xw`` argument.
    """
    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    n, h = xw.shape[0], w_h.shape[0]
    hs, cs, tanh_cs, gates = [], [], [], []
    h_prev, c_prev = h0, c0
    for t in range(n):
        i = sigmoid(xw[t, 0:h] + h_prev @ w_h[:, 0:h])
        f = sigmoid(xw[t, h:2 * h] + h_prev @ w_h[:, h:2 * h])
        g = np.tanh(xw[t, 2 * h:3 * h] + h_prev @ w_h[:, 2 * h:3 * h])
        o = sigmoid(xw[t, 3 * h:4 * h] + h_prev @ w_h[:, 3 * h:4 * h])
        c = f * c_prev + i * g
        h_prev, c_prev = o * np.tanh(c), c
        hs.append(h_prev)
        cs.append(c)
        tanh_cs.append(np.tanh(c))
        gates.append(np.concatenate([i, f, g, o]))
    return np.array(hs), np.array(cs), np.array(tanh_cs), np.array(gates)


def brute_chunks(tags):
    """Run scanner for valid BIO sequences, independent of extract_chunks."""
    out = []
    i = 0
    while i < len(tags):
        if tags[i].startswith("B-"):
            cls = tags[i][2:]
            j = i + 1
            while j < len(tags) and tags[j] == f"I-{cls}":
                j += 1
            out.append((cls, i, j))
            i = j
        else:
            i += 1
    return out


def brute_bio_violations(tags):
    """Left-to-right scanner for BIO scheme violations: positions of I-X
    tags not directly after a B-X or I-X. A tag outside O | B-<class> |
    I-<class> raises ValueError."""
    violations = []
    prev = "O"
    for i, tag in enumerate(tags):
        if not re.fullmatch(r"O|[BI]-\S+", tag):
            raise ValueError(f"tag {tag!r} does not match the BIO grammar")
        if tag.startswith("I-") and prev not in (f"B-{tag[2:]}", f"I-{tag[2:]}"):
            violations.append(i)
        prev = tag
    return violations


def brute_prf(gold_chunk_lists, pred_chunk_lists):
    """Set-intersection chunk scorer over per-sentence (cls, start, end)
    triples. Returns {cls: (precision, recall, f1)} plus macro f1."""
    classes = set()
    tp = {}
    n_gold = {}
    n_pred = {}
    for gold, pred in zip(gold_chunk_lists, pred_chunk_lists):
        gset, pset = set(gold), set(pred)
        for c, _, _ in gset | pset:
            classes.add(c)
        for chunk in gset & pset:
            tp[chunk[0]] = tp.get(chunk[0], 0) + 1
        for chunk in gset:
            n_gold[chunk[0]] = n_gold.get(chunk[0], 0) + 1
        for chunk in pset:
            n_pred[chunk[0]] = n_pred.get(chunk[0], 0) + 1
    per_class = {}
    for c in classes:
        t = tp.get(c, 0)
        p = t / n_pred[c] if n_pred.get(c) else 0.0
        r = t / n_gold[c] if n_gold.get(c) else 0.0
        f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        per_class[c] = (p, r, f)
    macro_f1 = sum(v[2] for v in per_class.values()) / len(per_class) if per_class else 0.0
    return per_class, macro_f1


def brute_vote(labels, scores, threshold, n_models):
    """Reimplementation of the thresholded majority vote, written from the
    rule statement rather than the ensemble module."""
    surviving = [(l, s) for l, s in zip(labels, scores) if s > threshold]
    if not surviving:
        return "O"
    counts = {}
    for l, _ in surviving:
        counts[l] = counts.get(l, 0) + 1
    majority = [l for l, c in counts.items() if c > n_models / 2.0]
    if majority:
        return majority[0]
    totals = {}
    for l, s in surviving:
        totals[l] = totals.get(l, 0.0) + s
    best = max(totals.values())
    return min(l for l, s in totals.items() if s == best)


def reference_vote(votes, config):
    """The vote rule on one token's votes (records with a ``label`` and a
    ``score``, one per model), one vote at a time: the slow reference for
    ``seqtag.ensemble``'s whole-corpus vote. Returns (label,
    surviving_count, outcome, support) with outcome in {majority,
    fallback, empty}. One pass tallies each surviving label's count and
    score total, summed in vote order; support is the winner's total over
    its count, its mean surviving score."""
    threshold = config.score_threshold
    counts, totals = {}, {}
    for v in votes:
        if v.score > threshold:
            counts[v.label] = counts.get(v.label, 0) + 1
            totals[v.label] = totals.get(v.label, 0.0) + v.score
    if not counts:
        return "O", 0, "empty", 0.0
    surviving = sum(counts.values())
    denominator = len(votes) if config.majority_of == "models" else surviving
    for label, count in counts.items():
        if 2 * count > denominator:  # true of at most one label
            return label, surviving, "majority", totals[label] / count
    label = min(totals, key=lambda lab: (-totals[lab], lab))
    return label, surviving, "fallback", totals[label] / counts[label]


def reference_conll_blocks(text):
    """(sentence id, line numbers, lines) per block of CoNLL-style text,
    found one line at a time: a ``#`` line names the block it precedes or
    lies in, a blank line ends a block and drops a pending name, and
    unnamed blocks are numbered s0, s1, ... Lines are stripped and ids
    NFC-normalized."""
    blocks = []
    sid, numbers, lines, generated = None, [], [], 0
    for lineno, raw in enumerate(text.split("\n") + [""], start=1):
        line = raw.strip()
        if line.startswith("#"):
            sid = unicodedata.normalize("NFC", line[1:].strip()) or None
        elif line:
            numbers.append(lineno)
            lines.append(line)
        else:
            if lines:
                if sid is None:
                    sid, generated = f"s{generated}", generated + 1
                blocks.append((sid, numbers, lines))
            sid, numbers, lines = None, [], []
    return blocks


def zero_transitions(n_tags):
    """Transitions of ``n_tags`` tags whose every score is 0."""
    return Transitions(np.zeros((n_tags, n_tags)), np.zeros(n_tags), np.zeros(n_tags))


def sentence_predictions(records):
    """A SentencePredictions holding the (label, score) ``records`` of one
    sentence, TokenPrediction records included."""
    records = list(records)
    return SentencePredictions(tuple(label for label, _ in records),
                               [score for _, score in records])


def random_bio_tags(rng, length, classes):
    """Random valid BIO sequence."""
    tags = []
    prev_cls = None
    for _ in range(length):
        r = rng.random()
        if r < 0.5 or not classes:
            tags.append("O")
            prev_cls = None
        elif r < 0.8 or prev_cls is None:
            cls = classes[rng.integers(len(classes))]
            tags.append(f"B-{cls}")
            prev_cls = cls
        else:
            tags.append(f"I-{prev_cls}")
    return tags


def random_corpus(rng, n_sentences, classes=("PER", "LOC", "CW"), min_len=1, max_len=8,
                  vocab=None, prefix="s"):
    """Small synthetic corpus with valid BIO gold tags."""
    if vocab is None:
        vocab = [f"w{i}" for i in range(30)]
    sentences = []
    for si in range(n_sentences):
        length = int(rng.integers(min_len, max_len + 1))
        tags = random_bio_tags(rng, length, list(classes))
        surfaces = tuple(vocab[rng.integers(len(vocab))] for _ in tags)
        sentences.append(Sentence(f"{prefix}{si}", surfaces, tuple(tags)))
    return LabeledCorpus(sentences, TagSet(classes))


def tiny_fixture_corpus():
    """Three handwritten sentences over {PER, LOC, CW} with POS tags."""
    def sent(sid, rows):
        surfaces, pos, tags = zip(*rows)
        return Sentence(sid, surfaces, tags, pos)

    sentences = [
        sent("s0", [("mehta", "NNP", "B-PER"), ("visited", "VBD", "O"),
                    ("dhaka", "NNP", "B-LOC"), ("university", "NN", "I-LOC")]),
        sent("s1", [("the", "DT", "O"), ("old", "JJ", "B-CW"), ("man", "NN", "I-CW"),
                    ("and", "CC", "I-CW"), ("the", "DT", "I-CW"), ("sea", "NN", "I-CW")]),
        sent("s2", [("rahim", "NNP", "B-PER"), ("met", "VBD", "O"), ("karim", "NNP", "B-PER")]),
    ]
    return LabeledCorpus(sentences, TagSet(["PER", "LOC", "CW"]))


def reference_char_cnn(emb, w, b, kernel):
    """Textbook char-CNN over one word's character embeddings ``emb``
    (m, d), one filter and one window at a time.

    Rows of zeros pad the word to at least ``kernel`` characters. Window p
    is rows p .. p+kernel-1 flattened in row order; filter f scores it
    b[f] + window . w[:, f], then ReLU. Each filter keeps its largest
    activation, the first window on a tie. Returns (features (F,), the
    winning window of each filter (F,)).
    """
    m, d = emb.shape
    rows = [list(emb[i]) for i in range(m)] + [[0.0] * d] * max(kernel - m, 0)
    features, winners = [], []
    for f in range(w.shape[1]):
        best, best_p = None, None
        for p in range(len(rows) - kernel + 1):
            window = [v for row in rows[p:p + kernel] for v in row]
            z = b[f] + sum(window[q] * w[q, f] for q in range(len(window)))
            activation = max(z, 0.0)
            if best is None or activation > best:
                best, best_p = activation, p
        features.append(best)
        winners.append(best_p)
    return np.array(features), np.array(winners)


def reference_crf_alphas(emis, trans, start):
    """Log-space CRF forward recursion, one (B, T, T) log-sum-exp per step:
    (B, n, T) over a right-padded batch, whose real positions hold the
    alphas of ``crf._chains``."""
    n_batch, n, n_tags = emis.shape
    alphas = np.empty((n_batch, n, n_tags))
    alphas[:, 0] = start + emis[:, 0]
    for t in range(1, n):
        m = alphas[:, t - 1, :, None] + trans
        mx = m.max(axis=1)
        alphas[:, t] = mx + np.log(np.sum(np.exp(m - mx[:, None, :]), axis=1)) + emis[:, t]
    return alphas


def reference_crf_betas(emis, trans, end, lengths):
    """Log-space CRF backward recursion, one (B, T, T) log-sum-exp per step:
    (B, n, T) over a right-padded batch, whose real positions hold the
    betas of ``crf._chains``' backward chain."""
    n_batch, n, n_tags = emis.shape
    betas = np.empty((n_batch, n, n_tags))
    betas[:, n - 1] = end
    last = (lengths - 1)[:, None]
    for t in range(n - 2, -1, -1):
        m = trans + (emis[:, t + 1] + betas[:, t + 1])[:, None, :]
        mx = m.max(axis=2)
        inner = mx + np.log(np.sum(np.exp(m - mx[:, :, None]), axis=2))
        betas[:, t] = np.where(t >= last, end, inner)
    return betas


def reference_viterbi_decode(emis, trans, start, end, alive):
    """Max-plus Viterbi over a packed batch, as ``crf.viterbi_decode`` takes
    it: each step builds m[b, i, j] = delta[b, i] + trans[i, j], takes the
    first maximum over predecessors i with ``argmax`` and gathers the best
    scores with ``take_along_axis``; the backtrace indexes each step's
    backpointer block. Returns the path (N,) and the scores (B,), both in
    packed order."""
    first = alive[0]
    delta = start + emis[:first]
    backptr = np.empty(emis.shape, dtype=np.int64)
    at = first
    for k in alive[1:].tolist():
        m = delta[:k, :, None] + trans
        bp = np.argmax(m, axis=1)
        backptr[at:at + k] = bp
        delta[:k] = np.take_along_axis(m, bp[:, None, :], axis=1)[:, 0] + emis[at:at + k]
        at += k
    delta += end
    cur = np.argmax(delta, axis=1)
    scores = delta[np.arange(first), cur]
    path = np.empty(len(emis), dtype=np.int64)
    for k in alive[:0:-1].tolist():
        path[at - k:at] = cur[:k]
        cur[:k] = backptr[at - k:at][np.arange(k), cur[:k]]
        at -= k
    path[:first] = cur
    return path, scores
