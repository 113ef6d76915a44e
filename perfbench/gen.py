"""Seeded input generator for the benchmark.

``build_texts(workload, seed)`` returns every text input of a workload as
``{file name: text}``. It uses only ``random.Random`` with integer seeds,
never ``hash()`` (salted per process), so the same seed gives the same
bytes in any process. ``write_inputs`` writes those files and, for
``predict_wide``, trains and saves the model that the workload loads.

Corpus shape:
- entity tokens come from small class-specific word pools, so a tagger
  learns them within a few epochs and macro-F1 is informative;
- sentence lengths are log-normal (long-tailed), so length bucketing in a
  later change shows its padding cost;
- ``predict_wide`` sentences carry unseen (OOV) tokens.

Run as a script to write one workload's inputs:
    python3 perfbench/gen.py --workload predict_wide --seed 1 --out DIR
"""

import argparse
import itertools
import math
import os
import random
import sys

CONSONANTS = "bcdfghjklmnprstvwz"
VOWELS = "aeiou"
POS_TAGS = ("DT", "NN", "VB", "JJ", "IN", "RB", "PR", "CC")

# Per-workload sizes. Lengths are log-normal: exp(N(mu, sigma)), clipped.
SIZES = {
    "train_crf": dict(classes=4, pool=3, vocab=400, entity=0.35, train=200, dev=80,
                      mu=math.log(7), sigma=0.6, max_len=60),
    "train_features": dict(classes=4, pool=3, vocab=400, entity=0.35, train=200,
                           dev=80, cover=0.95, mu=math.log(7), sigma=0.6, max_len=60),
    "predict_wide": dict(classes=18, pool=2, vocab=600, entity=0.3, train=240, dev=40,
                         train_mu=math.log(7), predict=120, mu=math.log(36),
                         sigma=0.45, max_len=160, oov=0.05),
    "corpus_tools": dict(classes=6, pool=30, vocab=3000, entity=0.12, sentences=900,
                         mu=math.log(20), sigma=0.6, max_len=120,
                         models=5, corrupt=0.2, lexicon_cover=0.9),
}

# Training configs. learning_rate 0.01: at the default 1e-3 dev macro-F1
# stays at 0.0 for the first epochs, which makes macro_f1 useless.
# patience > max_epochs, so early stopping can never fire.
TRAIN_CRF_CONFIG = """\
word_dim = 32
lstm_layers = 2
hidden = 32
use_crf = true
batch_size = 8
dropout = 0.1
learning_rate = 0.01
max_epochs = 5
patience = 10
seed = 7
"""

TRAIN_FEATURES_CONFIG = """\
word_dim = 32
use_char_cnn = true
use_pos = true
use_mha = true
mha_heads = 2
lstm_layers = 1
hidden = 32
use_crf = false
batch_size = 8
dropout = 0.1
learning_rate = 0.01
max_epochs = 6
patience = 10
seed = 7
"""

PREDICT_WIDE_CONFIG = """\
word_dim = 32
lstm_layers = 1
hidden = 32
use_crf = true
crf_constrain_bio = true
batch_size = 8
dropout = 0.1
learning_rate = 0.01
max_epochs = 8
patience = 10
seed = 7
"""


def _word(rng, syllables):
    return "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS)
                   for _ in range(syllables))


def _distinct_words(rng, count, taken, lo=1, hi=4):
    words = []
    while len(words) < count:
        w = _word(rng, rng.randint(lo, hi))
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


class Lexicon:
    """Word pools of one workload: a Zipf-weighted background vocabulary
    with a POS tag per word, and one entity pool per class."""

    def __init__(self, rng, n_classes, pool, vocab):
        taken = set()
        self.classes = [f"C{i:02d}" for i in range(n_classes)]
        self.background = _distinct_words(rng, vocab, taken)
        self.cum_weights = list(itertools.accumulate(1.0 / (r + 1) for r in range(vocab)))
        self.pos = {w: rng.choice(POS_TAGS) for w in self.background}
        # capitalised, so entity words never collide with background words
        self.pools = {c: [w.capitalize() for w in _distinct_words(rng, pool, taken, 2, 3)]
                      for c in self.classes}
        self.taken = taken


def _sentence(rng, lex, size, mu, oov=0.0, taken=None):
    n = int(round(rng.lognormvariate(mu, size["sigma"])))
    n = max(2, min(size["max_len"], n))
    rows = []
    while len(rows) < n:
        if rng.random() < size["entity"]:
            cls = rng.choice(lex.classes)
            span = min(n - len(rows), 1 + int(rng.expovariate(1.5)))
            for k in range(span):
                rows.append((rng.choice(lex.pools[cls]), "NNP",
                             ("B-" if k == 0 else "I-") + cls))
        else:
            if oov and rng.random() < oov:
                word = _distinct_words(rng, 1, taken, 2, 4)[0]
                rows.append((word, "NN", "O"))
            else:
                word = rng.choices(lex.background, cum_weights=lex.cum_weights)[0]
                rows.append((word, lex.pos[word], "O"))
    return rows


def _corpus(rng, lex, size, count, prefix, oov=0.0, taken=None, mu=None):
    mu = size["mu"] if mu is None else mu
    return [(f"{prefix}{i}", _sentence(rng, lex, size, mu, oov, taken))
            for i in range(count)]


def _conll(sentences, with_pos=False):
    lines = []
    for sid, rows in sentences:
        lines.append(f"# {sid}")
        for word, pos, tag in rows:
            lines.append(f"{word} {pos} {tag}" if with_pos else f"{word} {tag}")
        lines.append("")
    return "\n".join(lines)


def _vectors(rng, lex, words, dim):
    """Pretrained-style vectors: each word sits near the centroid of its
    class (entity classes and the background), as trained embeddings
    cluster by meaning."""
    owner = {w: c for c, pool in lex.pools.items() for w in pool}
    centroids = {c: [rng.uniform(-0.5, 0.5) for _ in range(dim)]
                 for c in lex.classes + ["O"]}
    lines = [f"{len(words)} {dim}"]
    for w in words:
        centre = centroids[owner.get(w, "O")]
        lines.append(w + " " + " ".join(f"{x + rng.gauss(0.0, 0.15):.6f}"
                                        for x in centre))
    return "\n".join(lines) + "\n"


def _corrupt_predictions(rng, sentences, labels, rate):
    """Gold labels with a seeded share replaced by a random label; a
    corrupted token gets a lower score on average than a kept one."""
    lines = []
    for sid, rows in sentences:
        lines.append(f"# {sid}")
        for word, _, tag in rows:
            if rng.random() < rate:
                pred, score = rng.choice(labels), rng.uniform(0.2, 0.9)
            else:
                pred, score = tag, rng.uniform(0.45, 1.0)
            lines.append(f"{word} {tag} {pred} {score:.6f}")
        lines.append("")
    return "\n".join(lines)


def build_texts(workload, seed):
    """Every text input of ``workload`` for ``seed``: {file name: text}."""
    if workload not in SIZES:
        raise ValueError(f"unknown workload {workload!r}")
    size = SIZES[workload]
    rng = random.Random(seed * 7919 + sorted(SIZES).index(workload))
    lex = Lexicon(rng, size["classes"], size["pool"], size["vocab"])
    if workload == "train_crf":
        return {
            "config.txt": TRAIN_CRF_CONFIG,
            "train.conll": _conll(_corpus(rng, lex, size, size["train"], "t")),
            "dev.conll": _conll(_corpus(rng, lex, size, size["dev"], "d")),
        }
    if workload == "train_features":
        train = _corpus(rng, lex, size, size["train"], "t")
        words = sorted({w for _, rows in train for w, _, _ in rows})
        covered = [w for w in words if rng.random() < size["cover"]]
        return {
            "config.txt": TRAIN_FEATURES_CONFIG,
            "train.conll": _conll(train, with_pos=True),
            "dev.conll": _conll(_corpus(rng, lex, size, size["dev"], "d"), with_pos=True),
            "vectors.txt": _vectors(rng, lex, covered, 32),
        }
    if workload == "predict_wide":
        return {
            "config.txt": PREDICT_WIDE_CONFIG,
            "model_train.conll": _conll(_corpus(rng, lex, size, size["train"], "t",
                                                mu=size["train_mu"])),
            "model_dev.conll": _conll(_corpus(rng, lex, size, size["dev"], "d",
                                              mu=size["train_mu"])),
            "predict.conll": _conll(_corpus(rng, lex, size, size["predict"], "p",
                                            oov=size["oov"], taken=lex.taken)),
        }
    sentences = _corpus(rng, lex, size, size["sentences"], "s")
    labels = ["O"] + [f"{p}-{c}" for c in lex.classes for p in "BI"]
    vocab = sorted({w for _, rows in sentences for w, _, _ in rows})
    lexicon = "\n".join(f"{w}\t{w[::-1]}x" for w in vocab
                        if rng.random() < size["lexicon_cover"]) + "\n"
    texts = {"gold.conll": _conll(sentences), "lexicon.tsv": lexicon}
    for k in range(size["models"]):
        texts[f"pred{k}.txt"] = _corrupt_predictions(rng, sentences, labels,
                                                     size["corrupt"])
    return texts


def train_predict_model(directory):
    """Train and save the model ``predict_wide`` loads. Uses seqtag's own
    training so the model file always matches the program's format."""
    from seqtag import corpus, tagger

    def read(name):
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            return fh.read()

    config = tagger.parse_config(read("config.txt"))
    train = corpus.parse_conll(read("model_train.conll"))
    dev = corpus.parse_conll(read("model_dev.conll"))
    model = tagger.build_model(config, train)
    model, _ = tagger.train(model, train, dev, config)
    tagger.save_model(model, os.path.join(directory, "model.bin"))


def write_inputs(workload, seed, directory):
    os.makedirs(directory, exist_ok=True)
    for name, text in build_texts(workload, seed).items():
        with open(os.path.join(directory, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    if workload == "predict_wide":
        train_predict_model(directory)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    write_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
