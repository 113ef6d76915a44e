"""The four benchmark workloads, each driven through seqtag's public API.

A workload splits into
- ``prepare``: parse the input files and load a saved model; with
  ``before_rep`` (a fresh model per training run) this is the set-up that
  ``setup_s`` times;
- ``rep``: the timed work, returning its outputs;
- ``check``: output checks on one repetition, outside the timed region;
- ``gates``: output checks over all repetitions.

Functions are always looked up as module attributes at call time
(``tagger.train``, not ``from seqtag.tagger import train``), so the trace
wrappers installed on those attributes see the calls.
"""

import math
import os
import random
from dataclasses import dataclass, field

from seqtag import augment, corpus, ensemble, evaluation, tagger, vectors

# macro-F1 floors that show the model learned (or the vote recovered the
# gold labels); measured values sit well above them on every seed tried.
F1_FLOOR = {"train_crf": 0.4, "train_features": 0.4, "predict_wide": 0.3,
            "corpus_tools": 0.6}
SCORE_TOLERANCE = 1e-9
GATE_SAMPLE = 8


@dataclass
class RepResult:
    tokens: int  # tokens through the timed work
    sentences: int  # sentences attempted
    output: bytes  # everything the work produced, for the determinism gate
    macro_f1: float
    failed: int = 0  # sentences that failed a per-sentence check
    problems: list = field(default_factory=list)


def _read(directory, name):
    with open(os.path.join(directory, name), encoding="utf-8") as fh:
        return fh.read()


def _bio_problem(labels):
    return bool(corpus.validate_bio(labels))


class Workload:
    def __init__(self, name, directory, seed):
        self.name = name
        self.directory = directory
        self.seed = seed

    def before_rep(self, state):
        pass

    def gates(self, state, reps):
        """(gate name, failed sentences, sentences checked) per extra gate."""
        return []


class TrainWorkload(Workload):
    """``train`` for a fixed epoch count plus ``save_model``; the tokens
    are training tokens times epochs run."""

    def __init__(self, name, directory, seed):
        super().__init__(name, directory, seed)
        self.model_path = os.path.join(directory, "trained.bin")

    def prepare(self):
        cols = corpus.ColumnConfig(pos_col=1) if self.name == "train_features" \
            else corpus.ColumnConfig()
        state = {
            "config": tagger.parse_config(_read(self.directory, "config.txt")),
            "train": corpus.parse_conll(_read(self.directory, "train.conll"), cols),
            "dev": corpus.parse_conll(_read(self.directory, "dev.conll"), cols),
            "vectors": None,
        }
        if os.path.exists(os.path.join(self.directory, "vectors.txt")):
            state["vectors"] = vectors.parse_word_vectors(
                _read(self.directory, "vectors.txt"))
        return state

    def before_rep(self, state):
        state["model"] = tagger.build_model(state["config"], state["train"],
                                            state["vectors"])

    def rep(self, state):
        cfg = state["config"]
        model, history = tagger.train(state["model"], state["train"], state["dev"], cfg)
        tagger.save_model(model, self.model_path)
        return history

    def check(self, state, history):
        cfg = state["config"]
        with open(self.model_path, "rb") as fh:
            output = fh.read() + history.render().encode("utf-8")
        problems = []
        losses = [x for e in history.epochs for x in (e.train_loss, e.eval_loss)]
        if not all(math.isfinite(x) for x in losses):
            problems.append("non-finite training or dev loss")
        if len(history.epochs) != cfg.max_epochs:
            problems.append(f"ran {len(history.epochs)} epochs, expected {cfg.max_epochs}")
        n = len(state["train"].sentences)
        return RepResult(
            tokens=state["train"].n_tokens * len(history.epochs),
            sentences=n,
            output=output,
            macro_f1=history.epochs[history.best_epoch - 1].eval_macro_f1,
            failed=n if problems else 0,
            problems=problems,
        )


class PredictWorkload(Workload):
    """``predict_corpus`` plus ``write_prediction_file`` with a saved
    1-layer, 18-class model."""

    def prepare(self):
        return {
            "model": tagger.load_model(os.path.join(self.directory, "model.bin")),
            "corpus": corpus.parse_conll(_read(self.directory, "predict.conll")),
        }

    def rep(self, state):
        predictions = tagger.predict_corpus(state["model"], state["corpus"])
        text = ensemble.write_prediction_file(state["corpus"], predictions)
        return predictions, text

    def check(self, state, out):
        gold = state["corpus"]
        predictions, text = out
        state["last"] = predictions
        labels = [[p.label for p in preds] for preds in predictions]
        failed = sum(
            1 for sent, preds, lab in zip(gold.sentences, predictions, labels)
            if len(preds) != len(sent) or _bio_problem(lab)
            or not all(0.0 <= p.score <= 1.0 for p in preds))
        return RepResult(
            tokens=gold.n_tokens,
            sentences=len(gold.sentences),
            output=text.encode("utf-8"),
            # raises on a sentence or token count mismatch: the rep fails
            macro_f1=evaluation.evaluate(gold, labels).macro_f1,
            failed=failed,
        )

    def gates(self, state, reps):
        """On a seeded sample, per-sentence ``predict`` must give exactly
        the labels of ``predict_corpus`` and scores within 1e-9."""
        model, gold = state["model"], state["corpus"]
        n = len(gold.sentences)
        sample = random.Random(self.seed).sample(range(n), min(GATE_SAMPLE, n))
        bad = 0
        for i in sample:
            single = tagger.predict(model, gold.sentences[i])
            batch = state["last"][i]
            if [p.label for p in single] != [p.label for p in batch] or any(
                    abs(a.score - b.score) > SCORE_TOLERANCE for a, b in zip(single, batch)):
                bad += 1
        return [("predict_matches_predict_corpus", bad, len(sample))]


class CorpusToolsWorkload(Workload):
    """The augment, ensemble and evaluate commands' library calls: parse
    and translate a corpus and combine it with the original; read the
    prediction files, vote, write the result, read it back and score it."""

    def __init__(self, name, directory, seed):
        super().__init__(name, directory, seed)
        self.pred_files = sorted(f for f in os.listdir(directory)
                                 if f.startswith("pred") and f.endswith(".txt"))

    def prepare(self):
        lexicon = augment.parse_lexicon(_read(self.directory, "lexicon.tsv"), name="lexicon")
        return {
            "reference": corpus.parse_conll(_read(self.directory, "gold.conll")),
            "backend": augment.OfflineLexiconBackend(lexicon),
        }

    def rep(self, state):
        reference = state["reference"]
        base = corpus.parse_conll(_read(self.directory, "gold.conll"))
        translated = augment.token_translate(base, state["backend"], fallback="keep")
        combined = augment.combine([base, translated], "augmented",
                                   names=["base", "translated"])
        files = [ensemble.read_prediction_file(_read(self.directory, f))
                 for f in self.pred_files]
        voted, diagnostics = ensemble.ensemble_corpus(
            [data.to_set(f) for data, f in zip(files, self.pred_files)], reference)
        # TokenDiag carries the voted label and its support score, which is
        # all write_prediction_file reads from a prediction.
        text = ensemble.write_prediction_file(
            reference, [diags for _, diags in diagnostics.per_sentence])
        written = ensemble.read_prediction_file(text)
        labels = [[p.label for p in preds] for preds in written.predictions]
        report = evaluation.evaluate(reference, labels)
        return base, translated, combined, files, voted, text, report

    def check(self, state, out):
        reference = state["reference"]
        base, translated, combined, files, voted, text, report = out
        problems = []
        failed_ids = set()
        if len(combined.sentences) != 2 * len(base.sentences):
            problems.append("combined corpus has the wrong sentence count")
        for src, tr in zip(base.sentences, translated.sentences):
            if src.gold_tags != tr.gold_tags:
                failed_ids.add(src.id)
        for data in files:
            for sid, surfaces, sent in zip(data.sentence_ids, data.surfaces,
                                           reference.sentences):
                if sid != sent.id or surfaces != sent.surfaces:
                    failed_ids.add(sent.id)
        for sent, labels in zip(reference.sentences, voted):
            if len(labels) != len(sent) or _bio_problem(labels):
                failed_ids.add(sent.id)
        return RepResult(
            tokens=reference.n_tokens,
            sentences=len(reference.sentences),
            output=text.encode("utf-8"),
            macro_f1=report.macro_f1,
            failed=len(failed_ids),
            problems=problems,
        )


WORKLOADS = {
    "train_crf": TrainWorkload,
    "train_features": TrainWorkload,
    "predict_wide": PredictWorkload,
    "corpus_tools": CorpusToolsWorkload,
}


def make(name, directory, seed):
    return WORKLOADS[name](name, directory, seed)
