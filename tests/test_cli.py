"""Command-line interface: exit codes, stdout/stderr separation, golden
outputs, and a full train/predict/ensemble/evaluate pipeline over files."""

import json
import math
import os
import struct
import subprocess
import sys
import unicodedata

import numpy as np
import pytest

from seqtag import cli
from seqtag.corpus import ColumnConfig, parse_conll, write_conll
from seqtag.ensemble import read_prediction_file, write_prediction_file
from seqtag.tagger import TaggerConfig, TokenPrediction, build_model, save_model

from helpers import random_corpus, sentence_predictions, tiny_fixture_corpus

GOLDEN_STATS = """\
sentences            3
tokens               13
chunks               5
single-token chunks  3
multi-token chunks   2
chunks[CW]           1
chunks[LOC]          1
chunks[PER]          3
"""

SMALL_CONFIG = """\
word_dim = 8
hidden = 8
lstm_layers = 1
dropout = 0.0
batch_size = 4
max_epochs = 12
patience = 4
learning_rate = 0.02
"""


@pytest.fixture()
def fixture_file(tmp_path):
    path = tmp_path / "fixture.conll"
    path.write_text(write_conll(tiny_fixture_corpus()), encoding="utf-8")
    return path


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def learnable_corpus_text(n=24, seed=0):
    """Sentences whose entity words determine the tags, so a small model
    can learn the mapping."""
    rng = np.random.default_rng(seed)
    vocab = {"alice": "B-PER", "bob": "B-PER", "paris": "B-LOC",
             "tokyo": "B-LOC", "the": "O", "saw": "O", "ran": "O", "dog": "O"}
    words = list(vocab)
    lines = []
    for i in range(n):
        lines.append(f"# s{i}")
        for _ in range(int(rng.integers(3, 7))):
            w = words[rng.integers(len(words))]
            lines.append(f"{w}\t{vocab[w]}")
        lines.append("")
    return "\n".join(lines)


class TestExitCodes:
    def test_missing_file_is_io_failure(self, capsys, tmp_path):
        code, out, err = run(capsys, "stats", tmp_path / "absent.conll")
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_validation_failure(self, capsys, fixture_file, tmp_path):
        code, out, err = run(
            capsys, "split", fixture_file, "--train-fraction", "2.0",
            "--train-out", tmp_path / "a", "--dev-out", tmp_path / "b",
        )
        assert code == 1
        assert "train_fraction" in err

    def test_negative_split_seed_is_validation_failure(self, capsys, fixture_file, tmp_path):
        code, out, err = run(
            capsys, "split", fixture_file, "--seed", "-3",
            "--train-out", tmp_path / "a", "--dev-out", tmp_path / "b",
        )
        assert (code, out) == (1, "")
        assert err == "error: seed must be >= 0, got -3\n"
        assert not (tmp_path / "a").exists()

    def test_negative_config_seed_is_validation_failure(self, capsys, tmp_path):
        (tmp_path / "c.conll").write_text(learnable_corpus_text(4), encoding="utf-8")
        cfg = tmp_path / "g.cfg"
        cfg.write_text(SMALL_CONFIG + "seed = -1\n", encoding="utf-8")
        code, out, err = run(capsys, "train", cfg, tmp_path / "c.conll", tmp_path / "c.conll",
                             tmp_path / "m.bin")
        assert (code, out) == (1, "")
        assert err == f"error: {cfg}: invalid config: seed: must be >= 0\n"

    @pytest.mark.parametrize("command", ["split", "train", "augment", "ensemble"])
    def test_two_outputs_naming_one_file_are_refused(self, capsys, tmp_path, monkeypatch,
                                                      command):
        # the inputs do not exist: the check comes before any input is read,
        # and the file the outputs name keeps its bytes
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "same").write_bytes(b"keep\n")
        same, alias = "same", os.path.join("sub", "..", "same")
        argv, flags = {
            "split": (["c.conll", "--train-out", same, "--dev-out", alias],
                      ("--train-out", "--dev-out")),
            "train": (["g.cfg", "c.conll", "c.conll", same, "--history-out", alias],
                      ("model_out", "--history-out")),
            "augment": (["plan.txt", "--out", same, "--manifest", alias],
                        ("--out", "--manifest")),
            "ensemble": (["a.pred", "b.pred", "--reference", "c.conll", "--out", same,
                          "--diagnostics", alias], ("--out", "--diagnostics")),
        }[command]
        code, out, err = run(capsys, command, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {flags[0]} and {flags[1]} name the same file: {alias}\n"
        assert sorted(os.listdir(tmp_path)) == ["same", "sub"]
        assert (tmp_path / "same").read_bytes() == b"keep\n"

    @pytest.mark.parametrize("command, argv, plan, first, second", [
        ("split", ["same", "--train-out", "ALIAS", "--dev-out", "d.conll"], None,
         "corpus", "--train-out"),
        ("train", ["g.cfg", "same", "c.conll", "ALIAS"], None, "train", "model_out"),
        ("train", ["g.cfg", "c.conll", "c.conll", "m.bin", "--pretrained-vectors", "same",
                   "--history-out", "ALIAS"], None, "--pretrained-vectors", "--history-out"),
        ("predict", ["same", "c.conll", "ALIAS"], None, "model", "out"),
        ("predict", ["m.bin", "c.conll", "ALIAS", "--contextual-vectors", "same"], None,
         "--contextual-vectors", "out"),
        ("ensemble", ["a.pred", "same", "--reference", "c.conll", "--out", "ALIAS"], None,
         "predictions", "--out"),
        ("ensemble", ["a.pred", "b.pred", "--reference", "same", "--out", "v.txt",
                      "--diagnostics", "ALIAS"], None, "--reference", "--diagnostics"),
        ("augment", ["same", "--out", "ALIAS"], None, "plan", "--out"),
        ("augment", ["plan.txt", "--out", "o.conll", "--manifest", "ALIAS"],
         "output\tx\nsource\ta\tsame\n", "source 'a'", "--manifest"),
        ("augment", ["plan.txt", "--out", "ALIAS"],
         "output\tx\nsource\ta\tc.conll\tlexicon=same\n", "lexicon of source 'a'", "--out"),
    ], ids=["split-corpus", "train-corpus", "train-vectors", "predict-model",
            "predict-contextual", "ensemble-predictions", "ensemble-reference", "augment-plan",
            "augment-source", "augment-lexicon"])
    def test_output_naming_an_input_is_refused(self, capsys, tmp_path, monkeypatch, command,
                                               argv, plan, first, second):
        # the check comes before the input is read (the other inputs do
        # not exist), the input keeps its bytes and nothing is written
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "same").write_bytes(b"keep\n")
        if plan is not None:
            (tmp_path / "plan.txt").write_text(plan, encoding="utf-8")
        alias = os.path.join("sub", "..", "same")
        code, out, err = run(capsys, command, *[alias if a == "ALIAS" else a for a in argv])
        assert (code, out) == (1, "")
        assert err == f"error: {first} and {second} name the same file: {alias}\n"
        written = sorted(["same", "sub"] + (["plan.txt"] if plan is not None else []))
        assert sorted(os.listdir(tmp_path)) == written
        assert (tmp_path / "same").read_bytes() == b"keep\n"

    @pytest.mark.parametrize("bad", ["missing directory", "directory"])
    @pytest.mark.parametrize("command", ["split", "train", "predict", "augment", "ensemble"])
    def test_unwritable_output_is_refused_before_any_input_is_read(self, capsys, tmp_path,
                                                                   monkeypatch, command, bad):
        # every input is valid, so only the check stops the command: it
        # exits 2 naming the output as given, a pre-existing output keeps
        # its bytes, no temporary file is left and train never trains
        monkeypatch.chdir(tmp_path)
        corpus = tiny_fixture_corpus()
        pred = write_prediction_file(corpus, [
            sentence_predictions(TokenPrediction(t, 1.0) for t in s.gold_tags)
            for s in corpus.sentences])
        for name, text in {"c.conll": write_conll(corpus), "g.cfg": SMALL_CONFIG,
                           "plan.txt": "output\tx\nsource\ta\tc.conll\n",
                           "a.pred": pred, "b.pred": pred, "old.out": "keep\n"}.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        save_model(build_model(TaggerConfig(hidden=4, word_dim=4, seed=1), corpus),
                   tmp_path / "m.bin")
        (tmp_path / "outdir").mkdir()
        target = "outdir" if bad == "directory" else os.path.join("nodir", "x.out")
        argv, flag = {
            "split": (["c.conll", "--train-out", "old.out", "--dev-out", target], "--dev-out"),
            "train": (["g.cfg", "c.conll", "c.conll", "old.out", "--history-out", target],
                      "--history-out"),
            "predict": (["m.bin", "c.conll", target], "out"),
            "augment": (["plan.txt", "--out", "old.out", "--manifest", target], "--manifest"),
            "ensemble": (["a.pred", "b.pred", "--reference", "c.conll", "--out", "old.out",
                          "--diagnostics", target], "--diagnostics"),
        }[command]
        trained, real_train = [], cli.train
        monkeypatch.setattr(cli, "train", lambda *a: trained.append(a) or real_train(*a))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        code, out, err = run(capsys, command, *argv)
        assert (code, out) == (2, "")
        reason = "names a directory" if bad == "directory" else \
            "names a file in a missing directory"
        assert err == f"error: {flag} {reason}: {target}\n"
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before
        assert sorted(os.listdir(tmp_path)) == sorted(list(before) + ["outdir"])
        assert os.listdir(tmp_path / "outdir") == []
        assert trained == []

    def test_bad_usage(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert err != ""

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_malformed_corpus_is_validation_failure(self, capsys, tmp_path):
        bad = tmp_path / "bad.conll"
        bad.write_text("word NOTATAG\n", encoding="utf-8")
        code, _, err = run(capsys, "stats", bad)
        assert code == 1
        assert "line 1" in err


class TestStats:
    def test_golden_output(self, capsys, fixture_file):
        code, out, err = run(capsys, "stats", fixture_file, "--pos-col", "1")
        assert code == 0
        assert err == ""
        assert out == GOLDEN_STATS

    @pytest.mark.parametrize("pos_col, clash", [("2", "--pos-col 2 is the tag column"),
                                                 ("0", "--pos-col 0 is the token column")])
    def test_pos_col_naming_another_field_is_named(self, capsys, tmp_path, pos_col, clash):
        path = tmp_path / "p.conll"
        path.write_text("alice NN B-PER\n", encoding="utf-8")
        code, out, err = run(capsys, "stats", path, "--pos-col", pos_col)
        assert code == 1
        assert out == ""
        assert f"line 1: {clash}: 'alice NN B-PER'" in err

    def test_stable_across_runs(self, capsys, fixture_file):
        first = run(capsys, "stats", fixture_file)
        second = run(capsys, "stats", fixture_file)
        assert first == second


class TestSplit:
    def test_writes_complementary_parts(self, capsys, tmp_path):
        corpus_path = tmp_path / "c.conll"
        corpus_path.write_text(learnable_corpus_text(20), encoding="utf-8")
        train_out, dev_out = tmp_path / "train.conll", tmp_path / "dev.conll"
        code, out, _ = run(
            capsys, "split", corpus_path,
            "--train-out", train_out, "--dev-out", dev_out,
        )
        assert code == 0
        train = parse_conll(train_out.read_text(encoding="utf-8"))
        dev = parse_conll(dev_out.read_text(encoding="utf-8"))
        assert len(train) == 14  # ceil(20 * 0.7)
        assert len(dev) == 6
        assert {s.id for s in train.sentences}.isdisjoint(
            {s.id for s in dev.sentences}
        )
        assert "train 14" in out

    def test_seed_changes_assignment_not_sizes(self, capsys, tmp_path):
        corpus_path = tmp_path / "c.conll"
        corpus_path.write_text(learnable_corpus_text(20), encoding="utf-8")
        ids = []
        for seed in ("1", "2"):
            train_out = tmp_path / f"train{seed}.conll"
            dev_out = tmp_path / f"dev{seed}.conll"
            code, _, _ = run(
                capsys, "split", corpus_path, "--seed", seed,
                "--train-out", train_out, "--dev-out", dev_out,
            )
            assert code == 0
            ids.append(tuple(
                s.id for s in parse_conll(
                    train_out.read_text(encoding="utf-8")
                ).sentences
            ))
        assert len(ids[0]) == len(ids[1]) == 14
        assert set(ids[0]) != set(ids[1])


class TestAugmentCommand:
    def test_plan_execution_writes_corpus_and_manifest(self, capsys, tmp_path):
        (tmp_path / "base.conll").write_text(
            learnable_corpus_text(6), encoding="utf-8"
        )
        (tmp_path / "lex.tsv").write_text("alice\thanna\n", encoding="utf-8")
        plan = tmp_path / "plan.tsv"
        plan.write_text(
            "output\tcombo\n"
            f"source\ta\t{tmp_path / 'base.conll'}\n"
            f"source\tb\t{tmp_path / 'base.conll'}\tlexicon={tmp_path / 'lex.tsv'}\n",
            encoding="utf-8",
        )
        out_path = tmp_path / "combo.conll"
        code, out, _ = run(capsys, "augment", plan, "--out", out_path)
        assert code == 0
        combined = parse_conll(out_path.read_text(encoding="utf-8"))
        assert len(combined) == 12
        manifest = (tmp_path / "combo.conll.manifest").read_text(encoding="utf-8")
        assert "combined 12 sentences" in manifest
        assert "wrote 12 sentences" in out

    def test_relative_paths_are_read_beside_the_plan(self, capsys, tmp_path, monkeypatch):
        plans = tmp_path / "plans"
        plans.mkdir()
        (plans / "base.conll").write_text(learnable_corpus_text(6), encoding="utf-8")
        (plans / "lex.tsv").write_text("alice\thanna\n", encoding="utf-8")
        (plans / "plan.tsv").write_text(
            "output\tcombo\n"
            "source\ta\tbase.conll\n"
            "source\tb\tbase.conll\tlexicon=lex.tsv\n",
            encoding="utf-8",
        )
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        code, out, err = run(capsys, "augment", plans / "plan.tsv", "--out", "combo.conll")
        assert (code, err) == (0, "")
        combined = parse_conll((elsewhere / "combo.conll").read_text(encoding="utf-8"))
        base, translated = combined.sentences[:6], combined.sentences[6:]
        assert [tuple("hanna" if w == "alice" else w for w in sent.surfaces) for sent in base] \
            == [sent.surfaces for sent in translated]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Train once for the module: corpus, config, model, dev file paths."""
    root = tmp_path_factory.mktemp("pipeline")
    (root / "corpus.conll").write_text(learnable_corpus_text(),
                                       encoding="utf-8")
    (root / "tagger.cfg").write_text(SMALL_CONFIG, encoding="utf-8")
    code = cli.main([
        "split", str(root / "corpus.conll"),
        "--train-out", str(root / "train.conll"),
        "--dev-out", str(root / "dev.conll"),
    ])
    assert code == 0
    code = cli.main([
        "train", str(root / "tagger.cfg"), str(root / "train.conll"),
        str(root / "dev.conll"), str(root / "model.bin"),
    ])
    assert code == 0
    return root


class TestPipeline:
    def test_train_writes_model_and_history(self, trained):
        assert (trained / "model.bin").exists()
        history = (trained / "model.bin.history").read_text(encoding="utf-8")
        assert history.startswith("# epoch train_loss eval_loss eval_macro_f1")
        assert "# best_epoch" in history

    def test_predict_then_evaluate(self, capsys, trained):
        code, out, err = run(
            capsys, "predict", trained / "model.bin",
            trained / "dev.conll", trained / "preds.txt",
        )
        assert code == 0
        code, out, err = run(
            capsys, "evaluate", trained / "dev.conll", trained / "preds.txt"
        )
        assert code == 0
        assert err == ""
        assert "macro_f1 = " in out
        assert "token accuracy" in out
        kv = dict(
            line.split(" = ")
            for line in out.splitlines() if " = " in line
        )
        assert float(kv["macro_f1"]) >= 0.9  # the corpus is learnable

    def test_predict_matches_library_call(self, capsys, trained):
        code, _, _ = run(
            capsys, "predict", trained / "model.bin",
            trained / "dev.conll", trained / "cli_preds.txt",
        )
        assert code == 0
        from seqtag.ensemble import write_prediction_file
        from seqtag.tagger import load_model, predict_corpus

        model = load_model(trained / "model.bin")
        dev = parse_conll((trained / "dev.conll").read_text(encoding="utf-8"))
        expected = write_prediction_file(dev, predict_corpus(model, dev))
        assert (trained / "cli_preds.txt").read_text(encoding="utf-8") == expected

    def test_predict_no_gold(self, capsys, trained):
        raw = trained / "raw.txt"
        raw.write_text("# u0\nalice\nsaw\nparis\n", encoding="utf-8")
        code, _, _ = run(
            capsys, "predict", trained / "model.bin", raw,
            trained / "raw_preds.txt", "--no-gold",
        )
        assert code == 0
        lines = (trained / "raw_preds.txt").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# u0"
        # token, predicted, score: three columns, no gold
        assert all(len(line.split()) == 3 for line in lines[1:] if line)

    def test_predict_no_gold_reads_the_pos_column(self, capsys, tmp_path):
        pos_of = {"alice": "NNP", "bob": "NNP", "paris": "NNP", "tokyo": "NNP",
                  "the": "DT", "saw": "VBD", "ran": "VBD", "dog": "NN"}
        labeled, raw = [], []
        for line in learnable_corpus_text(12).split("\n"):
            if line and not line.startswith("#"):
                word, tag = line.split("\t")
                labeled.append(f"{word} {pos_of[word]} {tag}")
                raw.append(f"{word} {pos_of[word]}")
            else:
                labeled.append(line)
                raw.append(line)
        (tmp_path / "c.conll").write_text("\n".join(labeled), encoding="utf-8")
        (tmp_path / "raw.txt").write_text("\n".join(raw), encoding="utf-8")
        (tmp_path / "g.cfg").write_text(
            SMALL_CONFIG + "use_pos = true\n", encoding="utf-8"
        )
        code, _, _ = run(capsys, "train", tmp_path / "g.cfg", tmp_path / "c.conll",
                         tmp_path / "c.conll", tmp_path / "m.bin", "--pos-col", 1)
        assert code == 0
        code, _, _ = run(capsys, "predict", tmp_path / "m.bin", tmp_path / "c.conll",
                         tmp_path / "gold.txt", "--pos-col", 1)
        assert code == 0
        code, _, err = run(capsys, "predict", tmp_path / "m.bin", tmp_path / "raw.txt",
                           tmp_path / "raw.txt.pred", "--no-gold", "--pos-col", 1)
        assert code == 0, err
        with_gold = read_prediction_file((tmp_path / "gold.txt").read_text(encoding="utf-8"))
        no_gold = read_prediction_file(
            (tmp_path / "raw.txt.pred").read_text(encoding="utf-8")
        )
        assert no_gold.sentence_ids == with_gold.sentence_ids
        assert no_gold.predictions == with_gold.predictions
        # without --pos-col the POS tags are extra columns, not a POS column
        code, _, err = run(capsys, "predict", tmp_path / "m.bin", tmp_path / "c.conll",
                           tmp_path / "bare.txt")
        assert code == 1
        assert err.startswith("error: sentence ")
        assert err.endswith(": model uses POS features but has no POS column "
                            "(pass --pos-col)\n")
        assert err.count("\n") == 1
        assert not (tmp_path / "bare.txt").exists()

    def test_no_gold_input_is_nfc_normalized(self, capsys, trained):
        nfd = unicodedata.normalize("NFD", "Café")
        raw_text = f"# {nfd}-1\n{nfd}\nsaw\n\n{nfd}\n"
        labeled_text = "\n".join(
            f"{line}\tO" if line and not line.startswith("#") else line
            for line in raw_text.split("\n")
        )
        unlabeled = parse_conll(raw_text, ColumnConfig(labeled=False))
        labeled = parse_conll(labeled_text)
        assert [s.id for s in unlabeled.sentences] == ["Café-1", "s0"]
        assert [s.id for s in unlabeled.sentences] == [s.id for s in labeled.sentences]
        assert [s.surfaces for s in unlabeled.sentences] == [
            s.surfaces for s in labeled.sentences
        ]
        raw = trained / "nfd.txt"
        raw.write_text(raw_text, encoding="utf-8")
        code, _, _ = run(
            capsys, "predict", trained / "model.bin", raw,
            trained / "nfd_preds.txt", "--no-gold",
        )
        assert code == 0
        written = (trained / "nfd_preds.txt").read_text(encoding="utf-8")
        assert "# Café-1" in written
        assert nfd not in written

    def test_ensemble_command(self, capsys, trained):
        for name in ("p1.txt", "p2.txt", "p3.txt"):
            code, _, _ = run(
                capsys, "predict", trained / "model.bin",
                trained / "dev.conll", trained / name,
            )
            assert code == 0
        code, out, _ = run(
            capsys, "ensemble", trained / "p1.txt", trained / "p2.txt",
            trained / "p3.txt", "--reference", trained / "dev.conll",
            "--out", trained / "ens.txt",
        )
        assert code == 0
        assert "3 models" in out
        diag = (trained / "ens.txt.diag").read_text(encoding="utf-8")
        assert diag.startswith("# threshold 0.5")
        # identical inputs vote unanimously wherever scores survive; the
        # ensembled labels must match a single model's output labels
        from seqtag.ensemble import read_prediction_file

        single = read_prediction_file(
            (trained / "p1.txt").read_text(encoding="utf-8")
        )
        combined = read_prediction_file(
            (trained / "ens.txt").read_text(encoding="utf-8")
        )
        assert [[p.label for p in s] for s in combined.predictions] == [
            [p.label for p in s] for s in single.predictions
        ]

    def test_ensemble_needs_two_files(self, capsys, trained):
        code, _, err = run(
            capsys, "ensemble", trained / "p1.txt",
            "--reference", trained / "dev.conll", "--out", trained / "x.txt",
        )
        assert code == 1
        assert "at least 2" in err

    def test_evaluate_mismatched_tokens_fails(self, capsys, trained, tmp_path):
        code, _, _ = run(
            capsys, "predict", trained / "model.bin",
            trained / "dev.conll", tmp_path / "dev_preds.txt",
        )
        other = tmp_path / "other.conll"
        other.write_text(learnable_corpus_text(7, seed=9), encoding="utf-8")
        code, _, err = run(
            capsys, "evaluate", other, tmp_path / "dev_preds.txt"
        )
        assert code == 1
        assert err != ""


def corrupt_model(data, corruption):
    """Copy of model-file bytes with one header or parameter-block defect."""
    header_len = struct.unpack_from("<Q", data, 8)[0]
    header = json.loads(data[16:16 + header_len])
    blocks = data[16 + header_len:]
    if corruption == "unknown config key":
        header["config"]["bogus"] = 1
    elif corruption == "missing word_tokens":
        del header["word_tokens"]
    elif corruption == "non-integer hidden":
        header["config"]["hidden"] = "x"
    elif corruption == "header is a list":
        header = [header]
    elif corruption == "NaN parameter block":
        blocks = blocks[:-8] + struct.pack("<d", float("nan"))
    elif corruption == "format version 1":
        header["format_version"] = 1
    elif corruption == "unsorted classes":
        header["classes"] = header["classes"][::-1]
    elif corruption == "header nested 200,000 deep":
        raw = b"[" * 200_000
        return data[:8] + struct.pack("<Q", len(raw)) + raw + blocks
    elif corruption == "oversized config":
        header["config"].update(hidden=1000, lstm_layers=2)
    elif corruption == "contextual_dim without the slot":
        header["contextual_dim"] = 7
    elif corruption == "pos_tokens without use_pos":
        header["pos_tokens"] = ["NN", "VB"]
    elif corruption == "CRF scores scaled by 1e150":
        # finite, so the file loads; the tag scores overflow
        values = np.frombuffer(blocks, dtype="<f8").copy()
        offset = 0
        for name, shape in header["params"]:
            size = math.prod(shape)
            if name.startswith(("head.", "crf.")):
                values[offset:offset + size] *= 1e150
            offset += size
        blocks = values.tobytes()
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    return data[:8] + struct.pack("<Q", len(raw)) + raw + blocks


class TestCorruptModel:
    @pytest.mark.parametrize("corruption", [
        "unknown config key",
        "missing word_tokens",
        "non-integer hidden",
        "header is a list",
        "NaN parameter block",
        "oversized config",
        "contextual_dim without the slot",
        "pos_tokens without use_pos",
        "CRF scores scaled by 1e150",
        "format version 1",
        "unsorted classes",
        "header nested 200,000 deep",
    ])
    @pytest.mark.filterwarnings("error")
    def test_predict_exits_one_with_one_error_line(self, capsys, trained,
                                                   tmp_path, corruption):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(corrupt_model((trained / "model.bin").read_bytes(),
                                      corruption))
        code, out, err = run(
            capsys, "predict", bad, trained / "dev.conll", tmp_path / "preds.txt",
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert not (tmp_path / "preds.txt").exists()

    def test_format_1_models_must_be_retrained(self, capsys, trained, tmp_path):
        # format 1 stored each BiLSTM direction's weights apart; no reader
        # for it is kept
        bad = tmp_path / "v1.bin"
        bad.write_bytes(corrupt_model((trained / "model.bin").read_bytes(),
                                      "format version 1"))
        code, out, err = run(
            capsys, "predict", bad, trained / "dev.conll", tmp_path / "preds.txt",
        )
        assert (code, out) == (1, "")
        assert err == f"error: {bad}: unsupported model format version 1\n"
        assert not (tmp_path / "preds.txt").exists()


def header_mutants(header):
    """(description, header) pairs: every header and config field replaced
    by values of the wrong kind or range, or deleted, and the list fields
    shortened, extended with a duplicate or given an empty name."""
    odd_values = [None, True, -1, 0, 1, 2 ** 40, 1.5, float("nan"), "x", [], {}]
    fields = [((key,), value) for key, value in header.items()]
    fields += [(("config", key), value) for key, value in header["config"].items()]
    for path, value in fields:
        variants = [(repr(v), v) for v in odd_values]
        if isinstance(value, list) and value:
            variants += [("shortened", value[:-1]), ("duplicate", value + value[:1]),
                         ("empty name", [""] + value[1:])]
        variants.append(("deleted", KeyError))
        for what, new in variants:
            mutant = json.loads(json.dumps(header))
            parent = mutant if len(path) == 1 else mutant[path[0]]
            if new is KeyError:
                del parent[path[-1]]
            else:
                parent[path[-1]] = new
            yield f"{'.'.join(path)} {what}", mutant


class TestSeededModelCorruption:
    """A saved BIO-constrained CRF model, truncated, byte-flipped, with one
    parameter block scaled by 1e300 and with mutated header fields, through
    ``seqtag predict``: each run writes a well-formed prediction file and
    exits 0, or exits 1 or 2 with one ``error:`` line and no output file.
    Warnings are errors, so a numpy warning fails the run like any escaped
    exception."""

    @pytest.fixture(scope="class")
    def model_bytes(self, trained, tmp_path_factory):
        root = tmp_path_factory.mktemp("constrained")
        (root / "tagger.cfg").write_text(
            SMALL_CONFIG.replace("max_epochs = 12", "max_epochs = 3")
            + "crf_constrain_bio = true\n", encoding="utf-8")
        code = cli.main([
            "train", str(root / "tagger.cfg"), str(trained / "train.conll"),
            str(trained / "dev.conll"), str(root / "model.bin"),
        ])
        assert code == 0
        return (root / "model.bin").read_bytes()

    def corrupted(self, data):
        """(description, bytes) for every corruption of ``data``."""
        rng = np.random.default_rng(2024)
        header_len = struct.unpack_from("<Q", data, 8)[0]
        body = 16 + header_len
        for cut in range(0, body, 10):
            yield f"truncated at header byte {cut}", data[:cut]
        for cut in np.sort(rng.choice(np.arange(body + 1, len(data)), 50, replace=False)):
            yield f"truncated at block byte {cut}", data[:cut]
        for pos in rng.integers(0, len(data), 200):
            flipped = bytearray(data)
            flipped[pos] ^= int(rng.integers(1, 256))
            yield f"byte {pos} flipped", bytes(flipped)
        header = json.loads(data[16:body])
        offset = body
        for name, shape in header["params"]:
            end = offset + 8 * math.prod(shape)
            scaled = np.frombuffer(data[offset:end], dtype="<f8") * 1e300
            yield f"block {name} scaled by 1e300", data[:offset] + scaled.tobytes() + data[end:]
            offset = end
        for what, mutant in header_mutants(header):
            raw = json.dumps(mutant).encode("utf-8")
            yield f"header {what}", data[:8] + struct.pack("<Q", len(raw)) + raw + data[body:]

    @pytest.mark.filterwarnings("error")
    def test_predict_succeeds_or_fails_cleanly(self, capsys, trained, tmp_path, model_bytes):
        dev = parse_conll((trained / "dev.conll").read_text(encoding="utf-8"))
        bad, out_path = tmp_path / "bad.bin", tmp_path / "preds.txt"
        problems = []
        runs = 0
        for what, data in self.corrupted(model_bytes):
            runs += 1
            bad.write_bytes(data)
            code, out, err = run(capsys, "predict", bad, trained / "dev.conll", out_path)
            if code == 0:
                preds = read_prediction_file(out_path.read_text(encoding="utf-8"))
                out_path.unlink()
                if err or preds.surfaces != [s.surfaces for s in dev.sentences]:
                    problems.append((what, code, err))
            elif (code not in (1, 2) or out or out_path.exists()
                  or len(err.splitlines()) != 1 or not err.startswith("error: ")):
                problems.append((what, code, err))
        assert runs > 400
        assert problems == [], problems[:5]


def corrupted_bytes(data, rng):
    """(description, bytes) for truncations, byte flips and insertions of
    line breaks, ``#``, ``nan``, ``B-``, invalid UTF-8 and tabs into
    ``data``."""
    for cut in np.sort(rng.choice(len(data), 25, replace=False)):
        yield f"truncated at byte {cut}", data[:cut]
    for pos in rng.integers(0, len(data), 40):
        flipped = bytearray(data)
        flipped[pos] ^= int(rng.integers(1, 256))
        yield f"byte {pos} flipped", bytes(flipped)
    for insert in (b"\n", b"#", b"nan", b"B-", b"\xff", b"\xe0\xa6", b"\t"):
        for pos in rng.integers(0, len(data) + 1, 8):
            yield f"{insert!r} inserted at byte {pos}", data[:pos] + insert + data[pos:]


def in_directory(directory, argv):
    """``argv`` with each file name (not the command, not an option) under
    ``directory``."""
    return argv[:1] + [a if a.startswith("--") else directory / a for a in argv[1:]]


class TestSeededCorpusCorruption:
    """A corpus and a prediction file, truncated, byte-flipped and with
    bytes inserted, through ``seqtag stats``, ``evaluate`` and
    ``ensemble``: each run exits 0, or exits 1 or 2 with one ``error:``
    line and no output file. Warnings are errors, so a numpy warning
    fails the run like any escaped exception."""

    @pytest.fixture()
    def files(self, tmp_path):
        rng = np.random.default_rng(11)
        vocab = ["dhaka", "café", "ঢাকা", "বিশ্ববিদ্যালয়", "rahim", "the", "met"]
        corpus = random_corpus(rng, 6, min_len=2, max_len=6, vocab=vocab)
        (tmp_path / "gold.conll").write_text(write_conll(corpus), encoding="utf-8")
        for name in ("p1.txt", "p2.txt"):
            preds = [sentence_predictions(TokenPrediction(t, float(rng.random()))
                                          for t in s.gold_tags)
                     for s in corpus.sentences]
            (tmp_path / name).write_text(write_prediction_file(corpus, preds),
                                         encoding="utf-8")
        return tmp_path

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("target", ["gold.conll", "p1.txt"])
    def test_commands_succeed_or_fail_cleanly(self, capsys, files, target):
        out_path, diag_path = files / "ens.txt", files / "ens.txt.diag"
        commands = [
            ["evaluate", files / "gold.conll", files / "p1.txt"],
            ["ensemble", files / "p1.txt", files / "p2.txt",
             "--reference", files / "gold.conll", "--out", out_path],
        ]
        if target == "gold.conll":
            commands.append(["stats", files / "gold.conll"])
        intact = (files / target).read_bytes()
        problems = []
        runs = 0
        cases = [("intact", intact), *corrupted_bytes(intact, np.random.default_rng(7))]
        for what, data in cases:
            (files / target).write_bytes(data)
            for argv in commands:
                runs += 1
                try:
                    code, out, err = run(capsys, *argv)
                except Exception as exc:  # anything escaping main is a failure
                    problems.append((what, argv[0], repr(exc)))
                    continue
                written = [p for p in (out_path, diag_path) if p.exists()]
                if code == 0:
                    if err or not out:
                        problems.append((what, argv[0], code, err))
                    for p in written:
                        p.unlink()
                elif (what == "intact" or code not in (1, 2) or out or written
                      or len(err.splitlines()) != 1 or not err.startswith("error: ")):
                    problems.append((what, argv[0], code, err))
        assert runs > 200
        assert problems == [], problems[:5]


class TestSeededInputFileCorruption:
    """A vectors file, a config, a plan and a lexicon, truncated,
    byte-flipped and with bytes inserted, each through the command that
    reads it: ``train --pretrained-vectors`` with a tiny config,
    ``gradcheck`` (which fixes small widths) for the config, and
    ``augment`` for the plan and the lexicon. Each run exits 0, or exits 1
    or 2 with one ``error:`` line and no output file; an ``augment`` that
    succeeds writes a corpus that parses back to the sentence and token
    counts of its manifest. Warnings are errors, so a numpy warning fails
    the run like any escaped exception."""

    @pytest.fixture()
    def files(self, tmp_path):
        rng = np.random.default_rng(23)
        (tmp_path / "c.conll").write_text(learnable_corpus_text(4), encoding="utf-8")
        (tmp_path / "tiny.cfg").write_text(
            "word_dim = 4\nhidden = 4\nlstm_layers = 1\nmax_epochs = 1\n", encoding="utf-8")
        words = ["alice", "bob", "paris", "tokyo", "the", "saw"]
        (tmp_path / "vec.txt").write_text(f"{len(words)} 4\n" + "".join(
            f"{w} " + " ".join(f"{x:.3f}" for x in rng.normal(size=4)) + "\n"
            for w in words), encoding="utf-8")
        (tmp_path / "gc.cfg").write_text(
            SMALL_CONFIG + "use_pos = true\ncrf_constrain_bio = true\n", encoding="utf-8")
        (tmp_path / "lex.tsv").write_text(
            "alice\thanna\n# a comment\nparis\tপ্যারিস\nthe\tদ্য\n", encoding="utf-8")
        (tmp_path / "plan.tsv").write_text(
            "output\tcombo\nsource\tbase\tc.conll\tcap=3\n"
            "source\ttrans\tc.conll\tlexicon=lex.tsv\tfallback=mark-unknown\n",
            encoding="utf-8")
        return tmp_path

    # file names after the command name and outside options are in the
    # fixture's directory; the plan names its corpus and lexicon beside itself
    COMMANDS = {
        "vec.txt": (["train", "tiny.cfg", "c.conll", "c.conll", "m.bin",
                     "--pretrained-vectors", "vec.txt"], ["m.bin", "m.bin.history"]),
        "gc.cfg": (["gradcheck", "gc.cfg"], []),
        "plan.tsv": (["augment", "plan.tsv", "--out", "out.conll"],
                     ["out.conll", "out.conll.manifest"]),
        "lex.tsv": (["augment", "plan.tsv", "--out", "out.conll"],
                    ["out.conll", "out.conll.manifest"]),
    }

    @staticmethod
    def augment_problem(files):
        """Why the corpus ``augment`` wrote disagrees with its manifest, or None."""
        manifest = (files / "out.conll.manifest").read_text(encoding="utf-8")
        try:
            combined = parse_conll((files / "out.conll").read_text(encoding="utf-8"))
        except ValueError as exc:
            return f"written corpus does not parse: {exc}"
        stated = manifest.splitlines()[-1]
        found = f"combined {len(combined)} sentences, {combined.n_tokens} tokens"
        return None if stated == found else f"manifest says {stated!r}, file has {found!r}"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("target", ["vec.txt", "gc.cfg", "plan.tsv", "lex.tsv"])
    def test_commands_succeed_or_fail_cleanly(self, capsys, files, target):
        argv, outputs = self.COMMANDS[target]
        argv = in_directory(files, argv)
        outputs = [files / name for name in outputs]
        intact = (files / target).read_bytes()
        problems = []
        cases = [("intact", intact), *corrupted_bytes(intact, np.random.default_rng(31))]
        for what, data in cases:
            (files / target).write_bytes(data)
            try:
                code, out, err = run(capsys, *argv)
            except Exception as exc:  # anything escaping main is a failure
                problems.append((what, repr(exc)))
                continue
            written = [p for p in outputs if p.exists()]
            if code == 0:
                problem = self.augment_problem(files) if argv[0] == "augment" else None
                if err or not out or len(written) != len(outputs) or problem:
                    problems.append((what, code, err, problem))
                for p in written:
                    p.unlink()
            elif (what == "intact" or code not in (1, 2) or out or written
                  or len(err.splitlines()) != 1 or not err.startswith("error: ")):
                problems.append((what, code, out, err))
        assert len(cases) > 100
        assert problems == [], problems[:5]


class TestSeededContextualVectorsCorruption:
    """A contextual-vectors file, truncated, byte-flipped and with bytes
    inserted as in ``corrupted_bytes``, through ``train
    --contextual-vectors`` and through ``predict --contextual-vectors`` with
    a model trained on the intact file. Each run exits 0, or exits 1 or 2
    with one ``error:`` line and no output file. Warnings are errors, so a
    numpy warning fails the run like any escaped exception."""

    @pytest.fixture()
    def files(self, tmp_path):
        rng = np.random.default_rng(37)
        text = learnable_corpus_text(4)
        (tmp_path / "c.conll").write_text(text, encoding="utf-8")
        (tmp_path / "ctx.cfg").write_text(
            "word_dim = 4\nhidden = 4\nlstm_layers = 1\nmax_epochs = 1\n"
            "use_contextual_slot = true\n", encoding="utf-8")
        (tmp_path / "ctx.tsv").write_text("".join(
            f"{sent.id}\t{i}\t" + "\t".join(f"{x:.3f}" for x in rng.normal(size=3)) + "\n"
            for sent in parse_conll(text).sentences for i in range(len(sent))),
            encoding="utf-8")
        code = cli.main([str(a) for a in in_directory(tmp_path, [
            "train", "ctx.cfg", "c.conll", "c.conll", "model.bin",
            "--contextual-vectors", "ctx.tsv"])])
        assert code == 0
        return tmp_path

    COMMANDS = {
        "train": (["train", "ctx.cfg", "c.conll", "c.conll", "m.bin",
                   "--contextual-vectors", "ctx.tsv"], ["m.bin", "m.bin.history"]),
        "predict": (["predict", "model.bin", "c.conll", "p.txt",
                     "--contextual-vectors", "ctx.tsv"], ["p.txt"]),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_commands_succeed_or_fail_cleanly(self, capsys, files, command):
        argv, outputs = self.COMMANDS[command]
        argv = in_directory(files, argv)
        outputs = [files / name for name in outputs]
        intact = (files / "ctx.tsv").read_bytes()
        problems = []
        cases = [("intact", intact), *corrupted_bytes(intact, np.random.default_rng(41))]
        for what, data in cases:
            (files / "ctx.tsv").write_bytes(data)
            try:
                code, out, err = run(capsys, *argv)
            except Exception as exc:  # anything escaping main is a failure
                problems.append((what, repr(exc)))
                continue
            written = [p for p in outputs if p.exists()]
            if code == 0:
                if err or not out or len(written) != len(outputs):
                    problems.append((what, code, err))
                for p in written:
                    p.unlink()
            elif (what == "intact" or code not in (1, 2) or out or written
                  or len(err.splitlines()) != 1 or not err.startswith("error: ")):
                problems.append((what, code, out, err))
        assert len(cases) > 100
        assert problems == [], problems[:5]


class TestTrainValidation:
    def test_use_pos_on_pos_less_corpus_names_the_key(self, capsys, tmp_path):
        (tmp_path / "c.conll").write_text(learnable_corpus_text(4),
                                          encoding="utf-8")
        (tmp_path / "g.cfg").write_text(SMALL_CONFIG + "use_pos = true\n",
                                        encoding="utf-8")
        code, out, err = run(
            capsys, "train", tmp_path / "g.cfg", tmp_path / "c.conll",
            tmp_path / "c.conll", tmp_path / "m.bin",
        )
        assert code == 1
        assert "use_pos" in err
        assert not (tmp_path / "m.bin").exists()

    def test_dev_class_absent_from_training_fails_before_training(self, capsys, tmp_path):
        (tmp_path / "t.conll").write_text("# t0\nalice B-PER\nsaw O\n", encoding="utf-8")
        (tmp_path / "d.conll").write_text("# d0\nparis B-LOC\n", encoding="utf-8")
        (tmp_path / "g.cfg").write_text(SMALL_CONFIG, encoding="utf-8")
        code, out, err = run(
            capsys, "train", tmp_path / "g.cfg", tmp_path / "t.conll",
            tmp_path / "d.conll", tmp_path / "m.bin",
        )
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: sentence 'd0': tag 'B-LOC' outside tagset ['PER']"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.conll", "g.cfg", "t.conll"]

    @pytest.mark.parametrize("option", ["--pretrained-vectors", "--contextual-vectors"])
    def test_non_finite_vectors_fail_at_parse(self, capsys, tmp_path, option):
        (tmp_path / "c.conll").write_text(learnable_corpus_text(4), encoding="utf-8")
        (tmp_path / "g.cfg").write_text(SMALL_CONFIG, encoding="utf-8")
        if option == "--pretrained-vectors":
            text = "alice " + " ".join(["0.1"] * 7) + " nan\n"
        else:
            text = "s0\t0\t0.5\ns0\t1\tinf\n"
        (tmp_path / "v.txt").write_text(text, encoding="utf-8")
        code, out, err = run(
            capsys, "train", tmp_path / "g.cfg", tmp_path / "c.conll",
            tmp_path / "c.conll", tmp_path / "m.bin", option, tmp_path / "v.txt",
        )
        assert code == 1
        assert err.splitlines() == [
            f"error: {tmp_path / 'v.txt'}: "
            f"line {1 if option == '--pretrained-vectors' else 2}: "
            "non-finite vector component"
        ]
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("bad", ["config", "train", "dev", "vectors"])
    def test_parse_error_names_its_file(self, capsys, tmp_path, bad):
        files = {
            "config": SMALL_CONFIG,
            "train": learnable_corpus_text(4),
            "dev": learnable_corpus_text(4, seed=1),
            "vectors": "alice " + " ".join(["0.1"] * 8) + "\n",
        }
        files[bad] = {
            "config": "word_dim = 8\nhidden\n",
            "train": "alice B-PER\nsaw\n",
            "dev": "alice B-PER\nsaw\n",
            "vectors": files["vectors"] + "bob " + " ".join(["0.1"] * 7) + " nan\n",
        }[bad]
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        code, _, err = run(
            capsys, "train", tmp_path / "config", tmp_path / "train", tmp_path / "dev",
            tmp_path / "m.bin", "--pretrained-vectors", tmp_path / "vectors",
        )
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {tmp_path / bad}: line 2: ")
        assert not (tmp_path / "m.bin").exists()


class TestEvaluateGolden:
    def test_hand_built_case(self, capsys, tmp_path):
        gold = tmp_path / "gold.conll"
        gold.write_text(
            "# s0\nmehta B-PER\nvisited O\ndhaka B-LOC\nuniversity I-LOC\n",
            encoding="utf-8",
        )
        preds = tmp_path / "preds.txt"
        preds.write_text(
            "# s0\nmehta B-PER B-PER 0.900000\nvisited O O 0.800000\n"
            "dhaka B-LOC O 0.700000\nuniversity I-LOC O 0.600000\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "evaluate", gold, preds)
        assert code == 0
        assert err == ""
        kv = dict(line.split(" = ") for line in out.splitlines() if " = " in line)
        assert float(kv["macro_f1"]) == pytest.approx(0.5)
        assert float(kv["f1.PER"]) == 1.0
        assert float(kv["f1.LOC"]) == 0.0
        assert float(kv["token_accuracy"]) == 0.5
        # report text is stable across runs
        assert run(capsys, "evaluate", gold, preds) == (code, out, err)

    def test_orphan_inside_tags_open_chunks(self, capsys, tmp_path):
        # an I- tag with no B- before it starts a chunk, in gold and in
        # predictions alike
        gold = tmp_path / "gold.conll"
        gold.write_text(
            "# s0\nmehta I-PER\nvisited O\ndhaka B-LOC\nuniversity I-LOC\n",
            encoding="utf-8",
        )
        preds = tmp_path / "preds.txt"
        preds.write_text(
            "# s0\nmehta I-PER B-PER 0.900000\nvisited O O 0.800000\n"
            "dhaka B-LOC I-LOC 0.700000\nuniversity I-LOC I-LOC 0.600000\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "evaluate", gold, preds)
        assert (code, err) == (0, "")
        assert "macro_f1 = 1.0" in out


class TestPredictionAlignment:
    @pytest.mark.parametrize("command", ["evaluate", "ensemble"])
    def test_sentence_ids_must_match_the_reference(self, capsys, tmp_path, command):
        # the same tokens under other ids: both commands refuse the file
        gold = tmp_path / "gold.conll"
        gold.write_text("# a\nx B-PER\ny O\n\n# b\nz O\n", encoding="utf-8")
        pred = tmp_path / "p.txt"
        pred.write_text("# q\nx B-PER B-PER 0.9\ny O O 0.8\n\n# r\nz O O 0.7\n",
                        encoding="utf-8")
        argv = [command, gold, pred] if command == "evaluate" else \
            [command, pred, pred, "--reference", gold, "--out", tmp_path / "ens.txt"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: model 'p.txt': sentence 'q' where reference has 'a'\n"
        assert not (tmp_path / "ens.txt").exists()

    @pytest.mark.parametrize("command", ["evaluate", "ensemble"])
    @pytest.mark.parametrize("fault", ["surfaces", "sentence count"])
    def test_tokens_and_sentence_count_must_match_the_reference(
            self, capsys, tmp_path, command, fault):
        gold = tmp_path / "gold.conll"
        gold.write_text("# a\nx B-PER\ny O\n\n# b\nz O\n", encoding="utf-8")
        text = "# a\nx B-PER B-PER 0.9\ny O O 0.8\n\n# b\nz O O 0.7\n"
        if fault == "surfaces":
            text = text.replace("y O O", "w O O")
            message = "sentence 'a' tokens do not match the reference corpus"
        else:
            text = text.split("\n\n")[0] + "\n"
            message = "1 sentences, reference has 2"
        pred = tmp_path / "p.txt"
        pred.write_text(text, encoding="utf-8")
        argv = [command, gold, pred] if command == "evaluate" else \
            [command, pred, pred, "--reference", gold, "--out", tmp_path / "ens.txt"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: model 'p.txt': {message}\n"
        assert not (tmp_path / "ens.txt").exists()


class TestNonNfcPredictionFiles:
    def test_same_bytes_align_after_normalization(self, capsys, tmp_path):
        # U+09DF is not NFC: normalization decomposes it into U+09AF U+09BC
        word = "য়"
        assert unicodedata.normalize("NFC", word) != word
        gold = tmp_path / "gold.conll"
        gold.write_text(f"# {word}-1\n{word} B-LOC\nও O\n", encoding="utf-8")
        for name in ("p1.txt", "p2.txt"):
            (tmp_path / name).write_text(
                f"# {word}-1\n{word} B-LOC B-LOC 0.900000\nও O O 0.800000\n",
                encoding="utf-8",
            )
        code, out, err = run(capsys, "evaluate", gold, tmp_path / "p1.txt")
        assert (code, err) == (0, "")
        assert "macro_f1 = 1.0" in out
        code, _, err = run(
            capsys, "ensemble", tmp_path / "p1.txt", tmp_path / "p2.txt",
            "--reference", gold, "--out", tmp_path / "ens.txt",
        )
        assert (code, err) == (0, "")
        voted = read_prediction_file((tmp_path / "ens.txt").read_text(encoding="utf-8"))
        assert voted.surfaces == [(unicodedata.normalize("NFC", word), "ও")]
        assert [p.label for p in voted.predictions[0]] == ["B-LOC", "O"]


class TestGradcheckCommand:
    GROUPS = ["word", "char", "pos", "lstm", "mha", "head", "crf"]
    EVERY_SWITCH = ("use_char_cnn = true\nuse_pos = true\nuse_contextual_slot = true\n"
                    "use_mha = true\nmha_heads = 2\ncrf_constrain_bio = true\n"
                    "dropout = 0.3\n")

    def write_config(self, tmp_path, extra="", layers=1):
        path = tmp_path / "g.cfg"
        path.write_text(f"lstm_layers = {layers}\n" + extra, encoding="utf-8")
        return path

    def groups(self, out):
        """{group: verdict} of the report lines."""
        return {l.split()[0]: l.split()[-1] for l in out.splitlines() if l}

    def test_all_layers_pass(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, self.EVERY_SWITCH, layers=2)
        code, out, err = run(capsys, "gradcheck", cfg)
        assert code == 0
        assert err == ""
        assert [l.split()[0] for l in out.splitlines() if l] == self.GROUPS
        assert set(self.groups(out).values()) == {"PASS"}

    def test_seed_varies_instances_never_verdicts(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, self.EVERY_SWITCH)
        outputs = []
        for seed in ("1", "2", "3"):
            code, out, _ = run(capsys, "gradcheck", cfg, "--seed", seed)
            assert code == 0
            assert self.groups(out) == dict.fromkeys(self.GROUPS, "PASS")
            outputs.append(out)
        # different seeds check different random instances
        assert len(set(outputs)) > 1

    def test_decode_only_passes(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, "crf_decode_only = true\n")
        code, out, _ = run(capsys, "gradcheck", cfg)
        assert code == 0
        assert self.groups(out) == dict.fromkeys(["word", "lstm", "head", "crf"], "PASS")

    def test_disabled_layers_are_skipped(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, "use_crf = false\n")
        code, out, _ = run(capsys, "gradcheck", cfg)
        assert code == 0
        assert self.groups(out) == dict.fromkeys(["word", "lstm", "head"], "PASS")

    def test_negative_seed_names_the_flag(self, capsys, tmp_path):
        code, out, err = run(capsys, "gradcheck", self.write_config(tmp_path), "--seed", "-1")
        assert (code, out) == (1, "")
        assert err == "error: --seed must be >= 0, got -1\n"

    def test_injected_gradient_bug_fails(self, capsys, tmp_path, monkeypatch):
        from seqtag.nn.layers import Linear

        original = Linear.backward

        def corrupted(self, d_out, cache):
            return original(self, d_out * 1.25, cache)

        monkeypatch.setattr(Linear, "backward", corrupted)
        code, out, err = run(capsys, "gradcheck", self.write_config(tmp_path, "dropout = 0.0\n"))
        assert code == 1
        assert self.groups(out)["head"] == "FAIL"
        assert "failed" in err

    def test_injected_attention_bug_fails(self, capsys, tmp_path, monkeypatch):
        # the roundoff allowance must stay far below a real wiring bug
        from seqtag.nn.layers import MultiHeadAttention

        original = MultiHeadAttention._project_backward

        def corrupted(self, name, w, d_proj, flat_x):
            return original(self, name, w, d_proj * 1.25 if name == "q" else d_proj, flat_x)

        monkeypatch.setattr(MultiHeadAttention, "_project_backward", corrupted)
        cfg = self.write_config(tmp_path, "use_mha = true\nmha_heads = 2\n")
        code, out, err = run(capsys, "gradcheck", cfg)
        assert code == 1
        assert self.groups(out)["mha"] == "FAIL"
        assert "failed" in err


class TestImpossibleArrays:
    """A config whose sizes ask for an array far beyond the address space
    (tens of PiB) fails at once with one ``error:`` line, exit 1; a size
    beyond int64 fails numpy's shape check before anything is allocated."""

    SIZES = pytest.mark.parametrize("size, message", [
        ("1000000000000000", "error: out of memory: "),
        ("100000000000000000000", "error: Maximum allowed dimension exceeded"),
    ], ids=["beyond_memory", "beyond_int64"])

    @SIZES
    def test_gradcheck_char_kernel(self, capsys, tmp_path, size, message):
        cfg = tmp_path / "g.cfg"
        cfg.write_text(f"use_char_cnn = true\nchar_kernel = {size}\n", encoding="utf-8")
        code, out, err = run(capsys, "gradcheck", cfg)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith(message)

    @SIZES
    def test_gradcheck_attention_heads(self, capsys, tmp_path, size, message):
        # gradcheck picks its hidden width from the head count at once
        cfg = tmp_path / "g.cfg"
        cfg.write_text(f"use_mha = true\nhidden = {size}\nmha_heads = {2 * int(size)}\n",
                       encoding="utf-8")
        code, out, err = run(capsys, "gradcheck", cfg)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith(message)

    @SIZES
    def test_train_word_dim(self, capsys, tmp_path, size, message):
        (tmp_path / "c.conll").write_text(learnable_corpus_text(4), encoding="utf-8")
        cfg = tmp_path / "g.cfg"
        cfg.write_text(SMALL_CONFIG.replace("word_dim = 8", f"word_dim = {size}"),
                       encoding="utf-8")
        code, out, err = run(capsys, "train", cfg, tmp_path / "c.conll", tmp_path / "c.conll",
                             tmp_path / "m.bin")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith(message)
        assert not (tmp_path / "m.bin").exists()


class TestLauncher:
    """The console script pins OpenBLAS to one thread unless the user chose
    a count, before numpy is imported; run in a fresh interpreter each."""

    CHILD = """
import os, sys
numpy_saw = []

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not numpy_saw:
            numpy_saw.append(os.environ.get("OPENBLAS_NUM_THREADS"))

assert "numpy" not in sys.modules
sys.meta_path.insert(0, Watch())
if sys.argv[1] == "library":
    import seqtag.cli
else:
    from seqtag import launch
    assert "numpy" not in sys.modules
    sys.argv = ["seqtag", "--help"]
    try:
        launch.main()
    except SystemExit as exc:
        assert exc.code == 0
print(numpy_saw[0], os.environ.get("OPENBLAS_NUM_THREADS"))
"""

    def run_child(self, mode, threads):
        import seqtag

        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(seqtag.__file__))
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        result = subprocess.run([sys.executable, "-c", self.CHILD, mode], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        return result.stdout.splitlines()[-1]

    def test_sets_one_thread_before_numpy_when_unset(self):
        assert self.run_child("script", None) == "1 1"

    def test_explicit_value_wins(self):
        assert self.run_child("script", "3") == "3 3"

    def test_library_import_is_untouched(self):
        assert self.run_child("library", None) == "None None"

    def test_console_script_points_at_launcher(self):
        tomllib = pytest.importorskip("tomllib")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"seqtag": "seqtag.launch:main"}
