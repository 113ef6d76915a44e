"""Atomic output files: an interrupted write leaves the previous file
byte-identical and no temporary file behind, for the shared helper and
for the writers that use it (model files and CLI outputs); a command
with several outputs (``split``, ``train``, ``augment``, ``ensemble``)
replaces none of them unless it can write them all."""

import os

import pytest

from seqtag import cli, fileio
from seqtag.tagger import TaggerConfig, build_model, save_model

from helpers import tiny_fixture_corpus


def torn_writes(monkeypatch, first=1):
    """Make every later write through ``fileio`` from the ``first``-th on
    stop halfway with ENOSPC; the writes before it succeed."""
    real_fdopen = os.fdopen
    opened = []

    class TornFile:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    def fdopen(fd, mode):
        opened.append(fd)
        fh = real_fdopen(fd, mode)
        return fh if len(opened) < first else TornFile(fh)

    monkeypatch.setattr(fileio.os, "fdopen", fdopen)


def test_one_staged_output_replaces_contents(tmp_path):
    target = tmp_path / "out.txt"
    fileio.write_staged([(target, b"old")])
    fileio.write_staged([(target, b"new contents")])
    assert target.read_bytes() == b"new contents"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_torn_write_keeps_old_file(tmp_path, monkeypatch):
    target = tmp_path / "out.txt"
    target.write_bytes(b"old contents")
    torn_writes(monkeypatch)
    with pytest.raises(OSError, match="No space"):
        fileio.write_staged([(target, b"x" * 1000)])
    assert target.read_bytes() == b"old contents"
    assert os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize("bad", ["missing directory", "directory"])
def test_failed_write_names_the_path_not_the_temporary_file(tmp_path, bad):
    (tmp_path / "outdir").mkdir()
    target = tmp_path / ("outdir" if bad == "directory" else os.path.join("nodir", "x.out"))
    with pytest.raises(OSError) as raised:
        fileio.write_staged([(target, b"data")])
    assert raised.value.filename == str(target) and raised.value.filename2 is None
    assert str(raised.value).endswith(f": {str(target)!r}")
    assert os.listdir(tmp_path) == ["outdir"] and os.listdir(tmp_path / "outdir") == []


def test_torn_model_save_keeps_old_model(tmp_path, monkeypatch):
    corpus = tiny_fixture_corpus()
    path = tmp_path / "m.bin"
    save_model(build_model(TaggerConfig(hidden=4, word_dim=4, seed=1), corpus), path)
    before = path.read_bytes()
    torn_writes(monkeypatch)
    with pytest.raises(OSError, match="No space"):
        save_model(build_model(TaggerConfig(hidden=4, word_dim=4, seed=2), corpus), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["m.bin"]


def test_torn_cli_output_exits_two_and_keeps_old_file(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "c.conll"
    corpus.write_text("# s0\nalice B-PER\nran O\n\n# s1\nbob B-PER\n\n", encoding="utf-8")
    train_out, dev_out = tmp_path / "train.conll", tmp_path / "dev.conll"
    train_out.write_bytes(b"previous train part\n")
    torn_writes(monkeypatch)
    code = cli.main(["split", str(corpus), "--train-out", str(train_out),
                     "--dev-out", str(dev_out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert train_out.read_bytes() == b"previous train part\n"
    assert sorted(os.listdir(tmp_path)) == ["c.conll", "train.conll"]


def test_staged_writes_replace_every_path(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_bytes(b"old a")
    fileio.write_staged([(a, b"new a"), (str(b), b"new b")])
    assert (a.read_bytes(), b.read_bytes()) == (b"new a", b"new b")
    assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.txt"]


@pytest.mark.parametrize("fault", ["torn write", "missing directory"])
def test_a_fault_on_the_second_output_keeps_the_first(tmp_path, monkeypatch, fault):
    # the first output is written in full before the second fails, and is
    # still not replaced
    first = tmp_path / "first.txt"
    first.write_bytes(b"old first")
    second = tmp_path / "second.txt"
    if fault == "torn write":
        torn_writes(monkeypatch, first=2)
    else:
        second = tmp_path / "nodir" / "second.txt"
    with pytest.raises(OSError) as raised:
        fileio.write_staged([(first, b"new first"), (second, b"new second" * 100)])
    assert raised.value.filename == str(second)
    assert first.read_bytes() == b"old first"
    assert os.listdir(tmp_path) == ["first.txt"]


def _ensemble_inputs(tmp_path):
    corpus = tmp_path / "ref.conll"
    corpus.write_text("# s0\nalice B-PER\nran O\n", encoding="utf-8")
    for name in ("a.pred", "b.pred"):
        (tmp_path / name).write_text("# s0\nalice B-PER B-PER 0.9\nran O O 0.8\n",
                                     encoding="utf-8")
    return ["ensemble", str(tmp_path / "a.pred"), str(tmp_path / "b.pred"),
            "--reference", str(corpus), "--out", str(tmp_path / "out.txt")]


def _augment_inputs(tmp_path):
    (tmp_path / "c.conll").write_text("# s0\nalice B-PER\nran O\n", encoding="utf-8")
    (tmp_path / "plan.txt").write_text("output\tx\nsource\ta\tc.conll\n", encoding="utf-8")
    return ["augment", str(tmp_path / "plan.txt"), "--out", str(tmp_path / "out.txt")]


def _split_inputs(tmp_path):
    (tmp_path / "c.conll").write_text("# s0\nalice B-PER\nran O\n\n# s1\nbob B-PER\n",
                                      encoding="utf-8")
    return ["split", str(tmp_path / "c.conll"), "--train-out", str(tmp_path / "out.txt"),
            "--dev-out", str(tmp_path / "dev.txt")]


def _train_inputs(tmp_path):
    (tmp_path / "c.conll").write_text("# s0\nalice B-PER\nran O\n\n# s1\nbob B-PER\n",
                                      encoding="utf-8")
    (tmp_path / "g.cfg").write_text("word_dim = 4\nhidden = 4\nlstm_layers = 1\n"
                                    "max_epochs = 1\n", encoding="utf-8")
    return ["train", str(tmp_path / "g.cfg"), str(tmp_path / "c.conll"),
            str(tmp_path / "c.conll"), str(tmp_path / "out.txt")]


@pytest.mark.parametrize("command, second", [
    (_split_inputs, "dev.txt"),
    (_train_inputs, "out.txt.history"),
    (_augment_inputs, "out.txt.manifest"),
    (_ensemble_inputs, "out.txt.diag"),
])
def test_a_command_that_fails_on_its_second_output_changes_no_output(
        tmp_path, capsys, monkeypatch, command, second):
    argv = command(tmp_path)
    inputs = sorted(os.listdir(tmp_path))
    (tmp_path / "out.txt").write_bytes(b"previous output\n")
    (tmp_path / second).write_bytes(b"previous second output\n")
    torn_writes(monkeypatch, first=2)
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert (code, err) == (2, f"error: [Errno 28] No space left on device: "
                              f"{str(tmp_path / second)!r}\n")
    assert (tmp_path / "out.txt").read_bytes() == b"previous output\n"
    assert (tmp_path / second).read_bytes() == b"previous second output\n"
    assert sorted(os.listdir(tmp_path)) == sorted(inputs + ["out.txt", second])
    # and with no fault both outputs are replaced
    monkeypatch.undo()
    assert cli.main(argv) == 0
    assert (tmp_path / "out.txt").read_bytes() != b"previous output\n"
    assert (tmp_path / second).read_bytes() != b"previous second output\n"
