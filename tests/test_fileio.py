"""Atomic output files: an interrupted write leaves the previous file
byte-identical and no temporary file behind, for the shared helper and
for the writers that use it (model files and CLI outputs)."""

import os

import pytest

from seqtag import cli, fileio
from seqtag.tagger import TaggerConfig, build_model, save_model

from helpers import tiny_fixture_corpus


def torn_writes(monkeypatch):
    """Make every later write through ``fileio`` stop halfway with ENOSPC."""
    real_fdopen = os.fdopen

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

    monkeypatch.setattr(fileio.os, "fdopen", lambda fd, mode: TornFile(real_fdopen(fd, mode)))


def test_write_atomic_replaces_contents(tmp_path):
    target = tmp_path / "out.txt"
    fileio.write_atomic(target, b"old")
    fileio.write_atomic(target, b"new contents")
    assert target.read_bytes() == b"new contents"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_torn_write_keeps_old_file(tmp_path, monkeypatch):
    target = tmp_path / "out.txt"
    target.write_bytes(b"old contents")
    torn_writes(monkeypatch)
    with pytest.raises(OSError, match="No space"):
        fileio.write_atomic(target, b"x" * 1000)
    assert target.read_bytes() == b"old contents"
    assert os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize("bad", ["missing directory", "directory"])
def test_failed_write_names_the_path_not_the_temporary_file(tmp_path, bad):
    (tmp_path / "outdir").mkdir()
    target = tmp_path / ("outdir" if bad == "directory" else os.path.join("nodir", "x.out"))
    with pytest.raises(OSError) as raised:
        fileio.write_atomic(target, b"data")
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
