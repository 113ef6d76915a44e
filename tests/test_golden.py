"""Pinned outputs of the four benchmark workloads, and the trace entries
they reach.

One session fixture writes each workload's seed-5 inputs with
``perfbench/gen.py`` (which trains and saves ``predict_wide``'s model) and
runs one ``prepare``/``rep``/``check`` of each through
``perfbench/workloads.py``, all under the benchmark's tracer
(``perfbench/spans.py`` with ``perfbench/layers.py``'s entries). Both
modules are imported read-only.

Text outputs (training history, prediction text, voted text, ``.diag``)
and model bytes have separate sha256 digests, so a change that moves
trained parameters by roundoff alone changes model digests and no text
digest. Model bytes are the bits of one numpy/BLAS build; text digests
hold wherever the parameters agree to far below their printed precision.
A change that alters a digest on purpose updates the table and says so.
"""

import hashlib
import os
import sys

import pytest

from seqtag import ensemble

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import gen  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 5

DIGESTS = {
    ("corpus_tools", "diag"):
        "5565548868c26802f68f42c651211aade6bb1d041bf45940eb1337bbe6ea48ef",
    ("corpus_tools", "voted"):
        "46277a317b5cb44b957f2736aa679da2ffd0f08e2322963f0f8880bc2d5c392f",
    ("predict_wide", "model"):
        "27bba1ef8bb812134865477677a3a028db6ba8aa37ac8c1d02bfa560c2c3662b",
    ("predict_wide", "predictions"):
        "da21574306464d92c93d15002239b89119ae8453b701ef59459dc87f39e453be",
    ("train_crf", "history"):
        "ee0506b66d7339f5c67c896d5a206a53523933043e859d20afb1ed3dd4bb4e83",
    ("train_crf", "model"):
        "a1f3b194bd34e39b04af13e240034b0fab0261fa1fdba96584b4cf4e86b4992b",
    ("train_features", "history"):
        "fb1b07d5a3784a7328d1b5df99b2d811e5a66823295d9ea7d437dbd2520f4c2e",
    ("train_features", "model"):
        "a7bc4bc50d43174618b23ab281e82c8286de8d6b0eabd0dcc9e638bd6fe81e32",
}

# the CRF chains step in one function, crf._chains, so the entries for
# its former halves find no site
ABSENT_SITES = {"seqtag.crf.crf_alphas", "seqtag.crf.crf_betas"}
UNREACHED = {"kernels.crf_alphas", "kernels.crf_betas"}


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _outputs(wl, state, out):
    """{output name: bytes} of one repetition of workload ``wl``."""
    if isinstance(wl, workloads.TrainWorkload):
        return {"history": out.render().encode("utf-8"), "model": _read_bytes(wl.model_path)}
    if isinstance(wl, workloads.PredictWorkload):
        return {"predictions": out[1].encode("utf-8"),
                "model": _read_bytes(os.path.join(wl.directory, "model.bin"))}
    files, text = out[3], out[5]
    _, diagnostics = ensemble.ensemble_corpus(
        [data.to_set(f) for data, f in zip(files, wl.pred_files)], state["reference"])
    return {"voted": text.encode("utf-8"), "diag": diagnostics.render().encode("utf-8")}


@pytest.fixture(scope="session")
def golden_run(tmp_path_factory):
    """(sha256 per (workload, output), recorder, entries) of one traced
    repetition per workload."""
    root = tmp_path_factory.mktemp("golden")
    directories = {}
    for name in sorted(workloads.WORKLOADS):
        directories[name] = str(root / name)
        gen.write_inputs(name, SEED, directories[name])
    recorder = spans.Recorder()
    entries = layers.entries()
    digests = {}
    with spans.Patcher(recorder, entries):
        for name, directory in directories.items():
            wl = workloads.make(name, directory, SEED)
            state = wl.prepare()
            wl.before_rep(state)
            out = wl.rep(state)
            result = wl.check(state, out)
            assert not result.failed and not result.problems, (name, result.problems)
            for output, data in _outputs(wl, state, out).items():
                digests[name, output] = hashlib.sha256(data).hexdigest()
    return digests, recorder, entries


@pytest.mark.parametrize("workload, output", sorted(DIGESTS))
def test_output_digest(golden_run, workload, output):
    digests, _, _ = golden_run
    assert digests[workload, output] == DIGESTS[workload, output]


def test_every_trace_entry_is_reached(golden_run):
    # a renamed or bypassed stage must fail here, not drop out of the
    # benchmark's per-layer table
    _, recorder, entries = golden_run
    assert {site for e in entries for site in e.absent} == ABSENT_SITES
    called = {span.name for span in recorder.spans}
    assert set(layers.ENTRY_NAMES) - UNREACHED - called == set()
    assert not called & UNREACHED
