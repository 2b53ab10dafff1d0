import importlib
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "fixtures"
DATA = ROOT / "data"


@pytest.fixture(scope="session")
def pool():
    from slotie import TripletPool

    return TripletPool.from_tsv(DATA / "pool_en.tsv")


@pytest.fixture(scope="session")
def imojie_fixture_path():
    return FIXTURES / "imojie_100.jsonl"


@pytest.fixture(scope="session")
def lsoie_fixture_path():
    return FIXTURES / "lsoie_sample.conll"


@pytest.fixture(scope="session")
def sample_gold_path():
    return DATA / "sample_gold.tsv"


@pytest.fixture(scope="session")
def sample_pred_path():
    return DATA / "sample_pred.tsv"


@pytest.fixture()
def nan_loss_from(monkeypatch):
    """``patch(first)``: from its ``first``-th call on (counting from 0),
    the training loop's loss is NaN.  The patch goes into the module
    ``slotie.train``; the package attribute of that name is the function.
    Calls are counted across the training loop's processes, whose calls
    for one batch all come before any call for the next; so with ``first``
    at a batch boundary, the first NaN batch is the same with the worker
    or without it."""
    module = importlib.import_module("slotie.train")
    real = module.loss_assignment_gradient

    def patch(first: int) -> None:
        calls = multiprocessing.Value("q", 0)

        def loss_assignment_gradient(*args, **kwargs):
            loss, assignment, grad = real(*args, **kwargs)
            with calls.get_lock():
                call = calls.value
                calls.value += 1
            return (float("nan") if call >= first else loss), assignment, grad

        monkeypatch.setattr(module, "loss_assignment_gradient", loss_assignment_gradient)

    return patch


@pytest.fixture(scope="session")
def fresh_python():
    """``run(script, **env)``: the standard output of ``script`` run by a
    fresh interpreter from the repository root, with ``src`` first on
    PYTHONPATH and ``env`` added to the environment.  A fresh interpreter
    sees what a command imports by itself, and environment variables that
    libraries read once, at import.  A failing script fails the test with
    its standard error."""

    def run(script: str, **env: str) -> str:
        path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                              env={**os.environ, **env, "PYTHONPATH": path}, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run


def _packed_seconds(model, sequences) -> float:
    """Wall-clock seconds of ``predict_packs`` plus ``decode_pack`` over
    ``sequences``, the path that ``slotie extract`` runs."""
    from slotie import decode_pack

    tick = time.perf_counter()
    for pack, probs in model.predict_packs(sequences):
        decode_pack(probs, pack)
    return time.perf_counter() - tick


@pytest.fixture(scope="session")
def interleaved_throughput():
    """``measure(runs, rounds)``: the packed throughput of each named
    ``(model, sequences)`` run, timed in ``rounds`` alternating rounds (A B
    A B ...) so that a change in host speed falls on every run alike, as
    the run's sentences over its summed seconds.

    The sum, not the best round: a multi-threaded BLAS runs a pack's
    products on every core, so one round can lose most of its speed to a
    core that another process holds, and the best of a short and of a long
    round then differ by more than the code does.
    """

    def measure(runs: dict, rounds: int) -> dict:
        seconds = dict.fromkeys(runs, 0.0)
        for _ in range(rounds):
            for name, (model, sequences) in runs.items():
                seconds[name] += _packed_seconds(model, sequences)
        return {name: rounds * len(runs[name][1]) / seconds[name] for name in runs}

    return measure
