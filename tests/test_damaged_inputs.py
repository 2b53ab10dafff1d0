"""Every input the CLI reads, damaged: one ``data error:`` line or success.

Each case starts from a small valid input and damages it with a fixed list
of seeds: a truncation, or one to three byte flips, insertions or
deletions.  Whatever the damage, ``slotie.cli.main`` must return rather
than raise; it exits 0 or 2 (``train`` may also stop at 3, a numeric
failure), and on exit 2 the last line of standard error is its only
``data error:`` line.
"""

import random
from pathlib import Path

import pytest

from slotie.cli import main

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
SEEDS = range(40)
#: The tiny model that ``train`` builds and ``extract`` reads.
TINY = ("--epochs", "1", "--n-slots", "12", "--hidden", "8", "--blocks", "1")


def damage(raw: bytes, seed: int) -> bytes:
    """``raw`` cut short, or with one to three bytes flipped, inserted or
    deleted, as drawn from ``seed``."""
    rng = random.Random(seed)
    kind = rng.choice(("truncate", "flip", "insert", "delete"))
    if kind == "truncate":
        return raw[: rng.randrange(len(raw))]
    data = bytearray(raw)
    for _ in range(rng.randint(1, 3)):
        if kind == "insert":
            data.insert(rng.randrange(len(data) + 1), rng.randrange(256))
        elif kind == "flip":
            data[rng.randrange(len(data))] ^= rng.randrange(1, 256)
        else:
            del data[rng.randrange(len(data))]
    return bytes(data)


def _head(path: Path, n_lines: int, separator: str = "\n") -> str:
    return separator.join(path.read_text(encoding="utf-8").split(separator)[:n_lines]) + "\n"


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Valid inputs, each a file: the pool, the three ``convert`` formats,
    training grids, a train config, a trained checkpoint, extract
    sentences, and gold and predicted tuples."""
    folder = tmp_path_factory.mktemp("valid")
    files = {
        "pool": ROOT / "data" / "pool_en.tsv",
        "imojie": folder / "imojie.jsonl",
        "lsoie": folder / "lsoie.conll",
        "tuples": folder / "tuples.tsv",
        "grids": folder / "grids.jsonl",
        "config": folder / "config.yaml",
        "checkpoint": folder / "model.npz",
        "sentences": folder / "sentences.txt",
        "gold": ROOT / "data" / "sample_gold.tsv",
        "pred": ROOT / "data" / "sample_pred.tsv",
    }
    files["imojie"].write_text(_head(FIXTURES / "imojie_100.jsonl", 4), encoding="utf-8")
    files["lsoie"].write_text(_head(FIXTURES / "lsoie_sample.conll", 3, "\n\n"), encoding="utf-8")
    files["config"].write_text(
        "common:\n  seed: 3\ntrain:\n  learning_rate: 0.01\n  validation_fraction: 0.25\n"
    )
    sentences = [line.split("\t")[0] for line in _head(files["gold"], 7).splitlines()]
    files["sentences"].write_text("\n".join(sentences) + "\n", encoding="utf-8")
    assert main(["synth", "--pool", str(files["pool"]), "--n", "8", "--seed", "1",
                 "--out", str(files["tuples"])]) == 0
    assert main(["convert", "--format", "tuples", "--in", str(files["tuples"]),
                 "--out", str(files["grids"]), "--report", str(folder / "report.json")]) == 0
    assert main(["train", "--data", str(files["grids"]), "--out", str(files["checkpoint"]),
                 *TINY]) == 0
    return files


#: ``input -> (the input whose damaged copy the run reads, argv builder)``;
#: the builder takes the valid inputs, the damaged file and the output folder.
CASES = {
    "convert-imojie": ("imojie", lambda v, bad, out: [
        "convert", "--format", "imojie", "--in", bad, "--out", out / "g", "--report", out / "r"]),
    "convert-lsoie": ("lsoie", lambda v, bad, out: [
        "convert", "--format", "lsoie", "--in", bad, "--out", out / "g", "--report", out / "r"]),
    "convert-tuples": ("tuples", lambda v, bad, out: [
        "convert", "--format", "tuples", "--in", bad, "--out", out / "g", "--report", out / "r"]),
    "synth-pool": ("pool", lambda v, bad, out: [
        "synth", "--pool", bad, "--n", "5", "--out", out / "s"]),
    "train-data": ("grids", lambda v, bad, out: [
        "train", "--data", bad, "--out", out / "m.npz", *TINY]),
    "train-config": ("config", lambda v, bad, out: [
        "train", "--data", v["grids"], "--config", bad, "--out", out / "m.npz", *TINY]),
    "extract-checkpoint": ("checkpoint", lambda v, bad, out: [
        "extract", "--checkpoint", bad, "--in", v["sentences"], "--out", out / "e"]),
    "extract-in": ("sentences", lambda v, bad, out: [
        "extract", "--checkpoint", v["checkpoint"], "--in", bad, "--out", out / "e"]),
    "score-gold": ("gold", lambda v, bad, out: [
        "score", "--scheme", "carb", "--gold", bad, "--pred", v["pred"], "--out", out / "r"]),
    "score-pred": ("pred", lambda v, bad, out: [
        "score", "--scheme", "carb", "--gold", v["gold"], "--pred", bad, "--out", out / "r"]),
}


@pytest.mark.parametrize("case", CASES)
def test_damaged_input_is_one_data_error_or_none(tmp_path, capsys, valid, case):
    name, argv = CASES[case]
    raw = valid[name].read_bytes()
    bad = tmp_path / valid[name].name
    allowed = {0, 2, 3} if case.startswith("train") else {0, 2}
    codes = set()
    for seed in SEEDS:
        bad.write_bytes(damage(raw, seed))
        capsys.readouterr()
        try:
            code = main([str(arg) for arg in argv(valid, bad, tmp_path)])
        except Exception as exc:  # any exception that escapes is the failure
            pytest.fail(f"seed {seed}: {type(exc).__name__} escaped main: {exc}")
        err = capsys.readouterr().err.splitlines()
        assert code in allowed, f"seed {seed}: exit {code}"
        if code == 2:
            errors = [line for line in err if line.startswith("data error:")]
            assert errors == err[-1:], f"seed {seed}: {err}"
        codes.add(code)
    # The damage reaches the reader's checks, not only its success path.
    assert 2 in codes
