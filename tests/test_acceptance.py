"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import json
import os
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import slotie as sl
from slotie import (
    Extraction,
    LabelGrid,
    PLACEHOLDER_TOKENS,
    TokenClass,
    hungarian_max,
    read_imojie_jsonl,
    read_tuples_tsv,
    synth_generate,
    template_frequencies,
    tokenize,
    wire57_pair,
)
from slotie.cli import main as cli_main
from slotie.data import tuple_part_tokens
from slotie.matching import loss_assignment_gradient
from slotie.model import ModelConfig, SlotTagger, build_vocab, decode
from slotie.scoring import SCHEMES, scoring_tokens
from slotie.train import TrainConfig, evaluate_macro_f1, train

B, S, R, O = TokenClass.BACKGROUND, TokenClass.SUBJECT, TokenClass.RELATION, TokenClass.OBJECT


def report(criterion, detail):
    print(f"PASS {criterion}: {detail}")


def random_probs(rng, n_tokens, n_slots):
    logits = rng.normal(size=(n_tokens, n_slots, 4))
    probs = np.exp(logits)
    return probs / probs.sum(axis=2, keepdims=True)


def random_grid(rng, n_tokens, n_gold):
    rows = []
    for _ in range(n_gold):
        labels = rng.integers(0, 4, size=n_tokens)
        for cls, pos in zip((S, R, O), rng.choice(n_tokens, size=3, replace=False)):
            labels[pos] = cls
        rows.append(labels)
    return LabelGrid(rows)


def one_hot_tensor(grid, n_slots):
    n_tokens = grid.labels.shape[1]
    probs = np.zeros((n_tokens, n_slots, 4))
    probs[:, :, 0] = 1.0
    for m in range(grid.n_gold):
        for t in range(n_tokens):
            probs[t, m, :] = 0.0
            probs[t, m, grid.labels[m, t]] = 1.0
    return probs


def test_criterion_1_assignment_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(1000):
        n_gold = int(rng.integers(1, 7))
        n_slots = int(rng.integers(n_gold, 7))
        values = rng.random((n_slots, n_gold))
        best = max(
            sum(values[perm[m], m] for m in range(n_gold))
            for perm in itertools.permutations(range(n_slots), n_gold)
        )
        assert hungarian_max(values).total == pytest.approx(best, abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("criterion-1", f"1000 random assignments match brute force ({elapsed:.1f}s)")


def test_criterion_2_end_to_end_gradient():
    start = time.perf_counter()
    vocab = build_vocab([tokenize("alpha beta gamma delta epsilon zeta")])
    config = ModelConfig(n_slots=4, hidden=8, blocks=1, max_len=16)
    seq = tokenize("alpha beta gamma")
    grid = sl.grid_from_tuples(seq, [((0,), (1,), (2,))])
    h = 1e-4
    worst = 0.0
    for point in range(10):
        model = SlotTagger(vocab, config, seed=200 + point)
        probs = model.forward(seq)
        _, _, dldp = loss_assignment_gradient(probs.probs, grid)
        model.backward(dldp)

        def loss_value():
            return loss_assignment_gradient(model.predict(seq).probs, grid)[0]

        for tensor in model.named_parameters().values():
            grad = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
            flat = tensor.data.reshape(-1)
            gflat = grad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_value()
                flat[i] = orig - h
                down = loss_value()
                flat[i] = orig
                fd = (up - down) / (2 * h)
                rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-6)
                worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    assert worst < 1e-3
    assert elapsed < 30.0
    report(
        "criterion-2",
        f"full-model gradient vs finite differences: max rel err {worst:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_3_order_agnosticism():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(200):
        n_tokens = int(rng.integers(3, 8))
        n_slots = int(rng.integers(2, 7))
        n_gold = int(rng.integers(1, n_slots + 1))
        probs = random_probs(rng, n_tokens, n_slots)
        grid = random_grid(rng, n_tokens, n_gold)
        loss, _, _ = loss_assignment_gradient(probs, grid)
        gold_perm = rng.permutation(n_gold)
        shuffled = LabelGrid(grid.labels[gold_perm])
        loss_gold, _, _ = loss_assignment_gradient(probs, shuffled)
        slot_perm = rng.permutation(n_slots)
        loss_slot, _, _ = loss_assignment_gradient(probs[:, slot_perm, :], grid)
        worst = max(worst, abs(loss_gold - loss), abs(loss_slot - loss))
    assert worst <= 1e-9
    report("criterion-3", f"gold/slot permutations shift the loss by at most {worst:.1e}")


def test_criterion_4_perfect_prediction_limit():
    rng = np.random.default_rng(104)
    for _ in range(20):
        n_tokens = int(rng.integers(3, 7))
        n_slots = int(rng.integers(2, 6))
        n_gold = int(rng.integers(1, n_slots + 1))
        grid = random_grid(rng, n_tokens, n_gold)
        target = one_hot_tensor(grid, n_slots)
        loss, _, _ = loss_assignment_gradient(target, grid)
        assert loss <= 1e-9
        uniform = np.full_like(target, 0.25)
        losses = [
            loss_assignment_gradient((1 - a) * uniform + a * target, grid)[0]
            for a in np.linspace(0.0, 1.0, 10)
        ]
        assert all(b < a for a, b in zip(losses, losses[1:]))
    report("criterion-4", "one-hot loss <= 1e-9; interpolated losses strictly decrease")


def test_criterion_5_overfit_smoke_test(pool):
    start = time.perf_counter()
    samples = synth_generate(pool, 50, seed=7)
    dataset = [(a.sequence, a.grid) for a in (sl.lcs_align(s.record) for s in samples)]
    cfg = TrainConfig(
        learning_rate=2e-3, batch_size=8, max_epochs=200, seed=0,
        validation_fraction=0.0, target_f1=0.999,
    )
    result = train(dataset, cfg)
    f1 = evaluate_macro_f1(result.model, dataset)
    assert len(result.history) <= 200
    assert result.history[4].train_loss < result.history[0].train_loss
    assert f1 >= 0.95
    hits = 0
    for sample in samples:
        seq = tokenize(sample.record.sentence, append_placeholders=True)
        got = {e.as_tuple() for e in decode(result.model.predict(seq), seq)}
        hits += got == {e.as_tuple() for e in sample.record.tuples}
    assert hits >= 45
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(
        "criterion-5",
        f"overfit run: macro F1 {f1:.4f}, exact recovery {hits}/50, "
        f"{len(result.history)} epochs in {elapsed:.0f}s",
    )


def test_criterion_6_synth_fidelity(pool):
    samples = synth_generate(pool, 10_000, seed=11)
    freqs = template_frequencies(samples)
    expected = {"single": 0.10, "pair": 0.20, "commas": 0.35, "periods": 0.35}
    for kind, target in expected.items():
        assert abs(freqs[kind] - target) < 0.02, (kind, freqs[kind])
    bounds = {"single": (1, 1), "pair": (2, 2), "commas": (3, 5), "periods": (2, 9)}
    for sample in samples:
        low, high = bounds[sample.template]
        assert low <= len(sample.record.tuples) <= high
    detail = ", ".join(f"{k}={freqs[k]:.3f}" for k in expected)
    report("criterion-6", f"10k-sentence template frequencies within 2%: {detail}")


def test_criterion_7_conversion_soundness(imojie_fixture_path):
    records = read_imojie_jsonl(imojie_fixture_path)
    assert len(records) == 100

    def norm(token):
        return token[1:-1] if token in PLACEHOLDER_TOKENS else token

    checked = skipped_total = 0
    for record in records:
        aligned = sl.lcs_align(record)
        supply = Counter(norm(t) for t in aligned.sequence.tokens)
        skipped = {s.extraction for s in aligned.skipped}
        mask_iter = iter(aligned.grid.labels)
        for ext in record.tuples:
            demand = Counter(
                norm(t) for part in ext.as_tuple() for t in tuple_part_tokens(part)
            )
            matchable = not (demand - supply)
            if ext in skipped:
                # skipped tuples are exactly those with unmatched tokens
                assert not matchable, (record.sentence, ext)
                skipped_total += 1
                continue
            assert matchable
            mask = next(mask_iter)
            labeled = [
                tok for tok, lab in zip(aligned.sequence.tokens, mask)
                if lab != B
            ]
            # disjoint spans consume exactly one sentence token per tuple token
            assert len(labeled) == sum(demand.values())
            assert not (Counter(norm(t) for t in labeled) - demand)
            checked += 1
    assert skipped_total > 0
    report(
        "criterion-7",
        f"{checked} aligned tuples disjoint and token-sound; "
        f"{skipped_total} skips all certified unmatchable",
    )


def test_criterion_8_scorer_oracles(sample_gold_path):
    # five hand-worked pair fixtures, asserted to 1e-9
    t = Extraction("The old mill", "powers", "the workshop")
    pair = wire57_pair(t, t)
    assert pair.f1 == pytest.approx(1.0, abs=1e-9)
    pair = wire57_pair(
        Extraction("A spectrum", "has", "a ratio"),
        Extraction("A spectrum from FID", "has", "a low ratio"),
    )
    assert (pair.precision, pair.recall) == (pytest.approx(1.0, abs=1e-9),
                                             pytest.approx(0.625, abs=1e-9))
    assert pair.f1 == pytest.approx(10 / 13, abs=1e-9)
    assert wire57_pair(
        Extraction("A spectrum", "shows", "a ratio"),
        Extraction("A spectrum", "has", "a ratio"),
    ) is None
    pair = wire57_pair(Extraction("a a b", "r", "c"), Extraction("a b b", "r", "c"))
    assert pair.f1 == pytest.approx(0.8, abs=1e-9)
    pair = wire57_pair(
        Extraction("Obama", "visited", "Paris"),
        Extraction("Barack Obama", "visited", "Paris in 2009"),
    )
    assert (pair.precision, pair.recall, pair.f1) == (
        pytest.approx(1.0, abs=1e-9),
        pytest.approx(0.5, abs=1e-9),
        pytest.approx(2 / 3, abs=1e-9),
    )

    # greedy corpus matching equals the rescanning simulation for sizes <= 3
    rng = np.random.default_rng(108)
    words = [f"w{k}" for k in range(5)]

    def part():
        return " ".join(rng.choice(words, size=rng.integers(1, 4)))

    for _ in range(80):
        gold_exts = [Extraction(part(), part(), part()) for _ in range(rng.integers(1, 4))]
        pred_exts = [Extraction(part(), part(), part()) for _ in range(rng.integers(0, 4))]
        chosen = []
        remaining = [
            p for p in (
                wire57_pair(tt, gg, i, j)
                for i, tt in enumerate(pred_exts)
                for j, gg in enumerate(gold_exts)
            ) if p is not None
        ]
        while remaining:
            best = max(remaining, key=lambda p: (p.f1, -p.pred_index, -p.gold_index))
            chosen.append(best)
            remaining = [
                p for p in remaining
                if p.pred_index != best.pred_index and p.gold_index != best.gold_index
            ]
        got = sl.wire57_score({"s": gold_exts}, {"s": pred_exts})
        overlap = sum(p.overlap for p in chosen)
        pred_tokens = sum(sum(len(scoring_tokens(x)) for x in t.as_tuple()) for t in pred_exts)
        gold_tokens = sum(sum(len(scoring_tokens(x)) for x in g.as_tuple()) for g in gold_exts)
        assert got.precision == pytest.approx(overlap / pred_tokens if pred_tokens else 0.0, abs=1e-9)
        assert got.recall == pytest.approx(overlap / gold_tokens if gold_tokens else 0.0, abs=1e-9)

    # gold-vs-gold on the shipped fixture: all four schemes perfect
    gold = {r.sentence: list(r.tuples) for r in read_tuples_tsv(sample_gold_path)}
    for name, scheme in SCHEMES.items():
        result = scheme(gold, gold)
        assert (result.precision, result.recall, result.f1) == (1.0, 1.0, 1.0), name
    report("criterion-8", "pair fixtures, greedy oracle, and gold-vs-gold all exact")


def test_criterion_9_throughput_scaling(pool, interleaved_throughput):
    samples = synth_generate(pool, 300, seed=13)
    sequences = [tokenize(s.record.sentence, append_placeholders=True) for s in samples]
    vocab = build_vocab(sequences)
    runs = {}
    for n_slots in (20, 100):
        model = SlotTagger(vocab, ModelConfig(n_slots=n_slots), seed=0)
        # Bias the head toward Background: trained taggers leave most slots
        # empty, and that is the regime the scaling claim is about.
        bias = model.head.bias.data.reshape(n_slots, 4)
        bias[:, 0] += 4.0
        runs[n_slots] = (model, sequences)
    speeds = interleaved_throughput(runs, rounds=3)
    ratio = max(speeds[20], speeds[100]) / min(speeds[20], speeds[100])
    assert ratio < 2.0
    report(
        "criterion-9",
        f"throughput N=20: {speeds[20]:.0f}/s, N=100: {speeds[100]:.0f}/s "
        f"(ratio {ratio:.2f} < 2)",
    )


def _run_pipeline(workdir: Path) -> dict[str, bytes]:
    cwd = os.getcwd()
    pool_path = Path(cwd) / "data" / "pool_en.tsv"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        os.chdir(workdir)
        (workdir / "pool.tsv").write_bytes(pool_path.read_bytes())
        assert cli_main(["synth", "--pool", "pool.tsv", "--n", "30", "--seed", "21",
                         "--out", "synth.tsv"]) == 0
        assert cli_main(["convert", "--format", "tuples", "--in", "synth.tsv",
                         "--out", "grids.jsonl", "--report", "convert.json"]) == 0
        assert cli_main(["train", "--data", "grids.jsonl", "--out", "model.npz",
                         "--epochs", "3", "--batch-size", "8", "--seed", "5",
                         "--n-slots", "10", "--hidden", "16", "--blocks", "1",
                         "--validation-fraction", "0.2"]) == 0
        sentences = [r.sentence for r in read_tuples_tsv("synth.tsv")]
        Path("sentences.txt").write_text("\n".join(sentences) + "\n", encoding="utf-8")
        assert cli_main(["extract", "--checkpoint", "model.npz", "--in", "sentences.txt",
                         "--out", "extracted.tsv"]) == 0
        assert cli_main(["score", "--scheme", "carb", "--gold", "synth.tsv",
                         "--pred", "extracted.tsv", "--out", "score.json"]) == 0
    finally:
        os.chdir(cwd)
    artifacts = [
        "synth.tsv", "synth.tsv.meta.json", "grids.jsonl", "convert.json",
        "model.npz.metrics.json", "extracted.tsv", "extracted.tsv.meta.json",
        "score.json",
    ]
    return {name: (workdir / name).read_bytes() for name in artifacts}


def test_criterion_10_pipeline_determinism(tmp_path):
    run_a = _run_pipeline(tmp_path / "a")
    run_b = _run_pipeline(tmp_path / "b")
    for name in run_a:
        assert run_a[name] == run_b[name], f"{name} differs between runs"
    report("criterion-10", f"{len(run_a)} pipeline artifacts byte-identical across runs")


# Prints the OpenBLAS thread count in use (None where this numpy build does
# not expose it), then the sha256 of the packed probabilities over 200
# held-out sentences plus held-out sentences of 60 to 90 tokens (synth
# sentences joined), and of the gradients summed over 40 training sentences.
_BLAS_BITS_SCRIPT = """
import hashlib, json
import slotie as sl
from slotie import blas
from slotie.matching import loss_assignment_gradient

threads = blas.threads()
pool = sl.TripletPool.from_tsv("data/pool_en.tsv")
aligned = [sl.lcs_align(s.record) for s in sl.synth_generate(pool, 40, seed=7)]
heldout = [sl.tokenize(s.record.sentence, append_placeholders=True)
           for s in sl.synth_generate(pool, 200, seed=8)]
text = ""
for s in sl.synth_generate(pool, 300, seed=10):  # 75 of them, 60 to 90 tokens
    seq = sl.tokenize(text + s.record.sentence, append_placeholders=True)
    text = "" if len(seq) >= 60 else text + s.record.sentence + " "
    if 60 <= len(seq) <= 90:
        heldout.append(seq)
model = sl.SlotTagger(sl.build_vocab(a.sequence for a in aligned), sl.ModelConfig(), seed=0)
probs = hashlib.sha256()
for _, p in model.predict_packs(heldout):
    probs.update(p.probs.tobytes())
for a in aligned:
    model.backward(loss_assignment_gradient(model.forward(a.sequence).probs, a.grid)[2])
print(json.dumps({"threads": threads, "probs": probs.hexdigest(),
                  "grads": hashlib.sha256(model.grads.tobytes()).hexdigest()}))
"""


def test_blas_thread_count_leaves_bits_unchanged(fresh_python):
    """Criterion-10 compares runs on one host; this checks that the BLAS
    thread count, which follows the host's cores, does not change the bits:
    one and two OpenBLAS threads give the same packed probabilities and
    summed training gradients.  One
    subprocess per thread count, since OpenBLAS reads the variable when
    numpy is first imported."""
    runs = {}
    for threads in (1, 2):
        runs[threads] = json.loads(fresh_python(_BLAS_BITS_SCRIPT,
                                                OPENBLAS_NUM_THREADS=str(threads)))
        assert runs[threads].pop("threads") in (None, threads)
    assert runs[1] == runs[2]
    report("blas-threads", f"1 and 2 OpenBLAS threads give identical bits: {runs[1]}")


# Trains 2 epochs on 24 records of 91 to 108 tokens (synth sentences
# joined), where one and two OpenBLAS threads round a product differently,
# and prints the thread count in use after training with the sha256 of the
# trained values and the loss and F1 history.
_LONG_TRAINING_SCRIPT = """
import hashlib, json
import slotie as sl
from slotie import blas
from slotie.train import TrainConfig, train

pool = sl.TripletPool.from_tsv("data/pool_en.tsv")
dataset, sentence, tuples = [], "", ()
for s in sl.synth_generate(pool, 400, seed=10):
    sentence, tuples = sentence + s.record.sentence + " ", tuples + s.record.tuples
    n_tokens = len(sl.tokenize(sentence, append_placeholders=True))
    if n_tokens > 90:
        if n_tokens <= 108 and len(tuples) <= 20 and len(dataset) < 24:
            aligned = sl.lcs_align(sl.GenerativeRecord(sentence.strip(), tuples))
            dataset.append((aligned.sequence, aligned.grid))
        sentence, tuples = "", ()
assert len(dataset) == 24 and min(len(seq) for seq, _ in dataset) > 90
result = train(dataset, TrainConfig(max_epochs=2, batch_size=4, seed=0))
print(json.dumps({"threads": blas.threads(),
                  "values": hashlib.sha256(result.model.values.tobytes()).hexdigest(),
                  "history": [[s.train_loss, s.val_macro_f1] for s in result.history]}))
"""


def test_training_bits_do_not_follow_the_blas_thread_count(fresh_python):
    """Past 90 tokens one and two OpenBLAS threads give different products,
    but training runs every process on one thread: the trained values and
    history are the same whatever count the host starts with, and that
    count is back in place when ``train`` returns."""
    runs = {}
    for threads in (1, 2):
        runs[threads] = json.loads(fresh_python(_LONG_TRAINING_SCRIPT,
                                                OPENBLAS_NUM_THREADS=str(threads)))
        assert runs[threads].pop("threads") in (None, threads)
    assert runs[1] == runs[2]
    report("blas-threads", f"training past 90 tokens is thread-count free: {runs[1]['values']}")


# Writes 40 sentences of 91 to 256 tokens (synth sentences joined) and an
# untrained default-size tagger to the directory ``d``, runs ``slotie
# extract --no-require-all-parts`` on them (every extraction's confidence
# is an argmax probability, written in full) and prints the thread count
# in use afterwards with the sha256 of the TSV.
_LONG_EXTRACT_SCRIPT = """
import hashlib, io, json, contextlib
import slotie as sl
from slotie import blas, cli

d = @DIR@
pool = sl.TripletPool.from_tsv("data/pool_en.tsv")
sentences, text = [], ""
for s in sl.synth_generate(pool, 2000, seed=11):
    text += s.record.sentence + " "
    n_tokens = len(sl.tokenize(text, append_placeholders=True))
    if n_tokens > 90 + (10 * len(sentences)) % 166:
        if n_tokens <= 256 and len(sentences) < 40:
            sentences.append(text.strip())
        text = ""
assert len(sentences) == 40
with open(d + "/in.txt", "w", encoding="utf-8") as f:
    f.write("".join(s + "\\n" for s in sentences))
vocab = sl.build_vocab(sl.tokenize(s) for s in sentences)
sl.SlotTagger(vocab, sl.ModelConfig(), seed=0).save(d + "/model.npz")
with contextlib.redirect_stderr(io.StringIO()):
    assert cli.main(["extract", "--checkpoint", d + "/model.npz", "--in", d + "/in.txt",
                     "--out", d + "/out.tsv", "--no-require-all-parts"]) == 0
tsv = open(d + "/out.tsv", "rb").read()
print(json.dumps({"threads": blas.threads(), "lines": tsv.count(b"\\n"),
                  "tsv": hashlib.sha256(tsv).hexdigest()}))
"""


def test_extract_bits_do_not_follow_the_blas_thread_count(fresh_python, tmp_path):
    """Past 90 tokens one and two OpenBLAS threads give different products,
    but ``extract`` runs every process on one thread: its TSV is the same
    whatever count the host starts with, and that count is back in place
    when ``extract`` returns."""
    runs = {}
    for threads in (1, 2):
        d = tmp_path / str(threads)
        d.mkdir()
        runs[threads] = json.loads(fresh_python(_LONG_EXTRACT_SCRIPT.replace("@DIR@", repr(str(d))),
                                                OPENBLAS_NUM_THREADS=str(threads)))
        assert runs[threads].pop("threads") in (None, threads)
    assert runs[1] == runs[2]
    assert runs[1]["lines"] > 40
    report("blas-threads", f"extract past 90 tokens is thread-count free: {runs[1]['tsv']}")
