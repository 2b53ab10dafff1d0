import importlib
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import slotie as sl
from slotie import blas
from slotie.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    NumericalError,
    TrainConfig,
    adam_step,
    train,
)


def tiny_dataset(n_sentences=12, seed=5):
    pool = sl.TripletPool.from_tsv("data/pool_en.tsv")
    samples = sl.synth_generate(pool, n_sentences, seed=seed)
    return [(a.sequence, a.grid) for a in (sl.lcs_align(s.record) for s in samples)]


def tiny_model():
    vocab = sl.build_vocab([sl.tokenize("a b c")])
    return sl.SlotTagger(vocab, sl.ModelConfig(n_slots=2, hidden=4, blocks=1))


class TestAdam:
    def test_zero_gradient_no_decay_leaves_params(self):
        model = tiny_model()
        before = model.values.copy()
        adam_step(model, AdamState(model.values.size), TrainConfig(weight_decay=0.0))
        np.testing.assert_array_equal(model.values, before)

    def test_first_step_closed_form(self):
        # g=1: m_hat = v_hat = 1, so the update is -lr / (1 + eps).
        model = tiny_model()
        before = model.values.copy()
        model.grads[...] = 1.0
        cfg = TrainConfig(learning_rate=5e-4, weight_decay=0.0)
        adam_step(model, AdamState(model.values.size), cfg)
        expected = before - 5e-4 * (1.0 / (1.0 + 1e-8))
        np.testing.assert_allclose(model.values, expected, rtol=0.0, atol=1e-15)

    def test_decoupled_weight_decay_only(self):
        model = tiny_model()
        before = model.values.copy()
        cfg = TrainConfig(learning_rate=1e-2, weight_decay=0.1)
        adam_step(model, AdamState(model.values.size), cfg)
        np.testing.assert_allclose(model.values, before - 1e-2 * 0.1 * before)

    def test_nan_gradient_aborts_without_update(self):
        model = tiny_model()
        before = model.values.copy()
        model.grads[0] = np.nan
        state = AdamState(model.values.size)
        with pytest.raises(NumericalError):
            adam_step(model, state, TrainConfig())
        np.testing.assert_array_equal(model.values, before)
        assert np.isnan(model.grads[0])
        assert state.step == 0

    def test_deterministic_given_state(self):
        cfg = TrainConfig(learning_rate=1e-3)
        results = []
        for _ in range(2):
            model = tiny_model()
            state = AdamState(model.values.size)
            for g in (1.0, -0.5, 0.2):
                model.grads[...] = g * np.arange(model.grads.size)
                adam_step(model, state, cfg)
            results.append(model.values.copy())
        np.testing.assert_array_equal(results[0], results[1])


def per_tensor_adam_step(params, grads, state, cfg):
    """The per-tensor Adam update the in-place ``adam_step`` must match bit
    for bit; ``params`` and ``grads`` map names to arrays, and ``state``
    carries ``step`` and a ``moments`` dict."""
    state.step += 1
    t = state.step
    correction1 = 1.0 - ADAM_BETA1**t
    correction2 = 1.0 - ADAM_BETA2**t
    for name, data in params.items():
        grad = grads[name]
        m, v = state.moments.setdefault(name, (np.zeros_like(data), np.zeros_like(data)))
        m[...] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v[...] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad**2
        m_hat = m / correction1
        v_hat = v / correction2
        data = data - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if cfg.weight_decay:
            data = data - cfg.learning_rate * cfg.weight_decay * data
        params[name] = data


def set_grads(model, rng, zero=("head.bias",)):
    """Random gradients for every parameter except those in ``zero``,
    written into the model's gradient block; returns copies by name."""
    grads = {}
    for name, tensor in model.named_parameters().items():
        tensor.grad[...] = 0.0 if name in zero else rng.normal(size=tensor.shape)
        grads[name] = tensor.grad.copy()
    return grads


class TestFlatAdam:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_matches_per_tensor_update_bit_for_bit(self, weight_decay):
        cfg = TrainConfig(learning_rate=3e-2, weight_decay=weight_decay)
        model = tiny_model()
        params = model.named_parameters()
        oracle = {name: tensor.data.copy() for name, tensor in params.items()}
        state, oracle_state = AdamState(model.values.size), SimpleNamespace(step=0, moments={})
        rng = np.random.default_rng(1)
        for _ in range(5):
            grads = set_grads(model, rng)
            adam_step(model, state, cfg)
            per_tensor_adam_step(oracle, grads, oracle_state, cfg)
            for name, tensor in params.items():
                np.testing.assert_array_equal(tensor.data, oracle[name])
            assert not model.grads.any()
        assert state.step == 5

    def test_nan_in_second_parameter_is_named_and_changes_nothing(self):
        cfg = TrainConfig(learning_rate=3e-2)
        model = tiny_model()
        state = AdamState(model.values.size)
        rng = np.random.default_rng(2)
        set_grads(model, rng, zero=())
        adam_step(model, state, cfg)
        second = list(model.named_parameters())[1]
        set_grads(model, rng, zero=())
        model.named_parameters()[second].grad.flat[2] = np.nan
        before = model.values.copy(), model.grads.copy(), state.m.copy(), state.v.copy()
        with pytest.raises(NumericalError, match=second):
            adam_step(model, state, cfg)
        assert state.step == 1
        for kept, now in zip(before, (model.values, model.grads, state.m, state.v)):
            np.testing.assert_array_equal(now, kept)


def assert_block_views(model):
    """Every parameter's ``.data`` and ``.grad`` is a view of the model's blocks,
    and together, in order, they cover them."""
    params = model.named_parameters()
    for name, tensor in params.items():
        assert np.shares_memory(tensor.data, model.values), name
        assert np.shares_memory(tensor.grad, model.grads), name
    flat = np.concatenate([tensor.data.ravel() for tensor in params.values()])
    np.testing.assert_array_equal(flat, model.values)


class TestParameterBlock:
    def test_views_after_load_and_best_epoch_restore(self, tmp_path):
        cfg = TrainConfig(learning_rate=1e-2, batch_size=4, max_epochs=3, seed=2,
                          validation_fraction=0.25)
        model_cfg = sl.ModelConfig(n_slots=10, hidden=8, blocks=1, max_len=64)
        result = train(tiny_dataset(), cfg, model_cfg)
        # This run keeps epoch 2 of 3, so it restores.
        assert_block_views(result.model)
        path = tmp_path / "model.npz"
        result.model.save(path)
        loaded = sl.SlotTagger.load(path)
        assert_block_views(loaded)
        np.testing.assert_array_equal(loaded.values, result.model.values)

    def test_block_gradients_equal_tape_copies(self):
        dataset = tiny_dataset()[:3]
        config = sl.ModelConfig(n_slots=10, hidden=8, blocks=2, max_len=64)
        vocab = sl.build_vocab(seq for seq, _ in dataset)
        block, copied = (sl.SlotTagger(vocab, config, seed=4) for _ in range(2))
        for tensor in copied.named_parameters().values():
            tensor.grad = None
        for model in (block, copied):
            for seq, grid in dataset:
                _, _, grad = sl.loss_assignment_gradient(model.forward(seq).probs, grid)
                model.backward(grad / len(dataset))
        copies = copied.named_parameters()
        for name, tensor in block.named_parameters().items():
            assert not np.shares_memory(copies[name].grad, copied.grads)
            np.testing.assert_array_equal(tensor.grad, copies[name].grad)
        assert block.grads.any()


class TestTrainLoop:
    def test_short_run_learns(self):
        dataset = tiny_dataset()
        cfg = TrainConfig(
            learning_rate=2e-3, batch_size=4, max_epochs=8, seed=0,
            validation_fraction=0.0,
        )
        model_cfg = sl.ModelConfig(n_slots=10, hidden=24, blocks=1, max_len=64)
        result = train(dataset, cfg, model_cfg)
        losses = [s.train_loss for s in result.history]
        assert losses[4] < losses[0]
        assert result.history[-1].val_macro_f1 > result.history[0].val_macro_f1

    def test_same_seed_identical_histories(self):
        dataset = tiny_dataset()
        cfg = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=3, seed=9,
                          validation_fraction=0.25)
        model_cfg = sl.ModelConfig(n_slots=10, hidden=16, blocks=1, max_len=64)
        r1 = train(dataset, cfg, model_cfg)
        r2 = train(dataset, cfg, model_cfg)
        assert [(s.train_loss, s.val_macro_f1) for s in r1.history] == [
            (s.train_loss, s.val_macro_f1) for s in r2.history
        ]

    def test_gold_row_order_leaves_training_bit_identical(self):
        """Order-agnosticism over a whole run: every matched slot's target is
        its gold mask, whatever row it sits in, so reversing the gold rows
        changes no bit of the trained parameters or of the histories."""
        dataset = tiny_dataset(n_sentences=40, seed=11)
        reordered = [(seq, sl.LabelGrid(grid.labels[::-1])) for seq, grid in dataset]
        moved = sum(not np.array_equal(a.labels, b.labels)
                    for (_, a), (_, b) in zip(dataset, reordered))
        assert moved > len(dataset) // 2
        cfg = TrainConfig(learning_rate=2e-3, batch_size=4, max_epochs=3, seed=3,
                          validation_fraction=0.25)
        model_cfg = sl.ModelConfig(n_slots=10, hidden=16, blocks=1, max_len=64)
        r1 = train(dataset, cfg, model_cfg)
        r2 = train(reordered, cfg, model_cfg)
        assert np.array_equal(r1.model.values, r2.model.values)
        assert r1.history == r2.history
        assert (r1.best_epoch, r1.best_val_f1) == (r2.best_epoch, r2.best_val_f1)

    def test_best_checkpoint_marker_monotone(self):
        dataset = tiny_dataset()
        cfg = TrainConfig(learning_rate=2e-3, batch_size=4, max_epochs=6, seed=1,
                          validation_fraction=0.25)
        model_cfg = sl.ModelConfig(n_slots=10, hidden=16, blocks=1, max_len=64)
        result = train(dataset, cfg, model_cfg)
        best_so_far = -1.0
        for stats in result.history:
            if stats.is_best:
                assert stats.val_macro_f1 > best_so_far
            best_so_far = max(best_so_far, stats.val_macro_f1)
        assert result.best_val_f1 == best_so_far

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train([])


class TestDivergence:
    """A non-finite loss aborts training and keeps the best snapshot so far.
    Validating on the training set makes an epoch ``len(dataset)`` loss
    calls."""

    CONFIG = dict(batch_size=4, validation_fraction=0.0, seed=0)
    MODEL = sl.ModelConfig(n_slots=10, hidden=8, blocks=1)

    def test_epoch_2_divergence_keeps_epoch_1(self, nan_loss_from):
        dataset = tiny_dataset()
        epoch_1 = train(dataset, TrainConfig(max_epochs=1, **self.CONFIG), self.MODEL)
        # NaN from epoch 2's second batch on: its first batch has stepped Adam.
        nan_loss_from(len(dataset) + 4)
        result = train(dataset, TrainConfig(max_epochs=3, **self.CONFIG), self.MODEL)
        assert result.diverged and "(epoch 2)" in result.diagnostics
        assert result.best_epoch == 1 and len(result.history) == 1
        assert result.best_val_f1 == epoch_1.best_val_f1
        np.testing.assert_array_equal(result.model.values, epoch_1.model.values)

    def test_epoch_1_divergence_keeps_initial_parameters(self, nan_loss_from):
        nan_loss_from(4)  # the first batch steps Adam, the second diverges
        result = train(tiny_dataset(), TrainConfig(max_epochs=3, **self.CONFIG), self.MODEL)
        assert result.diverged and "(epoch 1)" in result.diagnostics
        assert result.best_epoch == 0 and result.best_val_f1 == -1.0 and not result.history
        fresh = sl.SlotTagger(result.model.vocab, self.MODEL, seed=0)
        np.testing.assert_array_equal(result.model.values, fresh.values)


class TestNonFiniteProbabilities:
    """A model whose probabilities overflow diverges like a non-finite loss."""

    @pytest.mark.parametrize("batch_size", [4, 64])
    def test_diverges_with_the_initial_parameters(self, batch_size):
        # At batch 4 the second step's forward meets the blow-up; at batch
        # 64 (one step per epoch) validation meets it first.
        cfg = TrainConfig(learning_rate=1e150, weight_decay=0.0, batch_size=batch_size,
                          max_epochs=3, seed=0)
        model_cfg = sl.ModelConfig(n_slots=10, hidden=8, blocks=1)
        with np.errstate(all="ignore"):
            result = train(tiny_dataset(), cfg, model_cfg)
        assert result.diverged
        assert result.diagnostics == "the tagger's probabilities are not finite"
        assert result.best_epoch == 0 and not result.history
        fresh = sl.SlotTagger(result.model.vocab, model_cfg, seed=0)
        np.testing.assert_array_equal(result.model.values, fresh.values)


class TestRecordsTheConfigCannotTake:
    """A record longer than ``max_len``, or with more gold masks than slots,
    is named by its 1-based position in the dataset and its first words,
    whether a training step or validation meets it."""

    @pytest.mark.parametrize("split", [0, 1], ids=["validation", "training"])
    @pytest.mark.parametrize("measure, setting, error", [
        (lambda record: len(record[0]), "max_len", sl.TooLong),
        (lambda record: record[1].n_gold, "n_slots", sl.TooManyGold),
    ], ids=["too-long", "too-many-gold"])
    def test_error_names_the_record(self, split, measure, setting, error):
        # seed 1's 12 records have one longest sentence and one largest grid.
        dataset = tiny_dataset(seed=1)
        sizes = [measure(record) for record in dataset]
        largest = int(np.argmax(sizes))
        cap = sorted(sizes)[-2]
        assert sizes[largest] > cap
        # Seed 0 holds out order[0] for validation (12 records, fraction 0.1).
        position = int(np.random.default_rng(0).permutation(len(dataset))[split])
        dataset[position], dataset[largest] = dataset[largest], dataset[position]
        model_cfg = sl.ModelConfig(hidden=8, blocks=1, **{setting: cap})
        with pytest.raises(error) as info:
            train(dataset, TrainConfig(max_epochs=1, seed=0), model_cfg)
        words = " ".join(dataset[position][0].tokens[:6])
        assert str(info.value).startswith(f"record {position + 1} ({words} ...): ")


def forced_worker(monkeypatch, fork):
    """Fork a worker in every ``train`` call if ``fork``, and none if not,
    whatever the host's cores.  The package attribute ``slotie.train`` is
    the function."""
    module = importlib.import_module("slotie.train")
    monkeypatch.setattr(module, "_forks_a_worker", lambda batch_size: fork)


def first_batch(n_records, cfg):
    """The dataset indices of epoch 1's first batch, drawn as ``train`` draws them."""
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(n_records)
    train_indices = order[int(round(cfg.validation_fraction * n_records)) :]
    return train_indices[rng.permutation(len(train_indices))[: cfg.batch_size]]


def too_many_gold_at(*batch_positions):
    """A dataset, config and model config whose first batch of five holds
    records with more gold masks than slots at ``batch_positions``, and
    the dataset position of the first.  The main process's share is batch
    positions 0 and 1, the worker's 2 to 4."""
    cfg = TrainConfig(batch_size=5, max_epochs=1, seed=0, validation_fraction=0.25)
    records = tiny_dataset()
    fits = [record for record in records if record[1].n_gold <= 3]
    big = [record for record in records if record[1].n_gold > 3]
    batch = first_batch(len(records), cfg)
    dataset = [fits[k % len(fits)] for k in range(len(records))]
    for k, position in enumerate(batch_positions):
        dataset[batch[position]] = big[k]
    return dataset, cfg, sl.ModelConfig(n_slots=3, hidden=8, blocks=1), batch[batch_positions[0]] + 1


def outcome(result):
    return (result.model.values.tobytes(), result.history, result.best_epoch,
            result.best_val_f1, result.diverged, result.diagnostics)


def assert_no_child_remains():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkers:
    """A batch is split between the main process and a forked worker; the
    per-sentence gradients are summed in batch order, so the worker
    changes no bit and no error."""

    @pytest.mark.parametrize("cores, batch_size, workers",
                             [(1, 32, 0), (2, 1, 0), (2, 32, 1), (64, 2, 1), (64, 32, 1)])
    def test_at_most_one_worker_is_forked(self, monkeypatch, cores, batch_size, workers):
        module = importlib.import_module("slotie.train")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["fork", "spawn"])
        assert module._forks_a_worker(batch_size) == bool(workers)

    def test_trains_in_one_process_where_fork_is_missing(self, monkeypatch):
        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        # As where fork is missing: get_context("fork") raises.
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        cfg = TrainConfig(batch_size=4, max_epochs=1, seed=0)
        result = train(tiny_dataset(), cfg, sl.ModelConfig(n_slots=10, hidden=8, blocks=1))
        assert len(result.history) == 1
        assert_no_child_remains()

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 4, 5])
    def test_worker_count_changes_no_bit(self, monkeypatch, batch_size):
        # 10 training records: batches of 3 and 4 end with a short batch.
        dataset = tiny_dataset(n_sentences=14)
        cfg = TrainConfig(learning_rate=2e-3, batch_size=batch_size, max_epochs=2, seed=4,
                          validation_fraction=0.25)
        model_cfg = sl.ModelConfig(n_slots=10, hidden=8, blocks=1, max_len=64)
        outcomes = []
        for fork in (False, True):
            forced_worker(monkeypatch, fork)
            outcomes.append(outcome(train(dataset, cfg, model_cfg)))
        assert outcomes[0] == outcomes[1]
        assert len(outcomes[0][1]) == 2 and not outcomes[0][4]

    def test_the_earliest_too_many_gold_record_is_named(self, monkeypatch):
        dataset, cfg, model_cfg, position = too_many_gold_at(2, 4)
        messages = []
        for fork in (False, True):
            forced_worker(monkeypatch, fork)
            with pytest.raises(sl.TooManyGold) as info:
                train(dataset, cfg, model_cfg)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        words = " ".join(dataset[position - 1][0].tokens[:6])
        assert messages[0].startswith(f"record {position} ({words} ...): ")

    @pytest.mark.parametrize("batch_size", [4, 64])
    def test_divergence_is_the_same_at_every_worker_count(self, monkeypatch, batch_size):
        cfg = TrainConfig(learning_rate=1e150, weight_decay=0.0, batch_size=batch_size,
                          max_epochs=3, seed=0)
        model_cfg = sl.ModelConfig(n_slots=10, hidden=8, blocks=1)
        outcomes = []
        for fork in (False, True):
            forced_worker(monkeypatch, fork)
            with np.errstate(all="ignore"):
                outcomes.append(outcome(train(tiny_dataset(), cfg, model_cfg)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][4:] == (True, "the tagger's probabilities are not finite")
        assert outcomes[0][2] == 0

    @pytest.mark.parametrize("case", ["returns", "too-many-gold", "too-many-gold-first",
                                      "diverges"])
    def test_no_process_outlives_train(self, monkeypatch, case):
        # The worker holds its share while the main process's share fails
        # in "too-many-gold-first", and fails its own in "too-many-gold".
        if case.startswith("too-many-gold"):
            positions = (0,) if case.endswith("first") else (2, 4)
            dataset, cfg, model_cfg, _ = too_many_gold_at(*positions)
            forced_worker(monkeypatch, False)
            with pytest.raises(sl.TooManyGold) as alone:
                train(dataset, cfg, model_cfg)
        forced_worker(monkeypatch, True)
        # Two threads going in, so that a count left at training's one shows.
        with blas.pinned(2) as pinned:
            if case.startswith("too-many-gold"):
                with pytest.raises(sl.TooManyGold) as info:
                    train(dataset, cfg, model_cfg)
                assert str(info.value) == str(alone.value)
            else:
                cfg = TrainConfig(learning_rate=1e150 if case == "diverges" else 1e-3,
                                  weight_decay=0.0, batch_size=4, max_epochs=2, seed=0)
                model_cfg = sl.ModelConfig(n_slots=10, hidden=8, blocks=1)
                with np.errstate(all="ignore"):
                    result = train(tiny_dataset(), cfg, model_cfg)
                assert result.diverged == (case == "diverges")
            assert blas.threads() == (2 if pinned else None)
        assert_no_child_remains()

    def test_training_goes_on_without_a_lost_worker(self, monkeypatch):
        dataset = tiny_dataset(n_sentences=14)
        cfg = TrainConfig(learning_rate=2e-3, batch_size=4, max_epochs=3, seed=4,
                          validation_fraction=0.25)
        model_cfg = sl.ModelConfig(n_slots=10, hidden=8, blocks=1, max_len=64)
        forced_worker(monkeypatch, False)
        alone = outcome(train(dataset, cfg, model_cfg))

        def kill_the_worker(stats):
            if stats.epoch == 1:
                (worker,) = multiprocessing.active_children()
                os.kill(worker.pid, signal.SIGKILL)
                worker.join()

        forced_worker(monkeypatch, True)
        with pytest.warns(RuntimeWarning, match="the training worker is gone") as caught:
            assert outcome(train(dataset, cfg, model_cfg, log=kill_the_worker)) == alone
        assert len(caught) == 1
        assert_no_child_remains()


# Trains with a forced worker and, at the end of epoch 1, prints the
# worker's pid and sleeps in the log callback, for the caller to kill it.
_ORPHAN_SCRIPT = """
import importlib, multiprocessing, time
import slotie as sl

importlib.import_module("slotie.train")._forks_a_worker = lambda batch_size: True

def log(stats):
    print(*(p.pid for p in multiprocessing.active_children()), flush=True)
    time.sleep(60)

pool = sl.TripletPool.from_tsv("data/pool_en.tsv")
dataset = [(a.sequence, a.grid)
           for a in (sl.lcs_align(s.record) for s in sl.synth_generate(pool, 12, seed=5))]
sl.train(dataset, sl.TrainConfig(batch_size=4, max_epochs=1),
         sl.ModelConfig(n_slots=10, hidden=8, blocks=1), log=log)
"""


def running(pid):
    """Whether process ``pid`` exists and has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_a_worker_exits_when_the_main_process_dies():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"),
                                                        os.environ.get("PYTHONPATH", "")])}
    main = subprocess.Popen([sys.executable, "-c", _ORPHAN_SCRIPT], cwd=root, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        workers = [int(pid) for pid in main.stdout.readline().split()]
        assert len(workers) == 1 and running(workers[0])
    finally:
        main.kill()
        main.wait(timeout=30)
        main.stdout.close()
    deadline = time.monotonic() + 30
    while running(workers[0]) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not running(workers[0])


class TestTrainConfig:
    @pytest.mark.parametrize("learning_rate, weight_decay", [(1e6, 1e-6), (1.0, 1.0), (2.0, 1.5)])
    def test_rejects_a_decay_step_of_one_or_more(self, learning_rate, weight_decay):
        with pytest.raises(ValueError, match="learning_rate \\* weight_decay"):
            TrainConfig(learning_rate=learning_rate, weight_decay=weight_decay)

    def test_decay_step_below_one_shrinks_without_a_sign_flip(self):
        cfg = TrainConfig(learning_rate=0.5, weight_decay=1.9)
        model = tiny_model()
        before = model.values.copy()
        adam_step(model, AdamState(model.values.size), cfg)
        # A zero gradient leaves only the decay: every value scales by 0.05.
        np.testing.assert_allclose(model.values, before * (1.0 - 0.5 * 1.9), rtol=1e-12)


class TestMeasureSpeed:
    def test_steady_state_throughput(self, interleaved_throughput):
        # Doubling the corpus should not change throughput much.
        pool = sl.TripletPool.from_tsv("data/pool_en.tsv")
        samples = sl.synth_generate(pool, 400, seed=8)
        sequences = [sl.tokenize(s.record.sentence, append_placeholders=True) for s in samples]
        model = sl.SlotTagger(sl.build_vocab(sequences),
                              sl.ModelConfig(n_slots=10, hidden=32, blocks=1), seed=0)
        speeds = interleaved_throughput(
            {"half": (model, sequences[:200]), "full": (model, sequences)}, rounds=8
        )
        drift = abs(speeds["full"] - speeds["half"]) / max(speeds.values())
        assert drift < 0.2
