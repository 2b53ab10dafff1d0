from types import SimpleNamespace

import numpy as np
import pytest

import slotie as sl
from slotie.autodiff import Tensor
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


class TestAdam:
    def test_zero_gradient_no_decay_leaves_params(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        cfg = TrainConfig(weight_decay=0.0)
        adam_step({"p": p}, AdamState(), cfg)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_closed_form(self):
        # g=1: m_hat = v_hat = 1, so the update is -lr / (1 + eps).
        p = Tensor(np.array([0.5]), requires_grad=True)
        p.grad = np.ones(1)
        cfg = TrainConfig(learning_rate=5e-4, weight_decay=0.0)
        adam_step({"p": p}, AdamState(), cfg)
        expected = 0.5 - 5e-4 * (1.0 / (1.0 + 1e-8))
        assert p.data[0] == pytest.approx(expected, abs=1e-15)

    def test_decoupled_weight_decay_only(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.zeros(1)
        cfg = TrainConfig(learning_rate=1e-2, weight_decay=0.1)
        adam_step({"p": p}, AdamState(), cfg)
        assert p.data[0] == pytest.approx(2.0 - 1e-2 * 0.1 * 2.0)

    def test_nan_gradient_aborts_without_update(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([np.nan])
        state = AdamState()
        with pytest.raises(NumericalError):
            adam_step({"p": p}, state, TrainConfig())
        assert p.data[0] == 1.0
        assert state.step == 0

    def test_deterministic_given_state(self):
        cfg = TrainConfig(learning_rate=1e-3)
        results = []
        for _ in range(2):
            p = Tensor(np.array([0.3, -0.7]), requires_grad=True)
            state = AdamState()
            for g in ([1.0, -1.0], [0.5, 0.5], [-0.2, 0.1]):
                p.grad = np.array(g)
                adam_step({"p": p}, state, cfg)
            results.append(p.data.copy())
        np.testing.assert_array_equal(results[0], results[1])


def per_tensor_adam_step(params, state, cfg):
    """The per-tensor Adam update the flat-buffer ``adam_step`` must match
    bit for bit; ``state`` carries ``step`` and a ``moments`` dict."""
    for name, tensor in params.items():
        if tensor.grad is not None and not np.isfinite(tensor.grad).all():
            raise NumericalError(f"non-finite gradient in {name}")
    state.step += 1
    t = state.step
    correction1 = 1.0 - ADAM_BETA1**t
    correction2 = 1.0 - ADAM_BETA2**t
    for name, tensor in params.items():
        grad = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        if name not in state.moments:
            state.moments[name] = (np.zeros_like(tensor.data), np.zeros_like(tensor.data))
        m, v = state.moments[name]
        m[...] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v[...] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad**2
        m_hat = m / correction1
        v_hat = v / correction2
        tensor.data = tensor.data - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if cfg.weight_decay:
            tensor.data = tensor.data - cfg.learning_rate * cfg.weight_decay * tensor.data


SHAPES = {"first": (3, 4), "second": (5,), "third": (2, 1, 3)}


def three_params(seed=0):
    rng = np.random.default_rng(seed)
    return {name: Tensor(rng.normal(size=shape), requires_grad=True)
            for name, shape in SHAPES.items()}


def set_grads(params, rng, none=("third",)):
    for name, tensor in params.items():
        tensor.grad = None if name in none else rng.normal(size=tensor.shape)


class TestFlatAdam:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_matches_per_tensor_update_bit_for_bit(self, weight_decay):
        cfg = TrainConfig(learning_rate=3e-2, weight_decay=weight_decay)
        flat, oracle = three_params(), three_params()
        flat_state, oracle_state = AdamState(), SimpleNamespace(step=0, moments={})
        rng_flat, rng_oracle = np.random.default_rng(1), np.random.default_rng(1)
        for _ in range(5):
            set_grads(flat, rng_flat)
            set_grads(oracle, rng_oracle)
            adam_step(flat, flat_state, cfg)
            per_tensor_adam_step(oracle, oracle_state, cfg)
            for name in SHAPES:
                np.testing.assert_array_equal(flat[name].data, oracle[name].data)
        assert flat_state.step == 5

    def test_nan_in_second_parameter_is_named_and_changes_nothing(self):
        cfg = TrainConfig(learning_rate=3e-2)
        params, state = three_params(), AdamState()
        rng = np.random.default_rng(2)
        set_grads(params, rng, none=())
        adam_step(params, state, cfg)
        before = {name: t.data.copy() for name, t in params.items()}
        set_grads(params, rng, none=())
        params["second"].grad[2] = np.nan
        with pytest.raises(NumericalError, match="second"):
            adam_step(params, state, cfg)
        assert state.step == 1
        for name, tensor in params.items():
            np.testing.assert_array_equal(tensor.data, before[name])

    def test_replaced_data_receives_the_next_update(self):
        cfg = TrainConfig(learning_rate=3e-2)
        flat, oracle = three_params(), three_params()
        flat_state, oracle_state = AdamState(), SimpleNamespace(step=0, moments={})
        rng_flat, rng_oracle = np.random.default_rng(4), np.random.default_rng(4)
        for step in range(3):
            if step == 2:
                # As a checkpoint load or the best-epoch restore does.
                for params in (flat, oracle):
                    for tensor in params.values():
                        tensor.data = np.full(tensor.shape, 0.5)
            set_grads(flat, rng_flat)
            set_grads(oracle, rng_oracle)
            adam_step(flat, flat_state, cfg)
            per_tensor_adam_step(oracle, oracle_state, cfg)
        for name in SHAPES:
            np.testing.assert_array_equal(flat[name].data, oracle[name].data)
            assert not np.array_equal(flat[name].data, np.full(SHAPES[name], 0.5))


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
