import numpy as np
import pytest

import slotie as sl
from slotie.autodiff import Tensor
from slotie.train import AdamState, NumericalError, TrainConfig, adam_step, measure_speed, train


def tiny_dataset(n_sentences=12, seed=5):
    pool = sl.TripletPool.from_tsv("data/pool_en.tsv")
    samples = sl.synth_generate(pool, n_sentences, seed=seed)
    return [
        (a.sequence, a.grid)
        for a in (sl.lcs_align(s.record) for s in samples)
    ], samples


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


class TestTrainLoop:
    def test_short_run_learns(self):
        dataset, _ = tiny_dataset()
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
        dataset, _ = tiny_dataset()
        cfg = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=3, seed=9,
                          validation_fraction=0.25)
        model_cfg = sl.ModelConfig(n_slots=10, hidden=16, blocks=1, max_len=64)
        r1 = train(dataset, cfg, model_cfg)
        r2 = train(dataset, cfg, model_cfg)
        assert [(s.train_loss, s.val_macro_f1) for s in r1.history] == [
            (s.train_loss, s.val_macro_f1) for s in r2.history
        ]

    def test_best_checkpoint_marker_monotone(self):
        dataset, _ = tiny_dataset()
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
    def test_reports_positive_throughput(self):
        dataset, samples = tiny_dataset()
        cfg = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=1, seed=0,
                          validation_fraction=0.0)
        model_cfg = sl.ModelConfig(n_slots=10, hidden=16, blocks=1, max_len=64)
        model = train(dataset, cfg, model_cfg).model
        sentences = [s.record.sentence for s in samples]
        report = measure_speed(model, sentences)
        assert report.sentences_per_second > 0
        assert np.isfinite(report.sentences_per_second)
        assert report.n_sentences == len(sentences)

    def test_requires_sentences(self):
        dataset, _ = tiny_dataset(4)
        model_cfg = sl.ModelConfig(n_slots=10, hidden=8, blocks=1, max_len=64)
        cfg = TrainConfig(max_epochs=1, batch_size=4, validation_fraction=0.0)
        model = train(dataset, cfg, model_cfg).model
        with pytest.raises(ValueError):
            measure_speed(model, [])

    def test_steady_state_throughput(self):
        # Doubling the corpus should not change throughput much; allow one
        # retry to ride out scheduler noise.
        pool = sl.TripletPool.from_tsv("data/pool_en.tsv")
        samples = sl.synth_generate(pool, 400, seed=8)
        sentences = [s.record.sentence for s in samples]
        vocab = sl.build_vocab(
            sl.tokenize(s, append_placeholders=True) for s in sentences
        )
        model = sl.SlotTagger(vocab, sl.ModelConfig(n_slots=10, hidden=32, blocks=1), seed=0)
        for attempt in range(2):
            half = measure_speed(model, sentences[:200]).sentences_per_second
            full = measure_speed(model, sentences).sentences_per_second
            drift = abs(full - half) / max(full, half)
            if drift < 0.2:
                break
        assert drift < 0.2
