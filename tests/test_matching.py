import itertools

import numpy as np
import pytest

from slotie import (
    LabelGrid,
    LossConfig,
    ShapeError,
    TokenClass,
    TooManyGold,
    TripletMask,
    hungarian_max,
    loss_assignment_gradient,
    loss_gradient,
    order_agnostic_loss,
    similarity_matrix,
    smooth_iou,
)
from slotie.matching import loss_given_assignment, one_hot_masks

B, S, R, O = TokenClass.BACKGROUND, TokenClass.SUBJECT, TokenClass.RELATION, TokenClass.OBJECT


def brute_force_best(values):
    """Exhaustive max-total assignment plus the lexicographically smallest
    optimal pair set (sorted by slot)."""
    n_slots, n_gold = values.shape
    best_total = -np.inf
    best_pairs = None
    for perm in itertools.permutations(range(n_slots), n_gold):
        total = sum(values[perm[m], m] for m in range(n_gold))
        pairs = tuple(sorted((perm[m], m) for m in range(n_gold)))
        if total > best_total + 1e-12:
            best_total, best_pairs = total, pairs
        elif abs(total - best_total) <= 1e-12 and pairs < best_pairs:
            best_pairs = pairs
    return best_total, best_pairs


def random_instance(rng, n_tokens=5, n_slots=4, n_gold=2):
    logits = rng.normal(size=(n_tokens, n_slots, 4))
    probs = np.exp(logits)
    probs /= probs.sum(axis=2, keepdims=True)
    masks = []
    for _ in range(n_gold):
        labels = [TokenClass(int(c)) for c in rng.integers(0, 4, size=n_tokens)]
        for cls, pos in zip((S, R, O), rng.choice(n_tokens, size=3, replace=False)):
            labels[pos] = cls
        masks.append(TripletMask(tuple(labels)))
    return probs, LabelGrid(tuple(masks))


def one_hot_grid_tensor(grid, n_slots):
    """Probability tensor that is exactly the gold grid one-hot, with
    unmatched slots all-Background."""
    n_tokens = grid.seq_length
    probs = np.zeros((n_tokens, n_slots, 4))
    probs[:, :, 0] = 1.0
    labels = grid.label_array()
    for m in range(grid.n_gold):
        for t in range(n_tokens):
            probs[t, m, :] = 0.0
            probs[t, m, labels[m, t]] = 1.0
    return probs


class TestSmoothIou:
    def test_perfect_match_is_one(self):
        l = np.zeros((3, 4))
        l[0, 1] = l[1, 2] = l[2, 3] = 1.0
        assert smooth_iou(l, l, exclude_background=True) == 1.0

    def test_all_background_gold_is_zero(self):
        p = np.full((3, 4), 0.25)
        l = np.zeros((3, 4))
        l[:, 0] = 1.0
        assert smooth_iou(p, l, exclude_background=True) == 0.0

    def test_hand_worked_value(self):
        # Two tokens, gold Subject then Relation; prediction puts 0.5 on the
        # gold class and 0.125 on each other non-background class:
        # I = 1.0, U = 1.5 + 2 - 1.0 = 2.5, IoU = 0.4.
        p = np.array([[0.25, 0.5, 0.125, 0.125], [0.25, 0.125, 0.5, 0.125]])
        l = np.array([[0, 1, 0, 0], [0, 0, 1, 0]], dtype=float)
        assert smooth_iou(p, l, exclude_background=True) == pytest.approx(0.4, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            smooth_iou(np.full((2, 4), 0.25), np.zeros((3, 4)))

    def test_bounds_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = rng.dirichlet(np.ones(4), size=4)
            labels = rng.integers(0, 4, size=4)
            l = np.eye(4)[labels]
            for flag in (True, False):
                value = smooth_iou(p, l, exclude_background=flag)
                assert 0.0 <= value <= 1.0 + 1e-12

    def test_equals_one_only_at_exact_match(self):
        l = np.zeros((3, 4))
        l[0, 1] = l[1, 2] = l[2, 3] = 1.0
        assert smooth_iou(l, l) == 1.0
        perturbed = l.copy()
        perturbed[0] = [0.1, 0.9, 0.0, 0.0]
        assert smooth_iou(perturbed, l) < 1.0

    def test_background_mass_ignored_when_excluded(self):
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(4), size=5)
        l = np.eye(4)[rng.integers(0, 4, size=5)]
        bumped = l.copy()
        bumped[:, 0] += 3.0  # arbitrary extra Background mass
        a = smooth_iou(p, l, exclude_background=True)
        b = smooth_iou(p, bumped, exclude_background=True)
        assert a == pytest.approx(b, abs=1e-12)


class TestSimilarityMatrix:
    def test_perfect_single_cell(self):
        grid = LabelGrid((TripletMask((S, R, O)),))
        probs = one_hot_grid_tensor(grid, 1)
        sim = similarity_matrix(probs, grid)
        assert sim.shape == (1, 1)
        assert sim[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_uniform_predictions_give_equal_rows(self):
        grid = LabelGrid((TripletMask((S, R, O)),))
        probs = np.full((3, 4, 4), 0.25)
        sim = similarity_matrix(probs, grid)
        assert np.ptp(sim) == 0.0

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(2)
        probs, grid = random_instance(rng, n_tokens=6, n_slots=3, n_gold=2)
        sim = similarity_matrix(probs, grid)
        onehot = one_hot_masks(grid)
        for n in range(3):
            for m in range(2):
                expected = smooth_iou(probs[:, n, :], onehot[m], exclude_background=True)
                assert sim[n, m] == pytest.approx(expected, abs=1e-12)


class TestHungarianMax:
    def test_identity_matrix(self):
        a = hungarian_max(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert a.pairs == ((0, 0), (1, 1))
        assert a.total == pytest.approx(2.0)

    def test_greedy_suboptimal_case(self):
        # 0.9 + 0.2 beats 0.1 + 0.8.
        a = hungarian_max(np.array([[0.9, 0.1], [0.8, 0.2]]))
        assert a.pairs == ((0, 0), (1, 1))
        assert a.total == pytest.approx(1.1)

    def test_rectangular_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n_gold = int(rng.integers(1, 4))
            n_slots = int(rng.integers(n_gold, 6))
            values = rng.random((n_slots, n_gold))
            expected_total, _ = brute_force_best(values)
            got = hungarian_max(values)
            assert got.total == pytest.approx(expected_total, abs=1e-9)

    def test_tie_breaking_is_lexicographic(self):
        # Discretized values force ties; the returned pairs must be the
        # lexicographically smallest optimal assignment.
        rng = np.random.default_rng(4)
        for _ in range(120):
            n_gold = int(rng.integers(1, 4))
            n_slots = int(rng.integers(n_gold, 5))
            values = rng.choice([0.0, 0.25, 0.5], size=(n_slots, n_gold))
            expected_total, expected_pairs = brute_force_best(values)
            got = hungarian_max(values)
            assert got.total == pytest.approx(expected_total, abs=1e-9)
            assert got.pairs == expected_pairs

    def test_all_equal_prefers_low_indices(self):
        a = hungarian_max(np.full((3, 2), 0.5))
        assert a.pairs == ((0, 0), (1, 1))

    def test_too_many_gold(self):
        with pytest.raises(TooManyGold):
            hungarian_max(np.zeros((1, 2)))


class TestOrderAgnosticLoss:
    def test_perfect_prediction_has_zero_loss(self):
        rng = np.random.default_rng(5)
        _, grid = random_instance(rng, n_tokens=6, n_slots=5, n_gold=3)
        probs = one_hot_grid_tensor(grid, 5)
        loss, assignment = order_agnostic_loss(probs, grid)
        assert loss <= 1e-9
        assert len(assignment.pairs) == 3

    def test_gold_order_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            probs, grid = random_instance(rng, n_tokens=5, n_slots=4, n_gold=3)
            loss, a = order_agnostic_loss(probs, grid)
            perm = rng.permutation(3)
            shuffled = LabelGrid(tuple(grid.masks[i] for i in perm))
            loss2, a2 = order_agnostic_loss(probs, shuffled)
            assert loss2 == pytest.approx(loss, abs=1e-9)
            assert a2.total == pytest.approx(a.total, abs=1e-9)

    def test_slot_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            probs, grid = random_instance(rng, n_tokens=5, n_slots=4, n_gold=2)
            loss, a = order_agnostic_loss(probs, grid)
            perm = rng.permutation(4)
            loss2, a2 = order_agnostic_loss(probs[:, perm, :], grid)
            assert loss2 == pytest.approx(loss, abs=1e-9)
            remapped = {(int(np.where(perm == n)[0][0]), m) for n, m in a.pairs}
            assert set(a2.pairs) == remapped

    def test_hand_computed_micro_case(self):
        # T=1, N=2, M=1, gold Subject.  Slot 0 has the higher IoU
        # (0.6/1.3 vs 0.1/1.2) so it takes the gold mask; slot 1 targets
        # Background.  Loss = (2*(-ln 0.6) + 1*(-ln 0.7)) / 2.
        probs = np.array([[[0.1, 0.6, 0.2, 0.1], [0.7, 0.1, 0.1, 0.1]]])
        grid = LabelGrid((TripletMask((S,)),))
        loss, assignment = order_agnostic_loss(probs, grid)
        assert assignment.pairs == ((0, 0),)
        assert loss == pytest.approx(0.6891630957353569, abs=1e-12)
        # Cross-check against enumerating both possible matchings.
        totals = [
            similarity_matrix(probs, grid)[n, 0] for n in (0, 1)
        ]
        assert totals[0] > totals[1]
        manual = (2 * -np.log(0.6) + 1 * -np.log(0.7)) / 2
        assert loss == pytest.approx(manual, abs=1e-12)

    def test_no_gold_targets_background_everywhere(self):
        probs = np.full((2, 3, 4), 0.25)
        grid = LabelGrid(())
        loss, assignment = order_agnostic_loss(probs, grid)
        assert assignment.pairs == ()
        assert loss == pytest.approx(-np.log(0.25), abs=1e-12)

    def test_interpolation_toward_one_hot_decreases_loss(self):
        rng = np.random.default_rng(8)
        _, grid = random_instance(rng, n_tokens=5, n_slots=4, n_gold=2)
        target = one_hot_grid_tensor(grid, 4)
        uniform = np.full_like(target, 0.25)
        losses = []
        for alpha in np.linspace(0.0, 1.0, 11):
            probs = (1 - alpha) * uniform + alpha * target
            losses.append(order_agnostic_loss(probs, grid)[0])
        assert all(b < a for a, b in zip(losses, losses[1:]))
        assert losses[-1] <= 1e-9

    def test_degenerate_probabilities_stay_finite(self):
        probs = np.zeros((1, 1, 4))
        probs[0, 0, 0] = 1.0
        grid = LabelGrid((TripletMask((S,)),))
        loss, _ = order_agnostic_loss(probs, grid)
        assert np.isfinite(loss)


class TestLossGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        h = 1e-5
        for _ in range(10):
            probs, grid = random_instance(rng, n_tokens=4, n_slots=3, n_gold=2)
            _, assignment, grad = loss_assignment_gradient(probs, grid)
            flat = probs.reshape(-1)
            worst = 0.0
            for i in rng.choice(flat.size, size=16, replace=False):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_given_assignment(probs, grid, assignment)
                flat[i] = orig - h
                down = loss_given_assignment(probs, grid, assignment)
                flat[i] = orig
                fd = (up - down) / (2 * h)
                g = grad.reshape(-1)[i]
                worst = max(worst, abs(fd - g) / max(abs(fd), abs(g), 1e-6))
            assert worst < 1e-4

    def test_zero_class_weight_zeroes_gradient(self):
        rng = np.random.default_rng(10)
        probs, grid = random_instance(rng, n_tokens=4, n_slots=3, n_gold=1)
        cfg = LossConfig(class_weights=(1.0, 0.0, 2.0, 2.0))
        grad = loss_gradient(probs, grid, cfg)
        labels = grid.label_array()[0]
        _, assignment, _ = loss_assignment_gradient(probs, grid, cfg)
        slot = assignment.pairs[0][0]
        for t in range(4):
            if labels[t] == S:
                assert grad[t, slot, :] == pytest.approx(np.zeros(4))

    def test_nonnegative_push_at_perfect_point(self):
        rng = np.random.default_rng(12)
        _, grid = random_instance(rng, n_tokens=4, n_slots=3, n_gold=2)
        probs = one_hot_grid_tensor(grid, 3)
        grad = loss_gradient(probs, grid)
        # Target entries carry negative gradient (increase them), everything
        # else is untouched by the cross-entropy.
        assert grad.max() <= 0.0
        assert grad.min() < 0.0


class TestLossConfig:
    def test_rejects_bad_reduction(self):
        with pytest.raises(ValueError):
            LossConfig(reduction="median")

    def test_focal_flag_changes_loss(self):
        rng = np.random.default_rng(13)
        probs, grid = random_instance(rng)
        plain, _ = order_agnostic_loss(probs, grid)
        focal, _ = order_agnostic_loss(probs, grid, LossConfig(focal_gamma=2.0))
        assert focal != pytest.approx(plain)

    def test_focal_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        cfg = LossConfig(focal_gamma=2.0)
        probs, grid = random_instance(rng, n_tokens=3, n_slots=3, n_gold=1)
        _, assignment, grad = loss_assignment_gradient(probs, grid, cfg)
        h = 1e-6
        flat = probs.reshape(-1)
        for i in rng.choice(flat.size, size=12, replace=False):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_given_assignment(probs, grid, assignment, cfg)
            flat[i] = orig - h
            down = loss_given_assignment(probs, grid, assignment, cfg)
            flat[i] = orig
            fd = (up - down) / (2 * h)
            g = grad.reshape(-1)[i]
            assert abs(fd - g) / max(abs(fd), abs(g), 1e-6) < 1e-4
