import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from slotie import (
    Assignment,
    LabelGrid,
    LossConfig,
    ShapeError,
    TokenClass,
    TooManyGold,
    hungarian_max,
    loss_assignment_gradient,
    matching,
    similarity_matrix,
)
from slotie.matching import EPS, loss_given_assignment, slot_targets

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


def lexicographic_oracle(values, tol=1e-9):
    """Reference for ``hungarian_max``: the slot-by-slot search it ran on
    every input before the two-solve certificate.  Returns (pairs, total)."""
    def optimal_total(sub):
        if sub.size == 0:
            return 0.0
        rows, cols = linear_sum_assignment(sub, maximize=True)
        return float(sub[rows, cols].sum())

    n_slots, n_gold = values.shape
    target = optimal_total(values)
    pairs = []
    remaining = list(range(n_gold))
    fixed = 0.0
    for slot in range(n_slots):
        if not remaining:
            break
        later_slots = np.arange(slot + 1, n_slots)
        for gold_index in remaining:
            rest = [c for c in remaining if c != gold_index]
            if len(rest) > len(later_slots):
                continue
            completion = optimal_total(values[np.ix_(later_slots, rest)]) if rest else 0.0
            if fixed + values[slot, gold_index] + completion >= target - tol:
                pairs.append((slot, gold_index))
                remaining.remove(gold_index)
                fixed += float(values[slot, gold_index])
                break
    return tuple(pairs), float(sum(values[n, m] for n, m in pairs))


@st.composite
def assignment_matrices(draw):
    """(N, M) similarity-like matrices with N from M to 8: random values,
    values rounded to one decimal (ties), one constant, and rounded values
    scaled by 1e8 (beyond the certificate's magnitude guard)."""
    n_gold = draw(st.integers(1, 4))
    n_slots = draw(st.integers(n_gold, 8))
    values = np.random.default_rng(draw(st.integers(0, 2**16))).random((n_slots, n_gold))
    kind = draw(st.sampled_from(["random", "rounded", "constant", "scaled"]))
    if kind == "rounded":
        values = np.round(values, 1)
    elif kind == "constant":
        values = np.full_like(values, np.round(values[0, 0], 1))
    elif kind == "scaled":
        values = np.round(values, 1) * 1e8
    return values


def counting_solver(monkeypatch):
    """Count the ``linear_sum_assignment`` calls ``hungarian_max`` makes."""
    calls = []

    def solve(*args, **kwargs):
        calls.append(1)
        return linear_sum_assignment(*args, **kwargs)

    monkeypatch.setattr(matching, "linear_sum_assignment", solve)
    return calls


def smooth_iou(p_slot, l_mask):
    """Per-pair oracle for ``similarity_matrix``: smooth IoU between one
    predicted slot and one one-hot mask, both (T, C), over the
    non-Background classes; 0 when the union is empty."""
    p = np.asarray(p_slot, dtype=np.float64)[:, 1:]
    l = np.asarray(l_mask, dtype=np.float64)[:, 1:]
    inter = float((p * l).sum())
    union = float(p.sum() + l.sum() - inter)
    return inter / union if union > 0.0 else 0.0


def pair_similarity(p_slot, labels):
    """``similarity_matrix`` on one slot (T, C) and one gold mask."""
    grid = LabelGrid([labels])
    return similarity_matrix(np.asarray(p_slot, dtype=np.float64)[:, None, :], grid)[0, 0]


def random_instance(rng, n_tokens=5, n_slots=4, n_gold=2):
    logits = rng.normal(size=(n_tokens, n_slots, 4))
    probs = np.exp(logits)
    probs /= probs.sum(axis=2, keepdims=True)
    rows = []
    for _ in range(n_gold):
        labels = rng.integers(0, 4, size=n_tokens)
        for cls, pos in zip((S, R, O), rng.choice(n_tokens, size=3, replace=False)):
            labels[pos] = cls
        rows.append(labels)
    return probs, LabelGrid(rows)


def oracle_one_hot(rows, n_tokens):
    """(M, T, C) one-hot encoding of gold label rows, one row at a time."""
    out = np.zeros((len(rows), n_tokens, 4))
    for m, row in enumerate(rows):
        for t, c in enumerate(row):
            out[m, t, c] = 1.0
    return out


def oracle_similarity(probs, rows):
    """Smooth IoU over ``oracle_one_hot`` in the arithmetic of
    ``similarity_matrix``, so the two must agree bit for bit."""
    pred = probs[:, :, 1:]
    masks = oracle_one_hot(rows, probs.shape[0])[:, :, 1:]
    inter = np.einsum("tnc,mtc->nm", pred, masks)
    union = pred.sum(axis=(0, 2))[:, None] + masks.sum(axis=(1, 2))[None, :] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)


def oracle_targets(n_tokens, n_slots, rows, pairs):
    """(T, N) targets: each matched slot copies its gold row, token by token."""
    targets = np.full((n_tokens, n_slots), int(B), dtype=np.int64)
    for slot, gold_index in pairs:
        for t in range(n_tokens):
            targets[t, slot] = rows[gold_index][t]
    return targets


def oracle_loss_gradient(probs, rows, weights):
    """Loss, assignment pairs and gradient from the oracle similarity and
    targets, with the weighted cross-entropy written out per cell."""
    pairs = hungarian_max(oracle_similarity(probs, rows)).pairs if rows else ()
    n_tokens, n_slots = probs.shape[:2]
    targets = oracle_targets(n_tokens, n_slots, rows, pairs)
    scale = 1.0 / targets.size
    cells = np.zeros((n_tokens, n_slots))
    grad = np.zeros_like(probs)
    for t in range(n_tokens):
        for n in range(n_slots):
            c = targets[t, n]
            p_safe = max(probs[t, n, c], EPS)
            cells[t, n] = weights[c] * -np.log(p_safe)
            grad[t, n, c] = -weights[c] / p_safe * scale
    return float(cells.sum() * scale), pairs, grad


@st.composite
def gold_instances(draw, min_gold=0):
    """Softmax probabilities (T, N, C) from a drawn seed and up to N
    distinct gold label rows; sizes stay small."""
    n_tokens = draw(st.integers(2, 6))
    n_slots = draw(st.integers(max(min_gold, 1), 4))
    row = st.lists(st.integers(0, 3), min_size=n_tokens, max_size=n_tokens)
    rows = draw(st.lists(row, min_size=min_gold, max_size=n_slots, unique_by=tuple))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    probs = np.exp(rng.normal(size=(n_tokens, n_slots, 4)))
    probs /= probs.sum(axis=2, keepdims=True)
    return probs, rows


def one_hot_grid_tensor(grid, n_slots):
    """Probability tensor that is exactly the gold grid one-hot, with
    unmatched slots all-Background."""
    n_tokens = grid.labels.shape[1]
    probs = np.zeros((n_tokens, n_slots, 4))
    probs[:, :, 0] = 1.0
    for m in range(grid.n_gold):
        for t in range(n_tokens):
            probs[t, m, :] = 0.0
            probs[t, m, grid.labels[m, t]] = 1.0
    return probs


class TestSmoothIou:
    """Hand cases for the similarity of one slot to one gold mask."""

    def test_perfect_match_is_one(self):
        assert pair_similarity(np.eye(4)[[1, 2, 3]], (S, R, O)) == 1.0

    def test_all_background_gold_is_zero(self):
        assert pair_similarity(np.full((3, 4), 0.25), (B, B, B)) == 0.0

    def test_hand_worked_value(self):
        # Two tokens, gold Subject then Relation; prediction puts 0.5 on the
        # gold class and 0.125 on each other non-background class:
        # I = 1.0, U = 1.5 + 2 - 1.0 = 2.5, IoU = 0.4.
        p = np.array([[0.25, 0.5, 0.125, 0.125], [0.25, 0.125, 0.5, 0.125]])
        assert pair_similarity(p, (S, R)) == pytest.approx(0.4, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            pair_similarity(np.full((2, 4), 0.25), (S, R, O))

    def test_bounds_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = rng.dirichlet(np.ones(4), size=4)
            value = pair_similarity(p, rng.integers(0, 4, size=4))
            assert 0.0 <= value <= 1.0 + 1e-12

    def test_equals_one_only_at_exact_match(self):
        l = np.eye(4)[[1, 2, 3]]
        assert pair_similarity(l, (S, R, O)) == 1.0
        perturbed = l.copy()
        perturbed[0] = [0.1, 0.9, 0.0, 0.0]
        assert pair_similarity(perturbed, (S, R, O)) < 1.0

    def test_background_mass_ignored_when_excluded(self):
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(4), size=5)
        labels = rng.integers(0, 4, size=5)
        bumped = p.copy()
        bumped[:, 0] += 3.0  # arbitrary extra Background mass
        a = pair_similarity(p, labels)
        b = pair_similarity(bumped, labels)
        assert a == pytest.approx(b, abs=1e-12)


class TestSimilarityMatrix:
    def test_perfect_single_cell(self):
        grid = LabelGrid([[S, R, O]])
        probs = one_hot_grid_tensor(grid, 1)
        sim = similarity_matrix(probs, grid)
        assert sim.shape == (1, 1)
        assert sim[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_uniform_predictions_give_equal_rows(self):
        grid = LabelGrid([[S, R, O]])
        probs = np.full((3, 4, 4), 0.25)
        sim = similarity_matrix(probs, grid)
        assert np.ptp(sim) == 0.0

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(2)
        probs, grid = random_instance(rng, n_tokens=6, n_slots=3, n_gold=2)
        sim = similarity_matrix(probs, grid)
        onehot = oracle_one_hot(grid.labels.tolist(), 6)
        for n in range(3):
            for m in range(2):
                expected = smooth_iou(probs[:, n, :], onehot[m])
                assert sim[n, m] == pytest.approx(expected, abs=1e-12)


class TestGridWithoutGold:
    """A grid with no gold masks is ordinary input to every function."""

    def test_similarity_matrix_has_no_columns(self):
        probs = np.random.default_rng(3).dirichlet(np.ones(4), size=(5, 3))
        assert similarity_matrix(probs, LabelGrid(np.zeros((0, 5)))).shape == (3, 0)

    def test_loss_trains_every_slot_toward_background(self):
        probs = np.random.default_rng(4).dirichlet(np.ones(4), size=(5, 3))
        cfg = LossConfig((1.5, 2.0, 2.0, 2.0))
        loss, assignment, grad = loss_assignment_gradient(probs, LabelGrid(np.zeros((0, 5))), cfg)
        assert assignment == Assignment((), 0.0)
        background = probs[:, :, 0]
        assert loss == pytest.approx(1.5 * -np.log(background).mean(), rel=1e-12)
        expected = np.zeros_like(probs)
        expected[:, :, 0] = -1.5 / background / background.size
        np.testing.assert_allclose(grad, expected, rtol=1e-12)

    def test_token_count_is_still_checked(self):
        probs = np.full((5, 3, 4), 0.25)
        with pytest.raises(ShapeError, match="grid covers 4 tokens"):
            loss_assignment_gradient(probs, LabelGrid(np.zeros((0, 4))))


def test_loss_refuses_more_gold_than_slots():
    grid = LabelGrid([[S, R, O], [O, R, S]])
    with pytest.raises(TooManyGold, match="2 gold masks cannot be matched onto 1 slots"):
        loss_assignment_gradient(np.full((3, 1, 4), 0.25), grid)


class TestGoldArrayProperties:
    """The (M, T) gold array against the per-row oracle above."""

    @settings(max_examples=150, deadline=None)
    @given(
        instance=gold_instances(),
        weights=st.sampled_from([(1.0, 2.0, 2.0, 2.0), (1.0, 3.0, 2.0, 0.5)]),
    )
    def test_array_paths_equal_the_per_row_oracle(self, instance, weights):
        probs, rows = instance
        grid = LabelGrid(np.array(rows, dtype=np.int64).reshape(len(rows), probs.shape[0]))
        if rows:
            assert np.array_equal(similarity_matrix(probs, grid), oracle_similarity(probs, rows))
        loss, assignment, grad = loss_assignment_gradient(probs, grid, LossConfig(weights))
        want_loss, want_pairs, want_grad = oracle_loss_gradient(probs, rows, weights)
        assert assignment.pairs == want_pairs
        assert np.array_equal(
            slot_targets(probs.shape[:2], grid, assignment),
            oracle_targets(*probs.shape[:2], rows, want_pairs),
        )
        assert loss == want_loss
        assert np.array_equal(grad, want_grad)

    @settings(max_examples=150, deadline=None)
    @given(instance=gold_instances(min_gold=1), data=st.data())
    def test_permuting_gold_rows_permutes_columns(self, instance, data):
        probs, rows = instance
        perm = data.draw(st.permutations(range(len(rows))))
        grid = LabelGrid(rows)
        shuffled = LabelGrid([rows[i] for i in perm])
        sim = similarity_matrix(probs, grid)
        assert np.array_equal(similarity_matrix(probs, shuffled), sim[:, perm])
        loss = loss_assignment_gradient(probs, grid)[0]
        assert loss_assignment_gradient(probs, shuffled)[0] == loss


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

    @settings(max_examples=400, deadline=None)
    @given(values=assignment_matrices())
    def test_equals_the_lexicographic_oracle(self, values):
        got = hungarian_max(values)
        assert (got.pairs, got.total) == lexicographic_oracle(values)

    def test_unique_optimum_takes_two_solves(self, monkeypatch):
        calls = counting_solver(monkeypatch)
        a = hungarian_max(np.array([[0.1, 0.9], [0.8, 0.2], [0.3, 0.3]]))
        assert a.pairs == ((0, 1), (1, 0))
        assert len(calls) == 2

    def test_exact_tie_falls_back_to_the_lexicographic_search(self, monkeypatch):
        # A single solve picks (0, 1), (1, 0) here; (0, 0), (1, 1) ties it
        # and comes first.
        values = np.array([[0.5, 0.5], [1.0, 1.0], [0.5, 0.5]])
        calls = counting_solver(monkeypatch)
        a = hungarian_max(values)
        assert a.pairs == ((0, 0), (1, 1))
        assert (a.pairs, a.total) == lexicographic_oracle(values)
        assert len(calls) > 2


@st.composite
def solver_cases(draw):
    """``(values, maximize)``: a 1-25 by 1-25 cost matrix, taller or wider,
    of floats or of small integers, which tie often, with one NaN or
    infinite cell now and then."""
    shape = (draw(st.integers(1, 25)), draw(st.integers(1, 25)))
    if draw(st.booleans()):
        elements = st.integers(-3, 3)
    else:
        elements = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    values = draw(arrays(np.float64, shape, elements=elements))
    bad = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    if bad is not None:
        values[draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1))] = bad
    return values, draw(st.booleans())


def solve_or_refuse(solve, values, maximize):
    try:
        rows, cols = solve(values, maximize=maximize)
    except ValueError as exc:
        return str(exc)
    return [rows.tolist(), cols.tolist()]


#: Solves the cases in the JSON file named by SOLVER_CASES with
#: ``matching.linear_sum_assignment`` in a fresh interpreter, where
#: scipy.optimize is never imported, so every solve runs the separately
#: loaded compiled module.
_LOADED_SOLVER_SCRIPT = """
import json, os, sys
import numpy as np
from slotie import matching
results = []
for values, maximize in json.loads(open(os.environ["SOLVER_CASES"]).read()):
    try:
        rows, cols = matching.linear_sum_assignment(np.array(values, float), maximize=maximize)
        results.append([rows.tolist(), cols.tolist()])
    except ValueError as exc:
        results.append(str(exc))
print(json.dumps(["scipy.optimize" in sys.modules, results]))
"""

#: Square, tall and wide matrices, with ties and without.
SOLVER_CASES = [[[0.5, 0.1], [0.2, 0.7]], [[1.0, 1.0], [1.0, 1.0], [0.0, 2.0]],
                [[3.0, 1.0, 2.0]], [[0.25, 0.5, 0.5], [0.5, 0.25, 0.5]], [[2.0], [2.0], [1.0]]]


class TestSolver:
    @settings(max_examples=25, deadline=None)
    @given(cases=st.lists(solver_cases(), min_size=1, max_size=12))
    def test_equals_scipy_optimize(self, cases, fresh_python, tmp_path_factory):
        """The loaded solver, run in a fresh interpreter, against this
        one's scipy.optimize: the same rows and columns, and the same
        ValueError for NaN and for an infinity in the solve's direction."""
        path = tmp_path_factory.mktemp("solver") / "cases.json"
        path.write_text(json.dumps([[values.tolist(), maximize] for values, maximize in cases]))
        imported, got = json.loads(fresh_python(_LOADED_SOLVER_SCRIPT, SOLVER_CASES=str(path)))
        want = [solve_or_refuse(linear_sum_assignment, values, maximize)
                for values, maximize in cases]
        assert (imported, got) == (False, want)
        for (values, maximize), result in zip(cases, want):
            if np.isnan(values).any() or (values == (np.inf if maximize else -np.inf)).any():
                assert result == "matrix contains invalid numeric entries"

    def test_train_and_carb11_leave_scipy_optimize_and_yaml_unimported(self, fresh_python,
                                                                       tmp_path):
        # A fresh interpreter: this one imported scipy.optimize above.
        script = f"""
import sys
from slotie import cli, matching
unloaded = matching._solver is None
d = {str(tmp_path)!r}
for argv in (
    ["synth", "--pool", "data/pool_en.tsv", "--n", "12", "--seed", "3", "--out", d + "/s.tsv"],
    ["convert", "--format", "tuples", "--in", d + "/s.tsv", "--out", d + "/g.jsonl",
     "--report", d + "/r.json"],
    ["train", "--data", d + "/g.jsonl", "--out", d + "/m.npz", "--epochs", "1",
     "--n-slots", "6", "--hidden", "8", "--blocks", "1"],
    ["score", "--scheme", "carb11", "--gold", d + "/s.tsv", "--pred", d + "/s.tsv",
     "--out", d + "/c.json"],
):
    assert cli.main(argv) == 0, argv
print(unloaded, matching._solver is not None, "scipy.optimize" in sys.modules,
      "yaml" in sys.modules)
"""
        assert fresh_python(script).split()[-4:] == ["True", "True", "False", "False"]

    def test_solves_match_through_the_fallback_import(self, fresh_python):
        # With no compiled module to find, the first solve imports scipy.optimize.
        script = f"""
import importlib.machinery, json, sys
import numpy as np
from slotie import matching
importlib.machinery.EXTENSION_SUFFIXES = [".missing"]
solves = [[a.tolist() for a in matching.linear_sum_assignment(np.array(case), maximize=m)]
          for case in {SOLVER_CASES!r} for m in (False, True)]
print(json.dumps(["scipy.optimize" in sys.modules, solves]))
"""
        want = [[a.tolist() for a in linear_sum_assignment(np.array(case), maximize=m)]
                for case in SOLVER_CASES for m in (False, True)]
        assert json.loads(fresh_python(script)) == [True, want]


class TestOrderAgnosticLoss:
    def test_perfect_prediction_has_zero_loss(self):
        rng = np.random.default_rng(5)
        _, grid = random_instance(rng, n_tokens=6, n_slots=5, n_gold=3)
        probs = one_hot_grid_tensor(grid, 5)
        loss, assignment, _ = loss_assignment_gradient(probs, grid)
        assert loss <= 1e-9
        assert len(assignment.pairs) == 3

    def test_gold_order_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            probs, grid = random_instance(rng, n_tokens=5, n_slots=4, n_gold=3)
            loss, a, _ = loss_assignment_gradient(probs, grid)
            perm = rng.permutation(3)
            shuffled = LabelGrid(grid.labels[perm])
            loss2, a2, _ = loss_assignment_gradient(probs, shuffled)
            assert loss2 == pytest.approx(loss, abs=1e-9)
            assert a2.total == pytest.approx(a.total, abs=1e-9)

    def test_slot_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            probs, grid = random_instance(rng, n_tokens=5, n_slots=4, n_gold=2)
            loss, a, _ = loss_assignment_gradient(probs, grid)
            perm = rng.permutation(4)
            loss2, a2, _ = loss_assignment_gradient(probs[:, perm, :], grid)
            assert loss2 == pytest.approx(loss, abs=1e-9)
            remapped = {(int(np.where(perm == n)[0][0]), m) for n, m in a.pairs}
            assert set(a2.pairs) == remapped

    def test_hand_computed_micro_case(self):
        # T=1, N=2, M=1, gold Subject.  Slot 0 has the higher IoU
        # (0.6/1.3 vs 0.1/1.2) so it takes the gold mask; slot 1 targets
        # Background.  Loss = (2*(-ln 0.6) + 1*(-ln 0.7)) / 2.
        probs = np.array([[[0.1, 0.6, 0.2, 0.1], [0.7, 0.1, 0.1, 0.1]]])
        grid = LabelGrid([[S]])
        loss, assignment, _ = loss_assignment_gradient(probs, grid)
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
        grid = LabelGrid(np.zeros((0, 2)))
        loss, assignment, _ = loss_assignment_gradient(probs, grid)
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
            losses.append(loss_assignment_gradient(probs, grid)[0])
        assert all(b < a for a, b in zip(losses, losses[1:]))
        assert losses[-1] <= 1e-9

    def test_degenerate_probabilities_stay_finite(self):
        probs = np.zeros((1, 1, 4))
        probs[0, 0, 0] = 1.0
        grid = LabelGrid([[S]])
        loss, _, _ = loss_assignment_gradient(probs, grid)
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
                up, _ = loss_given_assignment(probs, grid, assignment)
                flat[i] = orig - h
                down, _ = loss_given_assignment(probs, grid, assignment)
                flat[i] = orig
                fd = (up - down) / (2 * h)
                g = grad.reshape(-1)[i]
                worst = max(worst, abs(fd - g) / max(abs(fd), abs(g), 1e-6))
            assert worst < 1e-4

    def test_zero_class_weight_zeroes_gradient(self):
        rng = np.random.default_rng(10)
        probs, grid = random_instance(rng, n_tokens=4, n_slots=3, n_gold=1)
        cfg = LossConfig(class_weights=(1.0, 0.0, 2.0, 2.0))
        _, assignment, grad = loss_assignment_gradient(probs, grid, cfg)
        labels = grid.labels[0]
        slot = assignment.pairs[0][0]
        for t in range(4):
            if labels[t] == S:
                assert grad[t, slot, :] == pytest.approx(np.zeros(4))

    def test_nonnegative_push_at_perfect_point(self):
        rng = np.random.default_rng(12)
        _, grid = random_instance(rng, n_tokens=4, n_slots=3, n_gold=2)
        probs = one_hot_grid_tensor(grid, 3)
        grad = loss_assignment_gradient(probs, grid)[2]
        # Target entries carry negative gradient (increase them), everything
        # else is untouched by the cross-entropy.
        assert grad.max() <= 0.0
        assert grad.min() < 0.0


class TestLossConfig:
    def test_rejects_bad_class_weights(self):
        with pytest.raises(ValueError):
            LossConfig(class_weights=(1.0, 2.0, 2.0))
        with pytest.raises(ValueError):
            LossConfig(class_weights=(1.0, -2.0, 2.0, 2.0))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                LossConfig(class_weights=(bad, 1.0, 1.0, 1.0))

    def test_entry_points_share_one_core(self):
        rng = np.random.default_rng(13)
        probs, grid = random_instance(rng)
        cfg = LossConfig(class_weights=(1.0, 3.0, 2.0, 0.5))
        loss, assignment, grad = loss_assignment_gradient(probs, grid, cfg)
        fixed_loss, fixed_grad = loss_given_assignment(probs, grid, assignment, cfg)
        assert fixed_loss == loss
        assert np.array_equal(fixed_grad, grad)
