"""Order-agnostic training loss built on bipartite slot-to-gold matching.

The similarity between a predicted slot and a gold mask is a smooth IoU
computed directly on probabilities, so no thresholding happens during
training.  The optimal assignment over the resulting similarity matrix
picks which slot answers for which gold triplet; matched slots are trained
toward their gold mask with class-weighted cross-entropy and every
unmatched slot is trained toward all-Background.  The assignment is treated
as a constant when differentiating (straight-through the matching).
The functions take the (T, N, C) probabilities as an array; a grid with
no gold is ordinary input, whose slots all target Background.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import N_CLASSES, LabelGrid, SlotieError, TokenClass


class ShapeError(SlotieError):
    """Raised when tensor shapes disagree with the documented contracts."""


class TooManyGold(SlotieError):
    """Raised when a sentence carries more gold triplets than slots."""


#: Floor on target probabilities so the loss and its gradient stay finite.
EPS = 1e-12


@dataclass(frozen=True)
class LossConfig:
    """Knobs for the matching loss.

    Non-background classes get doubled weight by default to counter the
    Background-heavy class balance.
    """

    class_weights: tuple[float, ...] = (1.0, 2.0, 2.0, 2.0)

    def __post_init__(self) -> None:
        if len(self.class_weights) != N_CLASSES:
            raise ValueError(f"need {N_CLASSES} class weights")
        if not all(np.isfinite(w) and w >= 0 for w in self.class_weights):
            raise ValueError(f"class weights must be finite and >= 0: {self.class_weights}")


@dataclass(frozen=True, slots=True)
class Assignment:
    """A partial bijection between slots and gold masks.

    ``pairs`` holds (slot, gold) index pairs sorted by slot; ``total`` is
    the sum of matched similarities.
    """

    pairs: tuple[tuple[int, int], ...]
    total: float


def _as_probs(p: np.ndarray) -> np.ndarray:
    probs = np.asarray(p, dtype=np.float64)
    if probs.ndim != 3 or probs.shape[2] != N_CLASSES:
        raise ShapeError(f"expected a (T, N, {N_CLASSES}) tensor, got {probs.shape}")
    return probs


def similarity_matrix(p: np.ndarray, gold: LabelGrid) -> np.ndarray:
    """Smooth IoU between every slot and every gold mask, shape (N, M),
    over the non-Background classes; (N, 0) for a grid with no gold."""
    probs = _as_probs(p)
    if gold.labels.shape[1] != probs.shape[0]:
        raise ShapeError(
            f"grid covers {gold.labels.shape[1]} tokens but predictions cover {probs.shape[0]}"
        )
    pred = probs[:, :, 1:]
    masks = np.eye(N_CLASSES)[gold.labels][:, :, 1:]
    inter = np.einsum("tnc,mtc->nm", pred, masks)
    union = pred.sum(axis=(0, 2))[:, None] + masks.sum(axis=(1, 2))[None, :] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)


#: scipy's compiled solver once the first solve has loaded it.
_solver = None


def _load_solver():
    """``linear_sum_assignment`` from scipy's compiled ``_lsap`` module,
    loaded by itself: importing scipy.optimize for it would cost more memory
    and start-up time than the rest of slotie.  scipy.optimize re-exports
    this very function; its file layout is private to scipy, so a missing
    file falls back to the public import."""
    module = sys.modules.get("scipy.optimize._lsap")
    # find_spec of a top-level package runs none of its code.
    scipy_spec = None if module else importlib.util.find_spec("scipy")
    if scipy_spec is not None:
        folder = Path(scipy_spec.submodule_search_locations[0]) / "optimize"
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = folder / ("_lsap" + suffix)
            if path.is_file():
                spec = importlib.util.spec_from_file_location("scipy.optimize._lsap", path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                break
    if module is None:
        from scipy.optimize import linear_sum_assignment as solve

        return solve
    return module.linear_sum_assignment


def linear_sum_assignment(cost_matrix: np.ndarray, maximize: bool = False):
    """``scipy.optimize.linear_sum_assignment``, loaded on the first solve
    (``extract`` never solves one) without the rest of scipy.optimize."""
    global _solver
    if _solver is None:
        _solver = _load_solver()
    return _solver(cost_matrix, maximize=maximize)


def _optimal_total(values: np.ndarray) -> float:
    rows, cols = linear_sum_assignment(values, maximize=True)
    return float(values[rows, cols].sum())


def _unique_optimum(values: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                    tol: float) -> list[tuple[int, int]] | None:
    """The optimal pairs ``rows``, ``cols`` of ``values`` when every other
    matching scores at least ``2*tol`` below them, else None.

    Lowering the chosen edges by ``2*tol`` costs the chosen matching at
    least ``2*tol`` more than any other matching, which shares at most M-1
    of its edges; so the re-solve returns the same edges only when no other
    matching lies within ``tol`` of the optimum.  The values must be small
    enough for a ``2*tol`` change to survive rounding.
    """
    if not np.abs(values).max() < 1e3:
        return None
    lowered = values.copy()
    lowered[rows, cols] -= 2.0 * tol
    again_rows, again_cols = linear_sum_assignment(lowered, maximize=True)
    rows, cols = rows.tolist(), cols.tolist()
    if rows == again_rows.tolist() and cols == again_cols.tolist():
        return list(zip(rows, cols))
    return None


def _lexicographic_optimum(values: np.ndarray, target: float,
                           tol: float) -> list[tuple[int, int]]:
    """The lowest-slot, then lowest-gold, matching within ``tol`` of the
    optimal total ``target``, fixed one slot at a time by re-solving the rest."""
    n_slots, n_gold = values.shape
    rows = values.tolist()
    pairs: list[tuple[int, int]] = []
    remaining = list(range(n_gold))
    fixed = 0.0
    for slot in range(n_slots):
        if not remaining:
            break
        for gold_index in remaining:
            rest = [c for c in remaining if c != gold_index]
            if len(rest) > n_slots - slot - 1:
                continue
            if not rest:
                completion = 0.0
            elif len(rest) == 1:  # the one gold left takes its best later slot
                completion = max(row[rest[0]] for row in rows[slot + 1:])
            else:
                completion = _optimal_total(values[slot + 1:, rest])
            if fixed + rows[slot][gold_index] + completion >= target - tol:
                pairs.append((slot, gold_index))
                remaining.remove(gold_index)
                fixed += rows[slot][gold_index]
                break
        # No acceptable gold means some optimal assignment skips this slot.
    return pairs


def hungarian_max(sim: np.ndarray) -> Assignment:
    """Assignment of slots to gold masks maximizing total similarity.

    Requires at least as many slots as gold masks; every gold mask gets
    matched.  Among equally good assignments the result prefers the lowest
    slot index, then the lowest gold index, so ties resolve
    deterministically.  A unique optimum takes two solves; only near-ties
    and values of 1e3 or more take the slot-by-slot search, which starts
    from the first solve's total.
    """
    values = np.asarray(sim, dtype=np.float64)
    if values.ndim != 2:
        raise ShapeError(f"similarity matrix must be 2-D, got shape {values.shape}")
    n_slots, n_gold = values.shape
    if n_slots < n_gold:
        raise TooManyGold(f"{n_gold} gold masks cannot be matched onto {n_slots} slots")
    if n_gold == 0:
        return Assignment((), 0.0)
    tol = 1e-9
    solved = linear_sum_assignment(values, maximize=True)
    pairs = _unique_optimum(values, *solved, tol)
    if pairs is None:
        pairs = _lexicographic_optimum(values, float(values[solved].sum()), tol)
    rows = values.tolist()
    return Assignment(tuple(pairs), float(sum(rows[n][m] for n, m in pairs)))


def slot_targets(shape: tuple[int, int], gold: LabelGrid, assignment: Assignment) -> np.ndarray:
    """Per-(token, slot) target classes of shape (T, N): matched slots copy
    their gold mask, unmatched slots target Background everywhere."""
    targets = np.full(shape, int(TokenClass.BACKGROUND), dtype=np.int64)
    for slot, gold_index in assignment.pairs:
        targets[:, slot] = gold.labels[gold_index]
    return targets


def loss_given_assignment(
    p: np.ndarray,
    gold: LabelGrid,
    assignment: Assignment,
    cfg: LossConfig = LossConfig(),
) -> tuple[float, np.ndarray]:
    """Class-weighted cross-entropy of ``p`` against the targets induced by a
    fixed assignment, averaged over the (token, slot) cells, and its
    analytic gradient w.r.t. the probabilities.

    The gradient is nonzero only at target entries; the denominator is
    clamped at ``EPS`` so it stays finite for vanishing probabilities.
    """
    probs = _as_probs(p)
    targets = slot_targets(probs.shape[:2], gold, assignment)
    weights = np.asarray(cfg.class_weights, dtype=np.float64)[targets]
    p_target = np.take_along_axis(probs, targets[:, :, None], axis=2)[:, :, 0]
    p_safe = np.maximum(p_target, EPS)
    scale = 1.0 / targets.size
    loss = float((weights * -np.log(p_safe)).sum() * scale)
    grad = np.zeros_like(probs)
    np.put_along_axis(grad, targets[:, :, None], (-weights / p_safe * scale)[:, :, None], axis=2)
    return loss, grad


def loss_assignment_gradient(
    p: np.ndarray,
    gold: LabelGrid,
    cfg: LossConfig = LossConfig(),
) -> tuple[float, Assignment, np.ndarray]:
    """Matching loss for one sentence, its assignment, and the analytic
    gradient, holding the assignment fixed when differentiating.  The loss
    is invariant to the gold order and, up to slot relabeling, to the slot order."""
    assignment = hungarian_max(similarity_matrix(p, gold))
    loss, grad = loss_given_assignment(p, gold, assignment, cfg)
    return loss, assignment, grad
