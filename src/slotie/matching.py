"""Order-agnostic training loss built on bipartite slot-to-gold matching.

The similarity between a predicted slot and a gold mask is a smooth IoU
computed directly on probabilities, so no thresholding happens during
training.  The optimal assignment over the resulting similarity matrix
picks which slot answers for which gold triplet; matched slots are trained
toward their gold mask with class-weighted cross-entropy and every
unmatched slot is trained toward all-Background.  The assignment is treated
as a constant when differentiating (straight-through the matching).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import N_CLASSES, LabelGrid, PredictionTensor, SlotieError, TokenClass


class ShapeError(SlotieError):
    """Raised when tensor shapes disagree with the documented contracts."""


class TooManyGold(SlotieError):
    """Raised when a sentence carries more gold triplets than slots."""


@dataclass(frozen=True)
class LossConfig:
    """Knobs for the matching loss.

    Non-background classes get doubled weight by default to counter the
    Background-heavy class balance.  ``focal_gamma`` enables a focal term
    instead of plain cross-entropy; it defaults to off.  ``reduction``
    selects the mean over all (token, slot) cells or the plain sum.
    """

    class_weights: tuple[float, float, float, float] = (1.0, 2.0, 2.0, 2.0)
    reduction: str = "mean"
    focal_gamma: float | None = None
    eps: float = 1e-12

    def __post_init__(self) -> None:
        if len(self.class_weights) != N_CLASSES:
            raise ValueError(f"need {N_CLASSES} class weights")
        if any(w < 0 for w in self.class_weights):
            raise ValueError("class weights must be non-negative")
        if self.reduction not in ("mean", "sum"):
            raise ValueError(f"unknown reduction {self.reduction!r}")
        if self.eps <= 0:
            raise ValueError("eps must be positive")


@dataclass(frozen=True)
class Assignment:
    """A partial bijection between slots and gold masks.

    ``pairs`` holds (slot, gold) index pairs sorted by slot; ``total`` is
    the sum of matched similarities.
    """

    pairs: tuple[tuple[int, int], ...]
    total: float

    def slot_to_gold(self) -> dict[int, int]:
        return dict(self.pairs)


def _as_probs(p: PredictionTensor | np.ndarray) -> np.ndarray:
    probs = p.probs if isinstance(p, PredictionTensor) else np.asarray(p, dtype=np.float64)
    if probs.ndim != 3 or probs.shape[2] != N_CLASSES:
        raise ShapeError(f"expected a (T, N, {N_CLASSES}) tensor, got {probs.shape}")
    return probs


def one_hot_masks(gold: LabelGrid) -> np.ndarray:
    """One-hot encode a grid's masks into an (M, T, C) array."""
    labels = gold.label_array()
    out = np.zeros(labels.shape + (N_CLASSES,), dtype=np.float64)
    rows, cols = np.indices(labels.shape)
    out[rows, cols, labels] = 1.0
    return out


def smooth_iou(p_slot: np.ndarray, l_mask: np.ndarray, exclude_background: bool = True) -> float:
    """Smooth intersection-over-union between one predicted slot and one
    one-hot mask, both of shape (T, C).

    Intersection is the elementwise product summed over tokens and classes;
    union is the sum of both masses minus the intersection.  With
    ``exclude_background`` the sums skip the Background class.  Returns 0
    when the union is empty.
    """
    p = np.asarray(p_slot, dtype=np.float64)
    l = np.asarray(l_mask, dtype=np.float64)
    if p.ndim != 2 or p.shape != l.shape or p.shape[1] != N_CLASSES:
        raise ShapeError(f"slot {p.shape} and mask {l.shape} must both be (T, {N_CLASSES})")
    start = 1 if exclude_background else 0
    inter = float((p[:, start:] * l[:, start:]).sum())
    union = float(p[:, start:].sum() + l[:, start:].sum() - inter)
    return inter / union if union > 0.0 else 0.0


def similarity_matrix(p: PredictionTensor | np.ndarray, gold: LabelGrid) -> np.ndarray:
    """Smooth IoU between every slot and every gold mask, shape (N, M),
    over the non-Background classes."""
    probs = _as_probs(p)
    if gold.n_gold == 0:
        raise ValueError("similarity matrix needs at least one gold mask")
    if gold.seq_length != probs.shape[0]:
        raise ShapeError(
            f"grid covers {gold.seq_length} tokens but predictions cover {probs.shape[0]}"
        )
    pred = probs[:, :, 1:]
    masks = one_hot_masks(gold)[:, :, 1:]
    inter = np.einsum("tnc,mtc->nm", pred, masks)
    union = pred.sum(axis=(0, 2))[:, None] + masks.sum(axis=(1, 2))[None, :] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)


def _optimal_total(values: np.ndarray) -> float:
    if values.size == 0:
        return 0.0
    rows, cols = linear_sum_assignment(values, maximize=True)
    return float(values[rows, cols].sum())


def hungarian_max(sim: np.ndarray) -> Assignment:
    """Assignment of slots to gold masks maximizing total similarity.

    Requires at least as many slots as gold masks; every gold mask gets
    matched.  Among equally good assignments the result prefers the lowest
    slot index, then the lowest gold index, so ties resolve
    deterministically.
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
    target = _optimal_total(values)
    pairs: list[tuple[int, int]] = []
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
            completion = _optimal_total(values[np.ix_(later_slots, rest)]) if rest else 0.0
            if fixed + values[slot, gold_index] + completion >= target - tol:
                pairs.append((slot, gold_index))
                remaining.remove(gold_index)
                fixed += float(values[slot, gold_index])
                break
        # No acceptable gold means some optimal assignment skips this slot.
    total = float(sum(values[n, m] for n, m in pairs))
    return Assignment(tuple(pairs), total)


def _targets(shape: tuple[int, int, int], gold: LabelGrid, assignment: Assignment) -> np.ndarray:
    """Per-(token, slot) target classes: matched slots copy their gold mask,
    unmatched slots target Background everywhere."""
    n_tokens, n_slots, _ = shape
    targets = np.full((n_tokens, n_slots), int(TokenClass.BACKGROUND), dtype=np.int64)
    if assignment.pairs:
        labels = gold.label_array()
        for slot, gold_index in assignment.pairs:
            targets[:, slot] = labels[gold_index]
    return targets


def optimal_assignment(probs: np.ndarray, gold: LabelGrid) -> Assignment:
    """The loss-optimal slot-to-gold assignment; empty when there is no gold."""
    if gold.n_gold == 0:
        return Assignment((), 0.0)
    if gold.n_gold > probs.shape[1]:
        raise TooManyGold(
            f"{gold.n_gold} gold masks exceed the {probs.shape[1]} available slots"
        )
    return hungarian_max(similarity_matrix(probs, gold))


def loss_given_assignment(
    p: PredictionTensor | np.ndarray,
    gold: LabelGrid,
    assignment: Assignment,
    cfg: LossConfig = LossConfig(),
) -> float:
    """Class-weighted cross-entropy of ``p`` against the targets induced by a
    fixed assignment."""
    probs = _as_probs(p)
    targets = _targets(probs.shape, gold, assignment)
    weights = np.asarray(cfg.class_weights, dtype=np.float64)[targets]
    p_target = np.take_along_axis(probs, targets[:, :, None], axis=2)[:, :, 0]
    cells = weights * -np.log(np.maximum(p_target, cfg.eps))
    if cfg.focal_gamma is not None:
        cells = cells * (1.0 - p_target) ** cfg.focal_gamma
    return float(cells.mean() if cfg.reduction == "mean" else cells.sum())


def order_agnostic_loss(
    p: PredictionTensor | np.ndarray,
    gold: LabelGrid,
    cfg: LossConfig = LossConfig(),
) -> tuple[float, Assignment]:
    """Matching loss for one sentence; returns the assignment it used.

    The loss value is invariant to the listed order of gold masks and, up
    to slot relabeling, to the order of prediction slots.
    """
    probs = _as_probs(p)
    if gold.n_gold and gold.seq_length != probs.shape[0]:
        raise ShapeError("gold grid and predictions cover different token counts")
    assignment = optimal_assignment(probs, gold)
    return loss_given_assignment(probs, gold, assignment, cfg), assignment


def loss_gradient(
    p: PredictionTensor | np.ndarray,
    gold: LabelGrid,
    cfg: LossConfig = LossConfig(),
) -> np.ndarray:
    """Gradient of the matching loss w.r.t. the probabilities, holding the
    assignment fixed."""
    _, _, grad = loss_assignment_gradient(p, gold, cfg)
    return grad


def loss_assignment_gradient(
    p: PredictionTensor | np.ndarray,
    gold: LabelGrid,
    cfg: LossConfig = LossConfig(),
) -> tuple[float, Assignment, np.ndarray]:
    """Loss value, assignment, and analytic gradient in one pass.

    The gradient is nonzero only at target entries; the denominator is
    clamped at ``cfg.eps`` so it stays finite for vanishing probabilities.
    """
    probs = _as_probs(p)
    if gold.n_gold and gold.seq_length != probs.shape[0]:
        raise ShapeError("gold grid and predictions cover different token counts")
    assignment = optimal_assignment(probs, gold)
    targets = _targets(probs.shape, gold, assignment)
    weights = np.asarray(cfg.class_weights, dtype=np.float64)[targets]
    p_target = np.take_along_axis(probs, targets[:, :, None], axis=2)[:, :, 0]
    p_safe = np.maximum(p_target, cfg.eps)
    cells = weights * -np.log(p_safe)
    if cfg.focal_gamma is not None:
        gamma = cfg.focal_gamma
        one_minus = 1.0 - p_target
        cells = cells * one_minus**gamma
        grad_cells = weights * (
            gamma * one_minus ** (gamma - 1.0) * np.log(p_safe) - one_minus**gamma / p_safe
        )
    else:
        grad_cells = -weights / p_safe
    n_cells = targets.size
    scale = 1.0 / n_cells if cfg.reduction == "mean" else 1.0
    loss = float(cells.sum() * scale)
    grad = np.zeros_like(probs)
    np.put_along_axis(grad, targets[:, :, None], (grad_cells * scale)[:, :, None], axis=2)
    return loss, assignment, grad
