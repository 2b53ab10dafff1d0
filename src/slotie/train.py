"""Training loop: Adam with decoupled weight decay, epoch shuffling, and
checkpoint selection by validation token-wise macro F1.

Sentences are processed one at a time inside a batch; gradients average
across the batch before each optimizer step, so a "batch" is a gradient
accumulation group.  Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import LabelGrid, NumericalError, TokenSequence
from .matching import LossConfig, TooManyGold, hungarian_max, loss_assignment_gradient
from .matching import similarity_matrix
from .model import ModelConfig, SlotTagger, TooLong, build_vocab, decode_grid
from .scoring import MacroF1Accumulator

#: Adam's moment decay rates and denominator epsilon, the usual defaults.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings.

    ``validation_fraction`` picks the held-out share; 0 means validate on
    the training set itself (useful for overfitting checks).  When
    ``target_f1`` is set, training stops early once the best validation F1
    reaches it.
    """

    learning_rate: float = 5e-4
    weight_decay: float = 1e-6
    batch_size: int = 32
    max_epochs: int = 50
    seed: int = 0
    validation_fraction: float = 0.1
    target_f1: float | None = None

    def __post_init__(self) -> None:
        for name in ("learning_rate", "weight_decay"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate <= 0 or self.weight_decay < 0:
            raise ValueError("learning rate must be positive, weight decay non-negative")
        # The decoupled decay scales every parameter by 1 - lr * wd per step.
        if self.learning_rate * self.weight_decay >= 1.0:
            raise ValueError(
                f"learning_rate * weight_decay must be below 1 (a decay step of "
                f"{self.learning_rate * self.weight_decay} zeroes or flips every parameter)"
            )
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch size and epoch count must be >= 1")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation fraction must lie in [0, 1)")


class AdamState:
    """Adam's step counter and its two moment blocks, shaped like a
    tagger's ``values``."""

    def __init__(self, size: int) -> None:
        self.step = 0
        self.m, self.v = np.zeros((2, size))


def adam_step(model: SlotTagger, state: AdamState, cfg: TrainConfig) -> None:
    """One Adam update with decoupled weight decay of ``model.values`` from
    the gradients the tape accumulated in ``model.grads``; then the
    gradient block is zero-filled for the next batch.

    If any gradient is non-finite the step aborts with NumericalError and
    nothing changes.  The update runs in place, in the operation order of
    the per-tensor formula, so the bits match it.
    """
    data, grad = model.values, model.grads
    if not np.isfinite(grad).all():
        params = model.named_parameters().items()
        bad = next(name for name, tensor in params if not np.isfinite(tensor.grad).all())
        raise NumericalError(f"non-finite gradient in {bad}")
    state.step += 1
    t = state.step
    correction1 = 1.0 - ADAM_BETA1**t
    correction2 = 1.0 - ADAM_BETA2**t
    m, v, tmp = state.m, state.v, np.empty_like(grad)
    m *= ADAM_BETA1
    m += np.multiply(grad, 1.0 - ADAM_BETA1, out=tmp)
    np.multiply(grad, grad, out=tmp)
    v *= ADAM_BETA2
    v += np.multiply(tmp, 1.0 - ADAM_BETA2, out=tmp)
    # data -= (lr * (m / c1)) / (sqrt(v / c2) + eps), with grad as scratch
    np.multiply(np.divide(m, correction1, out=tmp), cfg.learning_rate, out=tmp)
    np.sqrt(np.divide(v, correction2, out=grad), out=grad)
    grad += ADAM_EPS
    data -= np.divide(tmp, grad, out=tmp)
    if cfg.weight_decay:
        data -= np.multiply(data, cfg.learning_rate * cfg.weight_decay, out=tmp)
    grad.fill(0.0)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_macro_f1: float
    is_best: bool


@dataclass
class TrainResult:
    model: SlotTagger
    history: list[EpochStats]
    best_epoch: int
    best_val_f1: float
    diverged: bool = False
    diagnostics: str = ""


@contextmanager
def _naming_record(position: int, seq: TokenSequence):
    """Name the record of a TooLong or TooManyGold error: position, first words."""
    try:
        yield
    except (TooLong, TooManyGold) as exc:
        words = " ".join(seq.body_tokens[:6]) + (" ..." if len(seq.body_tokens) > 6 else "")
        exc.args = (f"record {position} ({words}): {exc}",)
        raise


def evaluate_macro_f1(
    model: SlotTagger,
    dataset: Sequence[tuple[TokenSequence, LabelGrid]],
    positions: Sequence[int] | None = None,
) -> float:
    """Token-wise macro F1 of the argmax slot labels against gold, aggregated
    over the dataset under the loss-optimal assignments.  A TooManyGold
    error names ``dataset[k]`` as record ``positions[k]`` (default k + 1)."""
    acc = MacroF1Accumulator()
    positions = range(1, len(dataset) + 1) if positions is None else positions
    grids = zip(positions, (grid for _, grid in dataset))
    for pack, p in model.predict_packs(seq for seq, _ in dataset):
        labels = decode_grid(p)
        start = 0
        # The pack comes first, so zip reads no grid past the pack.
        for seq, (position, grid) in zip(pack, grids):
            rows = slice(start, start + len(seq))
            with _naming_record(position, seq):
                acc.add(labels[rows], grid, hungarian_max(similarity_matrix(p.probs[rows], grid)))
            start = rows.stop
    return acc.value()


def train(
    dataset: Sequence[tuple[TokenSequence, LabelGrid]],
    cfg: TrainConfig = TrainConfig(),
    model_cfg: ModelConfig = ModelConfig(),
    loss_cfg: LossConfig = LossConfig(),
    log=None,
) -> TrainResult:
    """Train a fresh tagger on (sequence, grid) pairs.

    Each epoch shuffles the training split into batches; after the epoch,
    validation macro F1 decides whether to snapshot the parameters.  The
    returned model carries the best snapshot.  On numeric divergence the
    loop aborts, keeps the last good snapshot, and flags the result.
    """
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(dataset))
    n_val = int(round(cfg.validation_fraction * len(dataset)))
    train_indices = order[n_val:]
    val_indices = order[:n_val] if n_val else train_indices
    if len(train_indices) == 0:
        raise ValueError(f"no training examples: {n_val} of {len(dataset)} held out for validation")
    train_set = [dataset[i] for i in train_indices]
    val_set = [dataset[i] for i in val_indices]

    vocab = build_vocab(seq for seq, _ in train_set)
    model = SlotTagger(vocab, model_cfg, seed=cfg.seed)
    for position, (seq, _) in enumerate(dataset, 1):
        with _naming_record(position, seq):
            model.encoder.positions(seq)  # TooLong past max_len, before any step
    state = AdamState(model.values.size)

    history: list[EpochStats] = []
    best_f1 = -1.0
    best_epoch = 0
    best_values = model.values.copy()
    diverged = False
    diagnostics = ""

    for epoch in range(1, cfg.max_epochs + 1):
        perm = rng.permutation(len(train_set))
        epoch_loss = 0.0
        try:
            for start in range(0, len(perm), cfg.batch_size):
                batch = perm[start : start + cfg.batch_size]
                for i in batch:
                    seq, grid = train_set[i]
                    probs = model.forward(seq)
                    with _naming_record(train_indices[i] + 1, seq):
                        loss, _, grad = loss_assignment_gradient(probs.probs, grid, loss_cfg)
                    if not np.isfinite(loss):
                        raise NumericalError(f"non-finite loss on example {i} (epoch {epoch})")
                    model.backward(grad / len(batch))
                    epoch_loss += loss
                adam_step(model, state, cfg)
            val_f1 = evaluate_macro_f1(model, val_set, val_indices + 1)
        except NumericalError as exc:
            diverged = True
            diagnostics = str(exc)
            break
        is_best = val_f1 > best_f1
        if is_best:
            best_f1 = val_f1
            best_epoch = epoch
            best_values[...] = model.values
        history.append(EpochStats(epoch, epoch_loss / len(train_set), val_f1, is_best))
        if log is not None:
            log(history[-1])
        if cfg.target_f1 is not None and best_f1 >= cfg.target_f1:
            break

    model.values[...] = best_values
    return TrainResult(model, history, best_epoch, best_f1, diverged, diagnostics)
