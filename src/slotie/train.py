"""Training loop: Adam with decoupled weight decay, epoch shuffling, and
checkpoint selection by validation token-wise macro F1.

Sentences are processed one at a time inside a batch; gradients average
across the batch before each optimizer step, so a "batch" is a gradient
accumulation group.  Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import LabelGrid, SlotieError, TokenSequence, tokenize
from .matching import LossConfig, loss_assignment_gradient, optimal_assignment
from .model import ModelConfig, SlotTagger, build_vocab, decode, decode_grid
from .scoring import MacroF1Accumulator
from .autodiff import Tensor


class NumericalError(SlotieError):
    """Raised when a loss or gradient stops being finite."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings; Adam moment constants are the usual defaults.

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
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    target_f1: float | None = None

    def __post_init__(self) -> None:
        if self.learning_rate <= 0 or self.weight_decay < 0:
            raise ValueError("learning rate must be positive, weight decay non-negative")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch size and epoch count must be >= 1")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation fraction must lie in [0, 1)")


class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self) -> None:
        self.step = 0
        self.moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}


def adam_step(params: dict[str, Tensor], state: AdamState, cfg: TrainConfig) -> None:
    """One Adam update with decoupled weight decay, reading each parameter's
    accumulated ``.grad`` (missing gradients count as zero).

    If any gradient is non-finite the step aborts with NumericalError and
    no parameter changes.
    """
    for name, tensor in params.items():
        if tensor.grad is not None and not np.isfinite(tensor.grad).all():
            raise NumericalError(f"non-finite gradient in {name}")
    state.step += 1
    t = state.step
    correction1 = 1.0 - cfg.beta1**t
    correction2 = 1.0 - cfg.beta2**t
    for name, tensor in params.items():
        grad = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        if name not in state.moments:
            state.moments[name] = (np.zeros_like(tensor.data), np.zeros_like(tensor.data))
        m, v = state.moments[name]
        m[...] = cfg.beta1 * m + (1.0 - cfg.beta1) * grad
        v[...] = cfg.beta2 * v + (1.0 - cfg.beta2) * grad**2
        m_hat = m / correction1
        v_hat = v / correction2
        tensor.data = tensor.data - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
        if cfg.weight_decay:
            tensor.data = tensor.data - cfg.learning_rate * cfg.weight_decay * tensor.data


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


def evaluate_macro_f1(
    model: SlotTagger,
    dataset: Sequence[tuple[TokenSequence, LabelGrid]],
) -> float:
    """Token-wise macro F1 of argmax-decoded grids against gold, aggregated
    over the dataset under the loss-optimal assignments."""
    acc = MacroF1Accumulator()
    for seq, grid in dataset:
        probs = model.predict(seq)
        acc.add(decode_grid(probs), grid, optimal_assignment(probs.probs, grid))
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
    if not dataset:
        raise ValueError("training needs at least one example")
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(dataset))
    n_val = int(round(cfg.validation_fraction * len(dataset)))
    val_indices = order[:n_val]
    train_indices = order[n_val:]
    if len(train_indices) == 0:
        raise ValueError("validation fraction leaves no training examples")
    train_set = [dataset[i] for i in train_indices]
    val_set = [dataset[i] for i in val_indices] if n_val else train_set

    vocab = build_vocab(seq for seq, _ in train_set)
    model = SlotTagger(vocab, model_cfg, seed=cfg.seed)
    params = model.trainable_parameters()
    state = AdamState()

    history: list[EpochStats] = []
    best_f1 = -1.0
    best_epoch = 0
    best_snapshot = {name: t.data.copy() for name, t in model.named_parameters().items()}
    diverged = False
    diagnostics = ""

    for epoch in range(1, cfg.max_epochs + 1):
        perm = rng.permutation(len(train_set))
        epoch_loss = 0.0
        try:
            for start in range(0, len(perm), cfg.batch_size):
                batch = perm[start : start + cfg.batch_size]
                model.zero_grad()
                for i in batch:
                    seq, grid = train_set[i]
                    probs = model.forward(seq)
                    loss, _, grad = loss_assignment_gradient(probs.probs, grid, loss_cfg)
                    if not np.isfinite(loss):
                        raise NumericalError(f"non-finite loss on example {i} (epoch {epoch})")
                    model.backward(grad / len(batch))
                    epoch_loss += loss
                adam_step(params, state, cfg)
        except NumericalError as exc:
            diverged = True
            diagnostics = str(exc)
            break
        val_f1 = evaluate_macro_f1(model, val_set)
        is_best = val_f1 > best_f1
        if is_best:
            best_f1 = val_f1
            best_epoch = epoch
            best_snapshot = {name: t.data.copy() for name, t in model.named_parameters().items()}
        history.append(EpochStats(epoch, epoch_loss / len(train_set), val_f1, is_best))
        if log is not None:
            log(history[-1])
        if cfg.target_f1 is not None and best_f1 >= cfg.target_f1:
            break

    for name, tensor in model.named_parameters().items():
        tensor.data = best_snapshot[name]
    return TrainResult(model, history, best_epoch, best_f1, diverged, diagnostics)


@dataclass(frozen=True)
class SpeedReport:
    sentences_per_second: float
    n_sentences: int
    elapsed_seconds: float


def measure_speed(
    model: SlotTagger,
    sentences: Sequence[str],
    require_all_parts: bool = True,
) -> SpeedReport:
    """Wall-clock throughput of forward + decode over a corpus, one
    sentence at a time."""
    if not sentences:
        raise ValueError("need at least one sentence")
    sequences = [tokenize(s, append_placeholders=True) for s in sentences]
    start = time.perf_counter()
    for seq in sequences:
        probs = model.predict(seq)
        decode(probs, seq, require_all_parts=require_all_parts)
    elapsed = time.perf_counter() - start
    return SpeedReport(len(sentences) / elapsed, len(sentences), elapsed)
