"""Training loop: Adam with decoupled weight decay, epoch shuffling, and
checkpoint selection by validation token-wise macro F1.

Sentences are processed one at a time inside a batch; gradients average
across the batch before each optimizer step, so a "batch" is a gradient
accumulation group.  Where a second core is usable, a forked worker
runs the later half of each batch while the main process runs the first
half on the tape, and the worker adds its sentences' gradients, each kept
apart, to the main process's in batch order.  Every parameter takes
exactly one gradient term per sentence, so these are the additions that
one process would make, in the same order, and the bits are the same with
the worker or without it.  Every process runs one OpenBLAS thread, so they
do not depend on the core count either.  Everything is deterministic for
a fixed seed.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import signal
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import blas
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
        for name in ("batch_size", "max_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError(f"validation_fraction must lie in [0, 1), got {self.validation_fraction}")


class AdamState:
    """Adam's step counter and its two moment blocks, shaped like a
    tagger's ``values``."""

    def __init__(self, size: int) -> None:
        self.step = 0
        self.m, self.v = np.zeros((2, size))


def adam_step(model: SlotTagger, state: AdamState, cfg: TrainConfig) -> None:
    """One Adam update with decoupled weight decay of ``model.values`` from
    the batch gradient in ``model.grads``; then the gradient block is
    zero-filled for the next batch.

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


@dataclass(frozen=True)
class _Examples:
    """The training split, with each example's 1-based dataset position
    and the loss settings: what a sentence's gradient step reads besides
    the tagger."""

    pairs: list[tuple[TokenSequence, LabelGrid]]
    positions: np.ndarray
    loss_cfg: LossConfig

    def backward(self, model: SlotTagger, i: int, epoch: int, batch_len: int) -> float:
        """Run example ``i`` forward, add its share of its batch's loss
        gradient into ``model.grads`` and return its loss."""
        seq, grid = self.pairs[i]
        probs = model.forward(seq)
        with _naming_record(self.positions[i], seq):
            loss, _, grad = loss_assignment_gradient(probs.probs, grid, self.loss_cfg)
        if not np.isfinite(loss):
            raise NumericalError(f"non-finite loss on example {i} (epoch {epoch})")
        model.backward(grad / batch_len)
        return loss


def _forks_a_worker(batch_size: int) -> bool:
    """Whether to fork a worker beside the main process: where processes
    can be forked, a second core is usable and a batch holds a second
    sentence.  Two processes are the count measured to gain; more were
    never measured, and the usable cores that ``os.sched_getaffinity``
    reports ignore a cgroup CPU quota."""
    return (
        batch_size > 1
        and "fork" in multiprocessing.get_all_start_methods()
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1
    )


def _work(conn, main_end, examples: _Examples, vocab, config: ModelConfig, buffer) -> None:
    """The worker's loop (see ``_Batches``), which ends when the main
    process's end of the pipe closes.  It keeps a copy of each sentence's
    gradient until its turn, and answers with the losses of the sentences
    done and the error that stopped its share, if any.  It prints nothing,
    not even a warning: the main process reports what went wrong."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the main process's to handle
    warnings.simplefilter("ignore")
    # Holding no copy of the main process's end, the worker sees EOF when the main process exits.
    main_end.close()
    values, shared_grads = np.frombuffer(buffer).reshape(2, -1)
    tagger = SlotTagger(vocab, config, values=values)
    try:
        while True:
            epoch, batch_len, share = conn.recv()
            losses, grads, error = [], [], None
            try:
                for i in share:
                    tagger.grads.fill(0.0)
                    losses.append(examples.backward(tagger, i, epoch, batch_len))
                    grads.append(tagger.grads.copy())
            except Exception as exc:  # answered, and raised by the main process in batch order
                error = exc
            conn.recv()  # the main process's turn message
            for grad in grads:
                shared_grads += grad
            conn.send((losses, error))
    except (EOFError, OSError):  # a closed end, or one closed with an answer unread
        return


class _Batches:
    """Runs each batch into the tagger's ``grads``; with ``fork``, a worker
    forked here runs the later share of every batch of two or more
    sentences, and the main process keeps the first ``len(batch) // 2``.

    A batch takes one round trip.  The main process copies the parameter
    values into a shared mapping, sends the worker its share and runs its
    own on the tape.  Then it puts its share's gradient into the mapping and
    gives the worker its turn: the worker adds its sentences' gradients
    there in batch order and answers.  The main process holds the mapping's
    two parameter-sized blocks and the worker one gradient copy per
    sentence of its share.  Once the worker is lost, the main process runs
    the rest of training alone, after one RuntimeWarning.
    """

    def __init__(self, model: SlotTagger, examples: _Examples, fork: bool):
        self._model, self._examples = model, examples
        self._process = None
        if fork:
            self._buffer = mmap.mmap(-1, 2 * model.values.nbytes)
            self._values, self._grads = np.frombuffer(self._buffer).reshape(2, -1)
            context = multiprocessing.get_context("fork")
            self._conn, child_end = context.Pipe()
            process = context.Process(
                target=_work,
                args=(child_end, self._conn, examples, model.vocab, model.config, self._buffer),
                daemon=True,
            )
            process.start()
            child_end.close()
            self._process = process

    def __enter__(self) -> "_Batches":
        return self

    def __exit__(self, *exc_info) -> None:
        """End the worker, wait for it and release the mapping."""
        if self._process is not None:
            self._conn.close()
            self._process.join()
            del self._values, self._grads  # the mapping closes only once no array views it
            self._buffer.close()

    def run(self, batch: np.ndarray, epoch: int) -> Iterator[float]:
        """Compute ``batch``'s gradient and yield its sentences' losses in
        batch order, or raise the error of the earliest sentence that fails."""
        working = self._process is not None and not self._conn.closed
        split = len(batch) // 2 if working and len(batch) > 1 else len(batch)
        if split < len(batch):
            self._values[...] = self._model.values
            with suppress(OSError):  # a worker lost here is found when asked for its answer
                self._conn.send((epoch, len(batch), batch[split:].tolist()))
        for k, i in enumerate(batch):
            if k == split and (losses := self._answer()) is not None:
                yield from losses
                return
            yield self._examples.backward(self._model, i, epoch, len(batch))

    def _answer(self) -> list[float] | None:
        """Give the worker its turn and return its share's losses, or None
        once it is lost."""
        self._grads[...] = self._model.grads
        try:
            self._conn.send(None)
            losses, error = self._conn.recv()
        except (EOFError, OSError) as exc:
            warnings.warn(f"the training worker is gone ({exc!r}); training goes on in one process",
                          RuntimeWarning)
            self._conn.close()
            return None
        if error is not None:
            raise error
        self._model.grads[...] = self._grads
        return losses


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

    examples = _Examples(train_set, train_indices + 1, loss_cfg)
    fork = _forks_a_worker(min(cfg.batch_size, len(train_set)))
    with blas.pinned(1) as pinned, _Batches(model, examples, fork and pinned) as batches:
        for epoch in range(1, cfg.max_epochs + 1):
            perm = rng.permutation(len(train_set))
            epoch_loss = 0.0
            try:
                for start in range(0, len(perm), cfg.batch_size):
                    # One addition at a time: a sum() would round differently.
                    for loss in batches.run(perm[start : start + cfg.batch_size], epoch):
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
