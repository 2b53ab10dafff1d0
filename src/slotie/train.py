"""Training loop: Adam with decoupled weight decay, epoch shuffling, and
checkpoint selection by validation token-wise macro F1.

Sentences are processed one at a time inside a batch; gradients average
across the batch before each optimizer step, so a "batch" is a gradient
accumulation group.  A batch is an ordered gradient sum over processes:
the main process runs the batch's first share on the tape, and a forked
worker, where a second core is usable, runs the later share, keeping each
sentence's gradient apart.  Once both shares are done, the batch gradient
passes through a shared mapping, where the worker adds its sentences'
gradients in batch order.  Every parameter takes exactly one
gradient term per sentence, so these are the additions that one process
would make, in the same order, and the bits do not depend on the worker
count.  Every process runs one OpenBLAS thread, so they do not depend on
the core count either.  Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import signal
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

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


#: The most processes that train a batch.  Two is the count measured to
#: gain.  More were never measured: workers add their gradients one
#: after another, and the usable cores that ``os.sched_getaffinity``
#: reports ignore a cgroup CPU quota.
_MAX_PROCESSES = 2


def _worker_count(batch_size: int) -> int:
    """How many workers to fork beside the main process: one where a second
    core is usable and a batch holds a second sentence, and none where
    processes cannot be forked."""
    forks = "fork" in multiprocessing.get_all_start_methods()
    if not forks or not hasattr(os, "sched_getaffinity"):
        return 0
    return min(_MAX_PROCESSES, len(os.sched_getaffinity(0)), batch_size) - 1


def _views(buffer: mmap.mmap) -> tuple[np.ndarray, np.ndarray]:
    """The shared mapping as a block of parameter values and one of gradients."""
    values, grads = np.frombuffer(buffer).reshape(2, -1)
    return values, grads


def _work(conn, inherited, examples: _Examples, vocab, config: ModelConfig, buffer) -> None:
    """A worker's loop, which ends when the main process's end of the pipe
    closes.  A job is a share of a batch: the worker runs it sentence by
    sentence on one tagger over the shared values, keeps a copy of each
    sentence's gradient, and answers with the losses of the sentences done
    and the error that stopped the share, if any.  A None job asks it to
    add those copies, in order, into the shared gradient block.  The
    worker prints nothing, not even a warning: the main process reports
    what went wrong."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the main process's to handle
    warnings.simplefilter("ignore")
    # Holding no copy of a main-process end, the worker sees EOF when the main process exits.
    for end in inherited:
        end.close()
    values, shared_grads = _views(buffer)
    tagger = SlotTagger(vocab, config, values=values)
    grads: list[np.ndarray] = []  # one per sentence of the share, in batch order
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):  # a closed end, or one closed with an answer unread
            return
        if job is None:
            for grad in grads:
                shared_grads += grad
            answer = None
        else:
            epoch, batch_len, share = job
            losses, grads, error = [], [], None
            try:
                for i in share:
                    tagger.grads.fill(0.0)
                    losses.append(examples.backward(tagger, i, epoch, batch_len))
                    grads.append(tagger.grads.copy())
            except Exception as exc:  # answered, and raised by the main process in batch order
                error = exc
            answer = losses, error
        try:
            conn.send(answer)
        except OSError:
            return


class _Workers:
    """Forked processes that run the later shares of every batch.

    ``start`` copies the parameter values into the shared mapping and
    hands each worker its share; the main process keeps the first share.
    ``finish`` collects the workers' losses in batch order, or raises the
    first error in batch order.  Then it passes the main process's
    gradient block through the mapping, where each worker in turn adds its
    sentences' gradients.  So the main process holds two parameter-sized
    blocks of the mapping, whatever the batch size; a worker holds one
    gradient copy per sentence of its share.  The split depends only
    on the batch length and the worker count; with no workers, the main
    process runs every batch.  ``close`` ends the workers, waits for them
    and releases the mapping.
    """

    def __init__(self, count: int, model: SlotTagger, examples: _Examples):
        self._model = model
        self._conns: list = []
        self._processes: list = []
        self._active: list = []
        self._buffer = mmap.mmap(-1, 2 * model.values.nbytes)
        self._values, self._grads = _views(self._buffer)
        context = multiprocessing.get_context("fork")
        try:
            for _ in range(count):
                conn, child_end = context.Pipe()
                self._conns.append(conn)
                process = context.Process(
                    target=_work,
                    args=(child_end, tuple(self._conns), examples, model.vocab, model.config,
                          self._buffer),
                    daemon=True,
                )
                process.start()
                child_end.close()
                self._processes.append(process)
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "_Workers":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def start(self, batch: np.ndarray, epoch: int) -> int:
        """Send the workers their shares of ``batch``; return the length of
        the first share, which the main process runs."""
        processes = min(len(self._conns) + 1, len(batch))
        bounds = [len(batch) * p // processes for p in range(processes + 1)]
        self._active = self._conns[: processes - 1]
        if self._active:
            self._values[...] = self._model.values
        for conn, lo, hi in zip(self._active, bounds[1:], bounds[2:]):
            self._ask(conn, (epoch, len(batch), batch[lo:hi].tolist()))
        return bounds[1]

    def finish(self) -> list[float]:
        losses: list[float] = []
        for conn in self._active:
            done, error = self._answer(conn)
            losses += done
            if error is not None:
                raise error
        if self._active:
            self._grads[...] = self._model.grads
            for conn in self._active:
                self._ask(conn, None)
                self._answer(conn)
            self._model.grads[...] = self._grads
        return losses

    # A lost worker is a RuntimeError, since the CLI reads an OSError as a data error.
    @staticmethod
    def _ask(conn, job) -> None:
        try:
            conn.send(job)
        except OSError as exc:
            raise RuntimeError(f"a training worker is gone: {exc}") from None

    @staticmethod
    def _answer(conn):
        try:
            return conn.recv()
        except (EOFError, OSError) as exc:
            raise RuntimeError(f"a training worker is gone: {exc!r}") from None

    def close(self) -> None:
        for conn in self._conns:
            conn.close()
        for process in self._processes:
            process.join()
        del self._values, self._grads  # the mapping closes only once no array views it
        self._buffer.close()


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
    count = _worker_count(min(cfg.batch_size, len(train_set)))
    with blas.pinned(1) as pinned, _Workers(count if pinned else 0, model, examples) as workers:
        for epoch in range(1, cfg.max_epochs + 1):
            perm = rng.permutation(len(train_set))
            epoch_loss = 0.0
            try:
                for start in range(0, len(perm), cfg.batch_size):
                    batch = perm[start : start + cfg.batch_size]
                    for i in batch[: workers.start(batch, epoch)]:
                        epoch_loss += examples.backward(model, i, epoch, len(batch))
                    for loss in workers.finish():
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
