"""Minimal reverse-mode automatic differentiation over numpy arrays.

Each Tensor wraps a float64 ndarray plus an optional gradient of the same
shape.  Operations record a closure that propagates the output gradient to
the inputs; ``backward(grad)`` walks the recorded graph in reverse
topological order from the seed ``grad`` its caller passes.  Leaf gradients
accumulate across repeated backward calls until their owner resets them in
place (``train.adam_step`` zero-fills the tagger's gradient block).  Only
the operations that the token tagger records are provided: addition and
multiplication (an operand may lack leading axes, as a bias row does),
matmul, transpose, reshape, relu, softmax, layer normalization, and
embedding lookup.  ``softmax_array`` and ``layer_norm_array`` compute the
same forward values on plain arrays, for inference without a graph.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .core import N_CLASSES, SlotieError, class_max, class_sum


class GraphError(SlotieError):
    """Raised when backward is invoked without a usable forward graph."""


#: The epsilon added to the variance by every layer norm.
LAYER_NORM_EPS = 1e-5


def softmax_array(x: np.ndarray) -> np.ndarray:
    """Softmax of a plain array over its last axis: the forward value of
    ``Tensor.softmax``.  A last axis of ``N_CLASSES`` (the head's classes)
    is reduced plane by plane through ``core.class_max``/``class_sum``,
    which give numpy's bits faster at this width.  ``x`` is left as it is;
    the steps after the shift run in place on the array the shift allocates."""
    planes = x.shape[-1] == N_CLASSES
    out = x - (class_max(x)[..., None] if planes else x.max(axis=-1, keepdims=True))
    np.exp(out, out=out)
    out /= class_sum(out)[..., None] if planes else out.sum(axis=-1, keepdims=True)
    return out


def layer_norm_array(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm of a plain array over its last axis: the forward value of
    :func:`layer_norm`, plus the normalized rows and the per-row inverse
    standard deviation that its backward reads.  ``x`` is left as it is;
    two arrays of its size are allocated, and each step after them runs
    in place, in the order of the plain expressions."""
    # sum / width is what ndarray.mean computes, without its wrapper.
    width = x.shape[-1]
    normed = x - x.sum(axis=-1, keepdims=True) / width
    out = normed * normed
    var = out.sum(axis=-1, keepdims=True) / width
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    normed *= inv
    np.multiply(normed, gain, out=out)
    out += bias
    return out, normed, inv


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the leading axes that broadcasting prepended to
    an operand of ``shape``; the tape records no other broadcast."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    if grad.shape != shape:
        raise GraphError(f"a {shape} operand broadcasts to {grad.shape} on more than leading axes")
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- graph bookkeeping -------------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"], backward) -> "Tensor":
        for parent in parents:
            if parent.requires_grad:
                out = Tensor(data, requires_grad=True)
                out._parents, out._backward = tuple(parents), backward
                return out
        return Tensor(data)

    def _accumulate(self, grad: np.ndarray) -> None:
        # An interior node may keep its consumer's array (no closure writes
        # into a gradient), but copies transpose's non-contiguous view, whose
        # layout would change the BLAS path.  A leaf owns its copy, adds in place.
        if not self.requires_grad:
            return
        if self.grad is None:
            interior = self._backward is not None
            self.grad = grad if interior and grad.flags.c_contiguous else grad.copy()
        elif self._backward is not None:
            self.grad = self.grad + grad
        else:
            self.grad += grad

    def backward(self, grad) -> None:
        """Propagate the seed ``grad``, of this tensor's shape, through the
        graph.  Repeated calls accumulate into every reachable ``.grad``."""
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            raise GraphError(f"gradient shape {grad.shape} does not match {self.data.shape}")
        if not self.requires_grad:
            raise GraphError("backward on a tensor with no recorded graph")
        # Leaves have nothing to run; skipping them keeps the interior order.
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)] if self._backward is not None else []
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent._backward is not None:
                    stack.append((parent, False))
        # Interior grads are per-call scratch; only leaf grads accumulate
        # across repeated backward calls.
        for node in order:
            node.grad = None
        self._accumulate(grad)
        for node in reversed(order):
            if node.grad is not None:
                node._backward(node.grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    # -- primitives ----------------------------------------------------------

    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def __add__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __mul__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __matmul__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise GraphError("matmul is implemented for 2-D tensors only")
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ grad)

        return Tensor._make(out_data, (self, other), backward)

    def transpose(self) -> "Tensor":
        if self.data.ndim != 2:
            raise GraphError("transpose is implemented for 2-D tensors only")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.T)

        return Tensor._make(self.data.T, (self,), backward)

    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(*shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0.0

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(self.data * mask, (self,), backward)

    def softmax(self) -> "Tensor":
        """Softmax over the last axis, its values computed by ``softmax_array``."""
        probs = softmax_array(self.data)

        def backward(grad: np.ndarray) -> None:
            inner = (grad * probs).sum(axis=-1, keepdims=True)
            self._accumulate(probs * (grad - inner))

        return Tensor._make(probs, (self,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then scale
    and shift with learnable (H,) parameters."""
    out_data, normed, inv = layer_norm_array(x.data, gain.data, bias.data)
    width = x.data.shape[-1]

    def backward(grad: np.ndarray) -> None:
        d_normed = grad * gain.data
        dx = inv * (
            d_normed
            - d_normed.sum(axis=-1, keepdims=True) / width
            - normed * ((d_normed * normed).sum(axis=-1, keepdims=True) / width)
        )
        x._accumulate(dx)
        gain._accumulate((grad * normed).reshape(-1, width).sum(axis=0))
        bias._accumulate(grad.reshape(-1, width).sum(axis=0))

    return Tensor._make(out_data, (x, gain, bias), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into an embedding table with scatter-add backward."""
    ids = np.asarray(ids, dtype=np.int64)
    out_data = table.data[ids]

    def backward(grad: np.ndarray) -> None:
        if table.requires_grad:
            scatter = np.zeros_like(table.data)
            np.add.at(scatter, ids, grad)
            table._accumulate(scatter)

    return Tensor._make(out_data, (table,), backward)
