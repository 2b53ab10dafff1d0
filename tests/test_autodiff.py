import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from slotie.autodiff import (
    LAYER_NORM_EPS,
    GraphError,
    Tensor,
    embedding,
    layer_norm,
    layer_norm_array,
    softmax_array,
)
from slotie.core import N_CLASSES


def finite_difference(fn, tensors, h=1e-6):
    """Central-difference gradients of scalar fn() w.r.t. each tensor."""
    grads = []
    for t in tensors:
        grad = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = fn()
            flat[i] = orig - h
            down = fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads.append(grad)
    return grads


def check_op(build, *shapes, seed=0, atol=1e-6):
    """Compare analytic and numeric gradients of a scalar-valued graph."""
    rng = np.random.default_rng(seed)
    tensors = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]

    def value():
        return float(build(*tensors).data.sum())

    out = build(*tensors)
    out.backward(np.ones_like(out.data))
    for t, fd in zip(tensors, finite_difference(value, tensors)):
        np.testing.assert_allclose(t.grad, fd, atol=atol)


class TestPrimitives:
    def test_scalar_product_rule(self):
        x = Tensor(3.0, requires_grad=True)
        y = Tensor(4.0, requires_grad=True)
        (x * y).backward(1.0)
        assert x.grad == pytest.approx(4.0)
        assert y.grad == pytest.approx(3.0)

    def test_add(self):
        check_op(lambda a, b: a + b, (3, 4), (3, 4))

    def test_add_broadcast_bias(self):
        check_op(lambda a, b: a + b, (5, 4), (4,))

    def test_mul(self):
        check_op(lambda a, b: a * b, (3, 4), (3, 4))

    def test_mul_scalar_constant(self):
        check_op(lambda a: a * 2.5, (3, 3))

    def test_matmul(self):
        check_op(lambda a, b: a @ b, (3, 4), (4, 2))

    def test_transpose(self):
        check_op(lambda a, b: a.transpose() @ b, (4, 3), (4, 2))

    def test_reshape(self):
        check_op(lambda a: a.reshape(2, 6), (3, 4))

    def test_relu(self):
        check_op(lambda a: (a @ a.transpose()).relu(), (4, 3))

    def test_softmax(self):
        def build(a, w):
            return a.softmax() * w  # weighting makes the sum non-trivial

        check_op(build, (5, 4), (5, 4))

    def test_softmax_rows_are_distributions(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.uniform(-50, 50, size=(6, 7)))
        probs = x.softmax().data
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)

    def test_layer_norm(self):
        check_op(
            lambda x, g, b: layer_norm(x, g, b),
            (4, 6), (6,), (6,),
            atol=1e-5,
        )

    def test_embedding(self):
        rng = np.random.default_rng(2)
        table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        ids = np.array([0, 2, 2, 4])

        def value():
            return float((embedding(table, ids) * 2.0).data.sum())

        out = embedding(table, ids) * 2.0
        out.backward(np.ones_like(out.data))
        fd = finite_difference(value, [table])[0]
        np.testing.assert_allclose(table.grad, fd, atol=1e-6)
        # row 2 is used twice, rows 1 and 3 never
        assert table.grad[2] == pytest.approx(np.full(3, 4.0))
        assert table.grad[1] == pytest.approx(np.zeros(3))


class TestGraphBehavior:
    def test_repeated_backward_accumulates(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * 3.0
        y.backward(1.0)
        y.backward(1.0)
        assert x.grad == pytest.approx(6.0)

    def test_second_backward_adds_exactly_the_same_gradients(self):
        # Interior nodes keep their consumers' arrays and leaves add in
        # place; neither may corrupt a gradient within a pass or across
        # passes.  Each leaf gets one contribution per pass: exactly g + g.
        rng = np.random.default_rng(3)
        x, pos = (Tensor(rng.normal(size=(4, 3)), requires_grad=True) for _ in range(2))
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        gain, bias = (Tensor(rng.normal(size=3), requires_grad=True) for _ in range(2))
        seed = rng.normal(size=(4, 3))

        def build():
            h = (x + pos) @ w
            return layer_norm(h + h @ (h.transpose() @ h), gain, bias)

        y = build()
        y.backward(seed)
        leaves = (x, pos, w, gain, bias)
        first = [t.grad.copy() for t in leaves]
        numeric = finite_difference(lambda: float((build().data * seed).sum()), leaves)
        for g, fd in zip(first, numeric):
            np.testing.assert_allclose(g, fd, atol=1e-5)
        y.backward(seed)
        for t, g in zip(leaves, first):
            np.testing.assert_array_equal(t.grad, g + g)

    def test_leaf_root_accumulates(self):
        x = Tensor(2.0, requires_grad=True)
        x.backward(1.0)
        x.backward(1.0)
        assert x.grad == 2.0

    def test_unused_branch_gets_no_gradient(self):
        x = Tensor(2.0, requires_grad=True)
        unused = Tensor(5.0, requires_grad=True)
        (x * x).backward(1.0)
        assert unused.grad is None

    def test_shared_node_fanout(self):
        x = Tensor(3.0, requires_grad=True)
        y = x * x + x * 2.0
        y.backward(1.0)
        assert x.grad == pytest.approx(2 * 3.0 + 2.0)

    def test_backward_without_graph(self):
        x = Tensor(np.ones(3))
        with pytest.raises(GraphError):
            x.backward(np.ones(3))

    def test_gradient_shape_checked(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with pytest.raises(GraphError):
            (x * 1.0).backward(np.ones((3, 2)))

    def test_broadcast_on_an_inner_axis_is_refused(self):
        column = Tensor(np.ones((3, 1)), requires_grad=True)
        with pytest.raises(GraphError, match="leading axes"):
            (column + Tensor(np.ones((3, 4)))).backward(np.ones((3, 4)))

    def test_deep_chain_does_not_recurse(self):
        x = Tensor(1.0, requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + 1.0
        y.backward(1.0)
        assert x.grad == pytest.approx(1.0)


# Finite values from tiny to near the float64 limit, where sums and squares
# overflow; shapes include one-wide rows.
_values = st.one_of(
    st.floats(-10.0, 10.0), st.floats(-1e300, 1e300), st.sampled_from([0.0, -0.0, 1e-300])
)
_planes = arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 9)), elements=_values)


# One to three axes; the last is 1 to 8 wide, often the head's class width.
_stacks = st.tuples(
    st.lists(st.integers(1, 5), max_size=2), st.sampled_from([N_CLASSES]) | st.integers(1, 8)
).flatmap(lambda dims: arrays(np.float64, (*dims[0], dims[1]), elements=_values))


def _softmax_expressions(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _layer_norm_expressions(x, gain, bias):
    width = x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) / width
    var = (centered * centered).sum(axis=-1, keepdims=True) / width
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    normed = centered * inv
    return normed * gain + bias, normed, inv


class TestArrayForwards:
    """The in-place forwards equal the plain expressions bit for bit and
    leave their input unchanged."""

    @settings(max_examples=200, deadline=None)
    @given(x=_planes)
    def test_softmax_array(self, x):
        before = x.copy()
        with np.errstate(all="ignore"):
            got = softmax_array(x)
            want = _softmax_expressions(x)
        assert x.tobytes() == before.tobytes()
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(x=_stacks)
    def test_softmax_array_every_width(self, x):
        """Both branches: the class-wide one that reduces plane by plane, and
        the one that lets numpy reduce the last axis."""
        with np.errstate(all="ignore"):
            got, want = softmax_array(x), _softmax_expressions(x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(x=_planes, data=st.data())
    def test_layer_norm_array(self, x, data):
        width = x.shape[-1]
        gain, bias = (data.draw(arrays(np.float64, width, elements=_values)) for _ in range(2))
        before = x.copy()
        with np.errstate(all="ignore"):
            got = layer_norm_array(x, gain, bias)
            want = _layer_norm_expressions(x, gain, bias)
        assert x.tobytes() == before.tobytes()
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
