import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdcheck import finite_diff_check
from ssadvae import gradcore as gc


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


# ---------------------------------------------------------------------------
# elementwise forward values

def test_exp_values():
    out = gc.exp(gc.constant([0.0, 1.0]))
    np.testing.assert_allclose(out.data, [1.0, math.e], rtol=1e-12)


def test_leaky_relu_values():
    out = gc.leaky_relu(gc.constant([-2.0, 3.0]), slope=0.1)
    np.testing.assert_allclose(out.data, [-0.2, 3.0], rtol=1e-12)


def test_add_values():
    out = gc.add(gc.constant([1.0, 2.0]), gc.constant([10.0, 20.0]))
    np.testing.assert_allclose(out.data, [11.0, 22.0])


def test_bias_broadcast_along_batch():
    # the bias of a dense layer is added to every row by affine
    h = gc.parameter(np.ones((3, 2)))
    b = gc.parameter(np.array([1.0, -1.0]))
    out = gc.affine(h, gc.constant(np.eye(2)), b)
    assert out.shape == (3, 2)
    np.testing.assert_array_equal(out.data, [[2.0, 0.0]] * 3)
    gc.backward(gc.reduce_sum(out))
    np.testing.assert_array_equal(b.grad, [3.0, 3.0])
    np.testing.assert_array_equal(h.grad, np.ones((3, 2)))


def test_stacked_bias_broadcasts_right_aligned():
    # a (K, 1, d) bias against a (K, B, d) product: the gradient sums over
    # the batch axis only; a (d,) bias is rejected for stacked members
    h = gc.parameter(np.ones((2, 3, 4)))
    w = gc.constant(np.broadcast_to(np.eye(4), (2, 4, 4)).copy())
    b = gc.parameter(np.zeros((2, 1, 4)))
    out = gc.affine(h, w, b)
    assert out.shape == (2, 3, 4)
    gc.backward(gc.reduce_sum(out))
    np.testing.assert_array_equal(b.grad, np.full((2, 1, 4), 3.0))
    with pytest.raises(ValueError, match="bias shape"):
        gc.affine(h, w, gc.parameter(np.zeros(4)))


def test_bias_broadcast_in_add_rejected():
    # a bias against a batch of activations is affine's job: add, sub and
    # mul take operands of one shape, so each of these shapes is rejected
    for h_shape, b_shape in (((3, 2), (2,)), ((2, 3, 4), (2, 1, 4)),
                             ((2, 3, 4), (4,))):
        h = gc.parameter(np.ones(h_shape))
        b = gc.parameter(np.zeros(b_shape))
        for op in (gc.add, gc.sub, gc.mul):
            with pytest.raises(ValueError, match="differ"):
                op(h, b)


def test_broadcast_of_both_operands_rejected():
    with pytest.raises(ValueError, match="differ"):
        gc.add(gc.constant(np.ones((2, 1, 4))), gc.constant(np.ones((1, 3, 4))))
    with pytest.raises(ValueError, match="differ"):
        gc.mul(gc.constant(np.ones((2, 3, 1))), gc.constant(np.ones((2, 3, 4))))


def test_non_broadcastable_rejected_with_shapes():
    a = gc.constant(np.ones((3, 2)))
    b = gc.constant(np.ones((2, 3)))
    with pytest.raises(ValueError, match=r"\(3, 2\).*\(2, 3\)"):
        gc.add(a, b)


def test_inner_broadcast_rejected():
    a = gc.constant(np.ones((3, 1)))
    b = gc.constant(np.ones((3, 4)))
    with pytest.raises(ValueError):
        gc.mul(a, b)


def test_log_of_negative_propagates_nan():
    out = gc.log(gc.constant([-1.0]))
    assert np.isnan(out.data).all()


# ---------------------------------------------------------------------------
# matmul

def test_matmul_identity():
    a = gc.constant(np.eye(2))
    b = gc.constant([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(gc.matmul(a, b).data, b.data)


def test_matmul_dot():
    out = gc.matmul(gc.constant([[1.0, 2.0]]), gc.constant([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_matmul_zero_annihilates():
    z = gc.constant(np.zeros((2, 3)))
    b = gc.constant(np.arange(12.0).reshape(3, 4))
    np.testing.assert_array_equal(gc.matmul(z, b).data, np.zeros((2, 4)))


def test_matmul_inner_mismatch_rejected():
    with pytest.raises(ValueError, match="inner dimensions"):
        gc.matmul(gc.constant(np.ones((2, 3))), gc.constant(np.ones((2, 3))))


def test_matmul_stacked_equals_each_slice_bit_for_bit():
    # K products at once give the bytes of K separate 2-D products, forward
    # and both gradients (the stacked trainer relies on it)
    g = rng(3)
    for shape_a, shape_b in (((5, 128, 8), (5, 8, 32)), ((5, 128, 32), (5, 32, 16)),
                             ((3, 7, 274), (3, 274, 128))):
        a = gc.parameter(g.standard_normal(shape_a))
        b = gc.parameter(g.standard_normal(shape_b))
        up = g.standard_normal(shape_a[:2] + shape_b[2:])
        out = gc.matmul(a, b)
        gc.backward(gc.reduce_sum(gc.mul(out, gc.constant(up))))
        for k in range(shape_a[0]):
            ak, bk = gc.parameter(a.data[k]), gc.parameter(b.data[k])
            ok = gc.matmul(ak, bk)
            gc.backward(gc.reduce_sum(gc.mul(ok, gc.constant(up[k]))))
            assert ok.data.tobytes() == out.data[k].tobytes()
            assert ak.grad.tobytes() == a.grad[k].tobytes()
            assert bk.grad.tobytes() == b.grad[k].tobytes()


def test_matmul_rank_mismatch_rejected():
    with pytest.raises(ValueError, match="leading axis"):
        gc.matmul(gc.constant(np.ones((2, 3, 4))), gc.constant(np.ones((4, 5))))
    with pytest.raises(ValueError, match="leading axis"):
        gc.matmul(gc.constant(np.ones((2, 3, 4))), gc.constant(np.ones((3, 4, 5))))


def test_take_routes_gradient_to_its_slot():
    a = gc.parameter(np.arange(6.0).reshape(3, 2))
    out = gc.take(a, 1)
    np.testing.assert_array_equal(out.data, [2.0, 3.0])
    gc.backward(gc.reduce_sum(gc.mul(out, gc.constant([5.0, 7.0]))))
    np.testing.assert_array_equal(a.grad, [[0.0, 0.0], [5.0, 7.0], [0.0, 0.0]])


AFFINE_SHAPES = [((6, 3), (3, 4), (4,)), ((2, 6, 3), (2, 3, 4), (2, 1, 4)),
                 ((6, 3), (3, 4), None), ((2, 6, 3), (2, 3, 4), None)]


def _affine_id(shapes):
    return f"{len(shapes[0])}d-{'nobias' if shapes[2] is None else 'bias'}"


@pytest.mark.parametrize("shapes", AFFINE_SHAPES, ids=_affine_id)
def test_affine_equals_matmul_then_add_bit_for_bit(shapes):
    # value and all three gradients against the two-node form it replaces
    g = rng(21)
    arrays = [None if s is None else g.standard_normal(s) for s in shapes]
    up = gc.constant(g.standard_normal(shapes[0][:-1] + shapes[1][-1:]))

    def run(fused):
        h, w, b = [None if a is None else gc.parameter(a) for a in arrays]
        if fused:
            out = gc.affine(h, w, b)
        else:
            # the bias spread over the batch as an explicit array; its
            # gradient is summed back over the batch axis below
            out = gc.matmul(h, w)
            if b is not None:
                spread = gc.parameter(np.broadcast_to(b.data, out.shape).copy())
                out = gc.add(out, spread)
        gc.backward(gc.reduce_sum(gc.mul(out, up)))
        if b is not None and not fused:
            b.grad = spread.grad.sum(axis=-2, keepdims=spread.grad.ndim == 3)
        return [out.data] + [t.grad for t in (h, w, b) if t is not None]

    for a, b in zip(run(True), run(False), strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_affine_skips_gradients_of_constant_operands():
    h = gc.constant(rng(22).standard_normal((5, 3)))
    w = gc.parameter(rng(23).standard_normal((3, 2)))
    b = gc.constant(np.ones(2))
    out = gc.affine(h, w, b)
    assert out.parents == (h, w, b)
    assert [g is None for g in out._vjp(np.ones((5, 2)))] == [True, False, True]


def test_affine_shape_checks():
    with pytest.raises(ValueError, match="inner dimensions"):
        gc.affine(gc.constant(np.ones((2, 3))), gc.constant(np.ones((2, 3))))
    with pytest.raises(ValueError, match="leading axis"):
        gc.affine(gc.constant(np.ones((2, 3, 4))), gc.constant(np.ones((4, 5))))
    with pytest.raises(ValueError, match="bias shape"):
        gc.affine(gc.constant(np.ones((2, 3))), gc.constant(np.ones((3, 4))),
                  gc.constant(np.ones(3)))
    with pytest.raises(ValueError, match="bias shape"):
        gc.affine(gc.constant(np.ones((2, 5, 3))), gc.constant(np.ones((2, 3, 4))),
                  gc.constant(np.ones((2, 5, 1))))
    with pytest.raises(ValueError, match="bias shape"):
        gc.affine(gc.constant(np.ones((2, 5, 3))), gc.constant(np.ones((2, 3, 4))),
                  gc.constant(np.ones(4)))


def test_matmul_backward_formulas():
    a = gc.parameter(rng(1).standard_normal((3, 4)))
    b = gc.parameter(rng(2).standard_normal((4, 2)))
    out = gc.reduce_sum(gc.matmul(a, b))
    gc.backward(out)
    g = np.ones((3, 2))
    np.testing.assert_allclose(a.grad, g @ b.data.T)
    np.testing.assert_allclose(b.grad, a.data.T @ g)


# ---------------------------------------------------------------------------
# reductions

def test_sum_scalar():
    assert gc.reduce_sum(gc.constant([1.0, 2.0, 3.0])).item() == 6.0


def test_mean_over_batch_axis():
    out = gc.reduce_mean(gc.constant([[2.0], [4.0]]), axis=0)
    np.testing.assert_array_equal(out.data, [3.0])


def test_max_tie_break_lowest_index():
    a = gc.parameter([1.0, 5.0, 5.0])
    out = gc.reduce_max(a)
    assert out.item() == 5.0
    gc.backward(out)
    np.testing.assert_array_equal(a.grad, [0.0, 1.0, 0.0])


def test_invalid_axis_rejected():
    with pytest.raises(ValueError, match="axis"):
        gc.reduce_sum(gc.constant([1.0, 2.0]), axis=3)


# ---------------------------------------------------------------------------
# logsumexp

def test_logsumexp_single_element_identity():
    for x in (-7.3, 0.0, 42.0):
        assert gc.logsumexp(gc.constant([x])).item() == pytest.approx(x, abs=1e-12)


def test_logsumexp_two_zeros():
    assert gc.logsumexp(gc.constant([0.0, 0.0])).item() == pytest.approx(math.log(2.0))


def test_logsumexp_no_overflow():
    out = gc.logsumexp(gc.constant([1000.0, 1000.0]))
    assert out.item() == pytest.approx(1000.0 + math.log(2.0))


def test_logsumexp_all_neg_inf():
    out = gc.logsumexp(gc.constant([-np.inf, -np.inf]))
    assert out.item() == -np.inf
    assert not np.isnan(out.data)


def test_logsumexp_gradient_softmax():
    a = gc.parameter([0.0, 0.0])
    gc.backward(gc.logsumexp(a))
    np.testing.assert_allclose(a.grad, [0.5, 0.5])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
       st.floats(-100, 100))
def test_logsumexp_shift_invariance(vals, c):
    v = np.array(vals)
    lhs = gc.logsumexp(gc.constant(v + c)).item()
    rhs = gc.logsumexp(gc.constant(v)).item() + c
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_logsumexp_axis():
    a = np.array([[0.0, 1.0], [2.0, 3.0]])
    out = gc.logsumexp(gc.constant(a), axis=0)
    expect = np.log(np.exp(a).sum(axis=0))
    np.testing.assert_allclose(out.data, expect)


# ---------------------------------------------------------------------------
# backward semantics

def test_square_gradient():
    x = gc.parameter(3.0)
    gc.backward(gc.square(x))
    assert x.grad == pytest.approx(6.0)


def test_backward_rejects_non_scalar():
    x = gc.parameter([1.0, 2.0])
    with pytest.raises(ValueError, match="scalar"):
        gc.backward(gc.square(x))


def test_backward_twice_accumulates_exactly_double():
    x = gc.parameter([1.0, -2.0])
    out = gc.reduce_sum(gc.square(x))
    gc.backward(out)
    once = x.grad.copy()
    gc.backward(out)
    np.testing.assert_array_equal(x.grad, 2.0 * once)


def test_backward_reset_is_bit_identical():
    x = gc.parameter(rng(3).standard_normal(5))
    out = gc.reduce_sum(gc.exp(x))
    gc.backward(out)
    first = x.grad.copy()
    x.zero_grad()
    gc.backward(out)
    np.testing.assert_array_equal(x.grad, first)


def test_backward_writes_into_a_grad_view():
    # the first gradient lands in the view with the bytes of a fresh array
    # (-0.0 becomes +0.0 either way); a second backward adds in place
    buf = np.full(6, 9.0)
    x = gc.parameter([1.0, -2.0, 0.0])
    x.grad_view = buf[1:4]
    plain = gc.parameter(x.data.copy())
    outs = [gc.reduce_sum(gc.mul(gc.square(leaf), gc.constant([1.0, 3.0, -1.0])))
            for leaf in (x, plain)]
    for out in outs:
        gc.backward(out)
    assert x.grad is x.grad_view
    assert x.grad.tobytes() == plain.grad.tobytes()
    assert not np.signbit(x.grad[2])
    np.testing.assert_array_equal(buf[[0, 4, 5]], 9.0)
    gc.backward(outs[0])
    assert x.grad is x.grad_view
    np.testing.assert_array_equal(x.grad, 2.0 * plain.grad)
    x.zero_grad()
    assert x.grad is None and x.grad_view is not None


def test_raising_vjp_leaves_no_pending_gradient():
    # the pass stops inside the graph after h has been handed a gradient;
    # none may survive to be added into the next pass through h
    x = gc.parameter(rng(4).standard_normal(3))
    h = gc.exp(x)

    def fail(g):
        raise FloatingPointError("vjp failed")

    bad = gc.make_node(h.data * 2.0, "bad", (h,), fail)
    root = gc.reduce_sum(gc.add(gc.mul(h, h), bad))
    with pytest.raises(FloatingPointError, match="vjp failed"):
        gc.backward(root)
    assert all(node._pending is None for node in gc.Graph.trace(root).nodes)
    x.zero_grad()
    gc.backward(gc.reduce_sum(gc.mul(h, h)))
    fresh = gc.parameter(x.data.copy())
    h2 = gc.exp(fresh)
    gc.backward(gc.reduce_sum(gc.mul(h2, h2)))
    assert x.grad.tobytes() == fresh.grad.tobytes()


def test_frozen_leaves_get_no_grad_buffer():
    w = gc.parameter([2.0])
    frozen = gc.constant([5.0])
    gc.backward(gc.reduce_sum(gc.mul(w, frozen)))
    assert frozen.grad is None
    np.testing.assert_array_equal(w.grad, [5.0])


def test_graph_topological_order():
    x = gc.parameter([1.0, 2.0])
    a = gc.exp(x)
    b = gc.log(gc.add(a, 1.0))
    out = gc.reduce_sum(gc.mul(a, b))  # diamond: a feeds two paths
    graph = gc.Graph.trace(out)
    pos = {id(n): i for i, n in enumerate(graph.nodes)}
    for node in graph.nodes:
        for p in node.parents:
            assert pos[id(p)] < pos[id(node)]
    assert graph.nodes[-1] is out


# ---------------------------------------------------------------------------
# finite differences

def test_fd_quadratic_nearly_exact():
    err = finite_diff_check(lambda t: gc.square(t), np.array(3.0), eps=1e-5)
    assert err < 1e-8


def test_fd_reports_nonfinite_as_failure():
    with pytest.raises(FloatingPointError):
        finite_diff_check(lambda t: gc.log(t), np.array(1e-9), eps=1e-5)


UNARY_SMOOTH = [gc.neg, gc.exp, gc.square, gc.sigmoid, gc.softplus]
BINARY = [gc.add, gc.sub, gc.mul]


def _name(op):
    return op.__name__


@pytest.mark.parametrize("op", UNARY_SMOOTH, ids=_name)
def test_fd_unary_ops(op):
    g = rng(11)
    worst = 0.0
    for _ in range(100):
        p = g.standard_normal(4) * 2.0
        err = finite_diff_check(
            lambda t: gc.reduce_sum(gc.square(op(t))), p)
        worst = max(worst, err)
    assert worst < 1e-4


def test_fd_log_positive_domain():
    g = rng(12)
    for _ in range(100):
        p = g.uniform(0.5, 3.0, size=4)
        assert finite_diff_check(
            lambda t: gc.reduce_sum(gc.square(gc.log(t))), p) < 1e-4


LEAKY_EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                        2.2250738585072014e-308, -1e-310, 1.0, -1.0, -3.5, 1e300,
                        -1e300])


@pytest.mark.parametrize("slope", [1e-3, 0.1, 1.0])
def test_leaky_relu_matches_select_form_bytes(slope):
    # the branch-free form against the np.where reference, forward and
    # backward, on signed zeros, infinities, nan, subnormals and randoms
    x = np.concatenate([LEAKY_EDGES, rng(17).standard_normal(200)])
    g = rng(18).standard_normal(x.size)
    a = gc.parameter(x)
    out = gc.leaky_relu(a, slope)
    gc.backward(gc.reduce_sum(gc.mul(out, gc.constant(g))))
    want = np.where(x >= 0.0, x, slope * x)
    want_grad = g * np.where(x >= 0.0, 1.0, slope)
    assert out.data.tobytes() == want.tobytes()
    assert a.grad.tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("op", [gc.relu, gc.leaky_relu], ids=["relu", "leaky-relu"])
def test_fd_piecewise_ops_away_from_kink(op):
    g = rng(13)
    for _ in range(100):
        p = g.standard_normal(4)
        p = np.where(np.abs(p) < 0.05, p + 0.2, p)  # keep clear of the kink
        assert finite_diff_check(
            lambda t: gc.reduce_sum(gc.square(op(t))), p) < 1e-4


@pytest.mark.parametrize("op", BINARY, ids=_name)
def test_fd_binary_ops(op):
    g = rng(14)
    other = gc.constant(g.standard_normal(4))
    for _ in range(100):
        p = g.standard_normal(4)
        assert finite_diff_check(
            lambda t: gc.reduce_sum(gc.square(op(t, other))), p) < 1e-4


def test_fd_matmul_reduce_logsumexp():
    g = rng(15)
    b = gc.constant(g.standard_normal((3, 2)))
    for _ in range(100):
        p = g.standard_normal((2, 3))

        def f(t):
            h = gc.matmul(t, b)
            return gc.add(gc.logsumexp(h, axis=None),
                          gc.reduce_mean(gc.square(h)))

        assert finite_diff_check(f, p) < 1e-4


@pytest.mark.parametrize("operand", ["h", "w", "b"])
@pytest.mark.parametrize("shapes", AFFINE_SHAPES[:2], ids=_affine_id)
def test_fd_affine(shapes, operand):
    g = rng(19)
    arrays = dict(zip("hwb", (g.standard_normal(s) for s in shapes)))
    for _ in range(20):
        p = g.standard_normal(arrays[operand].shape)

        def f(t):
            args = {k: t if k == operand else gc.constant(a)
                    for k, a in arrays.items()}
            return gc.reduce_mean(gc.square(gc.affine(args["h"], args["w"], args["b"])))

        assert finite_diff_check(f, p) < 1e-4


def test_fd_clamp_inside_range():
    g = rng(16)
    for _ in range(50):
        p = g.uniform(-2.0, 2.0, size=4)
        assert finite_diff_check(
            lambda t: gc.reduce_sum(gc.square(gc.clamp(t, -5.0, 5.0))), p) < 1e-4
