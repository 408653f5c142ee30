import math
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import extra_ops as T
from hcms import tensor
from conftest import assert_close, central_diff

N_TRIALS = 100


# ---------------------------------------------------------------------------
# matmul

def test_matmul_identity():
    out = T.matmul([[1, 0], [0, 1]], [[3], [4]])
    assert out.tolist() == [[3], [4]]


def test_matmul_zero():
    assert T.matmul([[1, 2]], [[0], [0]]).tolist() == [[0]]


def test_matmul_hand():
    assert T.matmul([[1, 2], [3, 4]], [[5], [6]]).tolist() == [[17], [39]]


def test_matmul_shape_error():
    with pytest.raises(T.ShapeError, match=r"\(1, 2\).*\(3, 1\)"):
        T.matmul([[1, 2]], [[1], [2], [3]])


def test_matmul_gradcheck(rng):
    for _ in range(N_TRIALS):
        a = rng.uniform(-2, 2, size=(3, 4))
        b = rng.uniform(-2, 2, size=(4, 2))
        w = rng.uniform(-1, 1, size=(3, 2))
        da, db = T.matmul_backward(w, a, b)
        assert_close(da, central_diff(lambda x: float((T.matmul(x, b) * w).sum()), a))
        assert_close(db, central_diff(lambda x: float((T.matmul(a, x) * w).sum()), b))


# ---------------------------------------------------------------------------
# conv1d

def test_conv1d_sliding_window_hand():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    filters = np.array([[[1.0], [1.0]]])  # one filter, k=2, d=1
    out = T.conv1d(x, filters, np.zeros(1), stride=1)
    assert out.ravel().tolist() == [3, 5, 7]


def test_conv1d_zero_filters(rng):
    x = rng.normal(size=(6, 3))
    out = T.conv1d(x, np.zeros((2, 2, 3)), np.zeros(2), stride=1)
    assert np.all(out == 0)
    assert out.shape == (5, 2)


def test_conv1d_single_window():
    out = T.conv1d([[5.0]], [[[2.0]]], [1.0], stride=1)
    assert out.ravel().tolist() == [11]


def test_conv1d_too_short():
    with pytest.raises(T.SequenceTooShortError):
        T.conv1d(np.zeros((2, 1)), np.zeros((1, 3, 1)), np.zeros(1))


def test_conv1d_identity_filter_reproduces_channel(rng):
    # stride 1, kernel 1, single filter picking out one input channel
    x = rng.uniform(-2, 2, size=(7, 3))
    filters = np.zeros((1, 1, 3))
    filters[0, 0, 1] = 1.0
    out = T.conv1d(x, filters, np.zeros(1), stride=1)
    assert np.array_equal(out.ravel(), x[:, 1])


@pytest.mark.parametrize("stride", [1, 2])
def test_conv1d_gradcheck(rng, stride):
    for _ in range(N_TRIALS // 2):
        x = rng.uniform(-2, 2, size=(7, 2))
        f = rng.uniform(-2, 2, size=(3, 2, 2))
        b = rng.uniform(-2, 2, size=3)
        v = (7 - 2) // stride + 1
        w = rng.uniform(-1, 1, size=(v, 3))
        dx, df, db = T.conv1d_backward(w, x, f, stride)
        assert_close(dx, central_diff(lambda a: float((T.conv1d(a, f, b, stride) * w).sum()), x))
        assert_close(df, central_diff(lambda a: float((T.conv1d(x, a, b, stride) * w).sum()), f))
        assert_close(db, central_diff(lambda a: float((T.conv1d(x, f, a, stride) * w).sum()), b))


def conv1d_oracle(x, filters, bias, dout, stride):
    """conv1d output and (dx, dfilters, dbias) at dout, one window at a time."""
    k = filters.shape[1]
    out, dx, df = np.empty(dout.shape), np.zeros_like(x), np.zeros_like(filters)
    for b in np.ndindex(x.shape[:-2]):
        for i in range(dout.shape[-2]):
            window = x[b][i * stride:i * stride + k]
            out[b][i] = (filters * window).sum(axis=(1, 2)) + bias
            dx[b][i * stride:i * stride + k] += np.tensordot(dout[b][i], filters, axes=1)
            df += dout[b][i][:, None, None] * window
    return out, (dx, df, dout.reshape(-1, filters.shape[0]).sum(axis=0))


LARGE_BATCH = (67,)  # leading axes of a batch far larger than the others


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("lead", [(), (5,), (2, 3), LARGE_BATCH],
                         ids=["unbatched", "batch", "two_axes", "blocks"])
def test_conv1d_matches_window_loop(rng, stride, lead):
    u, k, d, f = 10, 3, 4, 3
    v = (u - k) // stride + 1
    x = rng.uniform(-1, 1, size=lead + (u, d))
    filters = rng.uniform(-1, 1, size=(f, k, d))
    bias = rng.uniform(-1, 1, size=f)
    dout = rng.uniform(-1, 1, size=lead + (v, f))
    out, grads = conv1d_oracle(x, filters, bias, dout, stride)
    assert_close(T.conv1d(x, filters, bias, stride), out, rtol=1e-12, atol=1e-12)
    for got, want in zip(T.conv1d_backward(dout, x, filters, stride), grads):
        assert got.shape == want.shape
        assert_close(got, want, rtol=1e-12, atol=1e-12)


def test_conv1d_gradcheck_across_blocks(rng):
    u, k, d, nf, stride = 7, 2, 2, 2, 3
    v = (u - k) // stride + 1
    lead = LARGE_BATCH
    x = rng.uniform(-2, 2, size=lead + (u, d))
    f = rng.uniform(-2, 2, size=(nf, k, d))
    b = rng.uniform(-2, 2, size=nf)
    w = rng.uniform(-1, 1, size=lead + (v, nf))
    dx, df, db = T.conv1d_backward(w, x, f, stride)
    assert_close(dx, central_diff(lambda a: float((T.conv1d(a, f, b, stride) * w).sum()), x))
    assert_close(df, central_diff(lambda a: float((T.conv1d(x, a, b, stride) * w).sum()), f))
    assert_close(db, central_diff(lambda a: float((T.conv1d(x, f, a, stride) * w).sum()), b))


def keyed_input(rng, lead, u, d):
    """(ids, x): rows drawn by id from a four-row table whose row 0 is PAD,
    so keys repeat heavily; in a batch the first example is all PAD."""
    table = rng.uniform(-1, 1, size=(4, d))
    table[0] = 0.0
    ids = rng.integers(0, 4, size=lead + (u,))
    if lead:
        ids.reshape(-1, u)[0] = 0
    return ids, table[ids]


KEYED_LEADS = pytest.mark.parametrize("lead", [(), (5,), (2, 3)],
                                      ids=["unbatched", "batch", "two_axes"])


@pytest.mark.parametrize("stride", [1, 2, 3])
@KEYED_LEADS
def test_conv1d_keys_match_unkeyed(rng, stride, lead):
    u, k, d, f = 10, 3, 4, 3
    v = (u - k) // stride + 1
    ids, x = keyed_input(rng, lead, u, d)
    filters = rng.uniform(-1, 1, size=(f, k, d))
    bias = rng.uniform(-1, 1, size=f)
    keyed = T.conv1d(x, filters, bias, stride, keys=ids)
    out, _ = conv1d_oracle(x, filters, bias, np.zeros(lead + (v, f)), stride)
    assert keyed.shape == out.shape
    assert_close(keyed, T.conv1d(x, filters, bias, stride), rtol=1e-12, atol=1e-12)
    assert_close(keyed, out, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("stride", [1, 2, 3])
@KEYED_LEADS
def test_conv1d_keyed_backward_sums_unkeyed_by_key(rng, stride, lead):
    # reference: the unkeyed dx scattered onto the sorted distinct keys
    u, k, d, f = 10, 3, 4, 3
    v = (u - k) // stride + 1
    ids, x = keyed_input(rng, lead, u, d)
    filters = rng.uniform(-1, 1, size=(f, k, d))
    dout = rng.uniform(-1, 1, size=lead + (v, f))
    dx, dfilters, dbias = T.conv1d_backward(dout, x, filters, stride)
    keys, at_key = np.unique(ids, return_inverse=True)
    want = np.zeros((len(keys), d))
    np.add.at(want, at_key.ravel(), dx.reshape(-1, d))
    got = T.conv1d_backward(dout, x, filters, stride, keys=ids)
    for g, w in zip(got, (want, dfilters, dbias)):
        assert g.shape == w.shape
        assert_close(g, w, rtol=1e-12, atol=1e-12)


def test_conv1d_keyed_gradcheck(rng):
    # only filters and bias: perturbing one entry of x breaks the promise
    # that equal keys mean equal rows
    ids = rng.integers(0, 3, size=(4, 7))
    x = rng.uniform(-2, 2, size=(3, 2))[ids]
    f = rng.uniform(-2, 2, size=(3, 2, 2))
    b = rng.uniform(-2, 2, size=3)
    for stride in (1, 2):
        w = rng.uniform(-1, 1, size=(4, (7 - 2) // stride + 1, 3))
        _, df, db = T.conv1d_backward(w, x, f, stride)
        assert_close(df, central_diff(
            lambda a: float((T.conv1d(x, a, b, stride, keys=ids) * w).sum()), f))
        assert_close(db, central_diff(
            lambda a: float((T.conv1d(x, f, a, stride, keys=ids) * w).sum()), b))


# ---------------------------------------------------------------------------
# map_rows: contiguous slices of examples, one per thread of a threads() block

@pytest.mark.parametrize("w", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_map_rows_covers_each_row_once(w, n):
    # one slice runs on the calling thread; more run on pool threads, each
    # pinned to one CPU of the mask
    seen, calling, mask = [], threading.get_ident(), os.sched_getaffinity(0)
    before = threading.active_count()
    with T.threads(w):
        T.map_rows(n, lambda at: seen.append((at, threading.get_ident(),
                                               os.sched_getaffinity(0))), tensor._MIN_WORK)
    assert threading.active_count() == before and os.sched_getaffinity(0) == mask
    slices = sorted((at.start, at.stop) for at, *_ in seen)
    assert [a for a, _ in slices] == [0, *(b for _, b in slices[:-1])] and slices[-1][1] == n
    assert len(seen) == max(1, min(w, n))
    for _, ident, cpus in seen:
        if len(seen) == 1:
            assert ident == calling and cpus == mask
        else:
            assert ident != calling and len(cpus) == 1 and cpus <= mask


def test_map_rows_outside_threads_is_one_call():
    seen = []
    T.map_rows(5, seen.append, tensor._MIN_WORK)
    assert seen == [slice(0, 5)]


def test_map_rows_raises_after_every_slice_is_done():
    done, before = [], threading.active_count()

    def fn(at):
        if at.start == 2:
            raise T.ShapeError("slice 2")
        time.sleep(0.01)
        done.append(at.start)

    with pytest.raises(T.ShapeError, match="slice 2"), T.threads(3):
        T.map_rows(6, fn, tensor._MIN_WORK)
    assert sorted(done) == [0, 4] and threading.active_count() == before


@pytest.mark.parametrize("seed", range(6))
def test_split_conv_ops_match_one_thread(seed, monkeypatch):
    # tap_table split by tap, conv1d_backward by tap in waves (the last one
    # short when the threads do not divide k), against one thread
    monkeypatch.setattr(tensor, "_MIN_WORK", 0)
    rng = np.random.default_rng(seed)
    n, d, f, k = rng.integers(1, 60), rng.integers(1, 9), rng.integers(1, 9), rng.integers(1, 6)
    stride, u = rng.integers(1, 3), k + rng.integers(0, 9)
    v = (u - k) // stride + 1
    rows, filters = rng.normal(size=(n, d)), rng.normal(size=(f, k, d))
    layout = (rows, rng.integers(n, size=(rng.integers(1, 5), u)), np.arange(n))
    x = np.broadcast_to(0.0, layout[1].shape + (d,))
    dout = rng.normal(size=layout[1].shape[:1] + (v, f))

    def bits(w):
        with tensor.threads(w):
            return [a.tobytes() for a in (tensor.tap_table(rows, filters),
                                          *tensor.conv1d_backward(dout, x, filters, stride,
                                                                  layout))]

    want = bits(1)
    for w in (2, 3):
        assert bits(w) == want


# ---------------------------------------------------------------------------
# group_sum: reduceat's bits, with short runs summed outside it

@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.one_of(st.integers(1, 10), st.integers(1, 200)), min_size=1,
                      max_size=12),
       cols=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       specials=st.lists(st.sampled_from([-0.0, 0.0, np.inf, -np.inf, np.nan]),
                         max_size=24))
def test_group_sum_matches_reduceat(sizes, cols, seed, specials):
    # runs of 1 to 200 equal keys in shuffled rows, values over 12 decades
    # with -0.0, +-inf and NaN sprinkled in
    rng = np.random.default_rng(seed)
    keys = np.repeat(rng.permutation(3 * len(sizes))[:len(sizes)], sizes)
    keys = keys[rng.permutation(keys.size)]
    values = rng.normal(size=(keys.size, cols)) * 10.0 ** rng.integers(-6, 7, (keys.size, cols))
    values.reshape(-1)[rng.integers(0, values.size, size=len(specials))] = specials
    order = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
    with np.errstate(invalid="ignore"):  # inf - inf
        want = np.add.reduceat(values[order], starts, axis=0)
        got_keys, got = T.group_sum(keys, values)
    assert got_keys.tolist() == keys[order][starts].tolist()
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)  # NaN in, NaN out
    assert got[~nan].tobytes() == want[~nan].tobytes()


# ---------------------------------------------------------------------------
# relu

def test_relu_signs():
    assert T.relu([-1.0, 0.0, 2.0]).tolist() == [0, 0, 2]


def test_relu_identity_on_nonnegative(rng):
    x = rng.uniform(0, 2, size=10)
    assert np.array_equal(T.relu(x), x)


def test_relu_fractional():
    assert T.relu([-0.5, 3.25]).tolist() == [0, 3.25]


def test_relu_grad_zero_at_zero():
    assert T.relu_backward(np.ones(3), np.array([-1.0, 0.0, 1.0])).tolist() == [0, 0, 1]


def test_relu_gradcheck(rng):
    for _ in range(N_TRIALS):
        # keep away from the kink so the finite difference is valid
        x = rng.uniform(-2, 2, size=8)
        x = x[np.abs(x) > 1e-2]
        w = rng.uniform(-1, 1, size=x.shape)
        assert_close(T.relu_backward(w, x),
                     central_diff(lambda a: float((T.relu(a) * w).sum()), x))


# ---------------------------------------------------------------------------
# maxpool1d

def test_maxpool_hand():
    out = T.maxpool1d(np.array([[1.0], [3.0], [2.0], [5.0]]), pool=2, stride=2)
    assert out.ravel().tolist() == [3, 5]


def test_maxpool_identity():
    x = np.arange(8.0).reshape(4, 2)
    assert np.array_equal(T.maxpool1d(x, 1, 1), x)


def test_maxpool_tie_routes_to_first():
    x = np.array([[7.0], [7.0]])
    assert T.maxpool1d(x, 2, 2).ravel().tolist() == [7]
    dx = T.maxpool1d_backward(np.array([[1.0]]), x, 2, 2, T.maxpool1d(x, 2, 2))
    assert dx.ravel().tolist() == [1, 0]


def test_maxpool_too_short():
    with pytest.raises(T.SequenceTooShortError):
        T.maxpool1d(np.zeros((1, 2)), 2, 1)


def test_maxpool_output_drawn_from_input(rng):
    for _ in range(50):
        x = rng.uniform(-2, 2, size=(6, 3))
        out = T.maxpool1d(x, 2, 2)
        assert out.max() <= x.max()
        for val in out.ravel():
            assert val in x


def test_maxpool_gradcheck(rng):
    for _ in range(N_TRIALS):
        x = rng.uniform(-2, 2, size=(6, 2))
        w = rng.uniform(-1, 1, size=(3, 2))
        dx = T.maxpool1d_backward(w, x, 2, 2, T.maxpool1d(x, 2, 2))
        assert_close(dx, central_diff(lambda a: float((T.maxpool1d(a, 2, 2) * w).sum()), x))


POOL_SHAPES = {"2/2": (2, 2), "2/1": (2, 1), "3/1": (3, 1), "global": (None, 1)}


@pytest.mark.parametrize("pool, stride", POOL_SHAPES.values(), ids=POOL_SHAPES)
def test_maxpool_backward_matches_where_loop(rng, pool, stride):
    # ReLU outputs of small integers: zeros and equal maxima tie in most windows
    v = 9
    for _ in range(20):
        x = T.relu(rng.integers(-3, 3, size=(4, v, 5)).astype(np.float64))
        if pool is None:  # global pooling, positions past each length masked
            lengths = rng.integers(1, v + 1, size=len(x))
            x[np.arange(v) >= lengths[:, None]] = -np.inf
        window = pool or v
        out = T.maxpool1d(x, window, stride)
        dout = rng.uniform(-1, 1, size=out.shape)
        expected = T.maxpool1d_backward_where(dout, x, window, stride)
        assert T.maxpool1d_backward(dout, x, window, stride, out).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# softmax

def test_softmax_uniform():
    assert_close(T.softmax([0.0, 0.0, 0.0]), [1 / 3] * 3, rtol=0, atol=1e-12)


def test_softmax_no_overflow():
    out = T.softmax([1000.0, 0.0])
    assert np.isfinite(out).all()
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_hand():
    out = T.softmax(np.log([1.0, 2.0, 3.0]))
    assert_close(out, [1 / 6, 2 / 6, 3 / 6], rtol=0, atol=1e-12)


def test_softmax_sums_and_shift_invariance(rng):
    for _ in range(N_TRIALS):
        x = rng.uniform(-2, 2, size=5)
        p = T.softmax(x)
        assert abs(p.sum() - 1) < 1e-6
        assert np.abs(T.softmax(x + 17.3) - p).max() < 1e-6


def test_softmax_gradcheck(rng):
    for _ in range(N_TRIALS):
        x = rng.uniform(-2, 2, size=5)
        w = rng.uniform(-1, 1, size=5)
        dx = T.softmax_backward(w, T.softmax(x))
        assert_close(dx, central_diff(lambda a: float((T.softmax(a) * w).sum()), x))


# ---------------------------------------------------------------------------
# elementwise suite

def test_tanh_sigmoid_symmetry_points():
    assert T.tanh(np.zeros(1))[0] == 0
    assert T.sigmoid(np.zeros(1))[0] == 0.5


def test_sigmoid_hand():
    assert T.sigmoid(np.array([math.log(3)]))[0] == pytest.approx(0.75, abs=1e-12)


def test_concat_hand():
    assert T.concat([[1.0, 2.0], [3.0]]).tolist() == [1, 2, 3]


def test_add_shape_error():
    with pytest.raises(T.ShapeError):
        T.add(np.zeros(2), np.zeros(3))


def test_tanh_sigmoid_gradcheck(rng):
    for _ in range(N_TRIALS):
        x = rng.uniform(-2, 2, size=6)
        w = rng.uniform(-1, 1, size=6)
        assert_close(T.tanh_backward(w, T.tanh(x)),
                     central_diff(lambda a: float((T.tanh(a) * w).sum()), x))
        assert_close(T.sigmoid_backward(w, T.sigmoid(x)),
                     central_diff(lambda a: float((T.sigmoid(a) * w).sum()), x))


def test_concat_backward_roundtrip(rng):
    for _ in range(50):
        lengths = list(rng.integers(1, 5, size=4))
        parts = [rng.uniform(-2, 2, size=n) for n in lengths]
        flat = T.concat(parts)
        grads = T.concat_backward(flat, lengths)
        assert [len(g) for g in grads] == lengths
        assert np.array_equal(T.concat(grads), flat)


def test_concat_backward_size_error():
    with pytest.raises(T.ShapeError):
        T.concat_backward(np.zeros(3), [1, 1])
