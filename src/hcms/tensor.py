"""Dense tensor ops with explicit forward/backward pairs.

Everything runs in float64. There is no autograd graph: each op exposes a
forward function and a matching backward function that maps the upstream
gradient to gradients of the op's inputs. The model wires these together
by hand, which keeps every gradient individually testable against finite
differences.
"""

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class SequenceTooShortError(ValueError):
    """Input has fewer positions than the window needs."""


def as_tensor(x):
    """Coerce to a float64 ndarray (the library's only numeric currency)."""
    return np.asarray(x, dtype=np.float64)


class Parameter:
    """A trainable tensor and its gradient, of one shape; both may be views of a store."""

    def __init__(self, value, grad=None):
        self.value = as_tensor(value)
        self.grad = np.zeros(self.value.shape) if grad is None else grad

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self.grad.fill(0.0)


# ---------------------------------------------------------------------------
# Sequence ops take any leading batch axes: [..., length, channels]. An
# unbatched [length, channels] call is the B-less case of the same code.
#
# conv1d: input [..., u, d], filters [f, k, d], bias [f] -> output [..., v, f]
#
# One layout serves both directions: (rows, inv, row_ids) holds the distinct
# input rows [n, d], an index map inv [examples, u] from each position to its
# row, and the token id of each row. The model builds it, for training and
# predict alike: one np.unique per corpus (HCMSModel.key) over keys that name
# equal rows gives each distinct row's first position, and a batch's rows are
# gathered from the embedding there, so a row that repeats is one row.
# distinct_rows(x) is the unkeyed layout of a real input, each position its
# own row and no row ids; conv1d and conv1d_backward build it when given none.
#
# The forward is a tap table, the precomputation of Devlin et al. (2014):
# output row i is bias + sum_j x[i*stride + j] @ filters[:, j].T, and each
# term depends only on the input row and the tap j. One batched GEMM
# (tap_table) multiplies each distinct row by the k taps, giving a
# [k, rows, f] table, and each output row adds up its k table rows. A
# training step builds the table over its batch; predict, whose filters do
# not change, builds one over a chunk of batches and passes it in (taps).
#
# The backward runs the same sums the other way. For each tap j, group_sum
# adds up dout over the windows whose tap j reads each distinct row, giving
# sums [rows read, f]; then dfilters[:, j] = sums^T @ those rows, and each
# row's gradient gains sums @ filters[:, j]. The GEMMs are as large as the
# number of distinct rows, not of windows, so a padding window costs only
# its share of the group sums.


def _strided(v, stride, start=0):
    """Slice picking the v positions start, start + stride, ..."""
    return slice(start, start + stride * (v - 1) + 1, stride)


def distinct_rows(x):
    """The unkeyed layout of x [..., u, d], as above: every position its own row."""
    u, d = x.shape[-2:]
    rows = x.reshape(-1, d)
    return rows, np.arange(len(rows)).reshape(-1, u), None


def group_sum(keys, values):
    """(distinct keys in sorted order, their sums): values [keys.size, ...]
    has one row per flattened key, and rows sharing a key are summed. One
    stable sort into runs of equal keys, then one np.add.reduceat."""
    keys = np.ravel(keys)
    order = np.argsort(keys, kind="stable")
    run_keys = keys[order]
    is_start = np.empty(run_keys.size, dtype=bool)
    is_start[:1] = True
    np.not_equal(run_keys[1:], run_keys[:-1], out=is_start[1:])
    starts = np.flatnonzero(is_start)
    return run_keys[starts], np.add.reduceat(values[order], starts, axis=0)


def tap_table(rows, filters, out=None):
    """[k, n, f]: each of rows [n, d] times each of the k taps of filters [f, k, d].
    out, if given, is a [k, >= n, f] buffer whose first n rows per tap take it."""
    if out is None:
        return rows @ filters.transpose(1, 2, 0)
    return np.matmul(rows, filters.transpose(1, 2, 0), out=out[:, :len(rows)])


def conv1d(x, filters, bias, stride=1, layout=None, taps=None):
    """taps, if given, is the tap_table of the rows the layout's index map
    names, built over a wider scope than x; the layout's rows are then not
    read."""
    x, filters, bias = as_tensor(x), as_tensor(filters), as_tensor(bias)
    u, d = x.shape[-2:]
    f, k, fd = filters.shape
    if fd != d:
        raise ShapeError(f"conv1d: input depth {d} != filter depth {fd}")
    if u < k:
        raise SequenceTooShortError(f"conv1d: sequence length {u} < kernel {k}")
    v = (u - k) // stride + 1
    rows, inv, _ = layout or distinct_rows(x)
    if taps is None:
        taps = tap_table(rows, filters)
    out = taps[0].take(inv[:, _strided(v, stride)], axis=0)
    out += bias
    for j in range(1, k):
        out += taps[j].take(inv[:, _strided(v, stride, j)], axis=0)
    return out.reshape(x.shape[:-2] + (v, f))


def conv1d_backward(dout, x, filters, stride=1, layout=None):
    """Returns (dx, dfilters, dbias) for conv1d. After a layout with row ids,
    dx [n, d] holds one row per layout row, in the layout's order: the summed
    gradient of the positions that read it. Otherwise dx has x's shape."""
    dout, x = as_tensor(dout), as_tensor(x)
    f, k, d = filters.shape
    rows, inv, row_ids = layout or distinct_rows(x)
    g = dout.reshape(-1, f)
    dx, dfilters = np.zeros((len(rows), d)), np.empty(filters.shape)
    for j in range(k):
        read, sums = group_sum(inv[:, _strided(dout.shape[-2], stride, j)], g)
        dfilters[:, j] = sums.T @ rows[read]
        dx[read] += sums @ filters[:, j]
    return (dx.reshape(x.shape) if row_ids is None else dx), dfilters, g.sum(axis=0)


# ---------------------------------------------------------------------------
# relu

def relu(x):
    return np.maximum(0.0, as_tensor(x))


def relu_backward(dout, x):
    # Subgradient at exactly 0 is taken as 0.
    return as_tensor(dout) * (x > 0)


# ---------------------------------------------------------------------------
# maxpool1d: input [..., v, f] -> [..., v', f], pooling over the sequence axis

def maxpool1d(x, pool, stride):
    x = as_tensor(x)
    v = x.shape[-2]
    if v < pool:
        raise SequenceTooShortError(f"maxpool1d: length {v} < pool {pool}")
    vp = (v - pool) // stride + 1
    out = x[..., _strided(vp, stride), :].copy()
    for j in range(1, pool):  # offset j of every window, one strided slice
        np.maximum(out, x[..., _strided(vp, stride, j), :], out=out)
    return out


def maxpool1d_backward(dout, x, pool, stride, out):
    """dx for maxpool1d: each window's gradient goes to the first offset
    that holds its maximum, read off out = maxpool1d(x, pool, stride) (the
    forward's result). Overlapping windows add their shares offset by offset."""
    dout = as_tensor(dout)
    vp = out.shape[-2]
    dx = np.zeros_like(x)
    todo = np.ones(out.shape, dtype=bool)  # windows whose maximum is not yet found
    hit = np.empty(out.shape, dtype=bool)
    for j in range(pool):
        np.equal(x[..., _strided(vp, stride, j), :], out, out=hit)
        hit &= todo
        todo ^= hit
        dx[..., _strided(vp, stride, j), :] += np.where(hit, dout, 0.0)
    return dx


# ---------------------------------------------------------------------------
# softmax (stable, max-subtraction)

def softmax(x):
    x = as_tensor(x)
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(dout, probs):
    """Full Jacobian-vector product: dx = p * (dout - sum(p * dout))."""
    dout = as_tensor(dout)
    dot = (probs * dout).sum(axis=-1, keepdims=True)
    return probs * (dout - dot)


# ---------------------------------------------------------------------------
# elementwise suite

def sigmoid(x):
    x = as_tensor(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(dout, out):
    return as_tensor(dout) * out * (1.0 - out)
