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
    """A trainable tensor plus its gradient and Adam moment state."""

    def __init__(self, value):
        self.value = as_tensor(value)
        self.grad = np.zeros_like(self.value)
        self.m = np.zeros_like(self.value)
        self.v = np.zeros_like(self.value)
        self.step = 0

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
# The forward is a tap table, the precomputation of Devlin et al. (2014):
# output row i is bias + sum_j x[i*stride + j] @ filters[:, j].T, and each
# term depends only on the input row and the tap j. One batched GEMM
# multiplies each distinct input row by the k taps, giving a [k, rows, f]
# table, and each output row adds up its k table rows. keys [..., u], when
# given, say which rows are equal (equal keys promise equal rows, as equal
# token ids do), so a row that repeats, PAD above all, is multiplied once.
#
# The backward is the unrolled (im2col) form of Chellapilla, Puri & Simard
# (2006): the v kept windows of k input rows are laid out as rows of k*d
# values, so one GEMM against filters.reshape(f, k*d) serves them all. No
# window that crosses into the next example or falls between strides is
# gathered, and examples are walked in blocks of about _BLOCK_ROWS windows,
# so that a block's windows stay in cache between the gather and the GEMMs
# (Goto & van de Geijn, 2008).

_BLOCK_ROWS = 256


def _strided(v, stride, start=0):
    """Slice picking the v positions start, start + stride, ..."""
    return slice(start, start + stride * (v - 1) + 1, stride)


def _blocks(n, v):
    """Splits n examples of v windows each into (start, stop) ranges of
    about _BLOCK_ROWS windows; returns (largest range size, ranges)."""
    per = max(1, _BLOCK_ROWS // v)
    return min(per, n), [(s, min(s + per, n)) for s in range(0, n, per)]


def _windows(x, k, stride, v, out):
    """Gather the v kept windows of each example x [n, u, d] into out
    [n, v, k*d] with k strided slice copies; returns out as [n*v, k*d]."""
    d = x.shape[-1]
    for j in range(k):
        out[:, :, j * d:(j + 1) * d] = x[:, _strided(v, stride, j)]
    return out.reshape(-1, k * d)


def conv1d(x, filters, bias, stride=1, keys=None):
    x, filters, bias = as_tensor(x), as_tensor(filters), as_tensor(bias)
    u, d = x.shape[-2:]
    f, k, fd = filters.shape
    if fd != d:
        raise ShapeError(f"conv1d: input depth {d} != filter depth {fd}")
    if u < k:
        raise SequenceTooShortError(f"conv1d: sequence length {u} < kernel {k}")
    v = (u - k) // stride + 1
    rows = x.reshape(-1, d)
    if keys is None:
        inv = np.arange(len(rows)).reshape(-1, u)
    else:
        _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
        rows, inv = rows[first], inv.reshape(-1, u)
    taps = rows @ filters.transpose(1, 2, 0)  # [k, distinct rows, f]
    out = taps[0].take(inv[:, _strided(v, stride)], axis=0)
    out += bias
    for j in range(1, k):
        out += taps[j].take(inv[:, _strided(v, stride, j)], axis=0)
    return out.reshape(x.shape[:-2] + (v, f))


def conv1d_backward(dout, x, filters, stride=1):
    """Returns (dx, dfilters, dbias) for conv1d."""
    dout, x = as_tensor(dout), as_tensor(x)
    u, d = x.shape[-2:]
    f, k, _ = filters.shape
    v = dout.shape[-2]
    xs = x.reshape(-1, u, d)
    g_all = dout.reshape(-1, v, f)
    W = filters.reshape(f, k * d)
    dx = np.zeros_like(xs)
    dW = np.zeros((f, k * d))
    per, blocks = _blocks(xs.shape[0], v)
    cols, dcols = np.empty((per, v, k * d)), np.empty((per * v, k * d))
    part = np.empty_like(dW)
    for s, e in blocks:
        c = _windows(xs[s:e], k, stride, v, cols[:e - s])
        g = g_all[s:e].reshape(-1, f)
        dW += np.matmul(g.T, c, out=part)
        dc = np.matmul(g, W, out=dcols[:len(g)]).reshape(e - s, v, k * d)
        for j in range(k):
            dx[s:e, _strided(v, stride, j)] += dc[:, :, j * d:(j + 1) * d]
    dbias = g_all.reshape(-1, f).sum(axis=0)
    return dx.reshape(x.shape), dW.reshape(f, k, d), dbias


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


def maxpool1d_backward(dout, x, pool, stride):
    dout = as_tensor(dout)
    vp = (x.shape[-2] - pool) // stride + 1
    # a strict > keeps the first maximal offset, which pins the tie rule
    best = x[..., _strided(vp, stride), :]
    arg = np.zeros(best.shape, dtype=np.intp)
    for j in range(1, pool):
        xj = x[..., _strided(vp, stride, j), :]
        better = xj > best
        arg[better] = j
        best = np.where(better, xj, best)
    dx = np.zeros_like(x)
    for j in range(pool):
        dx[..., _strided(vp, stride, j), :] += np.where(arg == j, dout, 0.0)
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
