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
# matmul

def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    return a @ b


def matmul_backward(dout, a, b):
    """Returns (dA, dB) for out = a @ b."""
    dout = as_tensor(dout)
    return dout @ b.T, a.T @ dout


# ---------------------------------------------------------------------------
# Sequence ops take any leading batch axes: [..., length, channels]. An
# unbatched [length, channels] call is the B-less case of the same code.
#
# conv1d: input [..., u, d], filters [f, k, d], bias [f] -> output [..., v, f]
#
# Shifted-GEMM form (Chellapilla, Puri & Simard, 2006): the batch is read as
# one flat [B*u, d] sequence and tap j adds X[j:j+N] @ F[:, j].T to every
# row, so no window is ever copied (im2col). Rows whose window runs into the
# next example, or falls between strides, are computed and then dropped.

def _strided(v, stride, start=0):
    """Slice picking the v positions start, start + stride, ..."""
    return slice(start, start + stride * (v - 1) + 1, stride)


def conv1d(x, filters, bias, stride=1):
    x, filters, bias = as_tensor(x), as_tensor(filters), as_tensor(bias)
    u, d = x.shape[-2:]
    f, k, fd = filters.shape
    if fd != d:
        raise ShapeError(f"conv1d: input depth {d} != filter depth {fd}")
    if u < k:
        raise SequenceTooShortError(f"conv1d: sequence length {u} < kernel {k}")
    v = (u - k) // stride + 1
    flat = x.reshape(-1, d)
    n = flat.shape[0] - k + 1
    out = np.empty((flat.shape[0], f))  # rows past n are never kept
    np.matmul(flat[:n], filters[:, 0].T, out=out[:n])
    tap = np.empty((n, f))
    for j in range(1, k):
        out[:n] += np.matmul(flat[j:j + n], filters[:, j].T, out=tap)
    out = out.reshape(x.shape[:-1] + (f,))[..., _strided(v, stride), :]
    out += bias
    return out


def conv1d_backward(dout, x, filters, stride=1):
    """Returns (dx, dfilters, dbias) for conv1d."""
    dout = as_tensor(dout)
    d = x.shape[-1]
    f, k, _ = filters.shape
    # dout placed on the forward's flat row grid; dropped rows get zero
    grid = np.zeros(x.shape[:-1] + (f,))
    grid[..., _strided(dout.shape[-2], stride), :] = dout
    flat = x.reshape(-1, d)
    n = flat.shape[0] - k + 1
    g = grid.reshape(-1, f)[:n]
    dx = np.zeros_like(flat)
    dfilters = np.empty_like(filters)
    for j in range(k):
        dfilters[:, j] = g.T @ flat[j:j + n]
        dx[j:j + n] += g @ filters[:, j]
    dbias = dout.reshape(-1, f).sum(axis=0)
    return dx.reshape(x.shape), dfilters, dbias


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

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")
    return a + b


def tanh(x):
    return np.tanh(as_tensor(x))


def tanh_backward(dout, out):
    return as_tensor(dout) * (1.0 - out * out)


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


def concat(parts):
    """Concatenate 1-D segments into one flat vector."""
    return np.concatenate([as_tensor(p).ravel() for p in parts])


def concat_backward(dout, lengths):
    """Split the upstream gradient back into the original segments."""
    dout = as_tensor(dout)
    if dout.size != sum(lengths):
        raise ShapeError(
            f"concat_backward: gradient size {dout.size} != sum of segments {sum(lengths)}")
    out, off = [], 0
    for n in lengths:
        out.append(dout[off:off + n])
        off += n
    return out
