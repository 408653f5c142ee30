"""hcms.tensor plus the ops that only tests call.

The model multiplies with `@`, computes its tanh inline and never splits a
flat vector, so matmul, add, tanh and concat and their backward passes
(and the cross-entropy gradient at the probabilities, which the fused
softmax gradient replaces) have no caller in the library. They live here
with their tests. Importing this module as `T` gives those tests every
library op and these in one namespace.
"""

import numpy as np

from hcms.tensor import *  # noqa: F401,F403 - the library ops, re-exported
from hcms.tensor import ShapeError, as_tensor
from hcms.train import PROB_FLOOR


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


# ---------------------------------------------------------------------------
# loss

def cross_entropy_backward(y_onehot, probs):
    """Gradient of the loss w.r.t. the probabilities themselves."""
    y = np.asarray(y_onehot, dtype=np.float64)
    p = np.maximum(np.asarray(probs, dtype=np.float64), PROB_FLOOR)
    return -y / p
