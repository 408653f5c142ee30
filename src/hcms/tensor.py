"""Dense tensor ops with explicit forward/backward pairs.

Everything runs in float64. There is no autograd graph: each op exposes a
forward function and a matching backward function that maps the upstream
gradient to gradients of the op's inputs. The model wires these together
by hand, which keeps every gradient individually testable against finite
differences.
"""

import contextlib
import contextvars
import itertools
import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class SequenceTooShortError(ValueError):
    """Input has fewer positions than the window needs."""


def as_tensor(x):
    """Coerce to a float64 ndarray (the library's only numeric currency)."""
    return np.asarray(x, dtype=np.float64)


class Parameter:
    """A trainable tensor and its gradient; both may be views of a store.

    grad is an array of value's shape, with two exceptions in HCMSModel. The
    embedding table's is row-sparse: a list of (ids, sums) pairs, one per
    backward call, each of distinct sorted row ids and their gradient rows;
    its dense gradient is 0.0 plus each pair's sums at its ids, in call
    order, and no [rows, dim] array of it is ever built. The store's grad
    covers only the scalars after that table (see train.adam_step)."""

    def __init__(self, value, grad=None):
        self.value = as_tensor(value)
        self.grad = np.zeros(self.value.shape) if grad is None else grad

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        if isinstance(self.grad, list):
            self.grad.clear()
        else:
            self.grad.fill(0.0)


# ---------------------------------------------------------------------------
# Row-parallel numpy work. Inside `with threads(w)` (train and predict run
# all their work in one such block) map_rows splits an op's independent rows
# into w contiguous slices, one a thread, and numpy releases the GIL inside
# each. By example: conv1d, whose slices also run the conv block's ReLU,
# length mask and max-pool (ConvBlock.forward), and the attention's pair
# scores, sigmoid, self mask, softmax and Q @ C (SelfAttentionLayer._scores);
# by tap: tap_table and conv1d_backward; by block: adam_step. Only the head
# and the argmax stay on the calling thread, as their GEMM's bits depend on
# the batch size. Each row is computed by the same numpy calls on any thread,
# so the bits are those of one thread. A call that writes fewer than
# _MIN_WORK scalars runs on the calling thread: a fan-out costs 0.1 to 0.2 ms,
# more than a small model's whole op. The pool threads live for the
# outermost block and call numpy, closures and this module's private bodies
# (_relu, _maxpool1d, _sigmoid, _softmax, _group_sum, which the public ops
# wrap) alone, never a public function of this package, so a tracer that
# wraps the package's public functions sees every call on the thread that
# made the block. The block's pool is a context variable: set on entry and
# reset on exit, and seen by the thread that entered the block alone.

_THREADS = contextvars.ContextVar("threads", default=(None, 1))

# Scalars a map_rows call must write before it fans out. At the default dims
# each split op writes 0.26M to 1.3M (Adam's grows with the vocabulary); an
# 8-wide model's write 256 to 2k.
_MIN_WORK = 1 << 16

# Scalars one conv1d tap gather may hold (8 MiB): the conv output is then the
# forward's only array that grows with a batch's longest example. At the
# default dims a whole batch of 32 is one gather of 0.26M.
_GATHER = 1 << 20


@contextlib.contextmanager
def threads(w):
    """map_rows runs on w threads inside the block: a pool of w threads,
    thread i pinned to CPU i (cyclically) of the process's affinity mask,
    while the calling thread waits. Unpinned, or with the calling thread
    taking a slice, a woken thread was often placed on its waker's CPU, and
    the two then shared one CPU. With w = 1 no pool starts and map_rows runs
    on the calling thread; inside a block of the same width (predict within
    train) the enclosing block's pool serves."""
    if w == _THREADS.get()[1]:
        yield
        return
    mask, slots = sorted(os.sched_getaffinity(0)), itertools.count()

    def pin():  # pid 0: the calling (pool) thread alone
        os.sched_setaffinity(0, {mask[next(slots) % len(mask)]})

    with (ThreadPoolExecutor(w, initializer=pin) if w > 1
          else contextlib.nullcontext()) as pool:
        token = _THREADS.set((pool, w))
        try:
            yield
        finally:
            _THREADS.reset(token)


def map_rows(n, fn, scalars):
    """fn(rows) for contiguous slices rows of range(n), one per thread of the
    enclosing threads() block, at most n slices, when the call writes at least
    _MIN_WORK scalars in all; otherwise, or outside a block, one call on the
    calling thread. Returns once every slice is done and raises the first
    error of any of them."""
    pool, w = _THREADS.get()
    w = max(1, min(w, n)) if scalars >= _MIN_WORK else 1
    if w == 1:
        return fn(slice(0, n))
    cut = [n * i // w for i in range(w + 1)]
    futures = [pool.submit(fn, slice(a, b)) for a, b in zip(cut, cut[1:])]
    wait(futures)
    for future in futures:
        future.result()


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
# equal rows gives each distinct row's key, and a batch's rows are decoded
# from their keys (HCMSModel.conv_rows), so a row that repeats is one row.
# distinct_rows(x) is the unkeyed layout of a real input, each position its
# own row and no row ids, which conv1d builds for a caller without a layout;
# no model path uses it.
#
# The forward is a tap table, the precomputation of Devlin et al. (2014):
# output row i is bias + sum_j x[i*stride + j] @ filters[:, j].T, and each
# term depends only on the input row and the tap j. One GEMM per tap
# (tap_table) multiplies each distinct row by the k taps, giving a
# [k, rows, f] table, and each output row adds up its k table rows. A
# training step builds the table over its batch; predict, whose filters do
# not change, builds one over a chunk of batches and passes it in (taps).
#
# The backward runs the same sums the other way. For each tap j, group_sum
# adds up dout over the windows whose tap j reads each distinct row, giving
# sums [rows read, f]; then dfilters[:, j] = sums^T @ those rows, and each
# row's gradient gains sums @ filters[:, j]. The taps are independent up to
# that last add, so they run on map_rows's threads, and the adds run in tap
# order on the calling thread. The GEMMs are as large as the number of
# distinct rows, not of windows, so a padding window costs only its share
# of the group sums.


def _strided(v, stride, start=0):
    """Slice picking the v positions start, start + stride, ..."""
    return slice(start, start + stride * (v - 1) + 1, stride)


def distinct_rows(x):
    """The unkeyed layout of x [..., u, d], as above: every position its own row."""
    u, d = x.shape[-2:]
    rows = x.reshape(-1, d)
    return rows, np.arange(len(rows)).reshape(-1, u), None


# np.add.reduceat sums a run of up to this many rows in order, as
# first + (((-0.0 + r2) + r3) + ...); a longer run's rest is a pairwise sum.
_SHORT_RUN = 8

# Scalars below which group_sum is one np.add.reduceat: the rank-by-rank path
# costs about ten numpy calls whatever its input's size, and a sweep over 16
# to 2048 rows of 8 to 200 columns (CHANGES.md) had reduceat ahead below
# about 2^14 scalars and behind above it. At the default dims one tap's call
# is 262k scalars (2 to 3 times faster rank by rank); an 8-wide model's are
# a few hundred.
_REDUCEAT = 1 << 14


def group_sum(keys, values):
    """(distinct keys in sorted order, their sums): values [keys.size, ...]
    has one row per flattened key, and rows sharing a key are summed, with
    the bits of one np.add.reduceat over the runs of a stable sort. Below
    _REDUCEAT scalars it is that reduceat; above it a run of one row is a
    copy, runs of 2 to _SHORT_RUN rows are summed rank by rank, all at once,
    in reduceat's order, and only longer runs go through reduceat."""
    return _group_sum(keys, values)


def _group_sum(keys, values):
    """group_sum's body, which pool threads call (see threads)."""
    keys = np.ravel(keys)
    order = np.argsort(keys, kind="stable")
    run_keys = keys[order]
    is_start = np.empty(run_keys.size, dtype=bool)
    is_start[:1] = True
    np.not_equal(run_keys[1:], run_keys[:-1], out=is_start[1:])
    starts = np.flatnonzero(is_start)
    if values.size < _REDUCEAT:
        return run_keys[starts], np.add.reduceat(values[order], starts, axis=0)
    sizes = np.diff(starts, append=keys.size)
    sums = values[order[starts]]  # each run's first row: a singleton's sum
    # short runs longest first, so the runs that reach rank r are a prefix
    short = np.flatnonzero((sizes > 1) & (sizes <= _SHORT_RUN))
    short = short[np.argsort(-sizes[short], kind="stable")]
    if short.size:
        first, n = starts[short], sizes[short]
        rest = values[order[first + 1]]
        for r in range(2, n[0]):
            live = np.count_nonzero(n > r)
            rest[:live] += values[order[first[:live] + r]]
        sums[short] += rest
    if (long := sizes > _SHORT_RUN).any():
        at = np.cumsum(sizes[long]) - sizes[long]
        sums[long] = np.add.reduceat(values[order[np.repeat(long, sizes)]], at, axis=0)
    return run_keys[starts], sums


def tap_table(rows, filters, out=None):
    """[k, n, f]: each of rows [n, d] times each of the k taps of filters [f, k, d].
    out, if given, is a [k, >= n, f] buffer whose first n rows per tap take it.
    Each tap is one GEMM, the taps split across map_rows's threads; a stacked
    product of all k gives the same bits."""
    f, k, _ = filters.shape
    out = np.empty((k, len(rows), f)) if out is None else out[:, :len(rows)]
    per_tap = filters.transpose(1, 2, 0)

    def multiply(taps):
        for j in range(taps.start, taps.stop):
            np.matmul(rows, per_tap[j], out=out[j])

    map_rows(k, multiply, out.size)
    return out


def _windows(n, window, stride, what):
    """Windows of window positions, stride apart, over n positions;
    SequenceTooShortError, naming what, when n < window."""
    if n < window:
        raise SequenceTooShortError(f"{what}: sequence length {n} < window {window}")
    return (n - window) // stride + 1


def conv1d(x, filters, bias, stride=1, layout=None, taps=None, finish=None):
    """taps, if given, is the tap_table of the rows the layout's index map
    names, built over a wider scope than x; the layout's rows are then not
    read. finish, if given, is called as finish(at, out) on each slice at of
    the examples, on the slice's thread, once out, their rows of the output
    [len(at), v, f], holds its sums (ConvBlock.forward's ReLU and pooling)."""
    x, filters, bias = as_tensor(x), as_tensor(filters), as_tensor(bias)
    u, d = x.shape[-2:]
    f, k, fd = filters.shape
    if fd != d:
        raise ShapeError(f"conv1d: input depth {d} != filter depth {fd}")
    v = _windows(u, k, stride, "conv1d")
    rows, inv, _ = layout or distinct_rows(x)
    if taps is None:
        taps = tap_table(rows, filters)
    out = np.empty((len(inv), v, f))

    def add_taps(at):  # the bias plus each tap's table rows, for examples at,
        # in runs of positions whose gathers hold at most _GATHER scalars
        n = max(1, _GATHER // ((at.stop - at.start) * f))
        for p in range(0, v, n):
            part, m = out[at, p:p + n], min(n, v - p)
            np.add(taps[0].take(inv[at, _strided(m, stride, p * stride)], axis=0), bias,
                   out=part)
            for j in range(1, k):
                part += taps[j].take(inv[at, _strided(m, stride, p * stride + j)], axis=0)
        if finish is not None:
            finish(at, out[at])

    map_rows(len(inv), add_taps, out.size)
    return out.reshape(x.shape[:-2] + (v, f))


def conv1d_backward(dout, x, filters, stride, layout):
    """Returns (dx, dfilters, dbias) for conv1d over layout: dx [n, d] holds
    one row per layout row, in the layout's order, the summed gradient of the
    positions that read it. x is not read: perfbench/tracing.py counts the
    backward's FLOPs from its shape.

    The taps run in waves of one tap per thread of the threads() block: each
    tap's group sums, dfilters[:, j] and its rows' gradient part go to
    map_rows's threads, the part into a buffer of the wave, and the calling
    thread then adds the wave's parts to dx in tap order, as one thread would."""
    dout = as_tensor(dout)
    f, k, d = filters.shape
    rows, inv, _ = layout
    g, v = dout.reshape(-1, f), dout.shape[-2]
    dx, dfilters = np.zeros((len(rows), d)), np.empty(filters.shape)
    width = min(_THREADS.get()[1], k)
    parts, reads = np.empty((width, len(rows), d)), [None] * k

    def taps(js):  # each tap's group sums, dfilters[:, j] and gradient part
        for j in js:
            read, sums = _group_sum(inv[:, _strided(v, stride, j)], g)
            dfilters[:, j] = sums.T @ rows[read]
            np.matmul(sums, filters[:, j], out=parts[j % width, :len(read)])
            reads[j] = read

    for wave in range(0, k, width):
        js = range(wave, min(wave + width, k))
        map_rows(len(js), lambda at: taps(js[at]), len(js) * (len(rows) + f) * d)
        for j in js:
            dx[reads[j]] += parts[j % width, :len(reads[j])]
    return dx, dfilters, g.sum(axis=0)


# ---------------------------------------------------------------------------
# relu, maxpool1d, softmax and sigmoid: each public op wraps a private body,
# which the pool threads call (see threads), so both give the same bits.

def relu(x):
    """max(0, x)."""
    return _relu(as_tensor(x))


def _relu(x, out=None):
    return np.maximum(0.0, x, out=out)


def relu_backward(dout, x):
    # Subgradient at exactly 0 is taken as 0.
    return as_tensor(dout) * (x > 0)


# ---------------------------------------------------------------------------
# maxpool1d: input [..., v, f] -> [..., v', f], pooling over the sequence axis

def maxpool1d(x, pool, stride):
    x = as_tensor(x)
    vp = _windows(x.shape[-2], pool, stride, "maxpool1d")
    return _maxpool1d(x, pool, stride, np.empty(x.shape[:-2] + (vp, x.shape[-1])))


def _maxpool1d(x, pool, stride, out):
    """maxpool1d of x into out [..., v', f]."""
    vp = out.shape[-2]
    np.copyto(out, x[..., _strided(vp, stride), :])
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
    return _softmax(x, np.empty_like(x))


def _softmax(x, out):
    """softmax of x into out, which may be x."""
    np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def softmax_backward(dout, probs):
    """Full Jacobian-vector product: dx = p * (dout - sum(p * dout))."""
    dout = as_tensor(dout)
    dot = (probs * dout).sum(axis=-1, keepdims=True)
    return probs * (dout - dot)


# ---------------------------------------------------------------------------
# elementwise suite

def sigmoid(x):
    x = as_tensor(x)
    return _sigmoid(x, np.empty_like(x))


def _sigmoid(x, out):
    """sigmoid of x into out, which may be x: each side of 0 by the form
    whose exp cannot overflow."""
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(dout, out):
    return as_tensor(dout) * out * (1.0 - out)
