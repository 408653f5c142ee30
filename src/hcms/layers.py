"""Model layers: embedding, conv block, pairwise additive self-attention,
dense softmax head, and the full classifier that composes them.

Layers take a leading batch axis: one forward and one backward move a
whole minibatch, padded by its caller (train._chunks). A forward with keep
(a training step) keeps what its backward needs in the layer's _cache
attribute (the attention keeps its [B, v, v, hidden] tanh tensor, the conv
block its pooled output and the batch layout of the embedding's distinct
rows, each named by its key from HCMSModel.key once per corpus, with no
[B, L, d] embedding output), and the backward takes the cache and releases
it, so each backward needs a fresh forward with keep and a model is
single-writer during training. An inference forward, without keep, caches
nothing and builds no tanh tensor. Gradients accumulate into
Parameter.grad, summed over the batch: the embedding table's as the list
of its backward calls' (ids, sums) pairs, the distinct non-PAD rows each
batch touched, with no [vocab, dim] array; every other parameter's into a
view of the store's grad, which covers the scalars after the table. Layers
hold no init code: HCMSModel allocates one store, binds each
ModelConfig.param_shapes() name (conv.filters is ConvBlock.filters) to a
Parameter viewing it, then draws it by init_parameters or adopts a
checkpoint's data section as it.
"""

import math
import os
from dataclasses import dataclass, asdict, fields
from operator import attrgetter

import numpy as np

from . import tensor as T
from .corpus import LABELS, LANG_TAGS
from .tensor import Parameter


class ConfigError(ValueError):
    """A configuration that cannot build a model or run."""


class AttentionDomainError(ValueError):
    """Too few context vectors for the attended-set policy."""


class VocabularyError(ValueError):
    """Token id outside the embedding table."""


class NoForwardError(RuntimeError):
    """A backward with nothing cached: no forward with keep since the layer's
    last backward, or an inference forward after it."""


# conv input language rows by tag index: row i is the one-hot of LANG_TAGS[i],
# and the last, for padding and untagged examples (index len(LANG_TAGS)), is zeros
LANG_ROWS = np.eye(len(LANG_TAGS) + 1, len(LANG_TAGS))

# Bytes of the tanh scratch that each thread of an inference forward fills
# block by block (SelfAttentionLayer._scores): half of a core's 2 MB L2
# cache, so a block stays cached through its add, bias, tanh and W_a passes,
# and a thread holds one block, not a [B, v, v, hidden] tensor. One example's
# [v, v, hidden] is 200 KB at the default dims, so a block is 5 examples.
_SCRATCH = 1 << 20


def check_field_types(config):
    """Raise ConfigError unless each dataclass field holds exactly its declared type."""
    for f in fields(config):
        if type(value := getattr(config, f.name)) is not f.type:
            raise ConfigError(f"{f.name} must be {f.type.__name__}, got {value!r}")


@dataclass
class ModelConfig:
    vocab_size: int
    embed_dim: int = 200
    filters: int = 200
    kernel: int = 8
    stride: int = 1
    pool: int = 2
    pool_stride: int = 2
    attn_hidden: int = 64
    include_self: bool = False
    score_sigmoid: bool = True
    attention_enabled: bool = True
    global_pool: bool = False
    max_len: int = 48
    n_classes: int = 3
    lang_features: bool = False

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in names})

    def _conv_len(self, u):
        return (u - self.kernel) // self.stride + 1

    def out_len(self, u):
        if self.global_pool:
            return 1
        return (self._conv_len(u) - self.pool) // self.pool_stride + 1

    def param_shapes(self):
        """{name: shape} of every parameter of this config's model, in store
        order; each name is the parameter's attribute path in HCMSModel. The
        model builds its layers from these shapes."""
        in_dim = self.embed_dim + (len(LANG_TAGS) if self.lang_features else 0)
        shapes = {"embedding.table": (self.vocab_size, self.embed_dim),
                  "conv.filters": (self.filters, self.kernel, in_dim),
                  "conv.bias": (self.filters,)}
        if self.attention_enabled:
            h = self.attn_hidden
            shapes.update({"attention.W_t": (self.filters, h),
                           "attention.W_c": (self.filters, h),
                           "attention.b_t": (h,), "attention.W_a": (h, 1),
                           "attention.b_a": (1,)})
        width = self.out_len(max(self.max_len, self.kernel)) * self.filters
        shapes.update({"head.W": (width, self.n_classes), "head.b": (self.n_classes,)})
        return shapes

    def validate(self):
        """Raise ConfigError unless this config builds a model that runs and
        trains in the machine's physical memory."""
        check_field_types(self)
        # max_len may be below 1: a batch is padded to max(max_len, kernel)
        for f in fields(self):
            if f.type is int and f.name != "max_len" and (v := getattr(self, f.name)) < 1:
                raise ConfigError(f"{f.name} must be at least 1, got {v}")
        if self.n_classes != len(LABELS):
            raise ConfigError(f"n_classes must be {len(LABELS)}, got {self.n_classes}")
        pooled = self.out_len(max(self.max_len, self.kernel))
        need = 2 if self.attention_enabled and not self.include_self else 1
        if pooled < need:
            raise ConfigError(f"max_len {self.max_len} gives {pooled} pooled "
                              f"position(s), the model needs {need}")
        # float64 value and two Adam moments per parameter scalar, and a
        # gradient per scalar after the embedding table (whose gradient is
        # its batches' rows), checked before any of them is allocated
        shapes = self.param_shapes()
        scalars = sum(math.prod(shape) for shape in shapes.values())
        size = 8 * (4 * scalars - math.prod(shapes["embedding.table"]))
        if size > (memory := os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")):
            raise ConfigError(f"the model's parameters, gradients and Adam moments "
                              f"need {size} bytes, more than the {memory} bytes of "
                              "physical memory")


def _take_cache(layer):
    """The layer's forward cache, released: one forward serves one backward."""
    cache = getattr(layer, "_cache", None)
    if cache is None:
        raise NoForwardError(f"{type(layer).__name__}.backward needs a forward first")
    layer._cache = None
    return cache


def init_parameters(params, rng):
    """The init table: draws {param_shapes() name: Parameter} in place, in
    order. The embedding table is uniform in +-0.05 with its PAD row zeroed,
    conv filters [f, k, d] Glorot-uniform with fan_in k*d and fan_out f, any
    other matrix Glorot-uniform over (rows, cols); a bias stays zero and draws
    nothing. Scaling rng.random in place gives rng.uniform's bits and draws."""
    for name, p in params.items():
        if p.value.ndim == 1:
            continue
        fan_in, fan_out = ((p.shape[1] * p.shape[2], p.shape[0])
                           if name == "conv.filters" else p.shape)
        limit = 0.05 if name == "embedding.table" else np.sqrt(6.0 / (fan_in + fan_out))
        rng.random(out=p.value)
        p.value *= 2 * limit
        p.value -= limit
        if name == "embedding.table":
            p.value[0] = 0.0


class EmbeddingLayer:
    """Token id -> embedding row lookup: [B, L] ids -> [B, L, dim] rows of
    table [vocab, dim]. Row 0 is PAD, frozen at zero."""

    def check(self, ids):
        """ids as an int64 array; VocabularyError for an id outside the table."""
        ids = np.asarray(ids, dtype=np.int64)
        n = self.table.shape[0]
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise VocabularyError(
                f"token id out of range [0, {n}): {ids[(ids < 0) | (ids >= n)][0]}")
        return ids

    def forward(self, ids):
        return self.table.value[self.check(ids)]

    def backward(self, dK, ids):
        """dK [n, dim] is the gradient at n rows of a forward's conv input and
        ids [n] their token ids (see HCMSModel.conv_rows). Sums dK by id and
        appends the distinct ids and their sums to table.grad, the row-sparse
        gradient (tensor.Parameter); PAD gets no gradient."""
        ids, sums = T.group_sum(ids, dK)
        first = ids.searchsorted(1)  # PAD sorts first
        self.table.grad.append((ids[first:], sums[first:]))


class ConvBlock:
    """conv1d -> ReLU -> max-pool, i.e. the local-context extractor:
    [B, u, d] -> [B, v', f], with filters [f, kernel, d] and bias [f]."""

    def __init__(self, kernel, stride, pool, pool_stride, global_pool):
        self.kernel = kernel
        self.stride = stride
        self.pool = pool
        self.pool_stride = pool_stride
        self.global_pool = global_pool

    # the config's length arithmetic, over the same field names
    _conv_len = ModelConfig._conv_len

    def forward(self, X, lengths, layout, taps=None, keep=True):
        """Under global pooling, lengths [B] gives each example's length in a
        batch padded to its longest; conv positions past it are masked to
        -inf before the max, so padding never wins it. layout is
        tensor.conv1d's (rows, inv, row_ids) of X's rows (HCMSModel.classify
        gets it), and X is read for its shape alone. taps, if given, is the
        tap table of the rows inv names, built over a wider scope than the
        batch (train.predict), and the layout's rows are not read.

        One fan-out: each of conv1d's example slices rectifies and masks its
        rows of the conv output R in place and max-pools them into its rows
        of C, which this thread allocates."""
        v = T._windows(X.shape[-2], self.kernel, self.stride, "conv1d")
        ends = None
        if self.global_pool:
            pool, stride = v, 1
            if lengths is not None:
                ends = self._conv_len(np.asarray(lengths))[:, None]
        else:
            pool, stride = self.pool, self.pool_stride
        vp = T._windows(v, pool, stride, "maxpool1d")
        C = np.empty(X.shape[:-2] + (vp, self.filters.shape[0]))
        Cb = C.reshape(-1, *C.shape[-2:])  # one example a row, a B-less X too

        def finish(at, R):
            T._relu(R, out=R)
            if ends is not None:
                R[np.arange(v) >= ends[at]] = -np.inf
            T._maxpool1d(R, pool, stride, Cb[at])

        R = T.conv1d(X, self.filters.value, self.bias.value, self.stride, layout, taps,
                     finish)
        self._cache = (X, R, C, pool, stride, layout) if keep else None
        return C

    def backward(self, dC):
        """Returns (dX, row_ids): dX holds one row per row of the forward's
        layout and row_ids are the layout's (see tensor.conv1d_backward)."""
        X, R, C, pool, stride, layout = _take_cache(self)
        dR = T.maxpool1d_backward(dC, R, pool, stride, C)
        dZ = T.relu_backward(dR, R)  # R > 0 exactly where Z > 0
        dX, dF, dB = T.conv1d_backward(dZ, X, self.filters.value, self.stride,
                                       layout)
        self.filters.grad += dF
        self.bias.grad += dB
        return dX, layout[2]


class SelfAttentionLayer:
    """Pairwise additive self-attention over context vectors.

    For each position t, every attended position t' gets a score
    sigma(W_a . tanh(c_t W_t + c_t' W_c + b_t) + b_a), with W_t, W_c
    [dim, hidden], b_t [hidden], W_a [hidden, 1] and b_a [1]; scores are
    softmax-normalized over t' and used to average the c_t' into a_t.
    The a_t are concatenated in sequence order: [B, v, dim] -> [B, v*dim].
    """

    def __init__(self, include_self, score_sigmoid):
        self.include_self = include_self
        self.score_sigmoid = score_sigmoid

    def _scores(self, C, keep):
        """(A, H, S, Q) of context vectors C [B, v, dim], computed example by
        example on tensor.map_rows's threads: H = tanh(c_t W_t + c_t' W_c +
        b_t) for every pair, [B, v, v, hidden], the scores S = sigmoid(H W_a
        + b_a) (the raw scores under score_sigmoid off), [B, v, v], the
        weights Q, their softmax over the attended set, and A = Q @ C, each
        thread finishing its slice of examples with one call of each op. H is
        the model's largest array. With keep it is built whole, in place, for
        forward to cache and backward to reuse its buffer for the gradient;
        without keep H is None, and each thread fills its examples block by
        block in a scratch of _SCRATCH bytes, with the same bits. A, S, Q and
        a kept H are allocated by this thread."""
        v, dim = C.shape[-2:]
        hidden = self.b_t.shape[0]
        A, S, Q = np.empty(C.shape), np.empty(C.shape[:-1] + (v,)), np.empty(C.shape[:-1] + (v,))
        H = np.empty(S.shape + (hidden,)) if keep else None
        # one example a row, a B-less [v, dim] input too
        Cb, Ab, Sb, Qb = (x.reshape(-1, v, x.shape[-1]) for x in (C, A, S, Q))
        block = max(1, _SCRATCH // (v * v * hidden * 8))

        def fill(at):
            # keep: H's rows of the slice, one block; else one scratch block
            out = (H.reshape(-1, v, v, hidden)[at] if keep
                   else np.empty((min(block, at.stop - at.start), v, v, hidden)))
            for start in range(at.start, at.stop, max(1, len(out))):
                rows = slice(start, min(start + len(out), at.stop))
                h = out[:rows.stop - start]
                Tq = Cb[rows] @ self.W_t.value  # query side
                Kc = Cb[rows] @ self.W_c.value  # key side
                np.add(Tq[:, :, None, :], Kc[:, None, :, :], out=h)
                h += self.b_t.value
                np.tanh(h, out=h)
                np.add(h @ self.W_a.value[:, 0], self.b_a.value[0], out=Sb[rows])
            s, q = Sb[at], Qb[at]
            if self.score_sigmoid:
                T._sigmoid(s, s)
            np.copyto(q, s)  # sigmoid_backward reads S itself
            if not self.include_self:
                q[:, range(v), range(v)] = -np.inf
            T._softmax(q, q)  # rows sum to 1 over the attended set
            np.matmul(q, Cb[at], out=Ab[at])

        T.map_rows(len(Cb), fill, S.size * hidden)
        return A, H, S, Q

    def forward(self, C, keep=True):
        v = C.shape[-2]
        min_v = 1 if self.include_self else 2
        if v < min_v:
            raise AttentionDomainError(
                f"need at least {min_v} context vectors, got {v}")
        A, H, S, Q = self._scores(C, keep)
        self._cache = (C, H, S, Q) if keep else None
        return A.reshape(A.shape[:-2] + (-1,))

    def backward(self, dG):
        C, H, S, Q = _take_cache(self)
        dA = dG.reshape(C.shape)
        dC = Q.swapaxes(-1, -2) @ dA
        dQ = dA @ C.swapaxes(-1, -2)
        dS = T.softmax_backward(dQ, Q)
        dE = T.sigmoid_backward(dS, S) if self.score_sigmoid else dS
        dim, hidden = self.W_t.shape
        self.W_a.grad[:, 0] += dE.reshape(-1) @ H.reshape(-1, hidden)
        self.b_a.grad[0] += dE.sum()
        dPre = H                         # tanh' = 1 - H^2, in H's buffer
        dPre *= H
        np.subtract(1.0, dPre, out=dPre)
        dPre *= dE[..., None]
        dPre *= self.W_a.value[:, 0]
        dTq = dPre.sum(axis=-2)
        dKc = dPre.sum(axis=-3)
        self.b_t.grad += dPre.reshape(-1, hidden).sum(axis=0)
        self.W_t.grad += C.reshape(-1, dim).T @ dTq.reshape(-1, hidden)
        self.W_c.grad += C.reshape(-1, dim).T @ dKc.reshape(-1, hidden)
        dC += dTq @ self.W_t.value.T + dKc @ self.W_c.value.T
        return dC


class DenseHead:
    """Linear map to class logits plus softmax: [B, n] (or [n]) -> [B, classes],
    with W [n, classes] and b [classes]."""

    def forward(self, G, keep=True):
        self._cache = G if keep else None
        # always a matrix product, so one example gives the same bits alone
        # as in a batch
        logits = G.reshape(-1, G.shape[-1]) @ self.W.value + self.b.value
        return T.softmax(logits).reshape(G.shape[:-1] + (-1,))

    def backward(self, dlogits):
        """Takes the gradient at the pre-softmax logits."""
        G = _take_cache(self)
        d = dlogits.reshape(-1, self.W.shape[1])
        self.W.grad += G.reshape(-1, self.W.shape[0]).T @ d
        self.b.grad += d.sum(axis=0)
        return (d @ self.W.value.T).reshape(G.shape)


class HCMSModel:
    """Embedding -> ConvBlock -> (self-attention | flatten) -> DenseHead,
    one minibatch per classify and backward, as a conv input layout from key
    (once per corpus: train.prepare) and conv_rows, which decodes its keys."""

    def __init__(self, config: ModelConfig, seed=0, values=None):
        """values, if given, is adopted as the store's flat value array (a
        checkpoint's data section); otherwise seed draws the parameters."""
        cfg = self.config = config
        self.embedding, self.head = EmbeddingLayer(), DenseHead()
        self.conv = ConvBlock(cfg.kernel, cfg.stride, cfg.pool, cfg.pool_stride,
                              cfg.global_pool)
        self.attention = (SelfAttentionLayer(cfg.include_self, cfg.score_sigmoid)
                          if cfg.attention_enabled else None)
        shapes = cfg.param_shapes()
        ends = np.cumsum([math.prod(shape) for shape in shapes.values()])
        # the store's grad starts after the embedding table, first in store
        # order, whose gradient is the row-sparse list of its backward calls
        self.store = Parameter(np.zeros(ends[-1]) if values is None else values,
                               np.zeros(ends[-1] - ends[0]))
        grads = [[], *np.split(self.store.grad, ends[1:-1] - ends[0])]
        # each parameter is a value view into the store and its grad, bound
        # at its name's attribute path
        for (name, shape), value, grad in zip(shapes.items(),
                                              np.split(self.store.value, ends[:-1]), grads):
            layer, attr = name.split(".")
            grad = grad if isinstance(grad, list) else grad.reshape(shape)
            setattr(getattr(self, layer), attr, Parameter(value.reshape(shape), grad))
        if values is None:
            init_parameters(self.parameters(), np.random.default_rng(seed))

    def parameters(self):
        """{name: Parameter} in store order (ModelConfig.param_shapes)."""
        return {name: attrgetter(name)(self) for name in self.config.param_shapes()}

    def zero_grad(self):
        self.store.zero_grad()
        self.embedding.table.zero_grad()

    def key(self, ids, lang=None):
        """(keys, inv) of ids and their tag indices (len(LANG_TAGS): no tag),
        from one np.unique: keys [n] are the sorted distinct keys of their
        conv input rows [embedding, lang], one per row, and inv, the ids'
        shape, is each position's row. A key is the token id, plus vocab_size
        times a code for the tag index under lang_features; PAD's, 0, is the
        least. The ids are checked first (EmbeddingLayer.check): the key of
        one outside the table can equal another id's."""
        keys = self.embedding.check(ids)
        if self.config.lang_features:
            # code len(LANG_TAGS) - index ranks the rows as their one-hots sort
            # (no tag, then EMT, O, ENG, HIN): the conv rows keep that order,
            # and with it the summation order of the backward's group sums.
            # conv_rows, below, is the one other reader of this format.
            # int64 first, as vocab_size times a narrow integer overflows.
            code = len(LANG_TAGS) - lang.astype(np.int64, copy=False)
            keys = keys + self.config.vocab_size * code
        return np.unique(keys, return_inverse=True)  # inv has keys' shape

    def conv_rows(self, keys):
        """(rows [n, d], their token ids [n]): the conv input's rows
        [embedding, lang] that keys from key name, decoded and gathered from
        the embedding table one row per key, without building the [B, L, d]
        input."""
        code, row_ids = np.divmod(keys, self.config.vocab_size)
        rows = self.embedding.forward(row_ids)
        if self.config.lang_features:
            rows = np.concatenate([rows, LANG_ROWS[len(LANG_TAGS) - code]], axis=-1)
        return rows, row_ids

    def classify(self, layout, lengths, taps=None, keep=False):
        """Class probabilities [B, n_classes] from a batch's conv input layout
        (ConvBlock.forward's layout and taps); the conv block's [B, u, d]
        input is a zero-stride stand-in for its shape. keep (a training step)
        has every layer cache what backward needs; without it none does."""
        X = np.broadcast_to(0.0, layout[1].shape + self.conv.filters.shape[2:])
        C = self.conv.forward(X, lengths, layout, taps, keep)
        if self.attention is not None:
            G = self.attention.forward(C, keep)
        else:
            G = C.reshape(C.shape[0], -1)
        return self.head.forward(G, keep)

    def backward(self, dlogits):
        """Backward from the gradient at the pre-softmax logits, [B, n_classes]."""
        dG = self.head.backward(dlogits)
        if self.attention is not None:
            dC = self.attention.backward(dG)
        else:
            dC = dG.reshape(dG.shape[0], -1, self.config.filters)
        dK, row_ids = self.conv.backward(dC)
        self.embedding.backward(dK[:, :self.config.embed_dim], row_ids)

    def _labels(self, probs):
        """Argmax class of each row of probs."""
        return np.argmax(probs, axis=-1)
