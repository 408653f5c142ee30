"""Model layers: embedding, conv block, pairwise additive self-attention,
dense softmax head, and the full classifier that composes them.

Layers take a leading batch axis: one forward and one backward move a
whole minibatch. Each layer caches whatever its backward pass needs in
its _cache attribute, so a model is single-writer during training (forward
immediately followed by backward). Gradients accumulate into Parameter.grad, summed
over the batch.
"""

from dataclasses import dataclass, asdict, fields

import numpy as np

from . import tensor as T
from .tensor import Parameter


class AttentionDomainError(ValueError):
    """Too few context vectors for the attended-set policy."""


class VocabularyError(ValueError):
    """Token id outside the embedding table."""


NUM_LANG_TAGS = 4  # one-hot width for HIN/ENG/O/EMT


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


def glorot_uniform(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class EmbeddingLayer:
    """Token id -> embedding row lookup: [B, L] ids -> [B, L, dim] rows.
    Row 0 is PAD, frozen at zero."""

    def __init__(self, vocab_size, dim, rng):
        table = rng.uniform(-0.05, 0.05, size=(vocab_size, dim))
        table[0] = 0.0
        self.table = Parameter(table)

    def forward(self, ids):
        ids = np.asarray(ids, dtype=np.int64)
        n = self.table.shape[0]
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise VocabularyError(
                f"token id out of range [0, {n}): {ids[(ids < 0) | (ids >= n)][0]}")
        return self.table.value[ids]

    def backward(self, dK, keys):
        """dK [n, dim] is the gradient at the distinct keys [n] of a forward's
        positions (see HCMSModel.forward), and key % vocab_size is the token
        id. Sums dK by id and adds each sum to its table row once; PAD gets
        no gradient."""
        ids, sums = T.group_sum(keys % self.table.shape[0], dK)
        first = ids.searchsorted(1)  # PAD sorts first
        self.table.grad[ids[first:]] += sums[first:]


class ConvBlock:
    """conv1d -> ReLU -> max-pool, i.e. the local-context extractor:
    [B, u, d] -> [B, v', f]."""

    def __init__(self, in_dim, n_filters, kernel, stride, pool, pool_stride,
                 global_pool, rng):
        self.kernel = kernel
        self.stride = stride
        self.pool = pool
        self.pool_stride = pool_stride
        self.global_pool = global_pool
        self.filters = Parameter(glorot_uniform(
            rng, (n_filters, kernel, in_dim), kernel * in_dim, n_filters))
        self.bias = Parameter(np.zeros(n_filters))

    def _conv_len(self, u):
        return (u - self.kernel) // self.stride + 1

    def out_len(self, u):
        if self.global_pool:
            return 1
        return (self._conv_len(u) - self.pool) // self.pool_stride + 1

    def forward(self, X, lengths=None, keys=None):
        """Under global pooling, lengths [B] gives each example's length in a
        batch padded to its longest; conv positions past it are masked to
        -inf before the max, so padding never wins it. keys [B, u], if given,
        name equal rows of X (see tensor.conv1d)."""
        R = T.relu(T.conv1d(X, self.filters.value, self.bias.value, self.stride,
                            keys=keys))
        if self.global_pool:
            pool, stride = R.shape[-2], 1
            if lengths is not None:
                valid = np.arange(pool) < self._conv_len(np.asarray(lengths))[:, None]
                R = np.where(valid[..., None], R, -np.inf)
        else:
            pool, stride = self.pool, self.pool_stride
        self._cache = (X, R, pool, stride, keys)
        return T.maxpool1d(R, pool, stride)

    def backward(self, dC):
        """Returns (dX, keys). After a keyed forward, dX holds one row per
        distinct key and keys are those keys, sorted (see tensor.conv1d_backward);
        otherwise dX has X's shape and keys is None."""
        X, R, pool, stride, keys = self._cache
        dR = T.maxpool1d_backward(dC, R, pool, stride)
        dZ = T.relu_backward(dR, R)  # R > 0 exactly where Z > 0
        dX, dF, dB = T.conv1d_backward(dZ, X, self.filters.value, self.stride,
                                       keys)
        self.filters.grad += dF
        self.bias.grad += dB
        return dX, (None if keys is None else np.unique(keys))


class SelfAttentionLayer:
    """Pairwise additive self-attention over context vectors.

    For each position t, every attended position t' gets a score
    sigma(W_a . tanh(c_t W_t + c_t' W_c + b_t) + b_a); scores are
    softmax-normalized over t' and used to average the c_t' into a_t.
    The a_t are concatenated in sequence order: [B, v, dim] -> [B, v*dim].
    """

    def __init__(self, dim, hidden, include_self, score_sigmoid, rng):
        self.include_self = include_self
        self.score_sigmoid = score_sigmoid
        self.W_t = Parameter(glorot_uniform(rng, (dim, hidden), dim, hidden))
        self.W_c = Parameter(glorot_uniform(rng, (dim, hidden), dim, hidden))
        self.b_t = Parameter(np.zeros(hidden))
        self.W_a = Parameter(glorot_uniform(rng, (hidden, 1), hidden, 1))
        self.b_a = Parameter(np.zeros(1))

    def _hidden(self, Tq, Kc):
        """tanh(c_t W_t + c_t' W_c + b_t) for every pair: [B, v, v, hidden].
        The model's largest array, so it is built in place and not cached:
        backward rebuilds it."""
        H = Tq[..., :, None, :] + Kc[..., None, :, :]
        H += self.b_t.value
        return np.tanh(H, out=H)

    def forward(self, C):
        v = C.shape[-2]
        min_v = 1 if self.include_self else 2
        if v < min_v:
            raise AttentionDomainError(
                f"need at least {min_v} context vectors, got {v}")
        mask = np.ones((v, v), dtype=bool)
        if not self.include_self:
            np.fill_diagonal(mask, False)
        Tq = C @ self.W_t.value          # [B, v, h] query side
        Kc = C @ self.W_c.value          # [B, v, h] key side
        E = self._hidden(Tq, Kc) @ self.W_a.value[:, 0] + self.b_a.value[0]  # [B, v, v]
        S = T.sigmoid(E) if self.score_sigmoid else E
        logits = np.where(mask, S, -np.inf)
        Q = T.softmax(logits)            # rows sum to 1 over the attended set
        A = Q @ C                        # [B, v, dim]
        self._cache = (C, mask, Tq, Kc, S, Q)
        self.weights = Q
        return A.reshape(A.shape[:-2] + (-1,))

    def backward(self, dG):
        C, mask, Tq, Kc, S, Q = self._cache
        dA = dG.reshape(C.shape)
        dC = Q.swapaxes(-1, -2) @ dA
        dQ = dA @ C.swapaxes(-1, -2)
        dS = T.softmax_backward(dQ, Q)
        dE = T.sigmoid_backward(dS, S) if self.score_sigmoid else dS
        dE = np.where(mask, dE, 0.0)
        dim, hidden = self.W_t.shape
        H = self._hidden(Tq, Kc)
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
    """Linear map to class logits plus softmax: [B, n] (or [n]) -> [B, classes]."""

    def __init__(self, in_dim, n_classes, rng):
        self.W = Parameter(glorot_uniform(rng, (in_dim, n_classes), in_dim, n_classes))
        self.b = Parameter(np.zeros(n_classes))

    def forward(self, G):
        self._cache = G
        # always a matrix product, so one example gives the same bits alone
        # as in a batch
        logits = G.reshape(-1, G.shape[-1]) @ self.W.value + self.b.value
        return T.softmax(logits).reshape(G.shape[:-1] + (-1,))

    def backward(self, dlogits):
        """Takes the gradient at the pre-softmax logits."""
        G = self._cache.reshape(-1, self.W.shape[0])
        d = dlogits.reshape(-1, self.W.shape[1])
        self.W.grad += G.T @ d
        self.b.grad += d.sum(axis=0)
        return (d @ self.W.value.T).reshape(self._cache.shape)


class HCMSModel:
    """Embedding -> ConvBlock -> (self-attention | flatten) -> DenseHead,
    one minibatch from fit_batch per forward and backward."""

    def __init__(self, config: ModelConfig, seed=0):
        cfg = config
        self.config = cfg
        rng = np.random.default_rng(seed)
        in_dim = cfg.embed_dim + (NUM_LANG_TAGS if cfg.lang_features else 0)
        self.embedding = EmbeddingLayer(cfg.vocab_size, cfg.embed_dim, rng)
        self.conv = ConvBlock(in_dim, cfg.filters, cfg.kernel, cfg.stride,
                              cfg.pool, cfg.pool_stride, cfg.global_pool, rng)
        self.attention = None
        if cfg.attention_enabled:
            self.attention = SelfAttentionLayer(
                cfg.filters, cfg.attn_hidden, cfg.include_self,
                cfg.score_sigmoid, rng)
        self._v = self.conv.out_len(max(cfg.max_len, cfg.kernel))
        self.head = DenseHead(self._v * cfg.filters, cfg.n_classes, rng)

    def parameters(self):
        params = {
            "embedding.table": self.embedding.table,
            "conv.filters": self.conv.filters,
            "conv.bias": self.conv.bias,
        }
        if self.attention is not None:
            params.update({
                "attention.W_t": self.attention.W_t,
                "attention.W_c": self.attention.W_c,
                "attention.b_t": self.attention.b_t,
                "attention.W_a": self.attention.W_a,
                "attention.b_a": self.attention.b_a,
            })
        params["head.W"] = self.head.W
        params["head.b"] = self.head.b
        return params

    def zero_grad(self):
        for p in self.parameters().values():
            p.zero_grad()

    def fit_batch(self, examples):
        """Right-pad with PAD (or truncate) (token_ids, lang_onehot_or_None)
        pairs into one batch: ids [B, L], lang [B, L, 4] (None without
        lang_features) and lengths [B].

        With windowed pooling the head needs a fixed width, so L is max_len.
        With global pooling the head width is length-independent: L is the
        longest example, and lengths (each example's own length) lets the
        conv block mask the rest. Both are at least the kernel.
        """
        cfg = self.config
        if cfg.global_pool:
            L = max(cfg.kernel, *(len(ids) for ids, _ in examples))
        else:
            L = max(cfg.max_len, cfg.kernel)
        ids = np.zeros((len(examples), L), dtype=np.int64)
        lang = np.zeros((len(examples), L, NUM_LANG_TAGS)) if cfg.lang_features else None
        lengths = np.empty(len(examples), dtype=np.int64)
        for b, (tokens, onehot) in enumerate(examples):
            n = min(len(tokens), L)
            ids[b, :n] = tokens[:n]
            if lang is not None and onehot is not None:
                onehot = np.asarray(onehot, dtype=np.float64)[:L]
                lang[b, :len(onehot)] = onehot
            lengths[b] = max(n, cfg.kernel)
        return ids, lang, lengths

    def forward(self, ids, lang=None, lengths=None):
        """Class probabilities [B, n_classes] for a batch made by fit_batch.

        One id sequence (with its [len, 4] lang one-hot or None) is the
        B-less case: it is fitted as a batch of one and gives [n_classes].
        """
        if np.ndim(ids) == 1:
            return self.forward(*self.fit_batch([(ids, lang)]))[0]
        X = self.embedding.forward(ids)
        # equal ids give equal rows of X, and key % vocab_size is the id
        keys = np.asarray(ids, dtype=np.int64)
        if lang is not None:
            X = np.concatenate([X, lang], axis=-1)
            # equal (id, lang row) pairs give equal rows of [X, lang]
            _, code = np.unique(lang.reshape(-1, lang.shape[-1]), axis=0,
                                return_inverse=True)
            keys = keys + self.config.vocab_size * code.reshape(keys.shape)
        C = self.conv.forward(X, lengths, keys)
        if self.attention is not None:
            G = self.attention.forward(C)
        else:
            G = C.reshape(C.shape[0], -1)
        return self.head.forward(G)

    def backward(self, dlogits):
        """Backward from the gradient at the pre-softmax logits, [B, n_classes]
        (or [n_classes] after a B-less forward)."""
        dG = self.head.backward(dlogits)
        if self.attention is not None:
            dC = self.attention.backward(dG)
        else:
            dC = dG.reshape(dG.shape[0], -1, self.config.filters)
        dK, keys = self.conv.backward(dC)
        self.embedding.backward(dK[:, :self.config.embed_dim], keys)

    def predict(self, ids, lang=None, lengths=None):
        """Argmax class: [B] for a batch, one int for one id sequence.

        Inference runs no backward, so the layers' batch-sized caches are
        dropped rather than held until the next forward.
        """
        labels = np.argmax(self.forward(ids, lang, lengths), axis=-1)
        for layer in (self.conv, self.attention, self.head):
            if layer is not None:
                layer._cache = None
        return labels
