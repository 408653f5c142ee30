"""hcms.tensor plus the ops and model paths that only tests call.

The model multiplies with `@`, computes its tanh inline and never splits a
flat vector, so matmul, add, tanh and concat and their backward passes
(and the cross-entropy gradient at the probabilities, which the fused
softmax gradient replaces) have no caller in the library. They live here
with their tests. Importing this module as `T` gives those tests every
library op and these in one namespace. maxpool1d_backward_where is the
pool backward that finds each window's argmax again, kept as the oracle of
the library's, which reads it off the pooled output. conv1d and
conv1d_backward take raw keys here, as the tests' oracles are written, and
build the layout the library ops take with np.unique (keyed_layout), as
HCMSModel does from its keys; without keys, every position is its own row
and conv1d_backward's dx has x's shape. conv_forward runs a conv block on
that unkeyed layout. fit_batch pads examples into one batch: the oracle of
the padded layout that train._chunks cuts from a prepared corpus. forward
and predict are the model's per-batch oracle: one batch keyed, gathered and
classified on its own, or one id sequence fitted as a batch of one, where
train.predict cuts each batch from a prepared corpus. unique_rows is the
model's keying and gather as they were when the corpus carried language
one-hot rows and named each conv row by its first flat position: one
np.unique over the rows, and a gather at those positions; it is the oracle
of HCMSModel.key's fixed tag codes and of conv_rows' decoding of them.
composed_classify is the model's forward as separate whole-batch ops, the
oracle of the one fan-out per layer that runs them by example slices.
make_layer builds one model layer on its own, its parameters drawn by the
model's init table. dense_grad is a parameter's gradient as one array: the
embedding table's row-sparse gradient densified, the oracle of the dense
[vocab, dim] gradient that the library never builds. build_vocab counts
already-cleaned records' tokens, and encode and encode_corpus encode such
records one token at a time, with no memo: with corpus.clean_corpus, the
reference of corpus.TokenIds.fit and corpus.encode_records, which every
command encodes through. read_conll_file is corpus.iter_conll_file's records
of a file as one list, beside its skipped blocks, as parse_conll gives text's.
"""

from collections import Counter

import numpy as np

from hcms import tensor
from hcms.corpus import (LANG_TAGS, UNK, Vocabulary, _known, _label_position,
                         _lang_position, iter_conll_file)
from hcms.tensor import *  # noqa: F401,F403 - the library ops, re-exported
from hcms.layers import (ConvBlock, DenseHead, EmbeddingLayer, SelfAttentionLayer,
                         init_parameters)
from hcms.tensor import Parameter, ShapeError, _strided, as_tensor
from hcms.train import PROB_FLOOR


# ---------------------------------------------------------------------------
# reading and encoding

def read_conll_file(path, strict=False):
    """(records, skipped) of a UTF-8 file: iter_conll_file's records as one list."""
    skipped = []
    return list(iter_conll_file(path, skipped, strict)), skipped


def build_vocab(records, min_count=1):
    """The vocabulary of cleaned records' tokens, by Vocabulary.from_counts."""
    return Vocabulary.from_counts(Counter(tok for rec in records for tok in rec.tokens),
                                  min_count)


def encode(record, vocab, lang_features):
    """(ids, lang) for an already-cleaned record; lang is the list of the
    tags' indices in LANG_TAGS when lang_features is true, else None. Tags
    are read as parse_conll reads them; RecordError for one that names no tag."""
    lang = None
    if lang_features:
        lang = [_known(_lang_position(t), t, "language tag") for t in record.lang_tags]
    return [vocab.lookup(t) for t in record.tokens], lang


def encode_corpus(records, vocab, lang_features):
    """Encode cleaned records into (ids, lang, label_index) triples. A None (a
    record that cleaned to nothing) encodes as ([UNK], None, None). Labels
    are read as parse_conll reads them; RecordError for one that names no label."""
    return [([UNK], None, None) if rec is None
            else (*encode(rec, vocab, lang_features),
                  None if rec.label is None
                  else _known(_label_position(rec.label), rec.label, "sentiment label"))
            for rec in records]


# ---------------------------------------------------------------------------
# one layer on its own

# a layer's model attribute name, and its parameters' {attribute: shape}, in
# store order, from the layer and its dims
LAYER_SHAPES = {
    EmbeddingLayer: ("embedding", lambda _, vocab, dim: {"table": (vocab, dim)}),
    ConvBlock: ("conv", lambda cb, in_dim, f: {"filters": (f, cb.kernel, in_dim),
                                               "bias": (f,)}),
    SelfAttentionLayer: ("attention", lambda _, dim, h: {
        "W_t": (dim, h), "W_c": (dim, h), "b_t": (h,), "W_a": (h, 1), "b_a": (1,)}),
    DenseHead: ("head", lambda _, in_dim, n: {"W": (in_dim, n), "b": (n,)}),
}


def make_layer(layer, dims, rng):
    """layer with its parameters bound, each drawn from rng by
    layers.init_parameters in store order, as HCMSModel draws them. dims are
    (vocab, dim) for the embedding, (in_dim, filters) for the conv block,
    (dim, hidden) for the attention and (in_dim, classes) for the head."""
    name, shapes = LAYER_SHAPES[type(layer)]
    # the embedding table's gradient is row-sparse, as in HCMSModel
    params = {f"{name}.{attr}": Parameter(np.zeros(shape),
                                          [] if type(layer) is EmbeddingLayer else None)
              for attr, shape in shapes(layer, *dims).items()}
    init_parameters(params, rng)
    for key, param in params.items():
        setattr(layer, key.split(".")[1], param)
    return layer


def dense_grad(param):
    """param's gradient as a new array of its shape. A row-sparse gradient's
    (ids, sums) pairs (tensor.Parameter) are added onto 0.0 at their ids in
    call order, the bits of the dense gradient that each backward once added
    its sums to, and of each block that adam_step builds."""
    if not isinstance(param.grad, list):
        return param.grad.copy()
    grad = np.zeros(param.shape)
    for ids, sums in param.grad:
        grad[ids] += sums
    return grad


# ---------------------------------------------------------------------------
# conv1d with raw keys

def keyed_layout(x, keys=None):
    """tensor.conv1d's layout of x [..., u, d] under keys [..., u], which say
    which rows are equal: the distinct rows in sorted key order, each
    position's row and the sorted distinct keys as the rows' ids. Without
    keys, the unkeyed layout (tensor.distinct_rows)."""
    if keys is None:
        return tensor.distinct_rows(x)
    u, d = x.shape[-2:]
    distinct, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    return x.reshape(-1, d)[first], inv.reshape(-1, u), distinct


def conv1d(x, filters, bias, stride=1, keys=None):
    x = as_tensor(x)
    return tensor.conv1d(x, filters, bias, stride, keyed_layout(x, keys))


def conv1d_backward(dout, x, filters, stride=1, keys=None):
    x = as_tensor(x)
    dx, dfilters, dbias = tensor.conv1d_backward(dout, x, filters, stride,
                                                 keyed_layout(x, keys))
    return (dx.reshape(x.shape) if keys is None else dx), dfilters, dbias


def conv_forward(block, X, lengths=None):
    """ConvBlock.forward on the unkeyed layout of X [..., u, d]: its backward's
    dX then holds one row per position of X, in order."""
    X = as_tensor(X)
    return block.forward(X, lengths, keyed_layout(X))


# ---------------------------------------------------------------------------
# the model on one batch

def fit_batch(model, examples):
    """Right-pad with PAD (or truncate) (token_ids, tag_indices_or_None)
    pairs into one batch: ids [B, L], lang [B, L] (None without
    lang_features; len(LANG_TAGS), no tag, at padding and for None) and
    lengths [B]: the padded layout of each batch that train._chunks cuts
    from a prepared corpus.

    With windowed pooling the head needs a fixed width, so L is max_len.
    With global pooling the head width is length-independent: L is the
    longest example, and lengths (each example's own length) lets the
    conv block mask the rest. Both are at least the kernel, and an example
    with no token is all PAD, of length kernel.
    """
    cfg = model.config
    if cfg.global_pool:
        L = max([cfg.kernel, *(len(ids) for ids, _ in examples)])
    else:
        L = max(cfg.max_len, cfg.kernel)
    ids = np.zeros((len(examples), L), dtype=np.int64)
    lang = np.full((len(examples), L), len(LANG_TAGS)) if cfg.lang_features else None
    lengths = np.empty(len(examples), dtype=np.int64)
    for b, (tokens, tags) in enumerate(examples):
        n = min(len(tokens), L)
        ids[b, :n] = tokens[:n]
        if lang is not None and tags is not None:
            lang[b, :n] = tags[:n]
        lengths[b] = max(n, cfg.kernel)
    return ids, lang, lengths


def forward(model, ids, lang=None, lengths=None, keep=True):
    """Class probabilities [B, n_classes] of a batch in fit_batch's
    layout, keyed (HCMSModel.key), gathered (conv_rows) and classified on its
    own, by default with keep, as a training step, so a backward may follow.
    One id sequence (with its tag indices in LANG_TAGS, one per token, or
    None) is the B-less case: it is fitted as a batch of one and gives
    [n_classes]."""
    if np.ndim(ids) == 1:
        return forward(model, *fit_batch(model, [(ids, lang)]), keep)[0]
    keys, inv = model.key(ids, lang)
    rows, row_ids = model.conv_rows(keys)
    return model.classify((rows, inv, row_ids), lengths, keep=keep)


def lang_onehot(lang):
    """[..., len(LANG_TAGS)] one-hot rows of fit_batch's tag indices [...]: the
    index len(LANG_TAGS) (padding, or an untagged example) is the zero row."""
    return (np.asarray(lang)[..., None] == np.arange(len(LANG_TAGS))).astype(np.float64)


def unique_rows(model, ids, lang=None):
    """(rows [n, d], row_ids [n], inv [B, L]): HCMSModel.conv_rows of
    HCMSModel.key's keys, and key's inv, as the model once computed them from
    one-hot language rows. Each position's code is its row's rank among the
    batch's distinct rows (one np.unique over them, lexicographic), so it
    names only the rows present; each distinct row is gathered at first, the
    flat position where it first occurs."""
    keys = model.embedding.check(ids)
    if lang is not None:
        _, code = np.unique(lang_onehot(lang).reshape(-1, len(LANG_TAGS)), axis=0,
                            return_inverse=True)
        keys = keys + model.config.vocab_size * code.reshape(keys.shape)
    _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    row_ids = np.ravel(ids)[first]
    rows = model.embedding.table.value[row_ids]
    if lang is not None:
        rows = np.concatenate([rows, lang_onehot(np.ravel(lang)[first])], axis=-1)
    return rows, row_ids, inv.reshape(keys.shape)


def predict(model, ids, lang=None, lengths=None):
    """Argmax class of an inference forward (no keep, so no layer caches
    anything, as in train.predict): [B] for a batch, one int for one id
    sequence."""
    return model._labels(forward(model, ids, lang, lengths, keep=False))


def composed_classify(model, layout, lengths=None):
    """{"R", "C", "H", "S", "Q", "A", "probs"} of HCMSModel.classify's
    forward on a batch's layout, composed of whole-batch ops as it was before
    each example slice ran its layer's rows in one fan-out: conv1d, relu, the
    global_pool length mask and maxpool1d; the pair scores H and their raw
    scores, sigmoid, the self mask, softmax and Q @ C; then the head. Without
    attention, H, S, Q and A are absent."""
    cfg, conv, out = model.config, model.conv, {}
    X = np.broadcast_to(0.0, layout[1].shape + conv.filters.shape[2:])
    R = out["R"] = relu(tensor.conv1d(X, conv.filters.value, conv.bias.value, cfg.stride,
                                      layout))
    pool, stride = cfg.pool, cfg.pool_stride
    if cfg.global_pool:
        pool, stride = R.shape[-2], 1
        if lengths is not None:
            R[np.arange(pool) >= conv._conv_len(np.asarray(lengths))[:, None]] = -np.inf
    C = out["C"] = maxpool1d(R, pool, stride)
    G = C.reshape(len(C), -1)
    if model.attention is not None:
        att, v = model.attention, C.shape[-2]
        H = (C @ att.W_t.value)[:, :, None, :] + (C @ att.W_c.value)[:, None, :, :]
        H += att.b_t.value
        np.tanh(H, out=H)
        E = H @ att.W_a.value[:, 0] + att.b_a.value[0]
        S = sigmoid(E) if cfg.score_sigmoid else E
        logits = S.copy()
        if not cfg.include_self:
            logits[..., range(v), range(v)] = -np.inf
        Q = softmax(logits)
        A = Q @ C
        out.update(H=H, S=S, Q=Q, A=A)
        G = A.reshape(len(A), -1)
    out["probs"] = model.head.forward(G, keep=False)
    return out


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
# maxpool1d backward, argmax found again by a where loop

def maxpool1d_backward_where(dout, x, pool, stride):
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
# loss

def cross_entropy_backward(y_onehot, probs):
    """Gradient of the loss w.r.t. the probabilities themselves."""
    y = np.asarray(y_onehot, dtype=np.float64)
    p = np.maximum(np.asarray(probs, dtype=np.float64), PROB_FLOOR)
    return -y / p
