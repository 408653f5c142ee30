import numpy as np
import pytest

from hcms import tensor as T
from hcms.layers import (AttentionDomainError, ConvBlock, DenseHead,
                         EmbeddingLayer, HCMSModel, ModelConfig, NoForwardError,
                         SelfAttentionLayer, VocabularyError)
from hcms.train import cross_entropy, cross_entropy_softmax_grad
from conftest import assert_close, central_diff
from extra_ops import (conv_forward, dense_grad, fit_batch, forward, lang_onehot,
                       make_layer, predict, unique_rows)


def attention_oracle(C, layer):
    """Direct pairwise-loop reference for self-attention (no vectorization)."""
    v, d = C.shape
    A = np.zeros((v, d))
    for t in range(v):
        others = [tp for tp in range(v) if layer.include_self or tp != t]
        scores = []
        for tp in others:
            h = np.tanh(C[t] @ layer.W_t.value + C[tp] @ layer.W_c.value
                        + layer.b_t.value)
            e = float(h @ layer.W_a.value[:, 0] + layer.b_a.value[0])
            if layer.score_sigmoid:
                e = 1.0 / (1.0 + np.exp(-e))
            scores.append(e)
        exps = np.exp(np.array(scores) - max(scores))
        q = exps / exps.sum()
        for w, tp in zip(q, others):
            A[t] += w * C[tp]
    return A.ravel()


# ---------------------------------------------------------------------------
# embedding

def test_embed_pad_rows_are_zero(rng):
    layer = make_layer(EmbeddingLayer(), (10, 4), rng)
    out = layer.forward([0, 0])
    assert np.all(out == 0)


def test_embed_shape(rng):
    layer = make_layer(EmbeddingLayer(), (10, 4), rng)
    assert layer.forward([1, 2, 3, 4, 5]).shape == (5, 4)


def test_embed_lookup():
    layer = make_layer(EmbeddingLayer(), (3, 2), np.random.default_rng(0))
    layer.table.value[1] = [1.0, 2.0]
    assert layer.forward([1, 1]).tolist() == [[1, 2], [1, 2]]


def test_embed_out_of_range(rng):
    layer = make_layer(EmbeddingLayer(), (5, 2), rng)
    with pytest.raises(VocabularyError):
        layer.forward([5])


def test_embed_backward_skips_pad(rng):
    layer = make_layer(EmbeddingLayer(), (5, 3), rng)
    keys, dK = T.group_sum(np.array([0, 2, 2]), np.ones((3, 3)))
    layer.backward(dK, keys)
    assert np.all(dense_grad(layer.table)[0] == 0)
    assert np.all(dense_grad(layer.table)[2] == 2)
    assert [ids.tolist() for ids, _ in layer.table.grad] == [[2]]  # no PAD row kept


def test_embed_backward_matches_scatter(rng):
    # reference: one np.add.at scatter of every non-PAD row; the rows are
    # summed by keys that carry a code above the ids, as HCMSModel's do under
    # lang_features, so an id has several rows
    layer = make_layer(EmbeddingLayer(), (6, 3), rng)
    ids = rng.integers(0, 6, size=(4, 9))
    dX = rng.uniform(-1, 1, size=(4, 9, 3))
    want = np.zeros(layer.table.shape)
    np.add.at(want, ids[ids != 0], dX[ids != 0])
    keys, dK = T.group_sum(ids + 6 * rng.integers(0, 3, size=ids.shape),
                           dX.reshape(-1, 3))
    layer.backward(dK, keys % 6)
    assert_close(dense_grad(layer.table), want, rtol=1e-12, atol=1e-12)
    keys, dK = T.group_sum(np.zeros(10, dtype=np.int64), dX[:2, :5].reshape(-1, 3))
    layer.backward(dK, keys)  # all PAD: no gradient
    assert_close(dense_grad(layer.table), want, rtol=1e-12, atol=1e-12)


def test_embed_backward_calls_add_up_in_call_order(rng):
    # two backward calls before one step keep two (ids, sums) pairs, whose
    # densified sum has the bits of the dense gradient each call once added
    # its sums to: 0.0 + sums of the first + sums of the second, row by row
    layer = make_layer(EmbeddingLayer(), (7, 3), rng)
    want = np.zeros(layer.table.shape)
    for _ in range(2):
        ids = rng.integers(0, 7, size=12)
        dK = rng.normal(size=(12, 3))
        keys, sums = T.group_sum(ids, dK)
        want[keys[keys != 0]] += sums[keys != 0]
        layer.backward(dK, ids)
    assert len(layer.table.grad) == 2
    assert all(np.array_equal(ids, np.unique(ids)) and ids[0] > 0
               for ids, _ in layer.table.grad)  # distinct, sorted, no PAD
    assert dense_grad(layer.table).tobytes() == want.tobytes()
    layer.table.zero_grad()
    assert layer.table.grad == []


# ---------------------------------------------------------------------------
# conv block

def test_conv_block_zero_filters(rng):
    cb = make_layer(ConvBlock(2, 1, 2, 2, False), (3, 2), rng)
    cb.filters.value[:] = 0
    out = conv_forward(cb, rng.normal(size=(6, 3)))
    assert out.shape == (2, 2)
    assert np.all(out == 0)


def test_conv_block_length_arithmetic(rng):
    cb = make_layer(ConvBlock(8, 1, 2, 2, False), (4, 5), rng)
    cfg = ModelConfig(vocab_size=1, kernel=cb.kernel, stride=cb.stride, pool=cb.pool,
                      pool_stride=cb.pool_stride, global_pool=cb.global_pool)
    assert cfg.out_len(32) == 12
    assert conv_forward(cb, rng.normal(size=(32, 4))).shape == (12, 5)


def test_conv_block_hand_composition(rng):
    # conv output [3,5,7], all positive so ReLU is identity; pool(2,1) -> [5,7]
    cb = make_layer(ConvBlock(2, 1, 2, 1, False), (1, 1), rng)
    cb.filters.value[:] = 1.0
    cb.bias.value[:] = 0.0
    out = conv_forward(cb, np.array([[1.0], [2.0], [3.0], [4.0]]))
    assert out.ravel().tolist() == [5, 7]


def test_conv_block_global_pool(rng):
    cb = make_layer(ConvBlock(2, 1, 2, 2, True), (2, 3), rng)
    out = conv_forward(cb, rng.normal(size=(9, 2)))
    assert out.shape == (1, 3)


# ---------------------------------------------------------------------------
# self-attention

def test_attention_two_vectors_swap(rng):
    att = make_layer(SelfAttentionLayer(include_self=False, score_sigmoid=True), (3, 4), rng)
    C = rng.normal(size=(2, 3))
    G = att.forward(C)
    assert_close(G, np.concatenate([C[1], C[0]]), rtol=0, atol=1e-12)


def test_attention_identical_vectors(rng):
    att = make_layer(SelfAttentionLayer(include_self=True, score_sigmoid=True), (3, 4), rng)
    c = rng.normal(size=3)
    G = att.forward(np.tile(c, (3, 1)))
    assert_close(G, np.tile(c, 3), rtol=0, atol=1e-12)


def test_attention_matches_pairwise_oracle(rng):
    for include_self in (False, True):
        for sigmoid in (True, False):
            att = make_layer(SelfAttentionLayer(include_self, sigmoid), (3, 4), rng)
            C = rng.uniform(-2, 2, size=(4, 3))
            assert_close(att.forward(C), attention_oracle(C, att),
                         rtol=0, atol=1e-10)


def test_attention_domain_error(rng):
    att = make_layer(SelfAttentionLayer(include_self=False, score_sigmoid=True), (3, 4), rng)
    with pytest.raises(AttentionDomainError):
        att.forward(rng.normal(size=(1, 3)))


def test_attention_weight_rows(rng):
    att = make_layer(SelfAttentionLayer(include_self=False, score_sigmoid=True), (3, 4), rng)
    for _ in range(20):
        att.forward(rng.uniform(-2, 2, size=(5, 3)))
        Q = att._cache[3]
        assert np.abs(Q.sum(axis=1) - 1).max() < 1e-6
        off_diag = Q[~np.eye(5, dtype=bool)]
        assert np.all((off_diag > 0) & (off_diag < 1))
        assert np.all(np.diag(Q) == 0)


def test_attention_convex_hull(rng):
    att = make_layer(SelfAttentionLayer(include_self=False, score_sigmoid=True), (3, 4), rng)
    for _ in range(20):
        C = rng.uniform(-2, 2, size=(5, 3))
        A = att.forward(C).reshape(5, 3)
        for t in range(5):
            others = C[[tp for tp in range(5) if tp != t]]
            assert np.all(A[t] >= others.min(axis=0) - 1e-12)
            assert np.all(A[t] <= others.max(axis=0) + 1e-12)


def test_attention_key_permutation_invariance(rng):
    # with include_self the attended set is the same for every query, so
    # permuting the rows just permutes which a_t is which
    att = make_layer(SelfAttentionLayer(include_self=True, score_sigmoid=True), (3, 4), rng)
    C = rng.uniform(-2, 2, size=(5, 3))
    A = att.forward(C).reshape(5, 3)
    perm = rng.permutation(5)
    A2 = att.forward(C[perm]).reshape(5, 3)
    assert_close(A2, A[perm], rtol=0, atol=1e-12)
    # G itself is positional: a nontrivial permutation changes it
    assert not np.allclose(att.forward(C[[1, 0, 2, 3, 4]]), A.ravel())


def test_attention_gradcheck(rng):
    att = make_layer(SelfAttentionLayer(include_self=False, score_sigmoid=True), (3, 5), rng)
    C = rng.uniform(-2, 2, size=(4, 3))
    w = rng.uniform(-1, 1, size=12)
    att.forward(C)
    for p in (att.W_t, att.W_c, att.b_t, att.W_a, att.b_a):
        p.zero_grad()
    dC = att.backward(w)
    assert_close(dC, central_diff(lambda a: float(att.forward(a) @ w), C))
    for par in (att.W_t, att.W_c, att.b_t, att.W_a, att.b_a):
        def f(a, par=par):
            saved = par.value.copy()
            par.value[...] = a
            out = float(att.forward(C) @ w)
            par.value[...] = saved
            return out
        assert_close(par.grad, central_diff(f, par.value.copy()))


# ---------------------------------------------------------------------------
# dense head

def test_dense_head_zero_weights(rng):
    head = make_layer(DenseHead(), (4, 3), rng)
    head.W.value[:] = 0
    head.b.value[:] = 0
    assert_close(head.forward(rng.normal(size=4)), [1 / 3] * 3, rtol=0, atol=1e-12)


def test_dense_head_log_bias(rng):
    head = make_layer(DenseHead(), (4, 3), rng)
    head.W.value[:] = 0
    head.b.value[:] = np.log([1.0, 2.0, 3.0])
    assert_close(head.forward(np.zeros(4)), [1 / 6, 2 / 6, 3 / 6], rtol=0, atol=1e-12)


def test_dense_head_probabilities_sum(rng):
    head = make_layer(DenseHead(), (6, 3), rng)
    for _ in range(20):
        p = head.forward(rng.uniform(-2, 2, size=6))
        assert abs(p.sum() - 1) < 1e-6


# ---------------------------------------------------------------------------
# full model

def tiny_config(**overrides):
    base = dict(vocab_size=20, embed_dim=4, filters=3, kernel=2, stride=1,
                pool=2, pool_stride=1, attn_hidden=5, max_len=8)
    base.update(overrides)
    return ModelConfig(**base)


def test_model_determinism():
    ids = [2, 5, 3, 7, 2, 4]
    p1 = forward(HCMSModel(tiny_config(), seed=3), ids)
    p2 = forward(HCMSModel(tiny_config(), seed=3), ids)
    assert p1.tobytes() == p2.tobytes()


def test_model_predict_is_argmax(rng):
    m = HCMSModel(tiny_config(), seed=3)
    ids = list(rng.integers(2, 20, size=6))
    assert predict(m, ids) == int(np.argmax(forward(m, ids)))


def test_attention_disabled_equals_direct_composition(rng):
    m = HCMSModel(tiny_config(attention_enabled=False), seed=4)
    for _ in range(10):
        ids = list(rng.integers(2, 20, size=8))
        probs = forward(m, ids)
        X = m.embedding.table.value[np.asarray(ids)]
        C = conv_forward(m.conv, X)
        expected = m.head.forward(C.ravel())
        assert np.array_equal(probs, expected)


def test_short_sequence_padded_to_kernel():
    m = HCMSModel(tiny_config(max_len=2, pool=1, kernel=4,
                              attention_enabled=False), seed=0)
    p = forward(m, [2])  # shorter than the kernel: right-padded with PAD
    assert abs(p.sum() - 1) < 1e-6


def test_end_to_end_gradcheck(rng):
    m = HCMSModel(tiny_config(), seed=1)
    # nonzero bias keeps PAD-window conv outputs off the ReLU kink
    m.conv.bias.value[:] = rng.normal(scale=0.1, size=3)
    ids = [2, 3, 4, 5, 6, 7, 8, 9]
    y = np.array([0.0, 1.0, 0.0])

    def loss():
        return cross_entropy(y, forward(m, ids))

    m.zero_grad()
    m.backward(cross_entropy_softmax_grad(y, forward(m, ids)))
    for name, par in m.parameters().items():
        grad = dense_grad(par)

        def f(a, par=par):
            saved = par.value.copy()
            par.value[...] = a
            out = loss()
            par.value[...] = saved
            return out

        numeric = central_diff(f, par.value.copy())
        if name == "embedding.table":
            numeric[0] = 0.0  # PAD row is frozen by design
        assert_close(grad, numeric, rtol=1e-3)


def test_lang_feature_model(rng):
    m = HCMSModel(tiny_config(lang_features=True), seed=2)
    p = forward(m, [2, 3, 4, 5], [0, 0, 0, 0])  # all HIN
    assert abs(p.sum() - 1) < 1e-6
    # backward runs and only embeds real token gradients
    m.zero_grad()
    m.backward(cross_entropy_softmax_grad(np.array([1.0, 0, 0]), p))
    assert np.all(dense_grad(m.embedding.table)[0] == 0)


# ---------------------------------------------------------------------------
# batched model: one [B, ...] pass equals the per-example passes

BATCH_CONFIGS = {
    "default_shape": dict(pool_stride=2),
    "global_pool": dict(global_pool=True, include_self=True),
    "lang_features": dict(lang_features=True),
    "stride_2": dict(stride=2, pool_stride=2),
    "overlapping_pool": dict(pool=3, pool_stride=1),
    "attention_disabled": dict(attention_enabled=False),
}


def _ragged_batch(rng, cfg):
    """Three examples of different lengths, one shorter than the kernel
    and one longer than max_len. No token repeats within an example, which
    keeps two pooled windows from tying by chance."""
    examples = []
    for n in (1, 5, 11):
        tags = rng.integers(4, size=n) if cfg.lang_features else None
        examples.append((list(rng.choice(np.arange(2, 20), size=n, replace=False)), tags))
    return examples, np.eye(3)[[0, 2, 1]]


@pytest.mark.parametrize("overrides", BATCH_CONFIGS.values(), ids=BATCH_CONFIGS)
def test_batched_matches_stacked(rng, overrides):
    m = HCMSModel(tiny_config(**overrides), seed=6)
    m.conv.bias.value[:] = rng.normal(scale=0.1, size=3)
    examples, Y = _ragged_batch(rng, m.config)
    params = m.parameters()

    probs, grads = [], {k: np.zeros(p.shape) for k, p in params.items()}
    for (ids, tags), y in zip(examples, Y):
        m.zero_grad()
        probs.append(forward(m, ids, tags))
        m.backward(cross_entropy_softmax_grad(y, probs[-1]))
        for k, p in params.items():
            grads[k] += dense_grad(p)

    m.zero_grad()
    P = forward(m, *fit_batch(m, examples))
    m.backward(cross_entropy_softmax_grad(Y, P))
    assert_close(P, np.stack(probs), rtol=0, atol=1e-12)
    for k, p in params.items():
        assert_close(dense_grad(p), grads[k], rtol=0, atol=1e-12)


def test_global_pool_masks_padding(rng):
    # windows over padding alone output the bias, which here beats every
    # real window: the batch matches the examples run alone only if the
    # padding is masked out of the max
    m = HCMSModel(tiny_config(global_pool=True, attention_enabled=False), seed=6)
    m.conv.bias.value[:] = 1.0
    m.conv.filters.value[:] = np.abs(m.conv.filters.value)
    m.embedding.table.value[1:] = -np.abs(m.embedding.table.value[1:])
    examples, _ = _ragged_batch(rng, m.config)
    P = forward(m, *fit_batch(m, examples))
    assert_close(P, np.stack([forward(m, ids) for ids, _ in examples]), rtol=0, atol=1e-12)


def test_batched_loss_gradcheck(rng):
    m = HCMSModel(tiny_config(), seed=8)
    m.conv.bias.value[:] = rng.normal(scale=0.1, size=3)  # off the ReLU kink
    examples, Y = _ragged_batch(rng, m.config)
    batch = fit_batch(m, examples)

    m.zero_grad()
    m.backward(cross_entropy_softmax_grad(Y, forward(m, *batch)))
    for name, par in m.parameters().items():
        def f(a, par=par):
            saved = par.value.copy()
            par.value[...] = a
            out = cross_entropy(Y, forward(m, *batch))
            par.value[...] = saved
            return out

        numeric = central_diff(f, par.value.copy())
        if name == "embedding.table":
            numeric[0] = 0.0  # PAD row is frozen by design
        assert_close(dense_grad(par), numeric, rtol=1e-3)


# ---------------------------------------------------------------------------
# forward caches: one forward serves one backward

def test_caches_released_after_backward_and_predict(rng):
    m = HCMSModel(tiny_config(), seed=5)
    examples, Y = _ragged_batch(rng, m.config)
    batch = fit_batch(m, examples)
    layers = (m.conv, m.attention, m.head)
    m.backward(cross_entropy_softmax_grad(Y, forward(m, *batch)))
    assert all(layer._cache is None for layer in layers)
    predict(m, *batch)
    assert all(layer._cache is None for layer in layers)


def test_step_gathers_only_distinct_rows(rng, monkeypatch):
    # no [B, u, d] embedding output: a training step gathers each distinct
    # (id, lang tag) of its batch once, from one 1-D id array
    m = HCMSModel(tiny_config(lang_features=True), seed=5)
    gathers, embed = [], m.embedding.forward
    monkeypatch.setattr(m.embedding, "forward",
                        lambda ids: gathers.append(np.shape(ids)) or embed(ids))
    examples, Y = _ragged_batch(rng, m.config)
    ids, lang, lengths = fit_batch(m, examples)
    m.backward(cross_entropy_softmax_grad(Y, forward(m, ids, lang, lengths)))
    distinct = set(zip(ids.ravel().tolist(), lang.ravel().tolist()))
    assert gathers == [(len(distinct),)]
    assert np.abs(dense_grad(m.embedding.table)).max() > 0


def test_backward_needs_fresh_forward(rng):
    m = HCMSModel(tiny_config(), seed=5)
    examples, Y = _ragged_batch(rng, m.config)
    batch = fit_batch(m, examples)
    dlogits = cross_entropy_softmax_grad(Y, np.full(Y.shape, 1 / 3))
    with pytest.raises(NoForwardError, match="DenseHead"):
        m.backward(dlogits)
    m.backward(cross_entropy_softmax_grad(Y, forward(m, *batch)))
    with pytest.raises(NoForwardError, match="DenseHead"):
        m.backward(dlogits)
    predict(m, *batch)
    C = np.zeros((len(Y), 6, 3))
    with pytest.raises(NoForwardError, match="SelfAttentionLayer"):
        m.attention.backward(C.reshape(len(Y), -1))
    with pytest.raises(NoForwardError, match="ConvBlock"):
        m.conv.backward(C)


# ---------------------------------------------------------------------------
# keyed conv forward: the model's keys only name rows that are equal

def unkeyed_forward(m, ids, lang, lengths):
    """extra_ops.forward with the conv run on every position (keys=None)."""
    X = m.embedding.forward(ids)
    if lang is not None:
        X = np.concatenate([X, lang_onehot(lang)], axis=-1)
    C = conv_forward(m.conv, X, lengths)
    G = m.attention.forward(C) if m.attention is not None else C.reshape(len(C), -1)
    return m.head.forward(G)


KEYED_CONFIGS = {
    "default_shape": dict(pool_stride=2),
    "lang_features": dict(lang_features=True),
    "global_pool": dict(global_pool=True, include_self=True),
    "stride_2": dict(stride=2, pool_stride=2),
}


def keyed_batch(rng, m):
    """Four examples over three token types, so every id recurs, and every
    example but the longest ends in PAD. Under lang_features the ids recur
    under different tags drawn from three of the four, and the 5-token
    example is untagged (None)."""
    present = rng.choice(4, size=3, replace=False)
    return fit_batch(m, [(list(rng.integers(2, 5, size=n)),
                         rng.choice(present, size=n)
                         if m.config.lang_features and n != 5 else None)
                        for n in (1, 5, 6, 11)])


@pytest.mark.parametrize("overrides", KEYED_CONFIGS.values(), ids=KEYED_CONFIGS)
def test_keyed_forward_matches_unkeyed(rng, overrides):
    # the keys also give the layout that one np.unique over the one-hot rows
    # gave, whose codes name only the rows present, and conv_rows decodes
    # them to the rows that a gather at each row's first position gave: the
    # conv rows, and so the backward's summation order, are unchanged
    m = HCMSModel(tiny_config(**overrides), seed=6)
    m.conv.bias.value[:] = rng.normal(scale=0.1, size=3)
    for _ in range(5):
        batch = keyed_batch(rng, m)
        keys, inv = m.key(*batch[:2])
        for got, want in zip((*m.conv_rows(keys), inv), unique_rows(m, *batch[:2]),
                             strict=True):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                            want.tobytes())
        assert_close(forward(m, *batch), unkeyed_forward(m, *batch), rtol=0, atol=1e-12)


def unkeyed_backward(m, ids, dlogits):
    """HCMSModel.backward after unkeyed_forward, up to the embedding: the
    conv's dX has a row per position. Returns the table's dense gradient,
    each non-PAD position's gradient scattered onto its row."""
    dG = m.head.backward(dlogits)
    dC = m.attention.backward(dG) if m.attention is not None else dG.reshape(
        len(ids), -1, m.config.filters)
    dX = m.conv.backward(dC)[0].reshape(ids.shape + (-1,))
    real, grad = ids != 0, np.zeros(m.embedding.table.shape)
    np.add.at(grad, ids[real], dX[..., :m.config.embed_dim][real])
    return grad


@pytest.mark.parametrize("overrides", KEYED_CONFIGS.values(), ids=KEYED_CONFIGS)
def test_keyed_backward_matches_unkeyed(rng, overrides):
    m = HCMSModel(tiny_config(**overrides), seed=6)
    m.conv.bias.value[:] = rng.normal(scale=0.1, size=3)
    batch = keyed_batch(rng, m)
    Y = np.eye(3)[rng.integers(3, size=len(batch[0]))]
    m.backward(cross_entropy_softmax_grad(Y, forward(m, *batch)))
    keyed = {name: dense_grad(p) for name, p in m.parameters().items()}
    m.zero_grad()
    table = unkeyed_backward(m, batch[0],
                             cross_entropy_softmax_grad(Y, unkeyed_forward(m, *batch)))
    assert all(np.abs(keyed[name]).max() > 0 for name in ("embedding.table", "conv.filters"))
    for name, p in m.parameters().items():
        assert_close(keyed[name], table if name == "embedding.table" else p.grad,
                     rtol=0, atol=1e-12)


def test_forward_checks_ids_before_keying():
    # the training step's twin of test_predict_checks_ids_before_keying: id -1
    # under HIN keys to -1 + 16 * 4, the key of id 15 under ENG (codes: no tag
    # 0, EMT 1, O 2, ENG 3, HIN 4), so only a check of the ids themselves sees it
    m = HCMSModel(tiny_config(vocab_size=16, lang_features=True), seed=0)
    good = fit_batch(m, [([15], [1]), ([3], [0])])
    Y = np.eye(3)[[0, 1]]
    m.backward(cross_entropy_softmax_grad(Y, forward(m, *good)))
    grads = [dense_grad(p) for p in m.parameters().values()]
    bad = fit_batch(m, [([15], [1]), ([-1], [0])])
    with pytest.raises(VocabularyError):
        forward(m, *bad)
    with pytest.raises(NoForwardError):  # the failed forward left nothing to backward
        m.backward(cross_entropy_softmax_grad(Y, np.full(Y.shape, 1 / 3)))
    assert [dense_grad(p).tobytes() for p in m.parameters().values()] == [
        g.tobytes() for g in grads]
