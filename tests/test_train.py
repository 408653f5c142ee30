import functools
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from hcms import layers as layers_module
from hcms import tensor as T
from hcms import train as train_module
from hcms.corpus import RecordError
from hcms.layers import (AttentionDomainError, ConfigError, HCMSModel, ModelConfig,
                         VocabularyError)
from hcms.train import (AdamState, CheckpointCorruptError, CheckpointShapeError,
                        CheckpointVersionError, DataError, DivergenceError,
                        LabelError,
                        OptimizerConfig, Parameter, TrainConfig, adam_step,
                        cross_entropy, cross_entropy_softmax_grad,
                        _chunks, load_checkpoint, predict, prepare, save_checkpoint,
                        train)
from conftest import assert_close
from extra_ops import (cross_entropy_backward, dense_grad, fit_batch, forward,
                       predict as model_predict)

DEFAULT_OPT = OptimizerConfig(lr=0.01, beta1=0.9, beta2=0.99, epsilon=1e-7)


def tiny_config(**overrides):
    base = dict(vocab_size=16, embed_dim=4, filters=3, kernel=2, stride=1,
                pool=2, pool_stride=1, attn_hidden=5, max_len=8)
    base.update(overrides)
    return ModelConfig(**base)


# one token per row of tiny_config's embedding table
VOCAB = ["<pad>", "<unk>"] + [f"tok{i}" for i in range(14)]


def tiny_data(rng, n=8, vocab=16, length=6):
    return [(list(rng.integers(2, vocab, size=length)), None, int(rng.integers(3)))
            for _ in range(n)]


# ---------------------------------------------------------------------------
# cross-entropy

def test_ce_perfect_prediction():
    assert cross_entropy([1, 0, 0], [1.0, 0.0, 0.0]) == 0.0


def test_ce_hand_ln2():
    loss = cross_entropy([1, 0, 0], [0.5, 0.25, 0.25])
    assert loss == pytest.approx(math.log(2), abs=1e-9)


def test_ce_uniform_ln3():
    loss = cross_entropy([0, 0, 1], [1 / 3, 1 / 3, 1 / 3])
    assert loss == pytest.approx(math.log(3), abs=1e-9)


def test_ce_rejects_non_onehot():
    with pytest.raises(LabelError):
        cross_entropy([1, 1, 0], [0.5, 0.25, 0.25])
    with pytest.raises(LabelError):
        cross_entropy([0.5, 0.5, 0], [0.5, 0.25, 0.25])


def test_ce_nonnegative_and_floored(rng):
    for _ in range(50):
        p = T.softmax(rng.uniform(-5, 5, size=3))
        y = np.zeros(3)
        y[rng.integers(3)] = 1
        assert cross_entropy(y, p) >= 0
    # the floor keeps a hard zero finite
    assert np.isfinite(cross_entropy([1, 0, 0], [0.0, 0.5, 0.5]))


def test_fused_grad_matches_composed(rng):
    for _ in range(100):
        logits = rng.uniform(-3, 3, size=3)
        probs = T.softmax(logits)
        y = np.zeros(3)
        y[rng.integers(3)] = 1
        fused = cross_entropy_softmax_grad(y, probs)
        composed = T.softmax_backward(cross_entropy_backward(y, probs), probs)
        assert np.abs(fused - composed).max() < 1e-8


# ---------------------------------------------------------------------------
# Adam

def test_adam_zero_gradient_is_noop():
    p = Parameter(np.array([1.0, -2.0]))
    s = AdamState(p)
    adam_step(p, s, DEFAULT_OPT)
    assert p.value.tolist() == [1.0, -2.0]
    assert s.step == 1


def test_adam_first_step_hand_value():
    p = Parameter(np.array([0.0]))
    p.grad[:] = 1.0
    adam_step(p, AdamState(p), DEFAULT_OPT)
    expected = 0.01 * 1.0 / (1.0 + 1e-7)
    assert p.value[0] == pytest.approx(-expected, rel=1e-12)


def test_adam_two_steps_bias_correction():
    p = Parameter(np.array([0.0]))
    s = AdamState(p)
    g = 0.7
    for _ in range(2):
        p.grad[:] = g
        adam_step(p, s, DEFAULT_OPT)
    assert s.step == 2
    v_hat = s.v / (1 - DEFAULT_OPT.beta2 ** 2)
    assert v_hat[0] == pytest.approx(g * g, rel=1e-12)


def test_adam_first_step_magnitude_is_lr(rng):
    for _ in range(50):
        g = float(rng.uniform(0.05, 100.0)) * (1 if rng.integers(2) else -1)
        p = Parameter(np.array([3.0]))
        p.grad[:] = g
        adam_step(p, AdamState(p), DEFAULT_OPT)
        update = abs(p.value[0] - 3.0)
        assert update == pytest.approx(DEFAULT_OPT.lr, rel=1e-5)
        assert math.copysign(1, 3.0 - p.value[0]) == math.copysign(1, g)


def test_adam_grad_zeroed_after_step():
    p = Parameter(np.array([0.0]))
    p.grad[:] = 1.0
    adam_step(p, AdamState(p), DEFAULT_OPT)
    assert np.all(p.grad == 0)


# ---------------------------------------------------------------------------
# training loop

def test_train_empty_corpus():
    m = HCMSModel(tiny_config(), seed=0)
    with pytest.raises(DataError):
        train(m, [], [], TrainConfig(epochs=1), DEFAULT_OPT)


@pytest.mark.parametrize("split", ["train", "val"])
@pytest.mark.parametrize("label", [None, -1, 3], ids=["none", "minus_one", "three"])
def test_train_rejects_bad_labels(rng, split, label):
    # checked before the first step: nothing trains as a wrapped-around class
    data = {"train": tiny_data(rng), "val": tiny_data(rng, n=3)}
    data[split][1] = data[split][1][:2] + (label,)
    m = HCMSModel(tiny_config(), seed=0)
    before = m.store.value.copy()
    with pytest.raises(DataError):
        train(m, data["train"], data["val"], TrainConfig(epochs=1, batch_size=4),
              DEFAULT_OPT)
    assert m.store.value.tobytes() == before.tobytes()


@pytest.mark.parametrize("setting", [dict(batch_size=0), dict(batch_size=2.0),
                                     dict(seed=-1), dict(epochs=0)],
                         ids=["batch_size=0", "batch_size=2.0", "seed=-1", "epochs=0"])
def test_train_rejects_bad_train_config(rng, setting):
    # the CLI's run-config rules hold for a library call too
    m = HCMSModel(tiny_config(), seed=0)
    before = m.store.value.copy()
    with pytest.raises(ConfigError):
        train(m, tiny_data(rng), [], TrainConfig(**{"epochs": 1, "batch_size": 4, **setting}),
              DEFAULT_OPT)
    assert m.store.value.tobytes() == before.tobytes()


@pytest.mark.parametrize("setting", [
    dict(lr=-0.01), dict(lr=float("nan")), dict(lr=float("inf")), dict(lr=1),
    dict(epsilon=0.0), dict(epsilon=-1e-7), dict(epsilon=float("nan")),
    dict(beta1=1.0), dict(beta1=float("nan")), dict(beta2=-0.1)],
    ids=["lr=-0.01", "lr=nan", "lr=inf", "lr=int", "epsilon=0", "epsilon<0",
         "epsilon=nan", "beta1=1", "beta1=nan", "beta2<0"])
def test_train_rejects_bad_optimizer_config(rng, setting):
    # a library call meets the CLI's optimizer rules, lr=0.0 aside
    m = HCMSModel(tiny_config(), seed=0)
    before = m.store.value.copy()
    with pytest.raises(ConfigError):
        train(m, tiny_data(rng), [], TrainConfig(epochs=1, batch_size=4),
              OptimizerConfig(**setting))
    assert m.store.value.tobytes() == before.tobytes()


def test_train_zero_lr_leaves_params(rng):
    m = HCMSModel(tiny_config(), seed=0)
    before = {k: p.value.copy() for k, p in m.parameters().items()}
    data = tiny_data(rng, n=1)
    train(m, data, [], TrainConfig(epochs=1, batch_size=1),
          OptimizerConfig(lr=0.0))
    for k, p in m.parameters().items():
        assert np.array_equal(p.value, before[k])


def test_train_determinism(rng):
    data = tiny_data(rng, n=10)
    val = tiny_data(rng, n=4)
    logs = []
    for _ in range(2):
        m = HCMSModel(tiny_config(), seed=5)
        logs.append(train(m, data, val, TrainConfig(epochs=3, batch_size=4, seed=9),
                          DEFAULT_OPT))
    assert logs[0] == logs[1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflow
def test_train_raises_on_nonfinite_loss(rng):
    m = HCMSModel(tiny_config(), seed=0)
    with pytest.raises(DivergenceError, match="batch loss"):
        train(m, tiny_data(rng), [], TrainConfig(epochs=3, batch_size=4),
              OptimizerConfig(lr=1e300))


def test_train_raises_on_nonfinite_parameters(rng):
    # an embedding row no example reads: the losses stay finite, and Adam
    # leaves the row as it is
    m = HCMSModel(tiny_config(), seed=0)
    m.embedding.table.value[15] = np.inf
    with pytest.raises(DivergenceError, match="non-finite parameters"):
        train(m, tiny_data(rng, vocab=15), [], TrainConfig(epochs=1, batch_size=4),
              DEFAULT_OPT)


def test_single_step_decreases_loss(rng):
    for trial in range(5):
        m = HCMSModel(tiny_config(), seed=trial)
        ids = list(rng.integers(2, 16, size=6))
        label = int(rng.integers(3))
        y = np.zeros(3)
        y[label] = 1
        before = cross_entropy(y, forward(m, ids))
        m.zero_grad()
        m.backward(cross_entropy_softmax_grad(y, forward(m, ids)))
        adam_step(m.store, AdamState(m.store), OptimizerConfig(lr=1e-4), m.embedding.table)
        after = cross_entropy(y, forward(m, ids))
        assert after < before


def test_pad_rows_never_get_gradient(rng):
    m = HCMSModel(tiny_config(), seed=1)
    data = tiny_data(rng, n=6, length=4)  # shorter than max_len: real padding
    train(m, data, [], TrainConfig(epochs=2, batch_size=3), DEFAULT_OPT)
    assert np.all(m.embedding.table.value[0] == 0)


def test_padding_invariance_global_pool(rng):
    # attention-disabled, global-pool config: extra PADs past one full
    # kernel of padding only duplicate pure-PAD windows
    m = HCMSModel(tiny_config(attention_enabled=False, global_pool=True), seed=2)
    k = m.config.kernel
    ids = list(rng.integers(2, 16, size=6))
    y = np.array([1.0, 0.0, 0.0])

    def embed_grad(padded_ids):
        m.zero_grad()
        probs = forward(m, padded_ids)
        m.backward(cross_entropy_softmax_grad(y, probs))
        return dense_grad(m.embedding.table)[1:]  # non-PAD rows

    g1 = embed_grad(ids + [0] * k)
    g2 = embed_grad(ids + [0] * (k + 3))
    assert np.array_equal(g1, g2)


# ---------------------------------------------------------------------------
# batches: one keying per corpus; each batch padded and its rows gathered when cut

GATHER_CONFIGS = {"windowed": {}, "lang_features": dict(lang_features=True),
                  "global_pool": dict(global_pool=True, include_self=True)}


@pytest.mark.parametrize("overrides", GATHER_CONFIGS.values(), ids=GATHER_CONFIGS)
def test_gathered_batches_match_fit_batch(rng, overrides):
    # lengths from 0 (all PAD, of length kernel) and 1 (below the kernel, 2)
    # to 13 (past max_len, 8); one example has no lang tags, as predict's
    # all-cleaned-away fallback. At cap 0 each batch's layout is the one key
    # and conv_rows give its padded ids alone.
    m = HCMSModel(tiny_config(**overrides), seed=0)
    lengths = [1, 1, 13, 2, 8, 9, 0, *rng.integers(1, 14, size=17)]
    data = [(list(rng.integers(2, 16, size=n)),
             rng.integers(4, size=n).tolist() if m.config.lang_features else None,
             int(rng.integers(3))) for n in lengths]
    data[4] = (data[4][0], None, data[4][2])
    order = rng.permutation(len(data))
    seen = []
    for rows, row_ids, ((idx, inv, batch_lengths),) in _chunks(m, prepare(m, data), order,
                                                               5, 0):
        seen.extend(idx.tolist())
        ids, lang, want_lengths = fit_batch(m, [data[i][:2] for i in idx])
        keys, want_inv = m.key(ids, lang)
        want = (*m.conv_rows(keys), want_inv, want_lengths)
        for got, wanted in zip((rows, row_ids, inv, batch_lengths), want, strict=True):
            assert (got.dtype, got.shape) == (wanted.dtype, wanted.shape)
            assert got.tobytes() == wanted.tobytes()
    assert seen == order.tolist()


def test_train_pads_each_corpus_once(rng, monkeypatch):
    # the training set and the val set are keyed once per run, whatever the
    # epochs, as one flat stream of their tokens after the PAD key; no step
    # or validation pass keys, and none builds an unkeyed layout
    keyings, layouts = [], []
    key, build = HCMSModel.key, T.distinct_rows
    monkeypatch.setattr(HCMSModel, "key",
                        lambda self, ids, *a: keyings.append(ids.shape) or key(self, ids, *a))
    monkeypatch.setattr(T, "distinct_rows", lambda *a: layouts.append(1) or build(*a))
    for epochs in (1, 3):
        keyings.clear()
        m = HCMSModel(tiny_config(), seed=0)
        train(m, tiny_data(rng, n=10), tiny_data(rng, n=6),
              TrainConfig(epochs=epochs, batch_size=4), DEFAULT_OPT)
        assert keyings == [(1 + 10 * 6,), (1 + 6 * 6,)]  # six tokens an example
        assert layouts == []


def test_prepare_peak_grows_with_the_long_example_alone(rng):
    # under global_pool one long example is kept whole, not padded into every
    # row: it raises prepare's peak by a few int64 arrays of its own length,
    # where a corpus padded to it would hold 2101 x 20,000 ids (336 MB)
    m = HCMSModel(tiny_config(global_pool=True, include_self=True), seed=0)
    short = [(rng.integers(2, 16, size=10).tolist(), None, 0) for _ in range(2100)]
    n = 20_000
    peaks = []
    for data in (short, [*short, (rng.integers(2, 16, size=n).tolist(), None, 0)]):
        tracemalloc.start()
        try:
            corpus = prepare(m, data)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert corpus.lengths[-1] == n
    assert peaks[1] - peaks[0] < 16 * 8 * n


@pytest.mark.parametrize("workers", [1, 2])
def test_global_pool_batch_holds_one_conv_output(rng, workers, monkeypatch):
    # one batch of 31 ten-token examples and one of 20,000 tokens: its conv
    # output R [32, 19,999, 8] (39 MiB) is rectified and masked in place, and
    # the tap gathers run in bounded blocks, so predict never holds two copies
    m = HCMSModel(tiny_config(filters=8, global_pool=True, include_self=True), seed=0)
    n = 20_000
    data = [(rng.integers(2, 16, size=10).tolist(), None, 0) for _ in range(31)]
    corpus = prepare(m, [*data, (rng.integers(2, 16, size=n).tolist(), None, 0)])
    monkeypatch.setattr(train_module, "cpus", lambda: workers)
    tracemalloc.start()
    try:
        predict(m, corpus, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 32 * (n - 1) * 8 * 8


@pytest.mark.parametrize("tags", [[0, 1, 2, 3, 0, 1, 2], [0, 1, 2, 3, 0], [0, 1, 2, 3, 0, 4],
                                  [0, 1, 2, -1, 0, 1]],
                         ids=["longer", "shorter", "past_the_tags", "negative"])
def test_bad_tags_fail_before_any_step(rng, tags):
    # a tag list must give one LANG_TAGS index per token: a longer one once
    # put tags on PAD positions and a shorter one left tokens untagged, both
    # silently; a record that cleaned to nothing (None) stays legal
    m = HCMSModel(tiny_config(lang_features=True), seed=0)
    data = [(ids, rng.integers(4, size=len(ids)).tolist(), label)
            for ids, _, label in tiny_data(rng, n=10)]  # six tokens each
    data[3] = (data[3][0], None, data[3][2])
    train(m, data, data[:4], TrainConfig(epochs=1, batch_size=4), DEFAULT_OPT)
    data[-1] = (data[-1][0], tags, data[-1][2])
    before = m.store.value.copy()
    with pytest.raises(RecordError, match=r"example 9: language tags must be 6 indices"):
        train(m, data, data[:4], TrainConfig(epochs=1, batch_size=4), DEFAULT_OPT)
    assert m.store.value.tobytes() == before.tobytes()


@pytest.mark.parametrize("where", ["last_train_batch", "val"])
def test_bad_id_fails_before_any_step(rng, where):
    # a VocabularyError, with every parameter as it was: the corpora are keyed,
    # and their ids checked, before the first step
    m = HCMSModel(tiny_config(), seed=0)
    train_data, val_data = tiny_data(rng, n=10), tiny_data(rng, n=6)
    bad = train_data if where == "last_train_batch" else val_data
    bad[-1] = ([*bad[-1][0][:-1], 16], None, bad[-1][2])
    before = m.store.value.copy()
    with pytest.raises(VocabularyError):
        train(m, train_data, val_data, TrainConfig(epochs=2, batch_size=4, shuffle=False),
              DEFAULT_OPT)
    assert m.store.value.tobytes() == before.tobytes()


# ---------------------------------------------------------------------------
# predict: one key layout per input, one tap table per chunk of batches

PREDICT_CONFIGS = {"windowed": {}, "global_pool": dict(global_pool=True, include_self=True),
                   "lang_features": dict(lang_features=True),
                   "attention_off": dict(attention_enabled=False)}


def chunked_input(rng, m, n=40):
    """n examples over a 64-token vocabulary, lengths 1 to 13 around max_len
    8: more distinct rows than batch_size * L for the batch sizes below."""
    data = []
    for length in rng.integers(1, 14, size=n):
        lang = rng.integers(4, size=length) if m.config.lang_features else None
        data.append((list(rng.integers(2, 64, size=length)), lang, 0))
    return data


@pytest.mark.parametrize("overrides", PREDICT_CONFIGS.values(), ids=PREDICT_CONFIGS)
def test_predict_matches_per_batch_model_predict(rng, overrides, monkeypatch):
    m = HCMSModel(tiny_config(vocab_size=64, **overrides), seed=7)
    m.conv.bias.value[:] = rng.normal(scale=0.1, size=3)
    data, batch_size = chunked_input(rng, m), 3
    probs, labels = [], m._labels
    monkeypatch.setattr(m, "_labels", lambda p: probs.append(p) or labels(p))
    got = predict(m, prepare(m, data), batch_size)
    got_probs = np.concatenate(probs)
    monkeypatch.undo()
    want, want_probs = [], []
    for start in range(0, len(data), batch_size):
        batch = fit_batch(m, [ex[:2] for ex in data[start:start + batch_size]])
        want += model_predict(m, *batch).tolist()
        want_probs.append(forward(m, *batch))
    assert got == want
    # OpenBLAS may round a row differently in a product of a few rows
    np.testing.assert_allclose(got_probs, np.concatenate(want_probs), rtol=0, atol=1e-12)


@pytest.mark.parametrize("overrides", [{}, dict(global_pool=True, include_self=True)],
                         ids=["windowed", "global_pool"])
def test_predict_builds_one_tap_table_per_chunk(rng, overrides, monkeypatch):
    # reference: greedy runs of batches whose distinct ids fit in batch_size * L
    m = HCMSModel(tiny_config(vocab_size=64, **overrides), seed=7)
    data, batch_size = chunked_input(rng, m), 3
    ids, _, lengths = fit_batch(m, [ex[:2] for ex in data])
    cap = batch_size * ids.shape[1]
    want, run = [], set()
    for start in range(0, len(data), batch_size):
        rows = lengths[start:start + batch_size]
        width = rows.max() if m.config.global_pool else None
        batch = set(ids[start:start + batch_size, :width].ravel().tolist())
        if len(run | batch) > cap:
            want.append(len(run))
            run = set()
        run |= batch
    want.append(len(run))
    sizes, buffers, build = [], set(), T.tap_table

    def counted(rows, f, out):
        sizes.append(len(rows))
        buffers.add((id(out), out.shape[1]))
        return build(rows, f, out)

    monkeypatch.setattr(T, "tap_table", counted)
    predict(m, prepare(m, data), batch_size)
    assert sizes == want
    assert len(sizes) >= 2 and max(sizes) <= cap
    # every chunk's table is written into one buffer of at most cap rows
    ((_, rows),) = buffers
    assert max(sizes) <= rows <= cap


def _predict_on(m, data, batch_size, workers, keep=False):
    """(labels, the bytes of every batch's probabilities) of predict with
    train.cpus() forced to workers; with keep, through a training step's
    caching forward in place of the inference forward."""
    probs, labels = [], m._labels
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(m, "_labels", lambda p: probs.append(p.tobytes()) or labels(p))
        if keep:
            mp.setattr(m, "classify", functools.partial(m.classify, keep=True))
        mp.setattr(train_module, "cpus", lambda: workers)
        mp.setattr(T, "_MIN_WORK", 0)  # a tiny model's ops split too
        return predict(m, prepare(m, data), batch_size), probs


@pytest.mark.parametrize("overrides", PREDICT_CONFIGS.values(), ids=PREDICT_CONFIGS)
def test_predict_is_the_same_on_any_cpu_count(rng, overrides, monkeypatch):
    # batches of 3 (the last of 1) cut into slices of 1 to 3 rows, whose pair
    # scores the inference forward runs in scratch blocks of 2 examples; the
    # reference is the caching forward on one thread
    m = HCMSModel(tiny_config(vocab_size=64, **overrides), seed=7)
    m.conv.bias.value[:] = rng.normal(scale=0.1, size=3)
    data = chunked_input(rng, m)
    cfg = m.config
    v = cfg.out_len(max(cfg.max_len, cfg.kernel))
    monkeypatch.setattr(layers_module, "_SCRATCH", 2 * v * v * cfg.attn_hidden * 8)
    want = _predict_on(m, data, 3, 1, keep=True)
    for workers in (1, 2, 3):
        assert _predict_on(m, data, 3, workers) == want


def test_predict_batch_holds_no_pair_tensor(rng, monkeypatch):
    # one batch at the default dims: the inference forward frees the conv
    # output before the attention runs and fills the pair scores in
    # per-thread scratch blocks, so beside the tap table the batch allocates
    # less than one [B, v, v, hidden] tanh tensor (6.6 MB)
    m = HCMSModel(ModelConfig(vocab_size=64), seed=0)
    cfg, batch_size = m.config, 32
    corpus = prepare(m, [(list(rng.integers(2, 64, size=cfg.max_len)), None, 0)
                         for _ in range(batch_size)])
    v = cfg.out_len(cfg.max_len)
    table = cfg.kernel * len(corpus.keys) * cfg.filters * 8
    monkeypatch.setattr(train_module, "cpus", lambda: 2)
    tracemalloc.start()
    try:
        predict(m, corpus, batch_size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - table < batch_size * v * v * cfg.attn_hidden * 8


def test_predict_uses_every_cpu_and_leaves_no_cache_or_thread(rng, monkeypatch):
    m = HCMSModel(tiny_config(vocab_size=64), seed=7)
    workers, map_rows = set(), T.map_rows

    def recorded(n, fn, scalars):
        # each slice outlasts the submits, so the pool starts a thread for
        # each rather than handing a later slice to an idle one
        return map_rows(n, lambda at: workers.add(threading.get_ident())
                        or time.sleep(0.001) or fn(at), scalars)

    monkeypatch.setattr(T, "map_rows", recorded)
    monkeypatch.setattr(T, "_MIN_WORK", 0)
    monkeypatch.setattr(train_module, "cpus", lambda: 3)
    before = threading.active_count()
    predict(m, prepare(m, chunked_input(rng, m)), 4)
    assert len(workers) == 3 and threading.active_count() == before
    for layer in (m.conv, m.attention, m.head):
        assert layer._cache is None


def test_predict_worker_error_reaches_the_caller(rng, monkeypatch):
    m = HCMSModel(tiny_config(vocab_size=64), seed=7)
    map_rows = T.map_rows

    def failing(at):
        if threading.current_thread() is not threading.main_thread():
            raise AttentionDomainError("raised on a worker thread")

    monkeypatch.setattr(T, "map_rows", lambda n, fn, scalars: map_rows(
        n, lambda at: failing(at) or fn(at), scalars))
    monkeypatch.setattr(T, "_MIN_WORK", 0)
    monkeypatch.setattr(train_module, "cpus", lambda: 2)
    before = threading.active_count()
    with pytest.raises(AttentionDomainError, match="worker thread"):
        predict(m, prepare(m, chunked_input(rng, m)), 4)
    assert threading.active_count() == before


def _train_on(overrides, data, val, workers, monkeypatch):
    """(log, the bytes of the trained store) of a 2-epoch training with
    train.cpus() forced to workers, the work gate lowered so that every split
    op fans out, and Adam blocks of 64 scalars so that its update splits too."""
    monkeypatch.setattr(train_module, "cpus", lambda: workers)
    monkeypatch.setattr(T, "_MIN_WORK", 0)
    monkeypatch.setattr(train_module, "_BLOCK", 64)
    m = HCMSModel(tiny_config(vocab_size=64, kernel=3, **overrides), seed=7)
    log = train(m, data, val, TrainConfig(epochs=2, batch_size=3, seed=1), DEFAULT_OPT)
    monkeypatch.undo()
    return log, m.store.value.tobytes()


@pytest.mark.parametrize("overrides", PREDICT_CONFIGS.values(), ids=PREDICT_CONFIGS)
def test_train_is_the_same_on_any_cpu_count(rng, overrides, monkeypatch):
    # 3 taps: one wave at 3 threads, a full and a short one at 2
    m = HCMSModel(tiny_config(vocab_size=64, **overrides), seed=7)
    data = [(ids, lang, int(rng.integers(3))) for ids, lang, _ in chunked_input(rng, m)]
    want = _train_on(overrides, data[:30], data[30:], 1, monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads interleave inside every slice
    try:
        for workers in (2, 3):
            assert _train_on(overrides, data[:30], data[30:], workers, monkeypatch) == want
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [2, 3])
def test_split_adam_step_matches_one_thread(workers, monkeypatch):
    # 7 blocks of 64 scalars, the last one short, cut into runs of whole blocks
    monkeypatch.setattr(T, "_MIN_WORK", 0)
    monkeypatch.setattr(train_module, "_BLOCK", 64)
    rng = np.random.default_rng(workers)
    value, grads = rng.normal(size=(10, 43)), rng.normal(size=(3, 10, 43))

    def bits(w):
        p = Parameter(value.copy())
        state = AdamState(p)
        with T.threads(w):
            for g in grads:
                p.grad[...] = g
                adam_step(p, state, DEFAULT_OPT)
        return [a.tobytes() for a in (p.value, p.grad, state.m, state.v)]

    assert bits(workers) == bits(1)


def test_small_model_trains_on_the_calling_thread(rng, monkeypatch):
    # below the work gate nothing is submitted; with the gate lowered, every
    # validation pass reuses train's pool
    pools, submitted = [], []

    class Pool(T.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

        def submit(self, fn, *args, **kwargs):
            submitted.append(fn)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(T, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(train_module, "cpus", lambda: 3)
    data, val = tiny_data(rng), tiny_data(rng, n=4)
    train(HCMSModel(tiny_config(), seed=0), data, val, TrainConfig(epochs=3, batch_size=4),
          DEFAULT_OPT)
    assert submitted == []
    monkeypatch.setattr(T, "_MIN_WORK", 0)
    train(HCMSModel(tiny_config(), seed=0), data, val, TrainConfig(epochs=3, batch_size=4),
          DEFAULT_OPT)
    assert len(pools) == 2 and submitted


def test_train_leaves_no_cache_or_thread(rng, monkeypatch):
    monkeypatch.setattr(T, "_MIN_WORK", 0)
    monkeypatch.setattr(train_module, "cpus", lambda: 3)
    m, before = HCMSModel(tiny_config(), seed=0), threading.active_count()
    train(m, tiny_data(rng), tiny_data(rng, n=4), TrainConfig(epochs=2, batch_size=4),
          DEFAULT_OPT)
    assert threading.active_count() == before
    for layer in (m.conv, m.attention, m.head):
        assert layer._cache is None


def test_pool_threads_call_no_public_hcms_function(rng, monkeypatch):
    # a tracer that wraps the package's public functions keeps one span stack,
    # so every public call must run on the thread that entered the block
    monkeypatch.setattr(T, "_MIN_WORK", 0)
    monkeypatch.setattr(train_module, "cpus", lambda: 2)
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith("hcms"):
            called.add(frame.f_code.co_qualname)

    m = HCMSModel(tiny_config(lang_features=True), seed=0)
    data = [(ids, rng.integers(4, size=len(ids)), label) for ids, _, label in tiny_data(rng)]
    threading.setprofile(profile)  # the threads started from here on: the pool's
    try:
        train(m, data, data[:4], TrainConfig(epochs=2, batch_size=4), DEFAULT_OPT)
    finally:
        threading.setprofile(None)
    public = {name for name in called if "<locals>" not in name
              and not any(part.startswith("_") for part in name.split("."))}
    assert called and not public


@pytest.mark.parametrize("bad, match", [(np.nan, "gradient has 1 NaN or inf values"),
                                        (1e200, "gradient norm overflows")])
def test_train_raises_on_nonfinite_gradient(rng, bad, match, monkeypatch):
    # the loss stays finite; the check runs before the step's update
    m = HCMSModel(tiny_config(), seed=0)
    backward, before = m.backward, m.store.value.copy()

    def poisoned(dlogits):
        backward(dlogits)
        m.head.b.grad[1] = bad

    monkeypatch.setattr(m, "backward", poisoned)
    with pytest.raises(DivergenceError, match=f"epoch 1, step 1: {match}"):
        train(m, tiny_data(rng), [], TrainConfig(epochs=1, batch_size=4), DEFAULT_OPT)
    assert m.store.value.tobytes() == before.tobytes()


def test_predict_checks_ids_before_keying():
    # id -1 under HIN keys to -1 + 16 * 4, the key of id 15 under ENG (codes:
    # no tag 0, EMT 1, O 2, ENG 3, HIN 4), so only a check of the ids sees it
    m = HCMSModel(tiny_config(lang_features=True), seed=0)
    data = [([15], [1], 0), ([-1], [0], 0)]
    with pytest.raises(VocabularyError):
        predict(m, prepare(m, data), 2)


# ---------------------------------------------------------------------------
# checkpoints

def _trained_model(rng):
    m = HCMSModel(tiny_config(), seed=3)
    train(m, tiny_data(rng), tiny_data(rng, n=3),
          TrainConfig(epochs=1, batch_size=4), DEFAULT_OPT)
    return m


def test_checkpoint_roundtrip_bit_exact(rng, tmp_path):
    m = _trained_model(rng)
    vocab = ["<pad>", "<unk>"] + [f"tok{i}" for i in range(14)]
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, vocab, path, extra_config={"cleaning": {"lowercase": True}})
    m2, vocab2, extra = load_checkpoint(path)
    assert vocab2 == vocab
    assert extra == {"cleaning": {"lowercase": True}}
    for k, p in m.parameters().items():
        assert p.value.tobytes() == m2.parameters()[k].value.tobytes()
    ids = [2, 3, 4, 5, 6]
    assert forward(m, ids).tobytes() == forward(m2, ids).tobytes()


def test_checkpoint_save_is_deterministic(rng, tmp_path):
    m = _trained_model(rng)
    save_checkpoint(m, VOCAB, tmp_path / "a.ckpt")
    save_checkpoint(m, VOCAB, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_checkpoint_truncated(rng, tmp_path):
    m = _trained_model(rng)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, VOCAB, path)
    raw = path.read_bytes()
    (tmp_path / "t.ckpt").write_bytes(raw[:len(raw) // 2])
    with pytest.raises((CheckpointCorruptError, CheckpointShapeError)):
        load_checkpoint(tmp_path / "t.ckpt")
    (tmp_path / "h.ckpt").write_bytes(raw[:20])
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(tmp_path / "h.ckpt")


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)


def test_checkpoint_bad_version(rng, tmp_path):
    m = _trained_model(rng)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, VOCAB, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)


def test_checkpoint_vocab_fills_the_table(rng, tmp_path):
    # a shorter list would encode tokens to the wrong embedding rows
    m = _trained_model(rng)
    save_checkpoint(m, VOCAB[:-1], tmp_path / "m.ckpt")
    with pytest.raises(CheckpointShapeError):
        load_checkpoint(tmp_path / "m.ckpt")


def test_checkpoint_shape_mismatch(rng, tmp_path):
    m = _trained_model(rng)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, VOCAB, path)
    raw = path.read_bytes()
    (tmp_path / "s.ckpt").write_bytes(raw + b"\x00" * 8)  # extra float
    with pytest.raises(CheckpointShapeError):
        load_checkpoint(tmp_path / "s.ckpt")
