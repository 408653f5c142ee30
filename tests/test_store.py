"""The model's flat parameter store: its layout, and training over it
against a per-parameter reference loop."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from hcms.layers import HCMSModel, ModelConfig
from hcms.metrics import score
from hcms.tensor import Parameter
from hcms.train import (_BLOCK, AdamState, OptimizerConfig, TrainConfig,
                        adam_step, cross_entropy,
                        cross_entropy_softmax_grad, evaluate, load_checkpoint,
                        prepare, save_checkpoint, train)
from extra_ops import forward
from test_train import VOCAB, tiny_config, tiny_data

CONFIGS = {"attention_on": {}, "attention_off": {"attention_enabled": False},
           "lang_features": {"lang_features": True}}


def assert_tiles_store(model):
    """Every parameter's value and grad are contiguous views into the store,
    one after another in parameters() order, with no gap."""
    store, offset = model.store, 0
    for p in model.parameters().values():
        for view, flat in ((p.value, store.value), (p.grad, store.grad)):
            assert np.shares_memory(view, flat)
            assert view.flags.c_contiguous
            assert view.ctypes.data == flat.ctypes.data + offset * flat.itemsize
        offset += p.value.size
    assert offset == store.value.size == store.grad.size


@pytest.mark.parametrize("overrides", CONFIGS.values(), ids=CONFIGS)
def test_parameters_tile_the_store(tmp_path, overrides):
    model = HCMSModel(tiny_config(**overrides), seed=0)
    assert_tiles_store(model)
    save_checkpoint(model, VOCAB, tmp_path / "m.ckpt")
    loaded, _, _ = load_checkpoint(tmp_path / "m.ckpt")
    assert_tiles_store(loaded)
    assert loaded.store.value.tobytes() == model.store.value.tobytes()


# sha256 of HCMSModel(config, seed).store.value, taken when each layer still
# drew its own arrays: the init table must draw the same bits in the same order
INIT_DIGESTS = {
    ("attention_on", 0): "0545bac4d2a1a9a1346937251cc623677300b8564f8366114ef360c942633c76",
    ("attention_on", 7): "d41d811b5fe4a7396546119071547882b5938b642b8f9d13b2e81db2ea7ff2e3",
    ("attention_off", 0): "b6ff26199a14a14aa87659b9af943620401028701e794014651d5c1177a948dd",
    ("attention_off", 7): "ad945d03dd4f2cadaa19999aa4a1c85f7cb0884ae2d744343cbe86078e2348ff",
    ("lang_features", 0): "270890931b83027c27d80a6692eb8e82dd7eee2f9ada8bd7eb225a980523d29c",
    ("lang_features", 7): "3c6a3ce86ffda71847c3ebaf3f0702491ad2ad01513790fb25ebb16b01c36197",
    ("default_dims_vocab_50", 3): "007c4d42fe2196554f53f2b5b6220870a63886b86a7285d04da57bce88282867",
}


@pytest.mark.parametrize("name,seed", INIT_DIGESTS, ids=map(str, INIT_DIGESTS))
def test_initial_values_are_pinned(name, seed):
    config = (ModelConfig(vocab_size=50) if name == "default_dims_vocab_50"
              else tiny_config(**CONFIGS[name]))
    store = HCMSModel(config, seed=seed).store.value
    assert hashlib.sha256(store.tobytes()).hexdigest() == INIT_DIGESTS[name, seed]


def test_load_draws_nothing(tmp_path, monkeypatch):
    model = HCMSModel(tiny_config(), seed=5)
    save_checkpoint(model, VOCAB, tmp_path / "m.ckpt")

    def no_rng(*args, **kwargs):
        raise AssertionError("load_checkpoint asked for an RNG")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    loaded, _, _ = load_checkpoint(tmp_path / "m.ckpt")
    assert loaded.store.value.tobytes() == model.store.value.tobytes()


def test_load_peak_is_below_three_stores(tmp_path):
    # the data section is read into the store itself, with no whole-file
    # bytes object and no random init beside it: a load holds the store's
    # value and grad and little else
    vocab = [f"tok{i}" for i in range(2000)]
    save_checkpoint(HCMSModel(ModelConfig(vocab_size=len(vocab)), seed=0), vocab,
                    tmp_path / "m.ckpt")
    tracemalloc.start()
    try:
        loaded, _, _ = load_checkpoint(tmp_path / "m.ckpt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * loaded.store.value.nbytes


@pytest.mark.parametrize("overrides", CONFIGS.values(), ids=CONFIGS)
def test_param_shapes_describe_the_model(overrides):
    # the checkpoint's manifest is read off this table before any model is built
    config = tiny_config(**overrides)
    model = HCMSModel(config, seed=0)
    assert [(k, p.shape) for k, p in model.parameters().items()] == list(
        config.param_shapes().items())


# ---------------------------------------------------------------------------
# reference: the training loop with one Adam state per named parameter

def reference_adam_step(p, state, cfg):
    """Bias-corrected Adam on one parameter with its own moments and step
    count, in the operation order of hcms.train.adam_step."""
    state["step"] += 1
    g = p.grad
    state["m"] *= cfg.beta1
    state["m"] += (1.0 - cfg.beta1) * g
    state["v"] *= cfg.beta2
    t = (1.0 - cfg.beta2) * g
    t *= g
    state["v"] += t
    np.divide(state["v"], 1.0 - cfg.beta2 ** state["step"], out=t)
    np.sqrt(t, out=t)
    t += cfg.epsilon
    np.divide(state["m"], 1.0 - cfg.beta1 ** state["step"], out=g)
    g *= cfg.lr
    g /= t
    p.value -= g
    p.grad.fill(0.0)


def test_blocked_update_matches_one_pass():
    # several blocks and a ragged tail; the tiny models fit in one block
    rng = np.random.default_rng(11)
    size = 3 * _BLOCK + 77
    cfg = OptimizerConfig(lr=0.05)
    p = Parameter(rng.normal(size=size))
    q = Parameter(p.value.copy())
    state, ref = AdamState(p), {"m": np.zeros(size), "v": np.zeros(size), "step": 0}
    for _ in range(4):
        grad = rng.normal(scale=rng.uniform(1e-3, 10), size=size)
        p.grad[:] = grad
        q.grad[:] = grad
        adam_step(p, state, cfg)
        reference_adam_step(q, ref, cfg)
        assert not p.grad.any()
        assert state.step == ref["step"]
        for ours, theirs in ((p.value, q.value), (state.m, ref["m"]), (state.v, ref["v"])):
            assert ours.tobytes() == theirs.tobytes()


def reference_train(model, train_data, val_data, tcfg, ocfg):
    """hcms.train.train with every step taken one named parameter at a time:
    zero-grad, the Adam update, the best-F1 snapshot and its restore."""
    n_classes = model.config.n_classes
    rng = np.random.default_rng(tcfg.seed)
    params = model.parameters()
    states = {k: {"m": np.zeros(p.shape), "v": np.zeros(p.shape), "step": 0}
              for k, p in params.items()}
    best_f1, best_snapshot, log = -1.0, None, []
    order = np.arange(len(train_data))
    for p in params.values():
        p.grad.fill(0.0)
    for epoch in range(1, tcfg.epochs + 1):
        if tcfg.shuffle:
            rng.shuffle(order)
        total_loss = 0.0
        for start in range(0, len(order), tcfg.batch_size):
            batch = [train_data[i] for i in order[start:start + tcfg.batch_size]]
            ids, lang, lengths = model.fit_batch([(x, l) for x, l, _ in batch])
            y = np.eye(n_classes)[[label for *_, label in batch]]
            probs = forward(model, ids, lang, lengths)
            total_loss += cross_entropy(y, probs)
            model.backward(cross_entropy_softmax_grad(y, probs) / len(batch))
            for k, p in params.items():
                reference_adam_step(p, states[k], ocfg)
        entry = {"epoch": epoch, "train_loss": total_loss / len(order)}
        trues, preds = evaluate(model, prepare(model, val_data), tcfg.batch_size)
        report = score(trues, preds, n_classes)
        entry["val_f1"] = report.weighted_f1
        entry["val_acc"] = report.accuracy
        if report.weighted_f1 > best_f1:
            best_f1 = report.weighted_f1
            best_snapshot = {k: p.value.copy() for k, p in params.items()}
        log.append(entry)
    for k, p in params.items():
        p.value[...] = best_snapshot[k]
    return log


def test_last_epoch_best_takes_no_snapshot(rng):
    # the store holds the last epoch's values, so a best F1 there needs no
    # copy; an earlier best is copied (and restored: the test above)
    copies = []

    class Counted(np.ndarray):
        def copy(self, *args, **kwargs):
            copies.append(self.shape)
            return super().copy(*args, **kwargs)

    data = tiny_data(rng, 10)
    for epochs in (1, 2):
        model = HCMSModel(tiny_config(), seed=4)
        model.store.value = model.store.value.view(Counted)  # the same buffer
        train(model, data, data[:5], TrainConfig(epochs=epochs, batch_size=4),
              OptimizerConfig())
        assert copies == ([] if epochs == 1 else [model.store.value.shape])
        copies.clear()


def lang_data(rng, n, vocab=16, length=6):
    """tiny_data with a language one-hot row per token."""
    return [(ids, np.eye(4)[rng.integers(4, size=length)].tolist(), label)
            for ids, _, label in tiny_data(rng, n=n, vocab=vocab, length=length)]


@pytest.mark.parametrize("name", CONFIGS)
def test_flat_update_matches_per_parameter_loop(name):
    rng = np.random.default_rng(3)
    make = lang_data if name == "lang_features" else tiny_data
    data, val = make(rng, 10), make(rng, 5)
    tcfg = TrainConfig(epochs=3, batch_size=4, seed=9)
    ocfg = OptimizerConfig(lr=0.05)
    models = [HCMSModel(tiny_config(**CONFIGS[name]), seed=4) for _ in range(2)]
    flat_log = train(models[0], data, val, tcfg, ocfg)
    ref_log = reference_train(models[1], data, val, tcfg, ocfg)
    assert flat_log == ref_log
    start = HCMSModel(tiny_config(**CONFIGS[name]), seed=4).store.value
    assert not np.array_equal(models[0].store.value, start)
    for (k, p), q in zip(models[0].parameters().items(),
                         models[1].parameters().values()):
        assert p.value.tobytes() == q.value.tobytes(), k
