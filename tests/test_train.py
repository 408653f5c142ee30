import math

import numpy as np
import pytest

from hcms import tensor as T
from hcms.layers import HCMSModel, ModelConfig
from hcms.train import (AdamState, CheckpointCorruptError, CheckpointShapeError,
                        CheckpointVersionError, DataError, DivergenceError,
                        LabelError,
                        OptimizerConfig, Parameter, TrainConfig, adam_step,
                        cross_entropy, cross_entropy_softmax_grad,
                        load_checkpoint, save_checkpoint, train)
from conftest import assert_close
from extra_ops import cross_entropy_backward

DEFAULT_OPT = OptimizerConfig(lr=0.01, beta1=0.9, beta2=0.99, epsilon=1e-7)


def tiny_config(**overrides):
    base = dict(vocab_size=16, embed_dim=4, filters=3, kernel=2, stride=1,
                pool=2, pool_stride=1, attn_hidden=5, max_len=8)
    base.update(overrides)
    return ModelConfig(**base)


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
        before = cross_entropy(y, m.forward(ids))
        m.zero_grad()
        m.backward(cross_entropy_softmax_grad(y, m.forward(ids)))
        for p in m.parameters().values():
            adam_step(p, AdamState(p), OptimizerConfig(lr=1e-4))
        after = cross_entropy(y, m.forward(ids))
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
        probs = m.forward(padded_ids)
        m.backward(cross_entropy_softmax_grad(y, probs))
        return m.embedding.table.grad[1:].copy()  # non-PAD rows

    g1 = embed_grad(ids + [0] * k)
    g2 = embed_grad(ids + [0] * (k + 3))
    assert np.array_equal(g1, g2)


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
    assert m.forward(ids).tobytes() == m2.forward(ids).tobytes()


def test_checkpoint_save_is_deterministic(rng, tmp_path):
    m = _trained_model(rng)
    save_checkpoint(m, ["<pad>", "<unk>"], tmp_path / "a.ckpt")
    save_checkpoint(m, ["<pad>", "<unk>"], tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_checkpoint_truncated(rng, tmp_path):
    m = _trained_model(rng)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, ["<pad>", "<unk>"], path)
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
    save_checkpoint(m, ["<pad>", "<unk>"], path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)


def test_checkpoint_shape_mismatch(rng, tmp_path):
    m = _trained_model(rng)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, ["<pad>", "<unk>"], path)
    raw = path.read_bytes()
    (tmp_path / "s.ckpt").write_bytes(raw + b"\x00" * 8)  # extra float
    with pytest.raises(CheckpointShapeError):
        load_checkpoint(tmp_path / "s.ckpt")
