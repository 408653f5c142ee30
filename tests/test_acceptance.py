"""Acceptance suite: one test per acceptance criterion.

Run with `pytest tests/test_acceptance.py -s` to see one [PASS]/[FAIL]
line per criterion.
"""

import functools
import math
import time

import numpy as np
import pytest

import extra_ops as T
from hcms.cli import main, train_and_test_f1
from hcms.corpus import (CleaningConfig, build_vocab, clean, clean_corpus,
                         encode_corpus, parse_conll, serialize_conll)
from hcms.layers import HCMSModel, ModelConfig, SelfAttentionLayer
from hcms.metrics import score
from synthetic import (load_mini_corpus, make_long_range_corpus,
                            make_mini_corpus)
from hcms.train import (AdamState, OptimizerConfig, Parameter, TrainConfig,
                        adam_step, cross_entropy, cross_entropy_softmax_grad,
                        evaluate, load_checkpoint, prepare, save_checkpoint,
                        train)
from conftest import assert_close, central_diff
from extra_ops import cross_entropy_backward, make_layer
from test_corpus import _random_records
from test_layers import attention_oracle
from test_metrics import oracle as metrics_oracle

DEFAULT_OPT = OptimizerConfig(lr=0.01, beta1=0.9, beta2=0.99, epsilon=1e-7)


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] {name}")
                raise
            print(f"\n[PASS] {name}")
        return wrapper
    return deco


@criterion("benchmark caveat: SentiMix leaderboard F1 is not asserted "
           "(corpus not bundled); property checks substitute below")
def test_benchmark_caveat():
    # The SentiMix corpus cannot be redistributed and no full training
    # schedule is pinned, so leaderboard-scale F1 is out of reach at desk
    # scale; the remaining criteria are structural/property checks.
    assert True


@criterion("gradient suite: all ops + end-to-end FD checks "
           "(h=1e-4, rtol=1e-3, >=100 instances, <60s)")
def test_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(42)
    h = 1e-4

    for _ in range(100):
        # matmul
        a = rng.uniform(-2, 2, size=(3, 3))
        b = rng.uniform(-2, 2, size=(3, 2))
        w = rng.uniform(-1, 1, size=(3, 2))
        da, db = T.matmul_backward(w, a, b)
        assert_close(da, central_diff(lambda x: float((T.matmul(x, b) * w).sum()), a, h))
        assert_close(db, central_diff(lambda x: float((T.matmul(a, x) * w).sum()), b, h))
        # conv1d
        x = rng.uniform(-2, 2, size=(6, 2))
        f = rng.uniform(-2, 2, size=(2, 2, 2))
        bias = rng.uniform(-2, 2, size=2)
        w = rng.uniform(-1, 1, size=(5, 2))
        dx, df, dbias = T.conv1d_backward(w, x, f, 1)
        assert_close(dx, central_diff(lambda a_: float((T.conv1d(a_, f, bias) * w).sum()), x, h))
        assert_close(df, central_diff(lambda a_: float((T.conv1d(x, a_, bias) * w).sum()), f, h))
        assert_close(dbias, central_diff(lambda a_: float((T.conv1d(x, f, a_) * w).sum()), bias, h))
        # relu (keep off the kink), tanh, sigmoid, softmax, maxpool
        x = rng.uniform(-2, 2, size=6)
        x = x[np.abs(x) > 1e-2]
        w = rng.uniform(-1, 1, size=x.shape)
        assert_close(T.relu_backward(w, x),
                     central_diff(lambda a_: float((T.relu(a_) * w).sum()), x, h))
        x = rng.uniform(-2, 2, size=5)
        w = rng.uniform(-1, 1, size=5)
        assert_close(T.tanh_backward(w, T.tanh(x)),
                     central_diff(lambda a_: float((T.tanh(a_) * w).sum()), x, h))
        assert_close(T.sigmoid_backward(w, T.sigmoid(x)),
                     central_diff(lambda a_: float((T.sigmoid(a_) * w).sum()), x, h))
        assert_close(T.softmax_backward(w, T.softmax(x)),
                     central_diff(lambda a_: float((T.softmax(a_) * w).sum()), x, h))
        xm = rng.uniform(-2, 2, size=(6, 2))
        wm = rng.uniform(-1, 1, size=(3, 2))
        assert_close(T.maxpool1d_backward(wm, xm, 2, 2, T.maxpool1d(xm, 2, 2)),
                     central_diff(lambda a_: float((T.maxpool1d(a_, 2, 2) * wm).sum()), xm, h))

    # attention layer parameter + input gradients
    for trial in range(10):
        att = make_layer(SelfAttentionLayer(False, True), (3, 5), np.random.default_rng(trial))
        C = rng.uniform(-2, 2, size=(4, 3))
        w = rng.uniform(-1, 1, size=12)
        att.forward(C)
        for p in (att.W_t, att.W_c, att.b_t, att.W_a, att.b_a):
            p.zero_grad()
        dC = att.backward(w)
        assert_close(dC, central_diff(lambda a_: float(att.forward(a_) @ w), C, h))

    # end-to-end model: every scalar parameter
    for trial in range(3):
        cfg = ModelConfig(vocab_size=16, embed_dim=4, filters=3, kernel=2,
                          pool=2, pool_stride=1, attn_hidden=5, max_len=8)
        m = HCMSModel(cfg, seed=trial)
        m.conv.bias.value[:] = rng.normal(scale=0.1, size=3)  # off the ReLU kink
        ids = list(rng.integers(2, 16, size=8))
        y = np.zeros(3)
        y[trial % 3] = 1
        m.zero_grad()
        m.backward(cross_entropy_softmax_grad(y, m.forward(ids)))
        for name, par in m.parameters().items():
            grad = par.grad.copy()

            def f(a_, par=par):
                saved = par.value.copy()
                par.value[...] = a_
                out = cross_entropy(y, m.forward(ids))
                par.value[...] = saved
                return out

            numeric = central_diff(f, par.value.copy(), h)
            if name == "embedding.table":
                numeric[0] = 0.0  # PAD row frozen by design
            assert_close(grad, numeric, rtol=1e-3)

    elapsed = time.time() - start
    assert elapsed < 60, f"gradient suite took {elapsed:.1f}s"


@criterion("attention oracle: vectorized layer matches pairwise loop "
           "within 1e-10 on 100 random instances")
def test_attention_oracle():
    rng = np.random.default_rng(7)
    for trial in range(100):
        v = int(rng.integers(2, 9))
        d = int(rng.integers(1, 7))
        hidden = int(rng.integers(1, 8))
        att = make_layer(SelfAttentionLayer(include_self=bool(rng.integers(2)),
                                            score_sigmoid=bool(rng.integers(2))),
                         (d, hidden), np.random.default_rng(trial))
        C = rng.uniform(-2, 2, size=(v, d))
        assert_close(att.forward(C), attention_oracle(C, att), rtol=0, atol=1e-10)


@criterion("softmax/loss identities: row sums, hand cross-entropy values, "
           "fused vs composed gradient")
def test_softmax_loss_identities():
    rng = np.random.default_rng(9)
    for _ in range(100):
        p = T.softmax(rng.uniform(-5, 5, size=3))
        assert abs(p.sum() - 1) < 1e-6
        y = np.zeros(3)
        y[rng.integers(3)] = 1
        fused = cross_entropy_softmax_grad(y, p)
        composed = T.softmax_backward(cross_entropy_backward(y, p), p)
        assert np.abs(fused - composed).max() < 1e-8
    assert cross_entropy([1, 0, 0], [0.5, 0.25, 0.25]) == pytest.approx(math.log(2), abs=1e-9)
    assert cross_entropy([0, 0, 1], [1 / 3] * 3) == pytest.approx(math.log(3), abs=1e-9)


@criterion("Adam first-step property: update magnitude equals lr within "
           "1e-5 relative for constant nonzero gradients")
def test_adam_first_step():
    rng = np.random.default_rng(11)
    for _ in range(100):
        g = float(rng.uniform(0.05, 1000.0)) * (1 if rng.integers(2) else -1)
        p = Parameter(np.array([0.0]))
        p.grad[:] = g
        adam_step(p, AdamState(p), DEFAULT_OPT)
        assert abs(p.value[0]) == pytest.approx(DEFAULT_OPT.lr, rel=1e-5)


@criterion("overfit check: 100% training accuracy on the bundled 60-tweet "
           "corpus within 300 epochs")
def test_overfit_bundled_corpus():
    start = time.time()
    records = load_mini_corpus()
    assert len(records) == 60
    cleaning = CleaningConfig()
    cleaned, _ = clean_corpus(records, cleaning)
    vocab = build_vocab(cleaned)
    data = encode_corpus(cleaned, vocab, False)
    cfg = ModelConfig(vocab_size=len(vocab), embed_dim=32, filters=32,
                      kernel=4, attn_hidden=16, max_len=18)
    model = HCMSModel(cfg, seed=0)
    acc = 0.0
    for block in range(12):  # 12 x 25 = 300 epochs max
        train(model, data, [], TrainConfig(epochs=25, batch_size=32, seed=block),
              DEFAULT_OPT)
        trues, preds = evaluate(model, prepare(model, data))
        acc = float(np.mean(np.array(trues) == np.array(preds)))
        if acc == 1.0:
            break
    assert acc == 1.0, f"training accuracy only reached {acc}"
    assert time.time() - start < 300


@criterion("ablation mechanics: attention beats no-attention on the "
           "long-range task in >=8 of 10 seeds")
def test_ablation_direction(tmp_path):
    base_cfg = {"seed": 0, "epochs": 100, "batch_size": 8, "lr": 0.01,
                "beta1": 0.9, "beta2": 0.99, "epsilon": 1e-7, "shuffle": True,
                "embed_dim": 8, "filters": 8, "kernel": 3, "stride": 1,
                "pool": 2, "pool_stride": 1, "attn_hidden": 8, "max_len": 6,
                "include_self": False, "score_sigmoid": True,
                "global_pool": False, "n_classes": 3, "lang_features": False,
                "append_lang_onehot": False, "lowercase": True,
                "expand_contractions": True, "replace_emoji": True,
                "collapse_repeats": True, "strip_hashtags": True,
                "strip_usernames": True, "strip_links": True,
                "hashtag_keep_word": True}
    wins = 0
    for seed in range(10):
        paths = {}
        for name, n, s in (("train", 128, seed), ("val", 32, seed + 1000),
                           ("test", 48, seed + 2000)):
            p = tmp_path / f"{name}_{seed}.conll"
            p.write_text(serialize_conll(make_long_range_corpus(n, seed=s)),
                         encoding="utf-8")
            paths[name] = str(p)
        f1 = {}
        for attn in (True, False):
            cfg = dict(base_cfg, seed=seed, attention_enabled=attn)
            f1[attn] = train_and_test_f1(cfg, paths["train"], paths["val"],
                                         paths["test"])
        if f1[True] > f1[False]:
            wins += 1
    assert wins >= 8, f"attention won only {wins}/10 seeds"


@criterion("metrics oracle: exact match with brute-force counting on 1000 "
           "random cases; 7/9 macro-F1 hand case")
def test_metrics_oracle():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        trues = list(rng.integers(0, 3, size=n))
        preds = list(rng.integers(0, 3, size=n))
        r = score(trues, preds)
        per, acc, macro_f1, weighted_f1 = metrics_oracle(trues, preds)
        assert r.accuracy == acc and r.macro_f1 == macro_f1
        for c in range(3):
            assert (r.precision[c], r.recall[c], r.f1[c], r.support[c]) == per[c]
    assert score([0, 0, 1, 2], [0, 1, 1, 2]).macro_f1 == pytest.approx(7 / 9, abs=1e-12)


@criterion("round-trips: CONLL parse/serialize exact; checkpoint save/load "
           "bit-exact; cleaning idempotent over 10k fuzz records")
def test_round_trips(tmp_path):
    # CONLL
    records = load_mini_corpus() + make_mini_corpus(seed=99)
    text = serialize_conll(records)
    reparsed, skipped = parse_conll(text, strict=True)
    assert not skipped and reparsed == records
    # checkpoint
    cfg = ModelConfig(vocab_size=16, embed_dim=4, filters=3, kernel=2,
                      pool=2, pool_stride=1, attn_hidden=5, max_len=8)
    model = HCMSModel(cfg, seed=13)
    path = tmp_path / "m.ckpt"
    tokens = ["<pad>", "<unk>"] + [f"tok{i}" for i in range(14)]  # one per row
    save_checkpoint(model, tokens, path, {"k": 1})
    loaded, vocab, extra = load_checkpoint(path)
    assert vocab == tokens and extra == {"k": 1}
    for k, p in model.parameters().items():
        assert p.value.tobytes() == loaded.parameters()[k].value.tobytes()
    # cleaning idempotence, 10k records
    flags = CleaningConfig()
    for record in _random_records(10000, seed=1234):
        once = clean(record, flags)
        if once is not None:
            assert clean(once, flags) == once


@criterion("determinism: two cmd_train runs with identical seed/config "
           "produce byte-identical logs and checkpoints")
def test_cli_determinism(tmp_path):
    train_file = tmp_path / "train.conll"
    val_file = tmp_path / "val.conll"
    records = load_mini_corpus()
    train_file.write_text(serialize_conll(records[:45]), encoding="utf-8")
    val_file.write_text(serialize_conll(records[45:]), encoding="utf-8")
    fast = ["--set", "embed_dim=12", "--set", "filters=6", "--set", "kernel=3",
            "--set", "attn_hidden=6", "--set", "max_len=16",
            "--set", "epochs=3", "--set", "batch_size=8"]
    outs = []
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        code = main(["train", "--train", str(train_file), "--val", str(val_file),
                     "--out-dir", str(out), "--seed", "4", *fast])
        assert code == 0
        outs.append(out)
    a, b = outs
    assert (a / "epochs.log").read_bytes() == (b / "epochs.log").read_bytes()
    assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()
