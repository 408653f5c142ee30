"""Cross-entropy loss, Adam, the training loop, and checkpoint persistence.

Checkpoint layout (version 1, little-endian throughout):

    bytes 0..3   magic b"HCMS"
    uint32       format version (1)
    uint64       header length in bytes
    header       UTF-8 JSON: {"config": {...model config...},
                              "extra":  {...e.g. cleaning flags...},
                              "vocab":  [token, ...]  (index order),
                              "params": [{"name", "shape", "offset"}, ...]}
    data         the model's parameter store (HCMSModel.store), raw float64;
                 the manifest must be the one the config's model would write.

Round-trip bit-exactness is the binding contract: load(save(m)) reproduces
every parameter value exactly.
"""

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .corpus import CleaningConfig
from .layers import HCMSModel, ModelConfig, check_field_types
from .metrics import score
from .tensor import Parameter

MAGIC = b"HCMS"
FORMAT_VERSION = 1
PROB_FLOOR = 1e-12


class LabelError(ValueError):
    """Target vector is not one-hot."""


class DataError(ValueError):
    """Corpus unusable for training (e.g. empty)."""


class DivergenceError(ArithmeticError):
    """Training produced a non-finite loss or non-finite parameters."""


class CheckpointError(Exception):
    pass


class CheckpointVersionError(CheckpointError):
    """Wrong magic string or unsupported format version."""


class CheckpointCorruptError(CheckpointError):
    """Truncated or undecodable checkpoint file."""


class CheckpointShapeError(CheckpointError):
    """Manifest shapes inconsistent with the stored data."""


@dataclass
class OptimizerConfig:
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.99
    epsilon: float = 1e-7


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0
    shuffle: bool = True


def cross_entropy(y_onehot, probs):
    """-log of the predicted probability at the true class, summed over the
    rows of a batch ([B, n] targets and probabilities, or one [n] pair)."""
    y = np.asarray(y_onehot, dtype=np.float64)
    if not (np.all((y == 0) | (y == 1)) and np.all(y.sum(axis=-1) == 1)):
        raise LabelError(f"target is not one-hot: {y}")
    p = np.maximum(np.asarray(probs, dtype=np.float64), PROB_FLOOR)
    return float(-(y * np.log(p)).sum())


def cross_entropy_softmax_grad(y_onehot, probs):
    """Fused gradient of CE(softmax(z)) at the logits z: probs - y."""
    return np.asarray(probs, dtype=np.float64) - np.asarray(y_onehot, dtype=np.float64)


class AdamState:
    """Adam's moment estimates and step count for one Parameter."""

    def __init__(self, param):
        self.m = np.zeros(param.shape)
        self.v = np.zeros(param.shape)
        self.step = 0


# Scalars per block of the Adam update: a block of the value, gradient,
# moments and scratch (5 x 256 KB) stays in a core's L2 cache through all of
# the update's element-wise passes.
_BLOCK = 1 << 15


def adam_step(param: Parameter, state: AdamState, cfg: OptimizerConfig):
    """Standard bias-corrected Adam update, in place; zeroes the gradient
    afterwards. Runs block by block over the flattened arrays, with the same
    per-element operations in the same order as one pass over the whole."""
    state.step += 1
    m_scale = 1.0 - cfg.beta1 ** state.step
    v_scale = 1.0 - cfg.beta2 ** state.step
    value, grad, m, v = (a.reshape(-1, copy=False)
                         for a in (param.value, param.grad, state.m, state.v))
    scratch = np.empty(min(value.size, _BLOCK))
    for start in range(0, value.size, _BLOCK):
        blk = slice(start, start + _BLOCK)
        g, mb, vb = grad[blk], m[blk], v[blk]
        t = scratch[:g.size]
        mb *= cfg.beta1
        np.multiply(1.0 - cfg.beta1, g, out=t)
        mb += t
        vb *= cfg.beta2
        np.multiply(1.0 - cfg.beta2, g, out=t)
        t *= g
        vb += t
        # lr * m_hat / (sqrt(v_hat) + eps) in the same operation order, in t
        # and in the gradient block, which is zeroed afterwards
        np.divide(vb, v_scale, out=t)
        np.sqrt(t, out=t)
        t += cfg.epsilon
        np.divide(mb, m_scale, out=g)
        g *= cfg.lr
        g /= t
        value[blk] -= g
        g.fill(0.0)


def predict(model, data, batch_size):
    """Predicted labels over encoded examples, batch_size at a time (which
    bounds the attention layer's [B, v, v, hidden] tensor)."""
    preds = []
    for start in range(0, len(data), batch_size):
        chunk = data[start:start + batch_size]
        preds.extend(model.predict(*model.fit_batch(
            [(ids, lang) for ids, lang, *_ in chunk])).tolist())
    return preds


def evaluate(model, data, batch_size=TrainConfig.batch_size):
    """Returns (true_labels, predicted_labels) over encoded examples."""
    return [label for *_, label in data], predict(model, data, batch_size)


def train(model: HCMSModel, train_data, val_data, tcfg: TrainConfig,
          ocfg: OptimizerConfig, log_fn=None):
    """Train the model; returns the per-epoch log (list of dicts).

    Each element of train_data/val_data is (token_ids, lang_onehot_or_None,
    label_index). Keeps the parameter snapshot with the best validation
    weighted F1 and restores it before returning.
    """
    if not train_data:
        raise DataError("empty training corpus")
    n_classes = model.config.n_classes
    rng = np.random.default_rng(tcfg.seed)
    store, state = model.store, AdamState(model.store)
    best_f1, best_snapshot = -1.0, None
    log = []
    order = np.arange(len(train_data))
    model.zero_grad()  # adam_step leaves every gradient zeroed after this
    for epoch in range(1, tcfg.epochs + 1):
        if tcfg.shuffle:
            rng.shuffle(order)
        total_loss = 0.0
        for start in range(0, len(order), tcfg.batch_size):
            batch = [train_data[i] for i in order[start:start + tcfg.batch_size]]
            ids, lang, lengths = model.fit_batch([(x, l) for x, l, _ in batch])
            y = np.eye(n_classes)[[label for *_, label in batch]]
            probs = model.forward(ids, lang, lengths)
            loss = cross_entropy(y, probs)
            if not np.isfinite(loss):
                raise DivergenceError(f"epoch {epoch}: batch loss is {loss}")
            total_loss += loss
            # mean over the batch so lr is batch-size-insensitive
            model.backward(cross_entropy_softmax_grad(y, probs) / len(batch))
            adam_step(store, state, ocfg)
        entry = {"epoch": epoch, "train_loss": total_loss / len(order)}
        if val_data:
            trues, preds = evaluate(model, val_data, tcfg.batch_size)
            report = score(trues, preds, n_classes)
            entry["val_f1"] = report.weighted_f1
            entry["val_acc"] = report.accuracy
            if report.weighted_f1 > best_f1:
                best_f1 = report.weighted_f1
                best_snapshot = store.value.copy()
        log.append(entry)
        if log_fn:
            log_fn(entry)
    if best_snapshot is not None:
        store.value[...] = best_snapshot
    if not np.isfinite(store.value).all():
        raise DivergenceError("training left non-finite parameters")
    return log


def format_epoch(entry):
    parts = [f"epoch={entry['epoch']}", f"train_loss={entry['train_loss']:.12g}"]
    if "val_f1" in entry:
        parts.append(f"val_f1={entry['val_f1']:.12g}")
        parts.append(f"val_acc={entry['val_acc']:.12g}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# checkpoints

def _manifest(config):
    """([{name, shape, offset}], store size) of config's model: where each
    parameter's view starts in the store, from ModelConfig.param_shapes."""
    manifest, offset = [], 0
    for name, shape in config.param_shapes().items():
        manifest.append({"name": name, "shape": list(shape), "offset": offset})
        offset += math.prod(shape)
    return manifest, offset


def save_checkpoint(model: HCMSModel, vocab_tokens, path, extra_config=None):
    header = json.dumps({
        "config": model.config.to_dict(),
        "extra": extra_config or {},
        "vocab": list(vocab_tokens),
        "params": _manifest(model.config)[0],
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(model.store.value.astype("<f8", copy=False))


def load_checkpoint(path):
    """Returns (model, vocab_tokens, extra_config). A file that is not a
    checkpoint, or whose header is malformed, raises a CheckpointError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise CheckpointVersionError("not an HCMS checkpoint (bad magic string)")
    (version,) = struct.unpack("<I", raw[4:8])
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(f"unsupported checkpoint version {version}")
    (hlen,) = struct.unpack("<Q", raw[8:16])
    if len(raw) < 16 + hlen:
        raise CheckpointCorruptError("truncated checkpoint header")
    try:
        header = json.loads(raw[16:16 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptError(f"undecodable header: {exc}") from exc
    if (len(raw) - 16 - hlen) % 8:
        raise CheckpointCorruptError("truncated checkpoint data section")
    try:
        return _restore(header, np.frombuffer(raw, dtype="<f8", offset=16 + hlen))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointCorruptError(f"malformed checkpoint header: {exc!r}") from exc


def _restore(header, data):
    """(model, vocab_tokens, extra_config) from a decoded header and the data
    section. A missing key or a value that breaks a run config's rules raises
    KeyError, TypeError or ValueError, mapped to a CheckpointError by load_checkpoint."""
    extra = header["extra"]
    if not isinstance(extra, dict) or not isinstance(extra.get("cleaning", {}), dict):
        raise CheckpointCorruptError("extra and extra.cleaning must be JSON objects")
    check_field_types(CleaningConfig.from_dict(extra.get("cleaning", {})))
    config = ModelConfig.from_dict(header["config"])
    config.validate()
    # checked before the model is built, so the header's sizes are never allocated
    manifest, size = _manifest(config)
    if header["params"] != manifest or data.size != size:
        raise CheckpointShapeError(
            f"manifest or data section ({data.size} values) does not match the "
            "config's layout")
    model = HCMSModel(config, seed=0)
    model.store.value[...] = data
    return model, header["vocab"], extra
