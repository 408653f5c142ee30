"""Cross-entropy loss, Adam, the training loop, and checkpoint persistence.

Checkpoint layout (version 1, little-endian throughout):

    bytes 0..3   magic b"HCMS"
    uint32       format version (1)
    uint64       header length in bytes
    header       UTF-8 JSON: {"config": {...model config...},
                              "extra":  {...e.g. cleaning flags...},
                              "vocab":  [token, ...]  (index order),
                              "params": [{"name", "shape", "offset"}, ...]}
    data         raw float64 values, concatenated in manifest order;
                 offsets are in float64 counts from the data start.

Round-trip bit-exactness is the binding contract: load(save(m)) reproduces
every parameter value exactly.
"""

import json
import struct
from dataclasses import dataclass, fields

import numpy as np

from .layers import HCMSModel, ModelConfig
from .metrics import score
from .tensor import Parameter

MAGIC = b"HCMS"
FORMAT_VERSION = 1
PROB_FLOOR = 1e-12


class LabelError(ValueError):
    """Target vector is not one-hot."""


class DataError(ValueError):
    """Corpus unusable for training (e.g. empty)."""


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


def adam_step(param, cfg: OptimizerConfig):
    """Standard bias-corrected Adam update, in place; zeroes the gradient
    afterwards."""
    param.step += 1
    g = param.grad
    param.m *= cfg.beta1
    param.m += (1.0 - cfg.beta1) * g
    param.v *= cfg.beta2
    t = (1.0 - cfg.beta2) * g
    t *= g
    param.v += t
    # lr * m_hat / (sqrt(v_hat) + eps) in the same operation order, in t and
    # in the gradient buffer, which is zeroed afterwards
    np.divide(param.v, 1.0 - cfg.beta2 ** param.step, out=t)
    np.sqrt(t, out=t)
    t += cfg.epsilon
    np.divide(param.m, 1.0 - cfg.beta1 ** param.step, out=g)
    g *= cfg.lr
    g /= t
    param.value -= g
    param.zero_grad()


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
    params = model.parameters()
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
            total_loss += cross_entropy(y, probs)
            # mean over the batch so lr is batch-size-insensitive
            model.backward(cross_entropy_softmax_grad(y, probs) / len(batch))
            for p in params.values():
                adam_step(p, ocfg)
        entry = {"epoch": epoch, "train_loss": total_loss / len(order)}
        if val_data:
            trues, preds = evaluate(model, val_data, tcfg.batch_size)
            report = score(trues, preds, n_classes)
            entry["val_f1"] = report.weighted_f1
            entry["val_acc"] = report.accuracy
            if report.weighted_f1 > best_f1:
                best_f1 = report.weighted_f1
                best_snapshot = {k: p.value.copy() for k, p in params.items()}
        log.append(entry)
        if log_fn:
            log_fn(entry)
    if best_snapshot is not None:
        for k, p in params.items():
            p.value[...] = best_snapshot[k]
    return log


def format_epoch(entry):
    parts = [f"epoch={entry['epoch']}", f"train_loss={entry['train_loss']:.12g}"]
    if "val_f1" in entry:
        parts.append(f"val_f1={entry['val_f1']:.12g}")
        parts.append(f"val_acc={entry['val_acc']:.12g}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(model: HCMSModel, vocab_tokens, path, extra_config=None):
    params = model.parameters()
    manifest, offset = [], 0
    for name, p in params.items():
        manifest.append({"name": name, "shape": list(p.shape), "offset": offset})
        offset += p.value.size
    header = json.dumps({
        "config": model.config.to_dict(),
        "extra": extra_config or {},
        "vocab": list(vocab_tokens),
        "params": manifest,
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for p in params.values():
            fh.write(p.value.astype("<f8").tobytes())


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
    body = raw[16 + hlen:]
    if len(body) % 8:
        raise CheckpointCorruptError("truncated checkpoint data section")
    try:
        return _restore(header, np.frombuffer(body, dtype="<f8"))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointCorruptError(f"malformed checkpoint header: {exc!r}") from exc


def _restore(header, data):
    """(model, vocab_tokens, extra_config) from a decoded header and the data
    section. A missing key or a value of the wrong type raises KeyError,
    TypeError or ValueError, which load_checkpoint maps to a CheckpointError."""
    offset = 0
    for entry in header["params"]:
        if entry["offset"] != offset:
            raise CheckpointShapeError(
                f"{entry['name']}: offset {entry['offset']} != {offset}, "
                "where the parameters before it end")
        offset += int(np.prod(entry["shape"]))
    if data.size != offset:
        raise CheckpointShapeError(
            f"data section holds {data.size} values, manifest expects {offset}")
    config = ModelConfig.from_dict(header["config"])
    for f in fields(ModelConfig):
        value = getattr(config, f.name)
        # max_len may be below 1: a batch is padded to max(max_len, kernel)
        if f.type is int and (type(value) is not int
                              or (value < 1 and f.name != "max_len")):
            raise CheckpointCorruptError(
                f"config {f.name} must be a positive integer, got {value!r}")
    model = HCMSModel(config, seed=0)
    params = model.parameters()
    if set(params) != {e["name"] for e in header["params"]}:
        raise CheckpointShapeError("parameter names do not match the model layout")
    for entry in header["params"]:
        p = params[entry["name"]]
        shape = tuple(entry["shape"])
        if p.shape != shape:
            raise CheckpointShapeError(
                f"{entry['name']}: checkpoint shape {shape} != model shape {p.shape}")
        n = int(np.prod(shape))
        p.value[...] = data[entry["offset"]:entry["offset"] + n].reshape(shape)
    return model, header["vocab"], header["extra"]
