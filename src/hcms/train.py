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
                 the manifest must be the one the config's model would write,
                 and the vocab must list one token per embedding row.

Round-trip bit-exactness is the binding contract: load(save(m)) reproduces
every parameter value exactly. A load checks the data section's size before
it allocates, then reads it straight into the store, with no random init.
"""

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .corpus import CleaningConfig
from .layers import ConfigError, HCMSModel, ModelConfig, check_field_types
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

    def validate(self):
        """Raise ConfigError unless Adam runs with this config: lr finite and
        not negative (0.0 leaves the parameters as they are), epsilon finite
        and positive, and each beta in [0, 1)."""
        check_field_types(self)
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError(f"lr must be finite and not negative, got {self.lr}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError(f"epsilon must be finite and positive, got {self.epsilon}")
        for key in ("beta1", "beta2"):
            if not 0 <= (value := getattr(self, key)) < 1:
                raise ConfigError(f"{key} must be in [0, 1), got {value}")


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0
    shuffle: bool = True

    def validate(self):
        """Raise ConfigError unless this config describes a run that trains."""
        check_field_types(self)
        for key, least in (("batch_size", 1), ("epochs", 1), ("seed", 0)):
            if (value := getattr(self, key)) < least:
                raise ConfigError(f"{key} must be at least {least}, got {value}")


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


def _batches(model, padded, order, batch_size):
    """(idx, (ids, lang, lengths)) per batch_size run of order, gathered from a
    corpus fit_batch padded once; under global_pool, cut to the batch's longest row."""
    ids, lang, lengths = padded
    for start in range(0, len(order), batch_size):
        idx = order[start:start + batch_size]
        rows = idx, slice(lengths[idx].max() if model.config.global_pool else None)
        yield idx, (ids[rows], lang if lang is None else lang[rows], lengths[idx])


def _chunks(batches, n_rows, cap):
    """(rows, run) per run of consecutive batches of _batches over an index map
    into n_rows distinct rows: the run's distinct rows, sorted, fit in cap,
    and the next batch's would not."""
    used, count, run = np.zeros(n_rows, dtype=bool), 0, []
    for batch in batches:
        rows = np.unique(batch[1][0])
        fresh = rows[~used[rows]]
        if count + fresh.size > cap:
            yield np.flatnonzero(used), run
            used[:] = False
            count, run, fresh = 0, [], rows
        used[fresh] = True
        count += fresh.size
        run.append(batch)
    if run:
        yield np.flatnonzero(used), run


def predict(model, data, batch_size):
    """Predicted labels over encoded examples, run batch_size at a time (which
    bounds the attention layer's [B, v, v, hidden] tensor). The input is
    padded once and keyed once (HCMSModel.key, as a training step keys its
    batch), which gives its distinct conv input rows and each position's
    row. The conv tap table is built once per chunk, a run of consecutive
    batches whose distinct rows fit in batch_size * L (L the padded length),
    the most one batch's table could hold, over the chunk's rows gathered
    from the embedding (HCMSModel.conv_rows); each batch gathers from it by
    its own slice of the index map. Every chunk's table is written into one
    buffer that lives through the call, so the memory peak is that buffer
    plus one batch's attention tensor."""
    ids, lang, lengths = model.fit_batch([ex[:2] for ex in data])
    first, inv = model.key(ids, lang)
    batches = _batches(model, (inv, None, lengths), np.arange(len(data)), batch_size)
    cap = batch_size * ids.shape[1]
    f, k, _ = model.conv.filters.shape
    # one buffer for every chunk's table: tables allocated and freed chunk by
    # chunk fragment the heap, which then keeps freed tables resident
    table = np.empty((k, min(len(first), cap), f))
    labels, table_row = [], np.empty(len(first), dtype=np.int64)
    for rows, run in _chunks(batches, len(first), cap):
        chunk_rows, _ = model.conv_rows(ids, lang, first[rows])
        taps = T.tap_table(chunk_rows, model.conv.filters.value, table)
        table_row[rows] = np.arange(len(rows))  # each distinct row's row in taps
        for _, (row_of, _, batch_lengths) in run:
            labels += model.predict_table(taps, table_row[row_of], batch_lengths).tolist()
    return labels


def evaluate(model, data, batch_size=TrainConfig.batch_size):
    """Returns (true_labels, predicted_labels) over encoded examples."""
    return [label for *_, label in data], predict(model, data, batch_size)


def train(model: HCMSModel, train_data, val_data, tcfg: TrainConfig,
          ocfg: OptimizerConfig, log_fn=None):
    """Train the model; returns the per-epoch log (list of dicts).

    Each element of train_data/val_data is (token_ids, lang_onehot_or_None,
    label_index). Keeps the parameter snapshot with the best validation
    weighted F1 and restores it before returning. A tcfg or ocfg that breaks
    its validate() raises ConfigError before anything trains.
    """
    tcfg.validate()
    ocfg.validate()
    if not train_data:
        raise DataError("empty training corpus")
    n_classes = model.config.n_classes
    # every label checked once, by metrics.score's rule
    labels = np.asarray([label for *_, label in [*train_data, *val_data]])
    if labels.dtype.kind not in "iu" or labels.min() < 0 or labels.max() >= n_classes:
        raise DataError(f"labels must be class indices in [0, {n_classes})")
    rng = np.random.default_rng(tcfg.seed)
    store, state = model.store, AdamState(model.store)
    best_f1, best_snapshot = -1.0, None
    log = []
    order = np.arange(len(train_data))
    padded = model.fit_batch([ex[:2] for ex in train_data])  # once per run
    model.zero_grad()  # adam_step leaves every gradient zeroed after this
    for epoch in range(1, tcfg.epochs + 1):
        if tcfg.shuffle:
            rng.shuffle(order)
        total_loss = 0.0
        for idx, batch in _batches(model, padded, order, tcfg.batch_size):
            y = np.eye(n_classes)[labels[idx]]
            probs = model.forward(*batch)
            loss = cross_entropy(y, probs)
            if not np.isfinite(loss):
                raise DivergenceError(f"epoch {epoch}: batch loss is {loss}")
            total_loss += loss
            # mean over the batch so lr is batch-size-insensitive
            model.backward(cross_entropy_softmax_grad(y, probs) / len(idx))
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
        file_size = os.fstat(fh.fileno()).st_size
        preamble = fh.read(16)
        if len(preamble) < 16 or preamble[:4] != MAGIC:
            raise CheckpointVersionError("not an HCMS checkpoint (bad magic string)")
        version, hlen = struct.unpack("<IQ", preamble[4:])
        if version != FORMAT_VERSION:
            raise CheckpointVersionError(f"unsupported checkpoint version {version}")
        # checked before the reads, so a huge header length allocates nothing
        n_values, ragged = divmod(file_size - 16 - hlen, 8)
        if n_values < 0 or ragged:
            raise CheckpointCorruptError("truncated checkpoint header or data section")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointCorruptError(f"undecodable header: {exc}") from exc
        try:
            return _restore(header, fh, n_values)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointCorruptError(f"malformed checkpoint header: {exc!r}") from exc


def _restore(header, fh, n_values):
    """(model, vocab_tokens, extra_config) from a decoded header and fh at its
    data section of n_values float64s. A missing key or a value that breaks a run
    config's rules raises KeyError, TypeError or ValueError, which load_checkpoint
    maps to CheckpointCorruptError."""
    extra = header["extra"]
    if not isinstance(extra, dict) or not isinstance(extra.get("cleaning", {}), dict):
        raise CheckpointCorruptError("extra and extra.cleaning must be JSON objects")
    check_field_types(CleaningConfig.from_dict(extra.get("cleaning", {})))
    config = ModelConfig.from_dict(header["config"])
    config.validate()
    # checked before the model is built, so the header's sizes are never allocated
    manifest, size = _manifest(config)
    if header["params"] != manifest or n_values != size:
        raise CheckpointShapeError(
            f"manifest or data section ({n_values} values) does not match the "
            "config's layout")
    if len(vocab := header["vocab"]) != config.vocab_size:  # one token per row
        raise CheckpointShapeError(f"vocab lists {len(vocab)} tokens, the "
                                   f"embedding table has {config.vocab_size} rows")
    return HCMSModel(config, values=np.fromfile(fh, "<f8", count=size)), vocab, extra
