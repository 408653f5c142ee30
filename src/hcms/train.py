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
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import tensor as T
from .corpus import LABELS, LANG_TAGS, CleaningConfig, RecordError
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


def adam_step(param: Parameter, state: AdamState, cfg: OptimizerConfig, table=None):
    """Standard bias-corrected Adam update, in place; clears the gradient
    afterwards. table, if given, is the Parameter of param's leading
    [rows, dim] scalars (HCMSModel's embedding table), whose gradient is
    row-sparse (tensor.Parameter), and param.grad is that of the scalars
    after it; without it param.grad is param's whole gradient.

    Runs block by block over the flattened arrays, in blocks of whole table
    rows. Each block's gradient is built in the thread's zeroed scratch: the
    pairs' rows that fall in the block are added in call order, the bits of
    a dense gradient accumulated from 0.0, and param.grad's part is moved in
    (and zeroed). Every block runs the same per-element operations in the
    same order as one pass over the whole; the blocks are split into
    contiguous runs across tensor.map_rows's threads, each run with its own
    scratch, so the bits do not depend on the split."""
    state.step += 1
    m_scale = 1.0 - cfg.beta1 ** state.step
    v_scale = 1.0 - cfg.beta2 ** state.step
    value, grad, m, v = (a.reshape(-1, copy=False)
                         for a in (param.value, param.grad, state.m, state.v))
    head = value.size - grad.size  # the table's scalars
    rows, width = (table.grad, table.shape[1]) if table is not None else ([], 1)
    block_rows = max(1, _BLOCK // width)
    per_block = width * block_rows
    # each pair cut at every block's first row, its ids as rows of their block
    edges = np.arange(0, head // width + block_rows, block_rows)
    pairs = [(ids.searchsorted(edges), ids % block_rows, sums) for ids, sums in rows]

    def update(blocks):
        # t and the block's gradient g, zero as each block leaves them
        scratch_t, scratch_g = np.zeros((2, min(value.size, per_block)))
        end = min(blocks.stop * per_block, value.size)
        for start in range(blocks.start * per_block, end, per_block):
            blk = slice(start, min(start + per_block, end))
            t, g = scratch_t[:blk.stop - start], scratch_g[:blk.stop - start]
            if start < head:  # 0.0 plus the pairs' rows in the block
                table_g, i = g[:head - start].reshape(-1, width), start // per_block
                for cut, local, sums in pairs:
                    table_g[local[cut[i]:cut[i + 1]]] += sums[cut[i]:cut[i + 1]]
            if blk.stop > head:  # param.grad's part, moved into g
                dense = grad[max(start - head, 0):blk.stop - head]
                g[g.size - dense.size:] = dense
                dense.fill(0.0)
            mb, vb = m[blk], v[blk]
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

    T.map_rows(-(-value.size // per_block), update, value.size)
    if table is not None:
        table.zero_grad()


def check_gradient(grad, rows, where):
    """DivergenceError unless the squared norm of a gradient is finite: the
    dense grad's grad @ grad plus the squares of each row-sparse (ids, sums)
    pair's sums (tensor.Parameter). The message tells a NaN or inf element
    from finite elements whose norm overflows."""
    with np.errstate(over="ignore"):  # an overflow is reported below
        norm = grad @ grad + sum(np.vdot(sums, sums) for _, sums in rows)
    if not np.isfinite(norm):
        if bad := sum(np.count_nonzero(~np.isfinite(a))
                      for a in (grad, *(sums for _, sums in rows))):
            raise DivergenceError(f"{where}: gradient has {bad} NaN or inf values")
        raise DivergenceError(f"{where}: gradient norm overflows (every element "
                              "is finite)")


# A corpus keyed once (prepare), unpadded: HCMSModel.key's (keys, inv) of the
# PAD key 0 and then each example's kept tokens, end to end (example i's rows
# are inv[offsets[i]:offsets[i + 1]]), its lengths [N] and each label.
Corpus = namedtuple("Corpus", "keys inv offsets lengths labels")


def prepare(model, data):
    """The Corpus of encoded (token_ids, tag_indices_or_None, label_index)
    examples that train, evaluate and predict batch from, each example cut to
    max(max_len, kernel), or whole under global_pool. The tags are checked
    (RecordError) and the ids keyed (VocabularyError) before any batch runs."""
    cfg, no_tag = model.config, len(LANG_TAGS)
    cut = None if cfg.global_pool else _width(model, None)
    kept = [tokens[:cut] for tokens, _, _ in data]
    offsets = np.cumsum([1, *map(len, kept)])
    ids, lang = np.fromiter(chain([0], *kept), np.int64, offsets[-1]), None
    if cfg.lang_features:
        lang = np.full(offsets[-1], no_tag)  # PAD and untagged examples: no tag
        for b, (tokens, tags, _) in enumerate(data):
            if tags is not None and (len(tags) != len(tokens)
                                     or not set(tags).issubset(range(no_tag))):
                raise RecordError(f"example {b}: language tags must be {len(tokens)} "
                                  f"indices in [0, {no_tag})")
            lang[offsets[b]:offsets[b + 1]] = no_tag if tags is None else tags[:cut]
    return Corpus(*model.key(ids, lang), offsets, np.maximum(np.diff(offsets), cfg.kernel),
                  [ex[2] for ex in data])


def _width(model, lengths):
    """A batch's padded length: max(max_len, kernel), or under global_pool the
    longest of its lengths."""
    cfg = model.config
    return lengths.max(initial=cfg.kernel) if cfg.global_pool else max(cfg.max_len,
                                                                        cfg.kernel)


def _chunks(model, corpus, order, batch_size, cap):
    """(rows, row_ids, [(idx, inv, lengths), ...]) per run of batches of order
    whose distinct conv input rows fit in cap (at cap 0, one batch a run). A
    batch's inv [b, _width] holds its examples' rows, padded with PAD's row 0;
    as corpus rows are in key order, it is HCMSModel.key's of the padded batch."""
    used, run = np.zeros(len(corpus.keys), dtype=bool), []

    def gathered():
        rows = np.flatnonzero(used)
        return (*model.conv_rows(corpus.keys[rows]),
                [(idx, rows.searchsorted(inv), lengths) for idx, inv, lengths in run])

    for start in range(0, len(order), batch_size):
        idx = order[start:start + batch_size]
        lengths = corpus.lengths[idx]
        at = corpus.offsets[idx][:, None] + np.arange(_width(model, lengths))
        inv = corpus.inv[np.where(at < corpus.offsets[idx + 1][:, None], at, 0)]
        rows = np.unique(inv)
        fresh = rows[~used[rows]]
        if run and np.count_nonzero(used) + fresh.size > cap:
            yield gathered()
            used[:] = False
            run, fresh = [], rows
        used[fresh] = True
        run.append((idx, inv, lengths))
    if run:
        yield gathered()


def cpus():
    """CPUs this process may run on: its affinity mask, which taskset limits."""
    return len(os.sched_getaffinity(0))


def predict(model, corpus, batch_size):
    """Predicted labels over a Corpus, run batch_size at a time through
    inference forwards (HCMSModel.classify without keep, which cache nothing
    and build no [B, v, v, hidden] tensor), with one conv tap table per
    chunk of batches whose distinct rows fit in batch_size * L (L the widest
    batch's _width), the most one batch's table holds, all in one buffer. Each
    batch's conv tap gathers and attention pair scores are split by examples
    across one thread per cpus() (tensor.threads), threads that live for this
    call alone, or for an enclosing block (train's, the predict command's);
    at most batch_size examples are in flight across them, and labels and
    probabilities do not depend on the CPU count."""
    cap = batch_size * _width(model, corpus.lengths)
    f, k, _ = model.conv.filters.shape
    # one buffer for every chunk's table: tables allocated and freed chunk by
    # chunk fragment the heap, which then keeps freed tables resident
    table = np.empty((k, min(len(corpus.keys), cap), f))
    labels = []
    with T.threads(cpus()):
        for rows, _, run in _chunks(model, corpus, np.arange(len(corpus.lengths)),
                                    batch_size, cap):
            taps = T.tap_table(rows, model.conv.filters.value, table)
            for _, inv, lengths in run:  # no embedding gather per batch
                probs = model.classify((None, inv, None), lengths, taps)
                labels += model._labels(probs).tolist()
    return labels


def evaluate(model, corpus, batch_size=TrainConfig.batch_size):
    """Returns (true_labels, predicted_labels) over a Corpus."""
    return corpus.labels, predict(model, corpus, batch_size)


def train(model: HCMSModel, train_data, val_data, tcfg: TrainConfig,
          ocfg: OptimizerConfig):
    """Train the model; returns the per-epoch log (list of dicts).

    Each element of train_data/val_data is (token_ids, tag_indices_or_None,
    label_index). Keeps the parameter snapshot with the best validation
    weighted F1 and restores it before returning; a best last epoch takes no
    snapshot, as the store holds it. A tcfg or ocfg that breaks its
    validate() raises ConfigError before anything trains; a non-finite loss
    or gradient raises DivergenceError at its step.

    Every step and validation pass runs in one tensor.threads(cpus()) block:
    the split ops of a large enough model spread over every CPU of the
    affinity mask, with the bits of one thread, so the log and the trained
    parameters do not depend on the CPU count.
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
    corpus = prepare(model, train_data)  # a bad id in either fails before any step
    val = prepare(model, val_data) if val_data else None
    rng = np.random.default_rng(tcfg.seed)
    store, state, table = model.store, AdamState(model.store), model.embedding.table
    best_f1, best_snapshot = -1.0, None
    log = []
    order = np.arange(len(train_data))
    model.zero_grad()  # adam_step leaves every gradient zeroed after this
    with T.threads(cpus()):  # the validation passes' predict shares the pool
        for epoch in range(1, tcfg.epochs + 1):
            if tcfg.shuffle:
                rng.shuffle(order)
            total_loss = 0.0
            for rows, row_ids, ((idx, inv, lengths),) in _chunks(model, corpus, order,
                                                                  tcfg.batch_size, 0):
                y = np.eye(n_classes)[labels[idx]]
                probs = model.classify((rows, inv, row_ids), lengths, keep=True)
                loss = cross_entropy(y, probs)
                if not np.isfinite(loss):
                    raise DivergenceError(f"epoch {epoch}: batch loss is {loss}")
                total_loss += loss
                # mean over the batch so lr is batch-size-insensitive
                model.backward(cross_entropy_softmax_grad(y, probs) / len(idx))
                check_gradient(store.grad, table.grad,
                               f"epoch {epoch}, step {state.step + 1}")
                adam_step(store, state, ocfg, table)
            entry = {"epoch": epoch, "train_loss": total_loss / len(order)}
            if val:
                trues, preds = evaluate(model, val, tcfg.batch_size)
                report = score(trues, preds, n_classes)
                entry["val_f1"] = report.weighted_f1
                entry["val_acc"] = report.accuracy
                if report.weighted_f1 > best_f1:
                    best_f1 = report.weighted_f1
                    best_snapshot = store.value.copy() if epoch < tcfg.epochs else None
            log.append(entry)
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
    if extra.get("labels", list(LABELS)) != list(LABELS):  # the head's class order
        raise CheckpointCorruptError(f"extra.labels {extra['labels']!r} is not {list(LABELS)}")
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
    values = np.fromfile(fh, "<f8", count=size)
    if not np.isfinite(values).all():  # a model that would predict garbage
        raise CheckpointCorruptError("data section holds a NaN or inf value")
    return HCMSModel(config, values=values), vocab, extra
