"""Wrappers installed around hcms from outside the package.

Two kinds, both signature-agnostic (*args, **kwargs) and both undone on
exit from their context manager:

- Probes: one wrapper around save_checkpoint (once per training run) that
  keeps a digest of every saved parameter for the checkpoint check. It
  keeps the wrapped function's name and module, so the tracer wraps it
  like the original.
- Tracer: wraps every public function and method of the package modules
  and records one span per call (name, parent, start, end, work count) in
  flat arrays kept in memory. summarize() turns the spans into per-layer
  metrics; save() writes them out.
"""

import contextlib
import functools
import hashlib
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("hcms.corpus", "hcms.layers", "hcms.tensor", "hcms.train",
           "hcms.metrics", "hcms.cli")

# Called once per element of another op's input (as_tensor inside every
# tensor op, lookup once per token): wrapping them would time the tracer.
SKIP = {"hcms.tensor.as_tensor", "hcms.corpus.Vocabulary.lookup"}


def _replace_everywhere(old, new, undo):
    """Point every hcms module attribute that is `old` at `new`."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "hcms" or name.startswith("hcms.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
                undo.append((module, attr, old))


def _restore(undo):
    for owner, attr, old in reversed(undo):
        setattr(owner, attr, old)
    undo.clear()


# ---------------------------------------------------------------------------
# probe for the checkpoint check

def param_digests(model):
    """{name: digest of dtype, shape and bytes} for every model parameter."""
    out = {}
    for name, p in model.parameters().items():
        v = np.ascontiguousarray(p.value)
        h = hashlib.blake2b(f"{v.dtype.str}{v.shape}".encode())
        h.update(memoryview(v).cast("B"))
        out[name] = h.hexdigest()
    return out


class Probes:
    """Digests of the parameters the last save_checkpoint call wrote."""

    def __init__(self):
        self.saved = None

    @contextlib.contextmanager
    def installed(self):
        import hcms.train as htrain
        save = htrain.save_checkpoint

        @functools.wraps(save)
        def probe(*args, **kwargs):
            self.saved = param_digests(args[0])
            return save(*args, **kwargs)

        undo = []
        _replace_everywhere(save, probe, undo)
        try:
            yield self
        finally:
            _restore(undo)


# ---------------------------------------------------------------------------
# work counted at span boundaries

def _examples(per_example_ndim):
    """Examples in a layer call: 1, or the leading axis of a batched input."""
    def count(tracer, args, kwargs, result):
        x = np.asarray(args[1]) if len(args) > 1 else None
        if x is None or x.ndim <= per_example_ndim:
            return 1
        return int(x.shape[0])
    return count


def _conv_macs(x, filters, stride):
    """Multiply-adds of conv1d for these operand shapes (any leading batch axes)."""
    x, filters = np.asarray(x), np.asarray(filters)
    batch = int(np.prod(x.shape[:-2], dtype=np.int64))
    f, k, d = filters.shape
    v = (x.shape[-2] - k) // stride + 1
    return batch * v * f * k * d


def _conv1d_flops(tracer, args, kwargs, result):
    stride = args[3] if len(args) > 3 else kwargs.get("stride", 1)
    return 2 * _conv_macs(args[0], args[1], stride)


def _conv1d_backward_flops(tracer, args, kwargs, result):
    # dfilters = dout^T @ windows and dwindows = dout @ filters
    stride = args[3] if len(args) > 3 else kwargs.get("stride", 1)
    return 4 * _conv_macs(args[1], args[2], stride)


def _adam_scalars(tracer, args, kwargs, result):
    return int(np.asarray(args[0].value).size)


def _parsed_records(tracer, args, kwargs, result):
    tracer.tokens += sum(len(r.tokens) for r in result[0])
    return len(result[0])


# Metrics derived from operand shapes rather than measured.
COMPUTED = {"tensor.conv1d_flops", "tensor.conv1d_gflop_per_s"}

WORK = {
    "hcms.layers.EmbeddingLayer.forward": _examples(1),
    "hcms.layers.EmbeddingLayer.backward": _examples(2),
    "hcms.layers.ConvBlock.forward": _examples(2),
    "hcms.layers.ConvBlock.backward": _examples(2),
    "hcms.layers.SelfAttentionLayer.forward": _examples(2),
    "hcms.layers.SelfAttentionLayer.backward": _examples(1),
    "hcms.layers.DenseHead.forward": _examples(1),
    "hcms.layers.DenseHead.backward": _examples(1),
    "hcms.tensor.conv1d": _conv1d_flops,
    "hcms.tensor.conv1d_backward": _conv1d_backward_flops,
    "hcms.train.adam_step": _adam_scalars,
    "hcms.corpus.parse_conll": _parsed_records,
}


# ---------------------------------------------------------------------------
# tracer

class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self.tokens = 0           # tokens in parsed records
        self._stack = []

    def _name_id(self, qualname):
        if qualname not in self._ids:
            self._ids[qualname] = len(self.names)
            self.names.append(qualname)
        return self._ids[qualname]

    def _wrap(self, fn, qualname):
        nid = self._name_id(qualname)
        work = WORK.get(qualname)
        stack, clock = self._stack, time.perf_counter_ns
        names, parents, starts, ends, works = (
            self.name, self.parent, self.start, self.end, self.work)

        def span(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            works.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if work is not None:
                works[idx] = work(self, args, kwargs, result)
            return result
        span.__wrapped__ = fn
        return span

    @contextlib.contextmanager
    def installed(self):
        """Wrap the public functions and methods of every module in MODULES."""
        undo = []
        for modname in MODULES:
            module = sys.modules[modname]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != modname:
                    continue
                qual = f"{modname}.{attr}"
                if inspect.isfunction(value) and qual not in SKIP:
                    _replace_everywhere(value, self._wrap(value, qual), undo)
                elif inspect.isclass(value):
                    self._wrap_methods(value, qual, undo)
        try:
            yield self
        finally:
            _restore(undo)

    def _wrap_methods(self, cls, qual, undo):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") or f"{qual}.{attr}" in SKIP:
                continue
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            if not inspect.isfunction(fn):
                continue
            wrapped = self._wrap(fn, f"{qual}.{attr}")
            setattr(cls, attr, kind(wrapped) if kind else wrapped)
            undo.append((cls, attr, raw))

    # -- results -------------------------------------------------------------

    def arrays(self):
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start_ns": np.frombuffer(self.start, dtype=np.int64),
                "end_ns": np.frombuffer(self.end, dtype=np.int64),
                "work": np.frombuffer(self.work, dtype=np.int64)}

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def summarize(tracer):
    """Per-layer metrics from the recorded spans, keyed by metric name."""
    s = tracer.arrays()
    name, parent, work = s["name"], s["parent"], s["work"]
    dur = (s["end_ns"] - s["start_ns"]).astype(np.float64)
    n = len(dur)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_ns = dur - child

    depth = np.zeros(n, dtype=np.int64)
    for _ in range(64):
        nxt = np.where(has_parent, depth[np.maximum(parent, 0)] + 1, 0)
        if np.array_equal(nxt, depth):
            break
        depth = nxt
    by_depth = [np.flatnonzero(depth == d) for d in range(1, int(depth.max(initial=0)) + 1)]

    def mask(quals):
        ids = [i for i, q in enumerate(tracer.names) if q in quals]
        return np.isin(name, ids)

    def outermost(quals):
        """Spans of the group with no ancestor in the group (no double count)."""
        m = mask(quals)
        inside = np.zeros(n, dtype=bool)
        for idx in by_depth:
            p = parent[idx]
            inside[idx] = m[p] | inside[p]
        return m & ~inside

    def ms(*quals):
        return float(dur[outermost(quals)].sum()) / 1e6

    def count(*quals):
        return int(work[mask(quals)].sum())

    def module_self_ms(mod):
        ids = [i for i, q in enumerate(tracer.names) if q.startswith(mod + ".")]
        return float(self_ns[np.isin(name, ids)].sum()) / 1e6

    L = "hcms.layers."
    out = {}
    layer_methods = {"embedding": "EmbeddingLayer", "conv": "ConvBlock",
                     "attention": "SelfAttentionLayer", "head": "DenseHead"}
    for short, cls in layer_methods.items():
        fwd = (L + cls + ".forward",)
        bwd = (L + cls + ".backward",) + ((L + cls + ".backward_from_probs",)
                                           if short == "head" else ())
        for tag, quals in (("fwd", fwd), ("bwd", bwd)):
            examples = count(quals[0])
            out[f"layers.{short}.{tag}_examples"] = examples
            out[f"layers.{short}.{tag}_us_per_ex"] = (
                ms(*quals) * 1e3 / examples if examples else 0.0)

    conv_ms = ms("hcms.tensor.conv1d")
    conv_bwd_ms = ms("hcms.tensor.conv1d_backward")
    flops = count("hcms.tensor.conv1d") + count("hcms.tensor.conv1d_backward")
    out["tensor.conv1d_ms"] = conv_ms
    out["tensor.conv1d_backward_ms"] = conv_bwd_ms
    out["tensor.conv1d_flops"] = flops
    out["tensor.conv1d_gflop_per_s"] = (
        flops / ((conv_ms + conv_bwd_ms) * 1e6) if flops else 0.0)
    out["tensor.maxpool1d_backward_ms"] = ms("hcms.tensor.maxpool1d_backward")

    steps = optimizer_steps(tracer, name, parent)
    out["train.optimizer_steps"] = steps
    out["train.adam_ms_per_step"] = ms("hcms.train.adam_step") / steps if steps else 0.0
    out["train.adam_scalars"] = count("hcms.train.adam_step") / steps if steps else 0.0
    out["train.evaluate_ms"] = ms("hcms.train.evaluate")
    out["train.load_checkpoint_ms"] = ms("hcms.train.load_checkpoint")
    out["train.save_checkpoint_ms"] = ms("hcms.train.save_checkpoint")

    out["corpus.parse_ms"] = ms("hcms.corpus.read_conll_file", "hcms.corpus.parse_conll")
    out["corpus.clean_ms"] = ms("hcms.corpus.clean_corpus", "hcms.corpus.clean")
    out["corpus.encode_ms"] = ms("hcms.corpus.encode_corpus", "hcms.corpus.encode")
    out["corpus.vocab_ms"] = ms("hcms.corpus.build_vocab",
                                "hcms.corpus.Vocabulary.from_tokens")
    out["corpus.records"] = count("hcms.corpus.parse_conll")
    out["corpus.tokens"] = tracer.tokens

    for mod in MODULES:
        out[f"{mod.split('.')[1]}.self_ms"] = module_self_ms(mod)
    out["trace.spans"] = n
    return out


def optimizer_steps(tracer, name, parent):
    """Runs of back-to-back adam_step calls under one parent: one per step.

    A per-parameter update loop makes one run of calls per batch; a single
    update over a flat parameter store makes one call per batch. Both count
    as one optimizer step.
    """
    if "hcms.train.adam_step" not in tracer.names:
        return 0
    adam = tracer.names.index("hcms.train.adam_step")
    order = np.argsort(parent, kind="stable")       # siblings, in call order
    p, nm = parent[order], name[order]
    is_adam = nm == adam
    prev_adam = np.zeros_like(is_adam)
    prev_adam[1:] = is_adam[:-1] & (p[1:] == p[:-1])
    return int((is_adam & ~prev_adam).sum())
