"""Spans around pournet's public functions, installed from outside the package.

`Tracer.install()` replaces each traced function by a wrapper in every
pournet module that holds a reference to it, so calls between modules
(`from .grad import backward` in train.py, for example) are recorded too.
Spans stay in memory as (name, start, end, parent) and are written out once,
at the end of a run. The benchmark opens its own stage spans with `stage()`
so that every program span can be attributed to the stage that caused it.
"""

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name); "Class.method" patches a class attribute.
TARGETS = (
    ("pournet.simulate", "generate_dataset", "simulate.generate_dataset"),
    ("pournet.simulate", "retained_volume", "simulate.retained_volume"),
    ("pournet.simulate", "ungula_volume", "simulate.ungula_volume"),
    ("pournet.data", "serialize_dataset", "data.serialize_dataset"),
    ("pournet.data", "parse_dataset", "data.parse_dataset"),
    ("pournet.data", "pad_and_mask", "data.pad_and_mask"),
    ("pournet.data", "apply_normalizer", "data.apply_normalizer"),
    ("pournet.data", "fit_normalizer", "data.fit_normalizer"),
    ("pournet.data", "PaddedBatch.take", "data.take"),
    ("pournet.nn", "forward", "nn.forward"),
    ("pournet.nn", "model_forward", "nn.model_forward"),
    ("pournet.nn", "backward_through_layers", "nn.backward_through_layers"),
    ("pournet.nn", "ModelParams.from_flat", "nn.from_flat"),
    ("pournet.grad", "backward", "grad.backward"),
    ("pournet.grad", "check_gradients", "grad.check_gradients"),
    ("pournet.losses", "loss_and_grad", "losses.loss_and_grad"),
    ("pournet.optim", "adam_step", "optim.adam_step"),
    ("pournet.train", "train", "train.train"),
    ("pournet.train", "evaluate", "train.evaluate"),
    ("pournet.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("pournet.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("pournet.cli", "main", "cli.main"),
)


def cache_bytes(caches):
    """Bytes held by the distinct arrays in nn.forward's per-layer caches."""
    seen = {}
    for cache in caches:
        for value in (cache or {}).values():
            if isinstance(value, np.ndarray):
                seen[id(value)] = value.nbytes
    return sum(seen.values())


class Tracer:
    """Span recorder. While `enabled` is false the wrappers only forward calls."""

    def __init__(self):
        self.enabled = False
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.forward_obs = []  # (span index, valid steps, padded steps, eval cache bytes or None)

    def _wrap(self, name, fn, observe=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if observe is not None:
                observe(idx, args, kwargs, out)
            return out

        return wrapper

    def _observe_forward(self, idx, args, kwargs, out):
        mask = np.asarray(args[2] if len(args) > 2 else kwargs["mask"])
        mode = args[3] if len(args) > 3 else kwargs.get("mode", "eval")
        held = cache_bytes(out[1]) if mode == "eval" else None
        self.forward_obs.append((idx, float(mask.sum()), float(mask.size), held))

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "pournet" or n.startswith("pournet.")]
        for mod_name, attr, span_name in TARGETS:
            owner = sys.modules[mod_name]
            observe = self._observe_forward if span_name == "nn.forward" else None
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(span_name, raw.__func__, observe))
                else:
                    new = self._wrap(span_name, raw, observe)
                setattr(cls, meth, new)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(span_name, original, observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    @contextmanager
    def stage(self, name):
        """A benchmark-level span; a no-op while tracing is off."""
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.stack.pop()

    # -- queries ---------------------------------------------------------

    def ancestors(self, idx):
        parent = self.spans[idx][3]
        while parent >= 0:
            yield parent
            parent = self.spans[parent][3]

    def under(self, idx, name):
        return any(self.spans[a][0] == name for a in self.ancestors(idx))

    def find(self, name, within=None):
        """Indices of spans called `name`, optionally only below a span called `within`."""
        return [i for i, s in enumerate(self.spans)
                if s[0] == name and (within is None or self.under(i, within))]

    def duration(self, idx):
        return self.spans[idx][2] - self.spans[idx][1]

    def children(self):
        kids = defaultdict(list)
        for i, s in enumerate(self.spans):
            kids[s[3]].append(i)
        return kids

    def write(self, path):
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
