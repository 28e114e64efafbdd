"""In-memory span tracer that wraps spdp's layer entry points from outside.

Nothing under ``src/`` is edited. While a ``Tracer`` is installed, module
functions and class methods of the ``spdp`` package are replaced by timing
wrappers; on exit every original object is put back. A span records
``(parent, name, item, start_ns, end_ns)``; its id is its index in
``Tracer.spans``. Backward time per primitive comes from wrapping each graph
node's ``_backward`` closure just before ``Tensor.backward`` runs, keyed by
the closure's ``__qualname__`` (``matmul.<locals>.bw`` -> ``matmul``).
Nodes created inside a composite (``cosine_sim``, ``token_cross_entropy``)
get a backward span named ``tensor.<prim>.bwd@<composite>``, so the
composite's backward time is the sum of its nodes'.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import os
import sys
import time
from collections import defaultdict

# Every public tensor function that builds a graph node; the composites are
# also wrapped as a whole so their own glue and backward can be attributed.
TENSOR_FUNCS = ("add", "sub", "mul", "div", "neg", "power", "matmul", "exp", "log",
                "sqrt", "tanh", "gelu", "tsum", "tmean", "reshape", "transpose",
                "concat", "take", "embedding", "softmax", "log_softmax", "layer_norm",
                "cosine_sim", "token_cross_entropy", "class_nll", "conv1d")
COMPOSITES = ("cosine_sim", "token_cross_entropy")
# Primitives reported as per-layer metrics.
REPORTED_PRIMS = ("matmul", "add", "mul", "transpose", "reshape", "gelu", "softmax",
                  "log_softmax", "layer_norm", "take", "concat", "tsum", "conv1d",
                  "cosine_sim", "token_cross_entropy")

# (span name, module, function) for module-level functions. Every spdp module
# that imported the same object by name (e.g. ``spdp.trainer.predict``) is
# patched too.
MODULE_FUNCS = (
    ("corpus.generate", "corpus", "generate_corpus"),
    ("corpus.save", "corpus", "save_corpus"),
    ("corpus.load", "corpus", "load_corpus"),
    ("checkpoint.save", "checkpoint", "save_checkpoint"),
    ("checkpoint.load", "checkpoint", "load_checkpoint"),
    ("checkpoint.restore", "checkpoint", "restore_params"),
    ("fusion.total_loss", "fusion", "total_loss"),
    ("fusion.predict", "fusion", "predict"),
    ("trainer.train", "trainer", "train"),
    ("trainer.evaluate", "trainer", "evaluate"),
    ("audio.load_wav", "audio", "load_wav"),
    ("audio.extract_features5", "audio", "extract_features5"),
    ("audio.compute_bins", "audio", "compute_bins"),
    ("audio.filter", "audio", "filter_high_expressivity"),
    ("audio.sample_label", "audio", "sample_confused_label"),
    ("audio.annotate", "audio", "annotate_intersect"),
    ("audio.build_fixtures", "audio", "build_filter_fixture_set"),
)

# (span name, module, class, method)
METHODS = (
    ("layers.Linear", "layers", "Linear", "__call__"),
    ("layers.LayerNorm", "layers", "LayerNorm", "__call__"),
    ("layers.Embedding", "layers", "Embedding", "__call__"),
    ("layers.Conv1d", "layers", "Conv1d", "__call__"),
    ("layers.MultiHeadAttention", "layers", "MultiHeadAttention", "__call__"),
    ("layers.TransformerLayer", "layers", "TransformerLayer", "__call__"),
    ("serial.encode", "serial", "SerialModel", "encode"),
    ("serial.adapt", "serial", "SerialModel", "adapt"),
    ("serial.decode_hidden", "serial", "SerialModel", "decode_hidden"),
    ("serial.teacher_forced_loss", "serial", "SerialModel", "teacher_forced_loss"),
    ("serial.generate_greedy", "serial", "SerialModel", "generate_greedy"),
    ("parallel.forward", "parallel", "ParallelPathModel", "forward"),
    ("parallel.loss", "parallel", "ParallelPathModel", "loss"),
    ("optim.step", "optim", "AdamW", "step"),
    ("trainer.model_init", "trainer", "SpdpModel", "__init__"),
    ("trainer.batch_losses", "trainer", "SpdpModel", "batch_losses"),
)


def _module(name: str):
    return importlib.import_module(f"spdp.{name}")


def _aliases(fn) -> list[tuple[object, str]]:
    """Every (spdp module, attribute) that holds exactly this function object."""
    out = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is not None and (mod_name == "spdp" or mod_name.startswith("spdp.")):
            out.extend((mod, attr) for attr, val in list(vars(mod).items()) if val is fn)
    return out


@contextlib.contextmanager
def patched(replacements: list[tuple[object, str, object]]):
    """Set each ``owner.attr = new``; restore the original objects on exit."""
    originals = []
    try:
        for owner, attr, new in replacements:
            originals.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(originals):
            setattr(owner, attr, old)


def patch_targets() -> list[tuple[object, str]]:
    """Every (owner, attribute) that a traced run replaces."""
    return [(owner, attr) for owner, attr, _ in Tracer()._replacements()]


class Tracer:
    """Collects spans and counters while installed; single-threaded.

    Each span named ``item_start`` opens the next item (a training step, an
    utterance or a WAV file); every span records the item open at its start.
    """

    def __init__(self, item_start: str | None = None):
        self.spans: list[tuple | None] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.item = 0
        self.item_start = item_start
        self._stack: list[int] = []
        self._composites: list[str] = []
        self._made_in: dict[int, tuple[object, str]] = {}

    def wrap(self, name: str, fn, after=None, keep_meta: bool = True):
        """A function that runs ``fn`` inside a span called ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self
        starts_item = name == self.item_start

        def traced(*args, **kwargs):
            if starts_item:
                tracer.item += 1
            item = tracer.item
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (parent, name, item, t0, t1)
            if after is not None:
                after(args, out)
            return out

        return functools.wraps(fn)(traced) if keep_meta else traced

    def _wrap_prim(self, prim: str, fn):
        composites, made_in = self._composites, self._made_in
        is_composite = prim in COMPOSITES

        def run(*args, **kwargs):
            if is_composite:
                composites.append(prim)
            try:
                out = fn(*args, **kwargs)
            finally:
                if is_composite:
                    composites.pop()
            if composites and out.requires_grad:
                made_in[id(out)] = (out, composites[-1])
            return out

        return self.wrap(f"tensor.{prim}", functools.wraps(fn)(run))

    def _wrap_backward(self, orig):
        tracer, made_in = self, self._made_in

        def instrument(loss) -> None:
            nodes = graph_nodes(loss)
            tracer.counters["tensor.graph_nodes"] += len(nodes)
            for node in nodes:
                bw = node._backward
                if bw is None:
                    continue
                tracer.counters["tensor.graph_nodes_with_backward"] += 1
                name = f"tensor.{bw.__qualname__.split('.', 1)[0]}.bwd"
                tag = made_in.get(id(node))
                if tag is not None and tag[0] is node:
                    name += "@" + tag[1]
                node._backward = tracer.wrap(name, bw, keep_meta=False)

        # The graph walk gets its own span so that its cost stays out of the
        # caller's self time.
        walk = self.wrap("trace.graph_walk", instrument, keep_meta=False)
        timed = self.wrap("tensor.backward", orig)

        def backward(loss):
            walk(loss)
            try:
                timed(loss)
            finally:
                made_in.clear()

        return functools.wraps(orig)(backward)

    def _count_tokens(self, args, out) -> None:
        self.counters["serial.generate_greedy.tokens"] += len(out.tokens)

    def _count_bytes(self, args, out) -> None:
        self.counters["checkpoint.save.bytes"] += os.path.getsize(args[0])

    def _replacements(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, wrapper) for every patched entry point."""
        # Load every target module first, so that _aliases sees each importer.
        for mod in {"tensor"} | {m for _, m, _ in MODULE_FUNCS} | {m for _, m, _, _ in METHODS}:
            _module(mod)
        tensor = _module("tensor")
        after = {"serial.generate_greedy": self._count_tokens,
                 "checkpoint.save": self._count_bytes}
        reps: list[tuple[object, str, object]] = []
        funcs = [(f"tensor.{p}", "tensor", p) for p in TENSOR_FUNCS] + list(MODULE_FUNCS)
        for name, mod, attr in funcs:
            fn = getattr(_module(mod), attr)
            if mod == "tensor":
                new = self._wrap_prim(attr, fn)
            else:
                new = self.wrap(name, fn, after=after.get(name))
            reps.extend((owner, alias, new) for owner, alias in _aliases(fn))
        for name, mod, cls_name, attr in METHODS:
            cls = getattr(_module(mod), cls_name)
            reps.append((cls, attr, self.wrap(name, vars(cls)[attr], after=after.get(name))))
        reps.append((tensor.Tensor, "backward",
                     self._wrap_backward(vars(tensor.Tensor)["backward"])))
        return reps

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        with patched(self._replacements()):
            yield self

    def write(self, path) -> None:
        """Spans as gzip'd TSV: id, parent, name, item, start_ns, end_ns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tname\titem\tstart_ns\tend_ns\n")
            for sid, (parent, name, item, t0, t1) in enumerate(self.spans):
                fh.write(f"{sid}\t{parent}\t{name}\t{item}\t{t0}\t{t1}\n")


def graph_nodes(root) -> list:
    """Every tensor reachable from ``root`` through ``_parents``, root included."""
    seen = {id(root)}
    out = [root]
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                out.append(parent)
                stack.append(parent)
    return out


def self_times(spans: list[tuple]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    kids: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for parent, _, _, t0, t1 in spans:
        if parent >= 0:
            kids[parent].append((t0, t1))
    out = [t1 - t0 for _, _, _, t0, t1 in spans]
    for parent, intervals in kids.items():
        lo, hi = spans[parent][3], spans[parent][4]
        covered = 0
        run_lo = run_hi = None
        for a, b in sorted(intervals):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if run_hi is None or a > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = a, b
            else:
                run_hi = max(run_hi, b)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[parent] -= covered
    return out


def totals(spans: list[tuple]) -> dict[str, list[int]]:
    """name -> [calls, inclusive ns, self ns]."""
    selfs = self_times(spans)
    out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    for (_, name, _, t0, t1), own in zip(spans, selfs):
        row = out[name]
        row[0] += 1
        row[1] += t1 - t0
        row[2] += own
    return dict(out)


def top_level_ns(spans: list[tuple]) -> int:
    return sum(t1 - t0 for parent, _, _, t0, t1 in spans if parent < 0)
