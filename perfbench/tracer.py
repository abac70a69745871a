"""In-memory span tracer that wraps mvops layers from outside the library.

Each layer is one module of the package.  `Tracer.install` replaces every
public module-level function of a layer, plus a few heavy methods, with a
wrapper that records a span (name, start, end, parent span, operation id).
A name is patched in every module that holds it, because `ttr`, `linrel`
and `families` import functions such as `pair_blocks` and `inner_block` by
name and look them up in their own namespace.

`MomentFunctional.moment` is counted but gets no span: it runs tens of
thousands of times per operation, almost always under `moment_vector`, so
its time stays in the moments layer through that caller.  Distinct moments
are counted as calls of the oracle a functional is built with, which the
memo calls once per multi-index.  Work the tracer does to turn arguments or
results into counts runs in a `trace.hook` span, so it is not charged to
any layer.

Spans live in flat arrays while the run lasts and are written out once, at
the end, by `write_spans`.
"""

from __future__ import annotations

import functools
import importlib
import math
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("moments", "indexing", "matrixkit", "mpoly", "construct", "ttr",
          "linrel", "families", "serialize", "cli")

# heavy methods that get spans; trivial accessors stay unwrapped
SPAN_METHODS = {
    "indexing": {"GradedBasis": ("shift_matrix", "joint_shift", "sum_table")},
    "moments": {"MomentFunctional": ("moment_vector", "moment_matrix")},
    "construct": {"PolySystem": ("to_monic", "transformed")},
}

OP_SPAN = "bench.op"
HOOK_SPAN = "trace.hook"
OWNERS = LAYERS + ("bench", "trace")

# per-function inclusive times reported as layer metrics
TIMED = {
    "construct.pair_s": ("construct.pair_blocks",),
    "construct.gram_schmidt_s": ("construct.gram_schmidt_monic",),
    "construct.koornwinder_s": ("construct.koornwinder_system",),
    "ttr.compute_s": ("ttr.compute_ttr",),
    "ttr.rank_s": ("ttr.validate_rank_conditions",),
    "ttr.generate_s": ("ttr.generate_from_ttr",),
    "linrel.relation_s": ("linrel.compute_relation",),
    "linrel.checks_s": ("linrel.classify_ranks", "linrel.recover_lambda",
                        "linrel.verify_mh", "linrel.functional_match_residual",
                        "linrel.relation_residual"),
    "linrel.partner_s": ("linrel.combined_from_reference",
                         "linrel.reference_from_combined"),
    "matrixkit.format_s": ("matrixkit.format_matrix",),
    "matrixkit.parse_s": ("matrixkit.parse_matrix",),
    "serialize.read_s": ("serialize.system_from_json", "serialize.ttr_from_json",
                         "serialize.relation_from_json"),
    "serialize.write_s": ("serialize.system_to_json", "serialize.ttr_to_json",
                          "serialize.relation_to_json"),
}

CALLS = {
    "matrixkit.solve_calls": ("matrixkit.solve",),
    "matrixkit.svd_calls": ("matrixkit.numeric_rank", "matrixkit.singular_values"),
    "matrixkit.lstsq_calls": ("matrixkit.lstsq",),
    "construct.pair_calls": ("construct.pair_blocks",),
}


def _log10(x: float) -> float:
    """log10 that maps NaN and infinity to 300 and zero to -300."""
    if math.isnan(x) or x == math.inf:
        return 300.0
    return math.log10(x) if x > 0 else -300.0


def self_times(starts, ends, parents) -> np.ndarray:
    """Duration of each span minus the part of it its children cover.

    A parent precedes its children in the arrays.  Child intervals are
    clipped to the parent; children of one span never overlap each other,
    because one thread records them one after another, so the covered part
    is the sum of the clipped child intervals.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    child = np.nonzero(parents >= 0)[0]
    par = parents[child]
    covered = np.clip(np.minimum(ends[child], ends[par])
                      - np.maximum(starts[child], starts[par]), 0.0, None)
    return (ends - starts) - np.bincount(par, weights=covered, minlength=len(starts))


def outermost(names, parents, wanted) -> list[int]:
    """Indices of spans named in `wanted` with no same-named ancestor."""
    out = []
    for idx, nid in enumerate(names):
        if nid not in wanted:
            continue
        parent = parents[idx]
        while parent >= 0 and names[parent] != nid:
            parent = parents[parent]
        if parent < 0:
            out.append(idx)
    return out


class Tracer:
    """Records spans and counters for the mvops layers while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.op_col = array("i")
        self._stack: list[int] = []
        self.op_id = -1
        self.counters: dict[str, float] = defaultdict(float)
        self._grams: list = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.starts)
        self.name_col.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.op_col.append(self.op_id)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def span_wrapper(self, name: str, fn, after=None):
        nid = self._nid(name)
        hook_nid = self._nid(HOOK_SPAN)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                hook = tracer._open(hook_nid)
                after(args, kwargs, result)
                tracer._close(hook)
            return result

        return wrapper

    def begin_op(self, op_id: int) -> int:
        self.op_id = op_id
        self._grams = []
        return self._open(self._nid(OP_SPAN))

    def end_op(self, idx: int) -> None:
        self._close(idx)
        # conditioning is computed after the operation so it costs no layer time
        for grams in self._grams:
            for h in grams.blocks:
                self._keep_max("construct.gram_cond_log10", _log10(float(np.linalg.cond(h))))
        self._grams = []
        self.op_id = -1

    def _keep_max(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, -math.inf), value)

    # -- hooks that turn arguments or results into counts --------------------

    def _count_moments(self, init, moment):
        tracer = self

        @functools.wraps(init)
        def counting_init(u, d, oracle, *args, **kwargs):
            def counted_oracle(alpha):
                tracer.counters["moments.distinct"] += 1
                return oracle(alpha)
            init(u, d, counted_oracle, *args, **kwargs)

        @functools.wraps(moment)
        def counting_moment(u, alpha):
            tracer.counters["moments.calls"] += 1
            return moment(u, alpha)

        return counting_init, counting_moment

    def _after_pair(self, args, kwargs, result):
        rows_a, rows_b = args[1], args[2]
        flops = 0
        for ga in rows_a.values():
            for gb in rows_b.values():
                ra, ca = ga.shape
                rb, cb = gb.shape
                flops += 2 * ra * ca * cb + 2 * ra * cb * rb + ra * rb
        self.counters["construct.pair_flops_computed"] += flops

    def _after_gram_schmidt(self, args, kwargs, result):
        self._grams.append(result[1])

    def _after_generate(self, args, kwargs, result):
        res = np.asarray(result[1], dtype=float)
        if res.size:
            self._keep_max("ttr.generate_resid_log10", _log10(float(np.max(res))))

    def _after_format(self, args, kwargs, result):
        self.counters["matrixkit.bytes_formatted"] += len(result)

    def _after_parse(self, args, kwargs, result):
        self.counters["matrixkit.bytes_parsed"] += len(args[0])

    def _after_write(self, args, kwargs, result):
        self.counters["serialize.bytes_written"] += len(result)

    def _after_read(self, args, kwargs, result):
        self.counters["serialize.bytes_read"] += len(args[0])

    def _after_family(self, args, kwargs, result):
        self.counters["families.records"] += len(result.records)

    def _hooks(self) -> dict:
        return {
            "construct.pair_blocks": self._after_pair,
            "construct.gram_schmidt_monic": self._after_gram_schmidt,
            "ttr.generate_from_ttr": self._after_generate,
            "matrixkit.format_matrix": self._after_format,
            "matrixkit.parse_matrix": self._after_parse,
            "serialize.system_to_json": self._after_write,
            "serialize.ttr_to_json": self._after_write,
            "serialize.relation_to_json": self._after_write,
            "serialize.system_from_json": self._after_read,
            "serialize.ttr_from_json": self._after_read,
            "serialize.relation_from_json": self._after_read,
            "families.build_family": self._after_family,
        }

    # -- patching ------------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Wrap the layers' public callables wherever a module holds them."""
        import mvops
        hooks = self._hooks()
        modules = [importlib.import_module(f"mvops.{layer}") for layer in LAYERS]
        replace: dict[int, object] = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                key = f"{layer}.{name}"
                replace[id(obj)] = self.span_wrapper(key, obj, hooks.get(key))
            for cls_name, methods in SPAN_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    self._restore.append((cls, meth, orig))
                    setattr(cls, meth, self.span_wrapper(f"{layer}.{cls_name}.{meth}", orig))
        MomentFunctional = modules[0].MomentFunctional
        init, moment = MomentFunctional.__dict__["__init__"], MomentFunctional.__dict__["moment"]
        self._restore += [(MomentFunctional, "__init__", init),
                          (MomentFunctional, "moment", moment)]
        MomentFunctional.__init__, MomentFunctional.moment = self._count_moments(init, moment)
        for mod in [mvops, *modules, *extra_modules]:
            for name, obj in list(vars(mod).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def reset_counters(self) -> None:
        """Forget counts gathered so far, e.g. during a traced set-up."""
        self.counters = defaultdict(float)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore = []

    # -- reduction -------------------------------------------------------------

    def _columns(self, in_ops: bool):
        """Names, starts, ends and re-indexed parents of one subset of spans."""
        op = np.frombuffer(self.op_col, dtype=np.int32)
        keep = np.nonzero(op >= 0 if in_ops else op < 0)[0]
        new_index = np.full(len(op) + 1, -1, dtype=np.int64)
        new_index[keep] = np.arange(len(keep))
        parents = np.frombuffer(self.parents, dtype=np.int32)[keep]
        return (np.frombuffer(self.name_col, dtype=np.int32)[keep],
                np.frombuffer(self.starts)[keep], np.frombuffer(self.ends)[keep],
                new_index[parents])

    def _layer_ids(self) -> np.ndarray:
        return np.array([OWNERS.index(n.split(".")[0]) for n in self.names], dtype=np.int64)

    def layer_table(self, n_ops: int) -> dict[str, float]:
        """Per-operation layer metrics over spans that belong to operations."""
        names, starts, ends, parents = self._columns(in_ops=True)
        selfs = self_times(starts, ends, parents)
        per = max(n_ops, 1)
        out: dict[str, float] = {}
        by_layer = np.bincount(self._layer_ids()[names], weights=selfs,
                               minlength=len(OWNERS))
        for i, layer in enumerate(OWNERS):
            out[f"{layer}.self_s"] = float(by_layer[i]) / per
        ids = {name: nid for nid, name in enumerate(self.names)}
        name_list, parent_list = names.tolist(), parents.tolist()
        for metric, fns in TIMED.items():
            wanted = {ids[f] for f in fns if f in ids}
            idx = outermost(name_list, parent_list, wanted)
            out[metric] = float(np.sum(ends[idx] - starts[idx])) / per
        counts = np.bincount(names, minlength=len(self.names))
        for metric, fns in CALLS.items():
            out[metric] = sum(int(counts[ids[f]]) for f in fns if f in ids) / per
        for metric in ("matrixkit.bytes_formatted", "matrixkit.bytes_parsed",
                       "serialize.bytes_read", "serialize.bytes_written",
                       "construct.pair_flops_computed", "families.records",
                       "moments.calls", "moments.distinct"):
            out[metric] = self.counters.get(metric, 0.0) / per
        calls = self.counters.get("moments.calls", 0.0)
        out["moments.memo_hit_ratio"] = (
            1.0 - self.counters.get("moments.distinct", 0.0) / calls if calls else 0.0)
        for metric in ("construct.gram_cond_log10", "ttr.generate_resid_log10"):
            value = self.counters.get(metric)
            out[metric] = 0.0 if value is None else value
        out["trace.spans"] = len(names) / per
        return out

    def setup_self(self, layer: str) -> float:
        """Self time of one layer over spans recorded outside operations."""
        names, starts, ends, parents = self._columns(in_ops=False)
        selfs = self_times(starts, ends, parents)
        mine = self._layer_ids()[names] == OWNERS.index(layer)
        return float(np.sum(selfs[mine]))

    def write_spans(self, path) -> int:
        """Save every span as compressed numpy columns (see np.load)."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name_col, dtype=np.int32),
            start_s=np.frombuffer(self.starts), end_s=np.frombuffer(self.ends),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            op=np.frombuffer(self.op_col, dtype=np.int32))
        return len(self.starts)
