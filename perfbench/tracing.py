"""Spans around qmla's layer functions, recorded from outside the package.

``install`` replaces each target function or method with a wrapper that
records a span: ``(id, parent_id, name, start, end, attrs)``.  Times come
from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so spans recorded in
pool workers line up with the parent's.  Spans stay in memory; workers
spool theirs to files when their outermost span closes, and the parent
merges the files after the batch.

A function imported by name into another module (``from .smc import
run_qhl``) or bound as a default argument (``compare=bayes_factor``) keeps
pointing at the original unless that binding is replaced too, so every
binding found in a ``qmla`` module namespace or function default is patched,
and ``leftover_bindings`` reports any that escaped.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from pathlib import Path

SPAN_ID_BITS = 32


class Tracer:
    """In-memory span buffer for one process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.pid = os.getpid()
        self._count = 0
        self.spool_dir = None
        self.root_parent = None

    def call(self, name, fn, args, kwargs, attrs_fn):
        self._count += 1
        sid = (self.pid << SPAN_ID_BITS) | self._count
        parent = self.stack[-1] if self.stack else self.root_parent
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close((sid, parent, name, start, time.perf_counter(), {"error": 1}))
            raise
        end = time.perf_counter()
        attrs = attrs_fn(args, kwargs, result) if attrs_fn is not None else None
        self._close((sid, parent, name, start, end, attrs))
        return result

    def _close(self, span):
        self.stack.pop()
        self.spans.append(span)
        if self.spool_dir is not None and not self.stack:
            self.spool()

    def become_worker(self, spool_dir, root_parent):
        """Start a fresh buffer in a pool worker whose spans hang under
        ``root_parent`` (the parent's batch span) and spool to ``spool_dir``."""
        self.pid = os.getpid()
        self.spans, self.stack, self._count = [], [], 0
        self.spool_dir = Path(spool_dir)
        self.root_parent = root_parent

    def spool(self):
        self._count += 1
        path = self.spool_dir / f"spans-{self.pid}-{self._count}.json"
        path.write_text(json.dumps(self.spans), encoding="utf-8")
        self.spans = []

    def collect_spool(self, spool_dir):
        """Merge and delete the span files workers left in ``spool_dir``."""
        for path in sorted(Path(spool_dir).glob("spans-*.json")):
            self.spans.extend(tuple(s) for s in json.loads(path.read_text("utf-8")))
            path.unlink()

    def __getstate__(self):
        # a spawned worker starts from an empty buffer
        state = dict(self.__dict__)
        state["spans"], state["stack"] = [], []
        return state


# ---------------------------------------------------------------------------
# what is wrapped


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return int(shape[0]) if len(shape) > 1 else 1


def _probabilities_attrs(args, kwargs, result):
    return {"particles": _rows(_arg(args, kwargs, 1, "params_batch"))}


def _experiments_attrs(args, kwargs, result):
    return {"experiments": len(_arg(args, kwargs, 2, "experiments"))}


def _run_qhl_attrs(args, kwargs, result):
    resampled = sum(1 for e in result.epochs if e.get("resampled"))
    return {"epochs": int(_arg(args, kwargs, 3, "num_epochs")), "resampled": resampled}


def _cle_attrs(args, kwargs, result):
    return {"epochs": int(_arg(args, kwargs, 2, "num_epochs"))}


def _break_cycles_attrs(args, kwargs, result):
    return {"comparisons": len(_arg(args, kwargs, 0, "comparisons"))}


def _hsb_attrs(args, kwargs, result):
    return {"particles": _rows(_arg(args, kwargs, 0, "particles"))}


def _mha_attrs(args, kwargs, result):
    steps = result.to_dict()["steps"]
    moves = sum(1 for s in steps if s["proposal"] != s["n_before"])
    return {"experiments_held": len(result.experiments), "moves": moves}


def _write_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _run_batch_attrs(args, kwargs, result):
    config = _arg(args, kwargs, 0, "config")
    workers = kwargs.get("workers")
    workers = config.parallelism if workers is None else workers
    return {"workers": workers if config.instances > 1 else 1}


def _eigh_attrs(args, kwargs, result):
    a = _arg(args, kwargs, 0, "a")
    return {"matrices": math.prod(a.shape[:-2])}


# (module, attribute path, span name, attrs function)
TARGETS = (
    ("numpy.linalg", "eigh", "system.eigh", _eigh_attrs),
    ("qmla.pauli", "assemble_batch", "pauli.assemble_batch", None),
    ("qmla.system", "HamiltonianModel.probabilities", "system.probabilities", _probabilities_attrs),
    ("qmla.system", "HamiltonianModel.probabilities_over", "system.probabilities_over", _experiments_attrs),
    ("qmla.system", "SimulatedSystem.new_design", "system.new_design", None),
    ("qmla.system", "SimulatedSystem.truth_probability", "system.truth_probability", None),
    ("qmla.smc", "run_qhl", "smc.run_qhl", _run_qhl_attrs),
    ("qmla.smc", "bayes_update", "smc.bayes_update", None),
    ("qmla.smc", "design_heuristic", "smc.design_heuristic", None),
    ("qmla.smc", "liu_west_resample", "smc.liu_west_resample", None),
    ("qmla.smc", "volume", "smc.volume", None),
    ("qmla.bayes", "bayes_factor", "bayes.bayes_factor", None),
    ("qmla.bayes", "cumulative_log_likelihood", "bayes.cumulative_log_likelihood", _experiments_attrs),
    ("qmla.bayes", "union_dataset", "bayes.union_dataset", None),
    ("qmla.search", "run_instance", "search.run_instance", None),
    ("qmla.search", "consolidate", "search.consolidate", None),
    ("qmla.search", "break_cycles", "search.break_cycles", _break_cycles_attrs),
    ("qmla.harness", "run_batch", "harness.run_batch", _run_batch_attrs),
    ("qmla.harness", "run_single_instance", "harness.run_single_instance", None),
    ("qmla.harness", "_write_json_atomic", "harness.write", _write_attrs),
    ("qmla.harness", "_write_csv", "harness.write", _write_attrs),
    ("qmla.harness", "emit_plot_data", "harness.emit_plot_data", None),
    ("qmla.harness", "aggregate_report", "harness.aggregate_report", None),
    ("qmla.bath", "mha_run", "bath.mha_run", _mha_attrs),
    ("qmla.bath", "cle_train", "bath.cle_train", _cle_attrs),
    ("qmla.bath", "hyper_signal_batch", "bath.hyper_signal_batch", _hsb_attrs),
    ("qmla.bath", "_hyper_log_likelihood", "bath.hyper_log_likelihood", None),
)


# ---------------------------------------------------------------------------
# installing and removing the wrappers


def _qmla_modules():
    return [m for n, m in list(sys.modules.items()) if n == "qmla" or n.startswith("qmla.")]


def _functions_of(module):
    """Functions defined in ``module``, including methods of its classes."""
    for value in list(vars(module).values()):
        if isinstance(value, type) and value.__module__ == module.__name__:
            for member in vars(value).values():
                member = getattr(member, "__func__", member)
                if hasattr(member, "__defaults__"):
                    yield member
        elif hasattr(value, "__defaults__") and getattr(value, "__module__", None) == module.__name__:
            yield value


def _wrapper_for(originals: dict, value):
    """The wrapper replacing ``value``, or None when it is not an original."""
    wrapper = originals.get(id(value))
    return wrapper if wrapper is not None and value is wrapper.__wrapped__ else None


def _stale_bindings(originals: dict):
    """(holder, attribute) of every qmla module name, and every function's
    defaults, that still reach an original."""
    for module in _qmla_modules():
        for key, value in list(vars(module).items()):
            if _wrapper_for(originals, value):
                yield module, key
        for fn in _functions_of(module):
            if any(_wrapper_for(originals, d) for d in fn.__defaults__ or ()):
                yield fn, "__defaults__"
            if any(_wrapper_for(originals, d) for d in (fn.__kwdefaults__ or {}).values()):
                yield fn, "__kwdefaults__"


def _rebind(originals: dict, undo: list) -> None:
    """Point every qmla binding of an original at its wrapper."""

    def swap(value):
        return _wrapper_for(originals, value) or value

    for holder, attr in list(_stale_bindings(originals)):
        old = getattr(holder, attr)
        if attr == "__defaults__":
            new = tuple(swap(d) for d in old)
        elif attr == "__kwdefaults__":
            new = {k: swap(d) for k, d in old.items()}
        else:
            new = swap(old)
        setattr(holder, attr, new)
        undo.append((holder, attr, old))


class Installation:
    """The wrappers in place; ``remove`` restores every binding."""

    def __init__(self):
        self.missing = []
        self.originals = {}
        self._undo = []

    def remove(self) -> None:
        for obj, key, value in reversed(self._undo):
            setattr(obj, key, value)
        self._undo = []

    def leftover_bindings(self) -> list:
        """qmla bindings that still reach an original (should be empty)."""
        return [f"{getattr(h, '__qualname__', h.__name__)}.{attr}"
                for h, attr in _stale_bindings(self.originals)]


def _make_wrapper(tracer, name, fn, attrs_fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, attrs_fn)

    return wrapper


def _traced_pool(tracer: Tracer, base, spool_dir):
    """A ProcessPoolExecutor whose workers record spans into ``spool_dir``."""

    class TracedPool(base):
        def __init__(self, *args, initializer=None, initargs=(), **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            super().__init__(
                *args,
                initializer=worker_init,
                initargs=(tracer, str(spool_dir), parent, initializer, initargs),
                **kwargs,
            )

    return TracedPool


def worker_init(tracer, spool_dir, parent, user_init, user_args):
    """Pool initializer: a forked worker inherits the wrappers, a spawned one
    installs them; either way it starts an empty, spooling span buffer."""
    import qmla.harness

    if not hasattr(qmla.harness.run_single_instance, "__wrapped__"):
        install(tracer)
    tracer.become_worker(spool_dir, parent)
    if user_init is not None:
        user_init(*user_args)


def install(tracer: Tracer, spool_dir=None) -> Installation:
    """Wrap every target that exists; record the ones that do not."""
    import importlib

    inst = Installation()
    for module_name, path, span_name, attrs_fn in TARGETS:
        module = importlib.import_module(module_name)
        owner, _, attr = path.rpartition(".")
        holder = getattr(module, owner, None) if owner else module
        fn = getattr(holder, attr, None) if holder is not None else None
        if fn is None:
            inst.missing.append(f"{module_name}.{path}")
            continue
        wrapper = _make_wrapper(tracer, span_name, fn, attrs_fn)
        setattr(holder, attr, wrapper)
        inst._undo.append((holder, attr, fn))
        inst.originals[id(fn)] = wrapper
    _rebind(inst.originals, inst._undo)
    if spool_dir is not None:
        import qmla.harness

        base = getattr(qmla.harness, "ProcessPoolExecutor", None)
        if base is None:
            inst.missing.append("qmla.harness.ProcessPoolExecutor")
        else:
            qmla.harness.ProcessPoolExecutor = _traced_pool(tracer, base, spool_dir)
            inst._undo.append((qmla.harness, "ProcessPoolExecutor", base))
    return inst


# ---------------------------------------------------------------------------
# reading spans back


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> its duration minus the part its child spans cover."""
    children = {}
    bounds = {s[0]: (s[3], s[4]) for s in spans}
    for sid, parent, *_ in spans:
        if parent in bounds:
            children.setdefault(parent, []).append(sid)
    out = {}
    for sid, (start, end) in bounds.items():
        clipped = [
            (max(bounds[c][0], start), min(bounds[c][1], end))
            for c in children.get(sid, ())
        ]
        out[sid] = (end - start) - covered([iv for iv in clipped if iv[1] > iv[0]])
    return out


def under(spans, ancestor_name: str) -> set:
    """Ids of spans that have a span named ``ancestor_name`` above them."""
    parent_of = {s[0]: s[1] for s in spans}
    name_of = {s[0]: s[2] for s in spans}
    memo = {}

    def walk(sid):
        chain = []
        result = False
        while sid is not None:
            if sid in memo:
                result = memo[sid]
                break
            chain.append(sid)
            parent = parent_of.get(sid)
            if parent is not None and name_of.get(parent) == ancestor_name:
                result = True
                break
            sid = parent
        for c in chain:
            memo[c] = result
        return result

    return {s[0] for s in spans if walk(s[0])}
