"""Spans around calls into gradecalc's public functions, recorded from outside.

``install`` replaces each traced function with a wrapper in every
``gradecalc.*`` module namespace that holds a reference to it (the CLI
imports names directly, so patching the defining module alone would miss its
calls).  Each span records its name, start, end and parent; spans stay in
memory and are summarised when the workload process ends.  A layer's self
time is its span duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

# (module, public name) of every traced function; methods as "Class.method".
TRACED = (
    ("algebra", "bch_group_law"),
    ("algebra", "validate_algebra"),
    ("calculus", "discretize"),
    ("geometry", "group_convolve"),
    ("geometry", "polar_integral_check"),
    ("geometry", "SphereQuadrature.build"),
    ("geometry", "quasi_triangle_constant"),
    ("heatflow", "spectral_plan"),
    ("heatflow", "dilated_plan"),
    ("heatflow", "heat_kernel"),
    ("heatflow", "heat_apply"),
    ("heatflow", "HeatKernelSource.__init__"),
    ("heatflow", "HeatKernelSource.__call__"),
    ("heatflow", "check_semigroup"),
    ("heatflow", "check_self_similarity"),
    ("potentials", "bessel_kernel"),
    ("potentials", "riesz_kernel"),
    ("potentials", "fractional_apply"),
    ("potentials", "bessel_apply_quadrature"),
    ("potentials", "riesz_homogeneity_defect"),
    ("sobolev", "sobolev_norm"),
    ("sobolev", "make_test_family"),
    ("sobolev", "equivalence_probe"),
    ("sobolev", "embedding_probe"),
    ("sobolev", "sup_embedding_probe"),
)

_METHOD_NAMES = {"__init__": "init", "__call__": "call"}


def span_name(module, attr):
    """Metric prefix of a traced function, e.g. ``heatflow.HeatKernelSource.init``."""
    head, _, method = attr.rpartition(".")
    if head:
        attr = f"{head}.{_METHOD_NAMES.get(method, method)}"
    return f"{module}.{attr}"


class Tracer:
    """In-memory span recorder plus counters keyed by metric name."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.active = False  # wrappers record only while set
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def summary(self):
        """Per span name: self seconds, wall seconds, calls and errors."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"s": 0.0, "wall": 0.0, "calls": 0, "errors": 0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["s"] += (end - start) - child[i]
            row["calls"] += 1
            if parent < 0:
                row["wall"] += end - start
        for key, n in self.counts.items():
            name, _, kind = key.rpartition(".")
            if kind == "errors":
                out[name]["errors"] += n
        return dict(out)


def _plan_bytes(plan):
    return sum(
        v.nbytes for v in (plan.eigenvalues, plan.eigenvectors, plan.mask)
    )


def _convolve_pairs(bound):
    f = bound.arguments["f"]
    zero_tol = bound.arguments.get("zero_tol", 0.0)
    vals = abs(f.values)
    thresh = zero_tol * vals.max() if zero_tol > 0 else 0.0
    return int((vals > thresh).sum()) * f.grid.size


# Work counts taken from a call's arguments (before) or its result (after).
_BEFORE = {"geometry.group_convolve": {"geometry.group_convolve.pairs": _convolve_pairs}}
_AFTER = {
    "heatflow.spectral_plan": {
        "heatflow.spectral_plan.n": lambda plan: len(plan.eigenvalues),
        "heatflow.plan.bytes": _plan_bytes,
    },
    "calculus.discretize": {"calculus.discretize.nnz": lambda A: int(A.nnz)},
}


def _wrap(tracer, name, fn):
    sig = inspect.signature(fn)
    before = _BEFORE.get(name, {})
    after = _AFTER.get(name, {})

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if before:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            for key, count in before.items():
                tracer.counts[key] += count(bound)
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            tracer.counts[name + ".errors"] += 1
            raise
        finally:
            tracer.close(index)
        for key, count in after.items():
            tracer.counts[key] += count(result)
        return result

    return traced


def install(tracer):
    """Route every function in ``TRACED`` through ``tracer``.

    Call after the workload has imported the gradecalc modules it uses.
    """
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("gradecalc")]
    for module, attr in TRACED:
        owner = sys.modules[f"gradecalc.{module}"]
        name = span_name(module, attr)
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(_wrap(tracer, name, raw.__func__)))
            else:
                setattr(cls, method, _wrap(tracer, name, raw))
            continue
        original = getattr(owner, attr)
        wrapper = _wrap(tracer, name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
