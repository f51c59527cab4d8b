"""Span tracing of curvfun's layers from outside the package.

The tracer wraps public entry points of each curvfun module by name and
records one span per call: id, parent span, name, start, end, thread and a
few computed counts.  Spans stay in memory until the traced command ends.
Nothing in ``src/`` is changed: wrappers replace module and class
attributes at run time, in every curvfun module that imported the same
function object.

Run as a script, it executes one ``curvfun`` command in-process under the
tracer and writes the record, exit code and spans as JSON::

    PYTHONPATH=src python3 perfbench/tracing.py OUT.json -- compute --manifold s4 --grid 3

An entry point that no longer exists (renamed or deleted in a later commit)
is reported as absent, and the metrics that rest on it read 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import itertools
import json
import sys
import threading
import time

# Span names are "<layer>.<entry point>".  Each tuple is
# (layer, module, attribute path inside the module).
ENTRY_POINTS = (
    ("cli", "curvfun.cli", "main"),
    ("zoo", "curvfun.zoo", "manifold_by_name"),
    ("zoo", "curvfun.zoo", "load_manifold_file"),
    ("expressions", "curvfun.expressions", "parse_expression"),
    ("expressions", "curvfun.expressions", "Expression.__call__"),
    ("jets", "curvfun.geometry", "MetricField.jets"),
    ("geometry", "curvfun.geometry", "riemann_arrays"),
    ("geometry", "curvfun.geometry", "sectional_from_riemann"),
    ("geometry", "curvfun.geometry", "riemann_in_frame"),
    ("frames", "curvfun.frames", "gram_schmidt_frames"),
    ("frames", "curvfun.frames", "haar_orthogonal"),
    ("frames", "curvfun.frames", "point_rng"),
    ("functionals", "curvfun.functionals", "k_discrete"),
    ("functionals", "curvfun.functionals", "k_gbc"),
    ("functionals", "curvfun.functionals", "scalar_curvature"),
    ("functionals", "curvfun.functionals", "matching_sum"),
    ("functionals", "curvfun.functionals", "perm_sum"),
    ("functionals", "curvfun.functionals", "gbc_raw_sum"),
    ("quadrature", "curvfun.quadrature", "integrate"),
    ("quadrature", "curvfun.quadrature", "Grid.halved"),
    ("reproduce", "curvfun.reproduce", "run_case"),
)

# Layers traced as a whole: every public module-level function they define.
WHOLE_MODULES = (
    ("liegroups", "curvfun.liegroups"),
    ("discrete", "curvfun.discrete"),
    ("rationals", "curvfun.rationals"),
)

# Per-layer metrics and their units, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("jets.busy_s", "s"),
    ("jets.calls", "count"),
    ("jets.points", "count"),
    ("jets.bytes_out", "bytes"),
    ("geometry.riemann_s", "s"),
    ("geometry.contract_s", "s"),
    ("geometry.points", "count"),
    ("frames.gram_schmidt_s", "s"),
    ("frames.haar_s", "s"),
    ("frames.haar_draws", "count"),
    ("functionals.busy_s", "s"),
    ("quadrature.self_s", "s"),
    ("quadrature.nodes", "count"),
    ("quadrature.chunks", "count"),
    ("quadrature.estimate_share", "ratio"),
    ("quadrature.worker_idle_s", "s"),
    ("zoo.build_s", "s"),
    ("cli.self_s", "s"),
    ("expressions.eval_s", "s"),
    ("reproduce.self_s", "s"),
    ("reproduce.checks", "count"),
    ("liegroups.busy_s", "s"),
    ("discrete.busy_s", "s"),
    ("rationals.busy_s", "s"),
)

# Counts that must repeat exactly between two traced runs of the same code.
COUNT_METRICS = ("jets.calls", "jets.points", "jets.bytes_out", "frames.haar_draws",
                 "quadrature.nodes", "quadrature.chunks", "reproduce.checks")


def _nbytes(value):
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(v) for v in value)
    return int(getattr(value, "nbytes", 0))


def _draws(q):
    """Number of (n, n) rotations in a sampler's result, batched or not."""
    shape = getattr(q, "shape", ())
    count = 1
    for n in shape[:-2]:
        count *= n
    return count


def _measure_jets(args, kwargs, result):
    points = kwargs.get("points", args[1] if len(args) > 1 else ())
    return {"points": len(points), "bytes": _nbytes(result)}


# Counts computed from a call's arguments and result, by span name.
MEASURES = {
    "jets.MetricField.jets": _measure_jets,
    "geometry.riemann_arrays": lambda a, k, r: {"points": len(a[0]) if a else len(k["g"])},
    "frames.haar_orthogonal": lambda a, k, r: {"draws": _draws(r)},
    "reproduce.run_case": lambda a, k, r: {"checks": len(r)},
    "quadrature.Grid.halved": lambda a, k, r: {"parent_nodes": a[0].n_points},
}


class Tracer:
    """Records spans from wrapped entry points; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._halved = []
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, parent_hint=None, attrs=None, sid=None):
        """Run ``fn`` inside a span; a thread with no open span uses ``parent_hint``."""
        stack = self._stack()
        parent = stack[-1] if stack else parent_hint
        if sid is None:
            sid = next(self._ids)
        stack.append(sid)
        result = failed = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException:
            failed = True
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            measure = MEASURES.get(name)
            if measure is not None and not failed:
                try:
                    attrs = dict(attrs or {}, **measure(args, kwargs, result))
                except (TypeError, AttributeError, IndexError, KeyError):
                    pass  # a changed signature loses the count, not the run
            self.spans.append((sid, parent, name, t0, t1, threading.get_ident(), attrs))
            if name == "quadrature.Grid.halved" and not failed:
                self._halved.append(result)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return wrapper

    def _wrap_integrate(self, name, fn):
        """``integrate`` also wraps its density, so each chunk is a span."""
        tracer = self
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            grid = bound.arguments.get("grid")
            attrs = {
                "nodes": getattr(grid, "n_points", 0),
                "workers": max(1, int(bound.arguments.get("workers") or 1)),
                "halved": any(grid is h for h in tracer._halved),
            }
            sid = next(tracer._ids)
            density = bound.arguments.get("density")
            if density is not None:
                # chunks on worker threads open no span of their own first,
                # so they name this integrate span as their parent
                def traced_density(pts, *rest, **kw):
                    return tracer.call("quadrature.chunk", density, (pts,) + rest, kw,
                                       parent_hint=sid, attrs={"nodes": len(pts)})

                bound.arguments["density"] = traced_density
            return tracer.call(name, fn, bound.args, bound.kwargs, attrs=attrs, sid=sid)

        return wrapper

    def _replace(self, orig, wrapper):
        """Point every curvfun module attribute bound to ``orig`` at ``wrapper``."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "curvfun" or modname.startswith("curvfun.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._restore.append((module, attr, orig))
                    setattr(module, attr, wrapper)

    def install(self, entry_points=ENTRY_POINTS, whole_modules=WHOLE_MODULES):
        """Wrap every entry point that exists; record the ones that do not."""
        for layer, modname, path in entry_points:
            name = "%s.%s" % (layer, path)
            try:
                owner = importlib.import_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                orig = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            if name == "quadrature.integrate":
                wrapper = self._wrap_integrate(name, orig)
            else:
                wrapper = self._wrap(name, orig)
            if inspect.isclass(owner):
                self._restore.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
            else:
                self._replace(orig, wrapper)
        for layer, modname in whole_modules:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.absent.append(layer)
                continue
            for attr, value in sorted(vars(module).items()):
                if (attr.startswith("_") or inspect.isclass(value) or not callable(value)
                        or getattr(value, "__module__", None) != modname):
                    continue
                self._replace(value, self._wrap("%s.%s" % (layer, attr), value))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = {}
    for sid, parent, _name, t0, t1, _tid, _attrs in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _parent, _name, t0, t1, _tid, _attrs in spans:
        inside = [(max(s, t0), min(e, t1)) for s, e in children.get(sid, ()) if e > t0 and s < t1]
        out[sid] = (t1 - t0) - _covered(inside)
    return out


def layer_metrics(spans):
    """The per-layer metrics from the spans of traced commands (ids unique)."""
    selfs = self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)

    def self_of(*names):
        return sum(selfs[s[0]] for n in names for s in by_name.get(n, ()))

    def self_of_layer(layer):
        return sum(selfs[s[0]] for s in spans if s[2].split(".", 1)[0] == layer)

    def attr_sum(name, key):
        return sum((s[6] or {}).get(key, 0) for s in by_name.get(name, ()))

    integrates = by_name.get("quadrature.integrate", ())
    chunks = by_name.get("quadrature.chunk", ())
    parent_nodes = attr_sum("quadrature.Grid.halved", "parent_nodes")
    halved_nodes = sum(s[6]["nodes"] for s in integrates if s[6]["halved"])
    return {
        "jets.busy_s": self_of_layer("jets"),
        "jets.calls": len(by_name.get("jets.MetricField.jets", ())),
        "jets.points": attr_sum("jets.MetricField.jets", "points"),
        "jets.bytes_out": attr_sum("jets.MetricField.jets", "bytes"),
        "geometry.riemann_s": self_of("geometry.riemann_arrays"),
        "geometry.contract_s": self_of("geometry.sectional_from_riemann",
                                       "geometry.riemann_in_frame"),
        "geometry.points": attr_sum("geometry.riemann_arrays", "points"),
        "frames.gram_schmidt_s": self_of("frames.gram_schmidt_frames"),
        "frames.haar_s": self_of("frames.haar_orthogonal", "frames.point_rng"),
        "frames.haar_draws": attr_sum("frames.haar_orthogonal", "draws"),
        "functionals.busy_s": self_of_layer("functionals"),
        "quadrature.self_s": self_of_layer("quadrature"),
        "quadrature.nodes": sum(s[6]["nodes"] for s in integrates),
        "quadrature.chunks": len(chunks),
        "quadrature.estimate_share": halved_nodes / parent_nodes if parent_nodes else 0.0,
        "quadrature.worker_idle_s": (
            sum(s[6]["workers"] * (s[4] - s[3]) for s in integrates)
            - sum(s[4] - s[3] for s in chunks)
        ),
        "zoo.build_s": self_of_layer("zoo"),
        "cli.self_s": self_of_layer("cli"),
        "expressions.eval_s": self_of_layer("expressions"),
        "reproduce.self_s": self_of_layer("reproduce"),
        "reproduce.checks": attr_sum("reproduce.run_case", "checks"),
        "liegroups.busy_s": self_of_layer("liegroups"),
        "discrete.busy_s": self_of_layer("discrete"),
        "rationals.busy_s": self_of_layer("rationals"),
    }


def run_traced(argv):
    """Run ``curvfun`` with ``argv`` in this process under a fresh tracer."""
    cli = importlib.import_module("curvfun.cli")
    tracer = Tracer()
    tracer.install()
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    finally:
        run_s = time.perf_counter() - t0
        tracer.uninstall()
    return {"rc": rc, "stdout": out.getvalue(), "run_s": run_s,
            "absent": tracer.absent, "spans": tracer.spans}


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py OUT.json -- <curvfun arguments>", file=sys.stderr)
        return 2
    result = run_traced(argv[2:])
    with open(argv[0], "w") as fh:
        fh.write(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
