"""Command-line interface: compute functionals, sweep frames, reproduce cases.

Exit codes: 0 success; 2 configuration error (bad flags, unknown names,
malformed spec files); 3 any other domain failure, reported as one JSON
line on stderr with the failing chart point when a node failed; 4
reproduction run with at least one non-documented failing reference.

Each command returns its record and exit code; one writer stamps the
record and emits it as JSON (sorted keys), CSV (fixed column order), or
plain text.  Records are always finite: a NaN or infinite density, a
rank-deficient frame, or an asymmetric metric at any evaluated node (the
``--grid`` nodes and the halved error-estimate grid included) exits 3 and
names the node.  With identical configuration, seed, and ``--no-timing``,
output bytes are identical regardless of worker count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .errors import ConfigError, CurvfunError, NonFiniteError
from .frames import rotate_frame
from .quadrature import (
    DEFAULT_SAMPLES,
    FRAME_FREE,
    FUNCTIONALS,
    MAX_AXIS_NODES,
    MAX_SAMPLES,
    MAX_WORKERS,
    Axis,
    Grid,
    integrate,
    integrate_functional,
)
from .reproduce import CASE_NAMES, run_case
from .zoo import MANIFOLD_NAMES, load_manifold_file, manifold_by_name

_NORMALIZATION = {
    "gamma_d": "C_d = 1/(d!(4pi)^d) times the permutation sum "
    "(equivalently matching sum / (2pi)^d)",
    "gamma_mc": "(2d)! C_d times the Haar average of the consecutive-pair product",
    "gbc": "2^-d C_d times the signed double-permutation sum",
    "hilbert": "sum of sectional curvatures over ordered frame pairs (scalar curvature)",
    "volume": "Riemannian volume element sqrt(det g)",
}


def _parse_params(items):
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError("--param expects key=value, got %r" % item)
        k, v = (part.strip() for part in item.split("=", 1))
        if k in out:
            raise ConfigError("--param %s is given more than once" % k)
        out[k] = v
    return out


def _resolve_manifold(args):
    """The chart named by ``--spec-file`` or ``--manifold``, checked against ``--functional``."""
    if args.spec_file:
        if args.param:
            raise ConfigError("--param does not apply to the spec file %s" % args.spec_file)
        spec = load_manifold_file(args.spec_file)
    elif not args.manifold:
        raise ConfigError("one of --manifold or --spec-file is required")
    else:
        spec = manifold_by_name(args.manifold, _parse_params(args.param))
    if args.functional in ("gamma_d", "gamma_mc", "gbc") and spec.dim % 2 != 0:
        raise ConfigError("%s needs an even-dimensional manifold" % args.functional)
    return spec


def _grid(args, spec):
    """The spec's default grid, or its axes with the ``--grid`` node counts."""
    if not args.grid:
        return spec.default_grid
    try:
        ns = [int(v) for v in args.grid.split(",")]
    except ValueError:
        raise ConfigError("--grid expects comma-separated integers, got %r" % args.grid) from None
    if len(ns) == 1:
        ns = ns * spec.dim
    if len(ns) != spec.dim:
        raise ConfigError("--grid needs 1 or %d sizes, got %d" % (spec.dim, len(ns)))
    if any(n < 1 for n in ns):
        raise ConfigError("--grid sizes must be positive, got %r" % args.grid)
    if max(ns) > MAX_AXIS_NODES:
        raise ConfigError("--grid sizes must be at most %d, got %d" % (MAX_AXIS_NODES, max(ns)))
    return Grid(tuple(Axis(a.lo, a.hi, n, a.periodic) for a, n in zip(spec.default_grid.axes, ns)))


def _check_counts(args):
    """Reject ``--workers`` outside 1..``MAX_WORKERS``, a negative ``--seed`` and
    ``--samples`` over ``MAX_SAMPLES``, naming the flag."""
    if args.workers < 1:
        raise ConfigError("--workers must be at least 1, got %d" % args.workers)
    if args.workers > MAX_WORKERS:
        raise ConfigError("--workers must be at most %d, got %d" % (MAX_WORKERS, args.workers))
    if getattr(args, "seed", 0) < 0:
        raise ConfigError("--seed must be non-negative, got %d" % args.seed)
    if (getattr(args, "samples", None) or 0) > MAX_SAMPLES:
        raise ConfigError("--samples must be at most %d, got %d" % (MAX_SAMPLES, args.samples))


def _plane(text, dim, flag):
    """Parse a 1-based frame plane "a,b" given to ``flag``."""
    try:
        a, b = (int(v) for v in text.split(","))
    except ValueError:
        raise ConfigError("%s expects two comma-separated 1-based indices" % flag) from None
    if not (1 <= a <= dim and 1 <= b <= dim) or a == b:
        raise ConfigError("%s indices must be distinct and in 1..%d" % (flag, dim))
    return a, b


def _frame(args, dim):
    """The frame ``integrate_functional`` takes, and the record's ``frame`` object."""
    if args.frame != "rotated":
        for flag in ("rotate_plane", "rotate_angle"):
            if getattr(args, flag) is not None:
                raise ConfigError("--%s applies to --frame rotated only" % flag.replace("_", "-"))
        return args.frame, {"strategy": args.frame, "plane": None, "angle": None}
    if not args.rotate_plane:
        raise ConfigError("--frame rotated requires --rotate-plane a,b")
    a, b = _plane(args.rotate_plane, dim, "--rotate-plane")
    angle = 0.0 if args.rotate_angle is None else args.rotate_angle
    if not math.isfinite(angle):
        raise ConfigError("--rotate-angle must be finite, got %r" % angle)
    rot = rotate_frame(np.eye(dim), a - 1, b - 1, angle)
    return rot, {"strategy": "rotated", "plane": (a, b), "angle": angle}


def _record(args, name, frame, grid):
    """The header fields shared by every compute and frame-sweep record."""
    return {
        "command": args.command,
        "manifold": name,
        "params": _parse_params(args.param),
        "functional": args.functional,
        "normalization": _NORMALIZATION[args.functional],
        "frame": frame,
        "grid": grid,
        "seed": args.seed,
    }


# -- compute ----------------------------------------------------------------------


def cmd_compute(args):
    samples = args.samples
    if args.functional == "gamma_mc":
        samples = DEFAULT_SAMPLES if samples is None else samples
    elif samples is not None:
        raise ConfigError("--samples applies to --functional gamma_mc only")
    spec = _resolve_manifold(args)
    grid = _grid(args, spec)
    frame, frame_record = _frame(args, spec.dim)
    result = integrate_functional(
        spec.metric,
        grid,
        functional=args.functional,
        frame=frame,
        seed=args.seed,
        nsamples=samples,
        workers=args.workers,
    )
    record = _record(args, spec.name, frame_record, grid.describe())
    record.update(
        n_points=result.n_points,
        samples=samples,
        value=result.value,
        error_estimate=result.error_estimate,
        stderr=result.stderr,
    )
    oracle = args.functional == "gamma_d" and args.frame == "coordinate"
    if oracle and "k_d" in spec.oracles and "dV" in spec.oracles:
        # the coordinate-frame k_d integral; the oracles are constant where the metric is
        record["oracle_value"], _ = integrate(
            lambda p, i: (spec.oracles["k_d"](p) * spec.oracles["dV"](p), None),
            grid.collapse(spec.metric.depends_on),
            workers=args.workers,
        )
    if spec.notes:
        record["notes"] = spec.notes
    return record, 0


# -- frame sweep --------------------------------------------------------------------


def cmd_frame_sweep(args):
    if not 2 <= args.angles <= MAX_AXIS_NODES:
        raise ConfigError("--angles must be in 2..%d, got %d" % (MAX_AXIS_NODES, args.angles))
    spec = _resolve_manifold(args)
    a, b = _plane(args.plane, spec.dim, "--plane")
    grid = _grid(args, spec)
    rows = []
    for angle in np.linspace(0.0, math.pi / 2, args.angles):
        if rows and args.functional in FRAME_FREE:  # every angle reads as the coordinate frame
            rows.append({"angle": float(angle), "value": rows[0]["value"]})
            continue
        rot = rotate_frame(np.eye(spec.dim), a - 1, b - 1, float(angle))
        result = integrate_functional(
            spec.metric, grid, functional=args.functional, frame=rot,
            seed=args.seed, workers=args.workers, with_error_estimate=False,
        )
        rows.append({"angle": float(angle), "value": result.value})
    frame = {"strategy": "rotated-sweep", "plane": [a, b], "angle": None}
    record = _record(args, spec.name, frame, grid.describe())
    record.update(plane=[a, b], rows=rows)
    return record, 0


# -- reproduce -----------------------------------------------------------------------


def cmd_reproduce(args):
    cases = list(CASE_NAMES) if args.case == "all" else [args.case]
    results = [r.to_record() for c in cases for r in run_case(c, workers=args.workers)]
    failed = any(r["verdict"] == "FAIL" for r in results)
    return {"command": "reproduce", "cases": cases, "results": results}, 4 if failed else 0


# -- the record writer ---------------------------------------------------------------

_COMPUTE_COLUMNS = ["command", "manifold", "functional", "frame", "value", "error_estimate",
                    "stderr", "n_points", "seed", "wall_time"]
_REPRODUCE_COLUMNS = ["case", "quantity", "expected", "measured", "tolerance", "source",
                      "verdict", "note"]


def _table(record):
    """The CSV rows and the text lines of a finished record."""
    if record["command"] == "compute":
        row = [record["frame"]["strategy"] if k == "frame" else record.get(k)
               for k in _COMPUTE_COLUMNS]
        return [_COMPUTE_COLUMNS, row], ["%s = %r" % (k, record[k]) for k in sorted(record)]
    if record["command"] == "frame-sweep":
        rows = record["rows"]
        return ([["angle", "value"]] + [[r["angle"], r["value"]] for r in rows],
                ["angle=%.6f value=%.12g" % (r["angle"], r["value"]) for r in rows])
    results = record["results"]
    lines = []
    for rec in results:
        lines.append("[%s] %-55s %-22s expected=%s measured=%s (%s)" % (
            rec["verdict"], rec["case"] + ": " + rec["quantity"], rec["source"],
            rec["expected"], rec["measured"],
            "exact" if rec["tolerance"] is None else "tol=%g" % rec["tolerance"]))
        if rec["note"]:
            lines.append("    note: %s" % rec["note"])
    verdicts = [rec["verdict"] for rec in results]
    lines.append("%d checks, %d failed, %d documented discrepancies" % (
        len(verdicts), verdicts.count("FAIL"), verdicts.count("DISCREPANCY-DOCUMENTED")))
    return [_REPRODUCE_COLUMNS] + [[rec[k] for k in _REPRODUCE_COLUMNS] for rec in results], lines


def write_record(record, args, t0):
    """Stamp, check and write a command's record to ``--out`` or stdout.

    Stamps ``versions``, and ``wall_time`` (seconds since ``t0``) for the
    commands that have ``--no-timing`` unless it was given.  The record is
    serialised as JSON with ``allow_nan=False`` in every format, so a NaN or
    infinite value raises ``NonFiniteError`` and nothing is written.
    """
    record["versions"] = {
        "package": __version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__,
    }
    if not getattr(args, "no_timing", True):
        record["wall_time"] = time.monotonic() - t0
    try:
        body = json.dumps(record, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NonFiniteError("record holds a non-finite value (%s)" % exc) from None
    if args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(_table(record)[0])
        body = buf.getvalue()
    elif args.format == "text":
        body = "\n".join(_table(record)[1]) + "\n"
    if args.out:
        try:
            fh = open(args.out, "w")
        except OSError as exc:
            raise ConfigError("cannot open --out %s: %s" % (args.out, exc.strerror or exc)) from None
        with fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


# -- entry point ---------------------------------------------------------------------


_WORKERS_HELP = ("threads that evaluate the grid's chunks, curvfun's only parallelism: BLAS "
                 "runs one thread unless OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or "
                 "OMP_NUM_THREADS is set; records do not depend on either count")


def build_parser():
    p = argparse.ArgumentParser(
        prog="curvfun",
        description="Curvature functionals on charts, Lie groups, and complexes.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, functionals):
        sp.add_argument("--manifold", choices=sorted(MANIFOLD_NAMES))
        sp.add_argument("--spec-file", help="declarative JSON chart definition")
        sp.add_argument("--param", action="append", metavar="KEY=VALUE",
                        help="manifold parameter (repeatable), e.g. u=cos(x1)+cos(x2)")
        sp.add_argument("--functional", default="gamma_d", choices=sorted(functionals))
        sp.add_argument("--grid", help="per-axis node counts, e.g. 17,17,17,16 (or one size)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
        sp.add_argument("--format", default="json", choices=("json", "csv", "text"))
        sp.add_argument("--out", help="write output to this path instead of stdout")
        sp.add_argument("--no-timing", action="store_true",
                        help="omit wall_time for byte-reproducible output")

    pc = sub.add_parser("compute", help="evaluate one functional on one manifold")
    common(pc, FUNCTIONALS)
    pc.add_argument("--samples", type=int,
                    help="Monte Carlo frame samples per node (gamma_mc only; default %d)"
                    % DEFAULT_SAMPLES)
    pc.add_argument("--frame", default="coordinate", choices=("coordinate", "rotated", "haar"))
    pc.add_argument("--rotate-plane", metavar="A,B", help="1-based frame indices")
    pc.add_argument("--rotate-angle", type=float, help="radians, --frame rotated only (default 0)")
    pc.set_defaults(fn=cmd_compute)

    ps = sub.add_parser("frame-sweep", help="sweep a rotation angle in one frame plane")
    common(ps, set(FUNCTIONALS) - {"gamma_mc"})  # gamma_mc draws its own Haar frames
    ps.add_argument("--plane", required=True, metavar="A,B", help="1-based frame indices")
    ps.add_argument("--angles", type=int, default=9, help="number of angles in [0, pi/2]")
    ps.set_defaults(fn=cmd_frame_sweep)

    pr = sub.add_parser("reproduce", help="re-derive published reference values")
    pr.add_argument("case", help="one of %s, or 'all'" % ", ".join(CASE_NAMES))
    pr.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    pr.add_argument("--format", default="text", choices=("json", "csv", "text"))
    pr.add_argument("--out")
    pr.set_defaults(fn=cmd_reproduce)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad flags already; normalize other exits
        return int(e.code) if e.code else 0
    t0 = time.monotonic()
    try:
        _check_counts(args)
        record, code = args.fn(args)
        write_record(record, args, t0)
        return code
    except (ConfigError, ValueError) as e:
        print("configuration error: %s" % e, file=sys.stderr)
        return 2
    except CurvfunError as e:
        report = {"error": str(e)}
        if getattr(e, "point", None) is not None:
            report["failing_point"] = list(map(float, e.point))
        print(json.dumps(report, sort_keys=True), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
