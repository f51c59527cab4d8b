"""Command-line interface: compute functionals, sweep frames, reproduce cases.

Exit codes: 0 success; 2 configuration error (bad flags, unknown names,
malformed spec files); 3 numerical failure during evaluation, with the
failing chart point in the report; 4 reproduction run with at least one
non-documented failing reference.

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
from .errors import ChartSingularityError, CurvfunError, NonFiniteError, SingularMetricError
from .frames import rotate_frame
from .functionals import k_discrete
from .quadrature import FUNCTIONALS, Axis, Grid, integrate, integrate_functional
from .reproduce import CASE_NAMES, run_case
from .zoo import MANIFOLD_NAMES, load_manifold_file, manifold_by_name

GROUP_NAMES = ("su3", "so4")

_NORMALIZATION = {
    "gamma_d": "C_d = 1/(d!(4pi)^d) times the permutation sum "
    "(equivalently matching sum / (2pi)^d)",
    "gamma_mc": "(2d)! C_d times the Haar average of the consecutive-pair product",
    "gbc": "2^-d C_d times the signed double-permutation sum",
    "hilbert": "sum of sectional curvatures over ordered frame pairs (scalar curvature)",
    "volume": "Riemannian volume element sqrt(det g)",
}


class ConfigError(Exception):
    pass


def _parse_params(items):
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError("--param expects key=value, got %r" % item)
        k, v = item.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _resolve_manifold(args):
    if args.spec_file:
        return load_manifold_file(args.spec_file)
    if not args.manifold:
        raise ConfigError("one of --manifold or --spec-file is required")
    params = _parse_params(args.param)
    return manifold_by_name(args.manifold, params)


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
    return Grid(tuple(Axis(a.lo, a.hi, n, a.periodic) for a, n in zip(spec.default_grid.axes, ns)))


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
        return args.frame, {"strategy": args.frame, "plane": None, "angle": None}
    if not args.rotate_plane:
        raise ConfigError("--frame rotated requires --rotate-plane a,b")
    a, b = _plane(args.rotate_plane, dim, "--rotate-plane")
    if not math.isfinite(args.rotate_angle):
        raise ConfigError("--rotate-angle must be finite, got %r" % args.rotate_angle)
    rot = rotate_frame(np.eye(dim), a - 1, b - 1, args.rotate_angle)
    return rot, {"strategy": "rotated", "plane": (a, b), "angle": args.rotate_angle}


def _record(args, name, frame, grid):
    """The header fields shared by every compute and frame-sweep record."""
    return {
        "command": args.command,
        "manifold": name,
        "functional": args.functional,
        "normalization": _NORMALIZATION[args.functional],
        "frame": frame,
        "grid": grid,
        "seed": args.seed,
    }


# -- compute ----------------------------------------------------------------------


def _compute_group(args):
    from . import liegroups as LG

    alg = LG.builtin_algebra(args.manifold)
    if args.functional != "gamma_d":
        raise ConfigError("group manifolds support --functional gamma_d only")
    frame, frame_record = _frame(args, alg.dim)
    if frame_record["strategy"] == "haar":
        from .frames import haar_orthogonal, point_rng

        frame = haar_orthogonal(alg.dim, point_rng(args.seed, 0))
    if frame_record["strategy"] != "coordinate":
        alg = LG.rotate_algebra(alg, frame)
    density = float(k_discrete(LG.biinvariant_sectional(alg)))
    volume = {"su3": math.pi**5, "so4": None}[args.manifold]
    if volume is None and density != 0:
        raise ConfigError("no volume on record for %r; density reported alone" % args.manifold)
    record = _record(args, args.manifold, frame_record, None)
    record["normalization"] += "; curvature constant over the group"
    record.update(n_points=1, samples=None, value=0.0 if volume is None else density * volume,
                  error_estimate=0.0, stderr=None, k_d_density=density, group_volume=volume)
    if args.manifold == "su3" and frame_record["strategy"] == "coordinate":
        ms, ps = LG.pairing_sums_exact(alg)
        record["exact"] = {
            "matching_sum": str(ms),
            "permutation_sum": str(ps),
            "gamma_closed_form": "117*pi/2^17",
        }
    return record


def cmd_compute(args):
    if args.manifold in GROUP_NAMES and not args.spec_file:
        return _compute_group(args), 0
    spec = _resolve_manifold(args)
    if args.functional in ("gamma_d", "gamma_mc", "gbc") and spec.dim % 2 != 0:
        raise ConfigError("%s needs an even-dimensional manifold" % args.functional)
    grid = _grid(args, spec)
    frame, frame_record = _frame(args, spec.dim)
    result = integrate_functional(
        spec.metric,
        grid,
        functional=args.functional,
        frame=frame,
        seed=args.seed,
        nsamples=args.samples,
        workers=args.workers,
    )
    record = _record(args, spec.name, frame_record, grid.describe())
    record.update(
        n_points=result.n_points,
        samples=args.samples if args.functional == "gamma_mc" else None,
        value=result.value,
        error_estimate=result.error_estimate,
        stderr=result.stderr,
    )
    if args.functional == "gamma_d" and "k_d" in spec.oracles and "dV" in spec.oracles:
        record["oracle_value"], _ = integrate(
            lambda p, i: (spec.oracles["k_d"](p) * spec.oracles["dV"](p), None),
            grid,
            workers=args.workers,
        )
    if spec.notes:
        record["notes"] = spec.notes
    return record, 0


# -- frame sweep --------------------------------------------------------------------


def cmd_frame_sweep(args):
    spec = _resolve_manifold(args)
    if args.angles < 2:
        raise ConfigError("--angles must be at least 2")
    a, b = _plane(args.plane, spec.dim, "--plane")
    grid = _grid(args, spec)
    rows = []
    for angle in np.linspace(0.0, math.pi / 2, args.angles):
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
    for c in cases:
        if c not in CASE_NAMES:
            raise ConfigError("unknown case %r (cases: %s, all)" % (c, ", ".join(CASE_NAMES)))
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


def build_parser():
    p = argparse.ArgumentParser(
        prog="curvfun",
        description="Curvature functionals on charts, Lie groups, and complexes.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--manifold", choices=sorted(MANIFOLD_NAMES + GROUP_NAMES))
        sp.add_argument("--spec-file", help="declarative JSON chart definition")
        sp.add_argument("--param", action="append", metavar="KEY=VALUE",
                        help="manifold parameter (repeatable), e.g. u=cos(x1)+cos(x2)")
        sp.add_argument("--functional", default="gamma_d", choices=sorted(FUNCTIONALS))
        sp.add_argument("--grid", help="per-axis node counts, e.g. 17,17,17,16 (or one size)")
        sp.add_argument("--samples", type=int, default=64,
                        help="Monte Carlo frame samples per node (gamma_mc)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--workers", type=int, default=1)
        sp.add_argument("--format", default="json", choices=("json", "csv", "text"))
        sp.add_argument("--out", help="write output to this path instead of stdout")
        sp.add_argument("--no-timing", action="store_true",
                        help="omit wall_time for byte-reproducible output")

    pc = sub.add_parser("compute", help="evaluate one functional on one manifold")
    common(pc)
    pc.add_argument("--frame", default="coordinate", choices=("coordinate", "rotated", "haar"))
    pc.add_argument("--rotate-plane", metavar="A,B", help="1-based frame indices")
    pc.add_argument("--rotate-angle", type=float, default=0.0)
    pc.set_defaults(fn=cmd_compute)

    ps = sub.add_parser("frame-sweep", help="sweep a rotation angle in one frame plane")
    common(ps)
    ps.add_argument("--plane", required=True, metavar="A,B", help="1-based frame indices")
    ps.add_argument("--angles", type=int, default=9, help="number of angles in [0, pi/2]")
    ps.set_defaults(fn=cmd_frame_sweep)

    pr = sub.add_parser("reproduce", help="re-derive published reference values")
    pr.add_argument("case", help="one of %s, or 'all'" % ", ".join(CASE_NAMES))
    pr.add_argument("--workers", type=int, default=1)
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
        record, code = args.fn(args)
        write_record(record, args, t0)
        return code
    except (ConfigError, ValueError) as e:
        print("configuration error: %s" % e, file=sys.stderr)
        return 2
    except ChartSingularityError as e:
        report = {"error": str(e), "failing_point": list(map(float, e.point))}
        print(json.dumps(report, sort_keys=True), file=sys.stderr)
        return 3
    except (NonFiniteError, SingularMetricError) as e:
        print(json.dumps({"error": str(e)}, sort_keys=True), file=sys.stderr)
        return 3
    except CurvfunError as e:
        print("error: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
