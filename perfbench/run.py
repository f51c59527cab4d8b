"""curvfun benchmark: time to solution of four fixed CLI workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload s4_gamma_d --seed 1 --seconds 30 --trace 0

Every workload run is a closed loop with one client: each ``curvfun``
command is a fresh process started only after the previous one exited.  A
run repeats the workload until ``--seconds`` would be exceeded (at least
once) and checks every output.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the details and the provenance of the run.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace
1`` runs the workload untraced and under the span tracer of ``tracing.py``
in turn, twice each, and reports the per-layer metrics; the counts of the
two traced runs must repeat exactly.

Only the standard library is used, and the program is run from ``src/``
of the checkout the benchmark sits in.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import tracing  # sits beside this script

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = tracing.LAYER_METRICS + (("trace.overhead_s", "s"),)

SETUP_RUNS = 5
CHILD_TIMEOUT_S = 120.0

# A curvfun command as its console script runs it.
CURVFUN = ("-c", "import sys; from curvfun.cli import main; sys.exit(main())")


@dataclass(frozen=True)
class Command:
    """One curvfun invocation and the check its JSON record must pass."""

    argv: tuple
    check: Callable[[dict], list]


# -- checks ----------------------------------------------------------------------


def _reject_constant(token):
    raise ValueError("non-finite JSON token %s" % token)


def parse_strict(text):
    """Parse a JSON record, refusing the NaN/Infinity tokens json allows."""
    return json.loads(text, parse_constant=_reject_constant)


def _finite(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def check_compute(record, target=None, tol=1e-3):
    problems = []
    value = record.get("value")
    if not _finite(value):
        problems.append("value %r is not a finite number" % (value,))
    for key in ("error_estimate", "stderr"):
        if key not in record or not (record[key] is None or _finite(record[key])):
            problems.append("%s %r is neither finite nor null" % (key, record.get(key)))
    if target is not None and _finite(value) and abs(value - target) > tol:
        problems.append("value %r differs from %r by more than %g" % (value, target, tol))
    return problems


def _taubes_reference():
    with open(HERE / "taubes_reference.json") as fh:
        return json.load(fh)


def check_taubes(record):
    problems = check_compute(record)
    if problems:
        return problems
    ref = _taubes_reference()
    if not _finite(record["stderr"]):
        return ["stderr %r is not finite" % (record["stderr"],)]
    allowed = 4 * math.hypot(record["stderr"], ref["stderr"])
    if abs(record["value"] - ref["value"]) > allowed:
        return ["value %r is more than %g from the reference %r"
                % (record["value"], allowed, ref["value"])]
    return []


# Checks per reproduction case at the seed commit; a change in count is a failure.
REPRODUCE_CHECKS = {"su3": 6, "so4": 5, "cp2": 4, "klembeck": 6, "discrete": 6}


def check_reproduce(case):
    def check(record):
        results = record.get("results")
        if not isinstance(results, list):
            return ["no results list"]
        problems = []
        if len(results) != REPRODUCE_CHECKS[case]:
            problems.append("%s ran %d checks, expected %d"
                            % (case, len(results), REPRODUCE_CHECKS[case]))
        problems += ["%s: %s is FAIL" % (case, r.get("quantity"))
                     for r in results if r.get("verdict") == "FAIL"]
        return problems

    return check


# -- workloads ---------------------------------------------------------------------


def _s4(seed):
    argv = ("compute", "--manifold", "s4", "--workers", "1", "--no-timing")
    return (Command(argv, lambda r: check_compute(r, target=2.0)),)


def _taubes(seed):
    argv = ("compute", "--manifold", "taubes", "--functional", "gamma_mc",
            "--samples", "64", "--seed", str(seed), "--workers", "1", "--no-timing")
    return (Command(argv, check_taubes),)


def _e2xe2(seed):
    argv = ("compute", "--manifold", "e2xe2", "--workers", "2", "--no-timing")
    return (Command(argv, lambda r: check_compute(r, target=4.0)),)


def _exact(seed):
    return tuple(Command(("reproduce", case, "--format", "json"), check_reproduce(case))
                 for case in REPRODUCE_CHECKS)


# Workload name -> its commands for a seed; BENCHMARK.json says why each is there.
WORKLOADS = {
    "s4_gamma_d": _s4,
    "taubes_gamma_mc": _taubes,
    "e2xe2_gamma_d": _e2xe2,
    "exact_references": _exact,
}


# -- processes ---------------------------------------------------------------------


@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def spawn(args, timeout=CHILD_TIMEOUT_S):
    """Run this interpreter on ``args`` to exit; wall, CPU and peak RSS are the child's own."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "w+") as out, open(err_path, "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen((sys.executable,) + tuple(args), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(fd, select.POLLIN)
                if not poller.poll(timeout * 1000):
                    proc.kill()
            finally:
                os.close(fd)
        except BaseException:
            proc.kill()
            raise
        finally:
            # reap with wait4 so the usage is this child's alone
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - t0
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0, out.read(), err.read()[-2000:])


def run_command(cmd, traced=False):
    """One command; returns (Child, problems, spans_result_or_None)."""
    trace_out = WORK / "trace.json"
    if traced:
        child = spawn((str(HERE / "tracing.py"), str(trace_out), "--") + cmd.argv)
    else:
        child = spawn(CURVFUN + cmd.argv)
    traced_result = None
    text = child.stdout
    if traced and child.rc == 0:
        with open(trace_out) as fh:
            traced_result = json.load(fh)
        text = traced_result["stdout"]
        rc = traced_result["rc"]
    else:
        rc = child.rc
    if rc != 0:
        return child, ["%s exited %s: %s" % (" ".join(cmd.argv), rc, child.stderr.strip())], None
    try:
        record = parse_strict(text)
    except ValueError as exc:
        return child, ["%s: output is not strict JSON (%s)" % (" ".join(cmd.argv), exc)], None
    return child, cmd.check(record), traced_result


def run_workload(commands, traced=False):
    """All of a workload's commands in sequence, as one run."""
    run = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "problems": [], "layers": None}
    spans, absent, traced_commands = [], set(), 0
    for cmd in commands:
        child, problems, traced_result = run_command(cmd, traced)
        run["wall_s"] += child.wall_s
        run["cpu_s"] += child.cpu_s
        run["peak_rss_mb"] = max(run["peak_rss_mb"], child.rss_mb)
        run["problems"] += problems
        if traced_result is not None:
            traced_commands += 1
            absent.update(traced_result["absent"])
            # span ids restart in each process; shift them to keep them unique
            offset = max((s[0] for s in spans), default=0)
            spans += [(sid + offset, None if parent is None else parent + offset, *rest)
                      for sid, parent, *rest in traced_result["spans"]]
    if traced and traced_commands == len(commands):
        run["layers"] = tracing.layer_metrics(spans)
        run["absent"] = sorted(absent)
    return run


def setup_time(commands):
    """Seconds for a fresh interpreter to import the CLI, parse and build the specs."""
    argvs = json.dumps([list(c.argv) for c in commands])
    child = spawn((str(HERE / "probe.py"), argvs))
    if child.rc != 0:
        return None, "setup probe exited %s: %s" % (child.rc, child.stderr.strip())
    return child.wall_s, None


# -- provenance --------------------------------------------------------------------


def git_commit():
    """HEAD of the checkout if it is a git repository of its own, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance():
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


# -- measurement -------------------------------------------------------------------


def measure(name, commands, seconds, trace, setup_runs=SETUP_RUNS):
    """One benchmark run of a workload's commands; returns (details, result)."""
    WORK.mkdir(exist_ok=True)
    try:
        return _measure(name, commands, seconds, trace, setup_runs)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def _timed(commands, seconds, setup_runs, details):
    """Set-up probes, then workload runs until ``seconds`` would be exceeded."""
    problems, setups = [], []
    for _ in range(setup_runs):
        took, problem = setup_time(commands)
        if problem:
            problems.append(problem)
        else:
            setups.append(took)
    details["setup_runs"] = setups
    runs = []
    start = time.perf_counter()
    while True:
        runs.append(run_workload(commands))
        if time.perf_counter() - start + runs[-1]["wall_s"] > seconds:
            break
    metrics = {k: statistics.median(r[k] for r in runs) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    return runs, metrics, problems


def _traced(commands, details):
    """Untraced and traced runs, alternating, twice; the traced counts must agree."""
    runs = [run_workload(commands, traced=t) for t in (False, True, False, True)]
    untraced, traced = runs[0::2], runs[1::2]
    if any(r["layers"] is None for r in traced):
        return runs, {}, ["a traced run produced no spans"]
    problems = []
    counts = [{k: r["layers"][k] for k in tracing.COUNT_METRICS} for r in traced]
    if counts[0] != counts[1]:
        problems.append("counts differ between traced runs: %r" % counts)
    details["absent"] = traced[0]["absent"]
    metrics = {k: statistics.median(r["layers"][k] for r in traced)
               for k, _ in tracing.LAYER_METRICS}
    metrics.update(counts[0])
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in untraced))
    return runs, metrics, problems


def _measure(name, commands, seconds, trace, setup_runs):
    details = {"workload": name, "argv": [list(c.argv) for c in commands], "seconds": seconds,
               "trace": trace, "provenance": provenance(),
               "loadavg_before": list(os.getloadavg())}
    if trace:
        runs, metrics, problems = _traced(commands, details)
        units = PER_LAYER
    else:
        runs, metrics, problems = _timed(commands, seconds, setup_runs, details)
        units = END_TO_END
    details["loadavg_after"] = list(os.getloadavg())
    details["runs"] = [{k: r[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "problems")}
                       for r in runs]
    failed = sum(1 for r in runs if r["problems"])
    details["failed_fraction"] = failed / len(runs)
    details["problems"] = problems
    result = {
        "correct": not problems and failed == 0 and all(k in metrics for k, _ in units),
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units if k in metrics},
    }
    return details, result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # exit through the finally blocks, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "curvfun" / "cli.py").is_file():
        print("no curvfun sources at %s; run from a checkout of the repository" % SRC,
              file=sys.stderr)
        return 2
    commands = WORKLOADS[args.workload](args.seed)
    details, result = measure(args.workload, commands, args.seconds, bool(args.trace))
    details["seed"] = args.seed
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
