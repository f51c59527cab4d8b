"""Fresh curvfun processes: the BLAS thread policy, records that do not depend
on the BLAS thread count, the size ceilings under an address-space limit, and
the peak memory of the dimension-8 GBC sum."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from curvfun.quadrature import MAX_AXIS_NODES, MAX_NODES, MAX_SAMPLES

ROOT = Path(__file__).resolve().parents[1]
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
CLI = "import sys; from curvfun.cli import main; sys.exit(main())"


def python(code, *args, env=None, address_space=None):
    """Run ``code`` in a fresh interpreter with none of the BLAS variables set
    but those in ``env``, optionally under an ``RLIMIT_AS`` of ``address_space`` bytes."""
    full_env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    full_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    full_env.update(env or {})
    preexec = None
    if address_space is not None:
        resource = pytest.importorskip("resource")

        def preexec():
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run([sys.executable, "-c", code, *args], env=full_env, cwd=ROOT,
                          capture_output=True, preexec_fn=preexec, timeout=120)


def test_import_sets_one_blas_thread():
    code = ("import os, curvfun; print(os.environ['OPENBLAS_NUM_THREADS']); "
            "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') "
            "else -1)")
    proc = python(code)
    assert proc.returncode == 0, proc.stderr
    value, threads = proc.stdout.decode().split()
    assert value == "1"
    if threads == "-1":
        pytest.skip("no /proc/self/task to count threads in")
    assert threads == "1"


@pytest.mark.parametrize("given", [{"OMP_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2"},
                                   {"GOTO_NUM_THREADS": "2"}])
def test_a_thread_count_the_caller_gave_is_kept(given):
    code = "import json, os, curvfun; print(json.dumps({k: os.environ.get(k) for k in %r}))"
    proc = python(code % (BLAS_VARIABLES,), env=given)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {k: given.get(k) for k in BLAS_VARIABLES}


@pytest.mark.parametrize("argv", [
    ["compute", "--manifold", "su3", "--functional", "gamma_mc", "--samples", "4096",
     "--seed", "0", "--no-timing"],
    ["compute", "--manifold", "e2xe2", "--grid", "7", "--workers", "2", "--no-timing"],
])
def test_records_do_not_depend_on_the_blas_thread_count(argv):
    one, two = (python(CLI, *argv, env={"OPENBLAS_NUM_THREADS": n}) for n in ("1", "2"))
    assert one.returncode == two.returncode == 0, one.stderr + two.stderr
    assert one.stdout == two.stdout


def test_su3_gbc_peaks_with_su3_volume():
    """In a fresh process su3's gbc run, a GBC sum in dimension 8, peaks
    within 16 MB of its volume run.  The two runs are compared with each
    other because the import floor differs by host."""
    pytest.importorskip("resource")
    code = ("import resource, sys; from curvfun.cli import main; code = main(); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr); "
            "sys.exit(code)")
    peaks = []
    for functional in ("gbc", "volume"):
        proc = python(code, "compute", "--manifold", "su3", "--functional", functional,
                      "--no-timing")
        assert proc.returncode == 0, proc.stderr
        peaks.append(int(proc.stderr.decode().split()[-1]))
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in bytes on macOS, KiB elsewhere
    assert (peaks[0] - peaks[1]) * unit < 16 * 2**20, peaks


def _spec_file(tmp_path, n, dim):
    path = tmp_path / "box.json"
    names = ["x%d" % (i + 1) for i in range(dim)]
    metric = [["1 + %s^2" % names[i] if i == j else "0" for j in range(dim)]
              for i in range(dim)]
    path.write_text(json.dumps({"axes": [{"lo": 0, "hi": 1, "n": n}] * dim, "metric": metric}))
    return ["compute", "--spec-file", str(path), "--grid", "3"]


# Each input asks for far more than the address-space limit, so a missing
# ceiling fails with a traceback (exit 1) instead of allocating.
@pytest.mark.parametrize("argv, flag, ceiling", [
    (["compute", "--manifold", "s4", "--grid", "9999999999999999999999"], "--grid",
     MAX_AXIS_NODES),
    (["compute", "--manifold", "s4", "--grid", str(MAX_AXIS_NODES + 1)], "--grid",
     MAX_AXIS_NODES),
    (["compute", "--manifold", "s4", "--grid", str(MAX_AXIS_NODES)], "--grid", MAX_NODES),
    (["compute", "--manifold", "s4", "--functional", "gamma_mc", "--samples", "1000000000",
      "--grid", "2"], "--samples", MAX_SAMPLES),
    (["compute", "--manifold", "su3", "--functional", "gamma_mc", "--samples",
      "99999999999999999999"], "--samples", MAX_SAMPLES),
    (["spec", 100000, 1], '"n"', MAX_AXIS_NODES),
    (["spec", MAX_AXIS_NODES, 3], '"n"', MAX_NODES),
    (["frame-sweep", "--manifold", "s4", "--plane", "1,2", "--angles", "1000000000"], "--angles",
     MAX_AXIS_NODES),
])
def test_oversized_requests_exit_2_naming_the_flag(tmp_path, argv, flag, ceiling):
    if argv[0] == "spec":
        argv = _spec_file(tmp_path, argv[1], argv[2])
    proc = python(CLI, *argv, "--no-timing", address_space=2**30)
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert proc.stdout == b""
    assert len(err.splitlines()) == 1
    assert flag in err and str(ceiling) in err
