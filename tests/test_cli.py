"""The command-line interface: schemas, exit codes, and reproducibility."""

import argparse
import csv
import io
import json
import math

import pytest

from curvfun import cli
from curvfun.cli import main, write_record
from curvfun.errors import NonFiniteError
from curvfun.quadrature import Axis, Grid, _chunk_rows, integrate
from curvfun.zoo import MANIFOLD_NAMES, manifold_by_name

S2_ARGS = ["compute", "--manifold", "s2", "--grid", "9,8", "--no-timing"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_json_record(capsys):
    code, out, _ = run(capsys, S2_ARGS)
    assert code == 0
    rec = json.loads(out)
    assert rec["command"] == "compute"
    assert rec["value"] == pytest.approx(2.0, abs=1e-6)
    assert rec["functional"] == "gamma_d"
    assert rec["frame"]["strategy"] == "coordinate"
    assert rec["grid"][0]["n"] == 9
    assert "normalization" in rec and "versions" in rec
    assert "wall_time" not in rec  # --no-timing
    # side-by-side quadrature of the closed-form density
    assert rec["oracle_value"] == pytest.approx(2.0, abs=1e-6)


def test_oracle_value_matches_the_full_grid_integral(capsys):
    """The oracle pass runs on the grid collapsed to the metric's axes; it
    gives the integral over every requested node."""
    code, out, _ = run(capsys, ["compute", "--manifold", "s4", "--grid", "9,9,9,8",
                                "--no-timing"])
    assert code == 0
    spec = manifold_by_name("s4")
    full, _ = integrate(
        lambda p, i: (spec.oracles["k_d"](p) * spec.oracles["dV"](p), None),
        Grid(tuple(Axis(a.lo, a.hi, n, a.periodic)
                   for a, n in zip(spec.default_grid.axes, (9, 9, 9, 8)))),
    )
    assert json.loads(out)["oracle_value"] == pytest.approx(full, rel=1e-12)


def test_compute_csv_and_text(capsys):
    code, out, _ = run(capsys, S2_ARGS + ["--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:4] == ["command", "manifold", "functional", "frame"]
    assert float(rows[1][rows[0].index("value")]) == pytest.approx(2.0, abs=1e-6)

    code, out, _ = run(capsys, S2_ARGS + ["--format", "text"])
    assert code == 0
    assert "value" in out


def test_wall_time_present_by_default(capsys):
    code, out, _ = run(capsys, ["compute", "--manifold", "s2", "--grid", "5,4"])
    assert code == 0
    assert "wall_time" in json.loads(out)
    # the writer stamps the record before the CSV row is built from it
    code, out, _ = run(capsys, ["compute", "--manifold", "s2", "--grid", "5,4", "--format", "csv"])
    assert code == 0
    header, row = list(csv.reader(io.StringIO(out)))
    assert float(row[header.index("wall_time")]) >= 0.0


def test_byte_identity_across_worker_counts(tmp_path):
    # 65 x 65 nodes exceed one chunk, so the thread pool runs several chunks
    cases = (
        ["--functional", "gamma_d"],
        ["--functional", "gamma_mc", "--samples", "8"],
        ["--frame", "haar"],
    )
    for case, extra in enumerate(cases):
        outputs = []
        for w in (1, 2, 8):
            p = tmp_path / ("c%d_w%d.json" % (case, w))
            code = main(
                ["compute", "--manifold", "taubes", "--workers", str(w),
                 "--grid", "65,65,1,1", "--no-timing", "--out", str(p)] + extra
            )
            assert code == 0
            outputs.append(p.read_bytes())
        assert json.loads(outputs[0])["n_points"] > _chunk_rows(4)
        assert outputs[0] == outputs[1] == outputs[2], extra


def test_frame_sweep_byte_identity_across_worker_counts(tmp_path):
    # e2xe2 reads all four axes, so its 9 x 8 x 9 x 8 evaluated nodes exceed one chunk
    # and the thread pool runs several chunks
    outputs = []
    for w in (1, 2, 8):
        p = tmp_path / ("w%d.json" % w)
        code = main(["frame-sweep", "--manifold", "e2xe2", "--plane", "1,3", "--angles", "3",
                     "--grid", "9,8,9,8", "--workers", str(w), "--no-timing", "--out", str(p)])
        assert code == 0
        outputs.append(p.read_bytes())
    grid = Grid(tuple(Axis(**a) for a in json.loads(outputs[0])["grid"]))
    assert grid.collapse(manifold_by_name("e2xe2").metric.depends_on).n_points > _chunk_rows(4)
    assert len(json.loads(outputs[0])["rows"]) == 3
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_write_record_rejects_non_finite_field(capsys, fmt):
    args = argparse.Namespace(format=fmt, out=None, no_timing=True)
    record = {"command": "compute", "frame": {"strategy": "coordinate"}, "value": math.nan}
    with pytest.raises(NonFiniteError):
        write_record(record, args, 0.0)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("samples", ["0", "1"])
def test_gamma_mc_needs_two_samples(capsys, samples):
    code, out, _ = run(capsys, ["compute", "--manifold", "s2", "--functional",
                                "gamma_mc", "--samples", samples])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["compute", "--manifold", "s2", "--grid", "5"],
    ["compute", "--manifold", "s2", "--grid", "5", "--functional", "volume"],
    ["compute", "--manifold", "su3"],
    ["frame-sweep", "--manifold", "s2xs2", "--plane", "1,3", "--grid", "3"],
])
def test_samples_without_gamma_mc_exits_2(capsys, argv):
    code, out, err = run(capsys, argv + ["--samples", "5", "--no-timing"])
    assert code == 2
    assert out == ""
    assert "--samples" in err


def test_gamma_mc_record_reports_default_samples(capsys):
    code, out, _ = run(capsys, ["compute", "--manifold", "s2", "--grid", "3,4",
                                "--functional", "gamma_mc", "--no-timing"])
    assert code == 0
    assert json.loads(out)["samples"] == 64


def test_unknown_manifold_exits_2(capsys):
    code, _, _ = run(capsys, ["compute", "--manifold", "klein-bottle"])
    assert code == 2


def test_rotated_frame_requires_plane(capsys):
    code, _, err = run(capsys, ["compute", "--manifold", "s2", "--frame", "rotated"])
    assert code == 2
    assert "rotate-plane" in err


def test_bad_plane_indices_exit_2(capsys):
    code, _, _ = run(
        capsys,
        ["compute", "--manifold", "s2", "--frame", "rotated",
         "--rotate-plane", "1,7", "--rotate-angle", "0.3"],
    )
    assert code == 2


@pytest.mark.parametrize("angle", ["nan", "inf"])
def test_non_finite_rotate_angle_exits_2(capsys, angle):
    code, out, err = run(capsys, ["compute", "--manifold", "s2", "--grid", "5", "--frame",
                                  "rotated", "--rotate-plane", "1,2", "--rotate-angle", angle,
                                  "--no-timing"])
    assert code == 2
    assert out == ""
    assert "--rotate-angle" in err


@pytest.mark.parametrize("frame", [[], ["--frame", "haar"]])
@pytest.mark.parametrize("flag, value", [("--rotate-plane", "1,2"), ("--rotate-angle", "0.7")])
def test_rotation_flags_without_the_rotated_frame_exit_2(capsys, frame, flag, value):
    code, out, err = run(capsys, ["compute", "--manifold", "s2", "--grid", "5", flag, value,
                                  "--no-timing"] + frame)
    assert code == 2
    assert out == ""
    assert flag in err


def test_rotated_frame_angle_defaults_to_zero(capsys):
    base = ["compute", "--manifold", "s2", "--grid", "9,8", "--no-timing"]
    code, out, _ = run(capsys, base + ["--frame", "rotated", "--rotate-plane", "1,2"])
    assert code == 0
    rec = json.loads(out)
    assert rec["frame"] == {"strategy": "rotated", "plane": [1, 2], "angle": 0.0}
    code, out, _ = run(capsys, base)
    assert code == 0
    assert rec["value"] == json.loads(out)["value"]


@pytest.mark.parametrize("manifold, grid, oracle", [("s4", "5", 2.0016727115818287),
                                                    ("su3", "1", 0.002804308627853438)])
def test_oracle_value_is_reported_in_the_coordinate_frame_only(capsys, manifold, grid, oracle):
    # the oracle is the coordinate-frame k_d integral, which another frame need not reach
    base = ["compute", "--manifold", manifold, "--grid", grid, "--no-timing"]
    code, out, _ = run(capsys, base)
    assert code == 0
    assert json.loads(out)["oracle_value"] == oracle
    for frame in (["--frame", "haar"], ["--frame", "rotated", "--rotate-plane", "1,2",
                                        "--rotate-angle", "0.3"]):
        code, out, _ = run(capsys, base + frame)
        assert code == 0
        assert "oracle_value" not in json.loads(out), frame


def _flat_box(tmp_path):
    """A 3-axis flat user chart, which cannot carry the even-dimensional functionals."""
    spec = {
        "name": "flat-box",
        "axes": [{"lo": 0, "hi": 1, "n": 3} for _ in range(3)],
        "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    }
    p = tmp_path / "box.json"
    p.write_text(json.dumps(spec))
    return str(p)


def test_odd_dimensional_gamma_rejected(tmp_path, capsys):
    code, _, err = run(capsys, ["compute", "--spec-file", _flat_box(tmp_path),
                                "--functional", "gamma_d"])
    assert code == 2
    assert "even-dimensional" in err


def test_frame_sweep_odd_dimension_exits_2(tmp_path, capsys):
    # used to reach the integrator and exit 3, the numerical-failure code
    code, out, err = run(capsys, ["frame-sweep", "--spec-file", _flat_box(tmp_path),
                                  "--plane", "1,2", "--no-timing"])
    assert code == 2
    assert out == ""
    assert "even-dimensional" in err


@pytest.mark.parametrize("manifold,param", [
    ("e2", "a=0"), ("e2", "b=-2"), ("e2", "c=abc"), ("e2", "a=inf"),
    ("e4", "a=nan"), ("e4", "a=0"), ("e4gen", "a1=inf"), ("e4gen", "a3=-1"),
])
def test_bad_semi_axis_exits_2_naming_it(capsys, manifold, param):
    code, out, err = run(capsys, ["compute", "--manifold", manifold, "--grid", "3",
                                  "--param", param, "--no-timing"])
    assert code == 2
    assert out == ""
    assert "semi-axis %s " % param.split("=")[0] in err


@pytest.mark.parametrize("frame", [["--frame", "haar"],
                                   ["--frame", "rotated", "--rotate-plane", "1,2"]])
def test_gamma_mc_rejects_non_coordinate_frame(capsys, frame):
    # gamma_mc averages over its own Haar frames; a requested frame would be ignored
    code, out, err = run(capsys, ["compute", "--manifold", "s2", "--grid", "5",
                                  "--functional", "gamma_mc", "--samples", "4"] + frame)
    assert code == 2
    assert out == ""
    assert "coordinate frame" in err


@pytest.mark.parametrize("payload", [
    {"name": "no-axes", "metric": [["1", "0"], ["0", "1"]]},
    {"name": "asymmetric", "axes": [{"lo": 0, "hi": 1, "n": 5}, {"lo": 0, "hi": 1, "n": 5}],
     "metric": [["2", "x1"], ["0", "1"]]},
])
def test_bad_spec_file_exits_2(tmp_path, capsys, payload):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(payload))
    code, out, err = run(capsys, ["compute", "--spec-file", str(p), "--functional", "hilbert"])
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error")


def test_singular_spec_file_exits_3_with_point(tmp_path, capsys):
    spec = {
        "name": "sign-flip",
        "axes": [
            {"lo": -1.0, "hi": 1.0, "n": 7, "periodic": False},
            {"lo": 0.0, "hi": 1.0, "n": 3, "periodic": False},
        ],
        "metric": [["x1", "0"], ["0", "1"]],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(spec))
    code, _, err = run(capsys, ["compute", "--spec-file", str(p), "--functional", "volume"])
    assert code == 3
    report = json.loads(err)
    assert "failing_point" in report
    assert report["failing_point"][0] < 0  # the sign flip happens at negative x1


def test_spec_file_compute(tmp_path, capsys):
    spec = {
        "name": "flat-band",
        "axes": [
            {"lo": 0.0, "hi": "2*pi", "n": 6, "periodic": True},
            {"lo": 0.0, "hi": 1.0, "n": 4, "periodic": False},
        ],
        "metric": [["1", "0"], ["0", "1"]],
    }
    p = tmp_path / "flat.json"
    p.write_text(json.dumps(spec))
    code, out, _ = run(capsys, ["compute", "--spec-file", str(p), "--no-timing"])
    assert code == 0
    rec = json.loads(out)
    assert rec["manifold"] == "flat-band"
    assert rec["value"] == 0.0


def test_group_manifold_record(capsys):
    code, out, _ = run(capsys, ["compute", "--manifold", "su3", "--no-timing"])
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == 0.0028043086278534374
    assert rec["oracle_value"] == pytest.approx(117 * math.pi / 2**17, rel=1e-12)
    assert [(a["lo"], a["hi"], a["n"]) for a in rec["grid"]] == (
        [(0.0, math.pi**5, 1)] + [(0.0, 1.0, 1)] * 7)
    assert rec["error_estimate"] is None
    code, out, _ = run(capsys, ["compute", "--manifold", "so4", "--no-timing"])
    assert json.loads(out)["value"] == 0.0


def test_group_manifold_runs_every_functional(capsys):
    for manifold in ("su3", "so4"):
        for extra in (["--functional", "gbc"], ["--functional", "hilbert"],
                      ["--functional", "volume"], ["--functional", "gamma_mc", "--samples", "256"],
                      ["--frame", "haar"],
                      ["--frame", "rotated", "--rotate-plane", "1,4", "--rotate-angle", "0.3"]):
            code, out, _ = run(capsys, ["compute", "--manifold", manifold, "--no-timing"] + extra)
            assert code == 0, (manifold, extra)
            assert math.isfinite(json.loads(out)["value"]), (manifold, extra)


@pytest.mark.parametrize("manifold", ["su3", "so4"])
def test_group_gamma_d_ignores_the_grid_size(capsys, manifold):
    values = []
    for grid in ([], ["--grid", "2"]):
        code, out, _ = run(capsys, ["compute", "--manifold", manifold, "--no-timing"] + grid)
        assert code == 0
        values.append(json.loads(out)["value"])
    assert values[0] == values[1]


@pytest.mark.parametrize("extra", [["--frame", "haar"],
                                   ["--functional", "gamma_mc", "--samples", "64"]])
def test_group_records_are_byte_identical_across_workers(capsys, extra):
    outs = []
    for workers in ("1", "2"):
        code, out, _ = run(capsys, ["compute", "--manifold", "su3", "--grid", "2", "--seed", "5",
                                    "--workers", workers, "--no-timing"] + extra)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_group_frame_sweep_runs(capsys):
    code, out, _ = run(capsys, ["frame-sweep", "--manifold", "su3", "--plane", "1,2",
                                "--angles", "3", "--no-timing"])
    assert code == 0
    assert all(math.isfinite(r["value"]) for r in json.loads(out)["rows"])


@pytest.mark.parametrize("manifold", ["su3", "so4"])
@pytest.mark.parametrize("flag, value", [("--grid", "abc"), ("--param", "u=1")])
def test_group_manifold_rejects_chart_flags(capsys, manifold, flag, value):
    code, out, err = run(capsys, ["compute", "--manifold", manifold, flag, value, "--no-timing"])
    assert code == 2
    assert out == ""
    assert flag in err


def test_frame_sweep_csv(capsys):
    code, out, _ = run(
        capsys,
        ["frame-sweep", "--manifold", "s2xs2", "--plane", "1,3", "--angles", "3",
         "--grid", "7,6,7,6", "--format", "csv", "--no-timing"],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["angle", "value"]
    assert len(rows) == 4
    angles = [float(r[0]) for r in rows[1:]]
    assert angles[0] == 0.0 and angles[-1] == pytest.approx(math.pi / 2)
    values = [float(r[1]) for r in rows[1:]]
    # the coordinate-aligned frame beats the 45-degree one; the 90-degree rotation only
    # reorders the product frame, so it matches the coordinate frame up to rounding
    assert values[0] > values[1]
    assert values[2] == pytest.approx(values[0], rel=1e-12)
    assert values[0] == pytest.approx(4.0, abs=1e-2)


@pytest.mark.parametrize("functional, calls", [("gbc", 1), ("gamma_d", 4)])
def test_frame_sweep_integrates_a_frame_free_functional_once(monkeypatch, capsys,
                                                              functional, calls):
    """gbc reads every angle as the coordinate frame, so one integral fills every row."""
    real, seen = cli.integrate_functional, []

    def spy(*args, **kwargs):
        seen.append(kwargs["frame"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "integrate_functional", spy)
    code, out, _ = run(capsys, ["frame-sweep", "--manifold", "s2xs2", "--plane", "1,3",
                                "--angles", "4", "--grid", "5", "--functional", functional,
                                "--no-timing"])
    assert code == 0
    assert len(seen) == calls
    rows = json.loads(out)["rows"]
    assert len(rows) == 4
    if calls == 1:
        assert len({r["value"] for r in rows}) == 1


def test_frame_sweep_rejects_bad_plane(capsys):
    code, _, _ = run(capsys, ["frame-sweep", "--manifold", "s2", "--plane", "1,1"])
    assert code == 2


def test_reproduce_json_and_exit_codes(capsys):
    code, out, _ = run(capsys, ["reproduce", "so4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "reproduce"
    verdicts = {r["verdict"] for r in payload["results"]}
    assert verdicts <= {"PASS", "DISCREPANCY-DOCUMENTED"}
    code, _, err = run(capsys, ["reproduce", "not-a-case"])
    assert code == 2
    assert len(err.splitlines()) == 1 and "unknown case 'not-a-case'" in err


def test_reproduce_text_summary_line(capsys):
    code, out, _ = run(capsys, ["reproduce", "cp2"])
    assert code == 0
    assert "documented discrepancies" in out.splitlines()[-1]


def _box_spec(tmp_path, metric, axes=None):
    spec = {"name": "box", "metric": metric,
            "axes": axes or [{"lo": 0, "hi": 1, "n": 3}, {"lo": 0, "hi": 1, "n": 3}]}
    p = tmp_path / "box.json"
    p.write_text(json.dumps(spec))
    return str(p)


def _failing_point(code, out, err):
    assert code == 3
    assert out == ""
    report = json.loads(err)
    assert len(report["failing_point"]) == 2
    return report


@pytest.mark.parametrize("functional", ["volume", "gamma_d"])
def test_non_finite_density_exits_3_with_point(tmp_path, capsys, functional):
    # det g = 1e400 overflows: volume is infinite and gamma_d is NaN
    p = _box_spec(tmp_path, [["1e200", "0"], ["0", "1e200"]])
    report = _failing_point(*run(capsys, ["compute", "--spec-file", p, "--functional",
                                          functional, "--no-timing"]))
    assert "not finite" in report["error"]


def test_rank_deficient_frame_exits_3_with_point(tmp_path, capsys):
    p = _box_spec(tmp_path, [["1e-30", "0"], ["0", "1"]])
    report = _failing_point(*run(capsys, ["compute", "--spec-file", p, "--no-timing"]))
    assert "Gram-Schmidt" in report["error"]


@pytest.mark.parametrize("grid", [[], ["--grid", "5,3"]])
def test_asymmetric_metric_off_default_grid_exits_3(tmp_path, capsys, grid):
    # the gap x1^2 - 1/3 vanishes at the two default Gauss nodes +-1/sqrt(3), so the
    # file loads; the halved grid's x1 = 0 and the --grid nodes expose it
    axes = [{"lo": -1, "hi": 1, "n": 2}, {"lo": 0, "hi": 1, "n": 3}]
    p = _box_spec(tmp_path, [["2", "x1*x1 - 1/3"], ["0", "2"]], axes)
    report = _failing_point(*run(capsys, ["compute", "--spec-file", p, "--functional",
                                          "volume", "--no-timing"] + grid))
    assert "not symmetric" in report["error"]


def test_singular_product_factor_exits_3_naming_the_product_node(monkeypatch, capsys,
                                                                 singular_product):
    from curvfun import zoo

    metric, grid = singular_product
    spec = zoo.ManifoldSpec(name="s2xs2", dim=4, metric=metric, default_grid=grid)
    monkeypatch.setitem(zoo._BUILDERS, "s2xs2", lambda params: spec)
    code, out, err = run(capsys, ["compute", "--manifold", "s2xs2", "--no-timing"])
    assert code == 3
    assert out == ""
    failing = grid.collapse((0, 1)).points_weights()[0][0].tolist()
    assert json.loads(err)["failing_point"] == failing


def test_out_into_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, ["compute", "--manifold", "s2", "--grid", "5", "--no-timing",
                                  "--out", str(target)])
    assert code == 2
    assert out == ""
    assert str(target) in err
    assert not target.parent.exists()


@pytest.mark.parametrize("grid", ["abc", "5,,3", "0", "5,5,5"])
def test_bad_grid_exits_2(capsys, grid):
    code, out, err = run(capsys, ["compute", "--manifold", "s2", "--grid", grid, "--no-timing"])
    assert code == 2
    assert out == ""
    assert "--grid" in err


@pytest.mark.parametrize("argv", [
    ["compute", "--manifold", "s2", "--grid", "5", "--no-timing"],
    ["frame-sweep", "--manifold", "s2", "--grid", "5", "--plane", "1,2", "--no-timing"],
    ["reproduce", "discrete"],
])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exits_2(capsys, argv, workers):
    # a non-positive count used to run serially and exit 0
    code, out, err = run(capsys, argv + ["--workers", workers])
    assert code == 2
    assert out == ""
    assert "--workers must be at least 1, got %s" % workers in err


@pytest.mark.parametrize("argv", [
    ["compute", "--manifold", "s2", "--grid", "5", "--no-timing"],
    ["compute", "--manifold", "s2", "--grid", "5", "--frame", "haar", "--no-timing"],
    ["frame-sweep", "--manifold", "s2", "--grid", "5", "--plane", "1,2", "--no-timing"],
])
def test_negative_seed_exits_2(capsys, argv):
    # a Haar run used to fail inside numpy without naming the flag; the others ran
    code, out, err = run(capsys, argv + ["--seed", "-1"])
    assert code == 2
    assert out == ""
    assert "--seed must be non-negative, got -1" in err


def test_record_names_the_params_that_built_the_chart(capsys):
    headers = []
    for param in (["--param", "a=1"], ["--param", "a=2"], []):
        code, out, _ = run(capsys, ["compute", "--manifold", "e2", "--grid", "5",
                                    "--no-timing"] + param)
        assert code == 0
        headers.append(json.loads(out)["params"])
    assert headers == [{"a": "1"}, {"a": "2"}, {}]


_BOX_AXIS = {"lo": 0, "hi": 1, "n": 3}
_S2_METRIC = [["1", "0"], ["0", "sin(x1)^2"]]


@pytest.mark.parametrize("argv, axes, metric, named", [
    # constant expressions: used to end in ZeroDivisionError, OverflowError and TypeError
    (["--manifold", "taubes", "--param", "u=1/0"], None, None, "'1/0'"),
    (["--manifold", "taubes", "--param", "u=10^1000"], None, None, "'10^1000'"),
    ([], [_BOX_AXIS, _BOX_AXIS], [["2 + (-4)^0.5", "0"], ["0", "1"]], "'2 + (-4)^0.5'"),
    # spec-file axis bounds: used to exit 0 with a negative volume or gamma_d, or exit 3
    (["--functional", "volume"], [{"lo": 1, "hi": 0, "n": 3}, _BOX_AXIS], None,
     'axis 1 needs "lo" < "hi"'),
    ([], [{"lo": "pi", "hi": 0, "n": 9}, {"lo": 0, "hi": "2*pi", "n": 8, "periodic": True}],
     _S2_METRIC, 'axis 1 needs "lo" < "hi"'),
    ([], [_BOX_AXIS, {"lo": 0, "hi": "exp(1000)", "n": 3}], None, 'axis 2 "hi"'),
    ([], [_BOX_AXIS, {"lo": -1e999, "hi": 0, "n": 3}], None, 'axis 2 "lo": -inf is not finite'),
    ([], [_BOX_AXIS, {"lo": 0, "hi": 10**400, "n": 3}], None, 'axis 2 "hi": int too large'),
    # a node count below 1 used to reach the catch-all handler without naming the axis
    ([], [_BOX_AXIS, {"lo": 0, "hi": 1, "n": 0}], None, 'axis 2 "n" must be a positive integer'),
    ([], [{"lo": 0, "hi": 1, "n": -1}, _BOX_AXIS], None, 'axis 1 "n" must be a positive integer'),
])
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, argv, axes, metric, named):
    if axes is not None:
        argv = argv + ["--spec-file", _box_spec(tmp_path, metric or [["1", "0"], ["0", "1"]],
                                                axes)]
    code, out, err = run(capsys, ["compute", "--grid", "3", "--no-timing"] + argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("configuration error") and named in err, err


@pytest.mark.parametrize("command", [["compute"], ["frame-sweep", "--plane", "1,2"]])
def test_param_with_a_spec_file_exits_2(tmp_path, capsys, command):
    # used to exit 0 and record a parameter that built nothing
    spec_file = _box_spec(tmp_path, [["1", "0"], ["0", "1"]])
    code, out, err = run(capsys, command + ["--spec-file", spec_file, "--param", "a=1",
                                            "--no-timing"])
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error") and "--param" in err, err


def test_node_dependent_expression_failure_still_exits_3_naming_the_node(capsys):
    code, out, err = run(capsys, ["compute", "--manifold", "taubes", "--param", "u=log(cos(x1))",
                                  "--grid", "3", "--no-timing"])
    assert code == 3
    assert out == ""
    assert len(json.loads(err)["failing_point"]) == 4


@pytest.mark.parametrize("name", MANIFOLD_NAMES)
def test_every_catalog_name_computes(capsys, name):
    code, out, _ = run(capsys, ["compute", "--manifold", name, "--no-timing", "--grid", "2"])
    assert code == 0
    assert math.isfinite(json.loads(out)["value"])


_QUARTIC_METRIC = [["(1+x1)^4", "0"], ["0", "1"]]  # volume 7/3 on the unit square


@pytest.mark.parametrize("periodic", [False, None])
def test_spec_file_axis_is_open_unless_periodic_is_true(tmp_path, capsys, periodic):
    axis = dict(_BOX_AXIS) if periodic is None else dict(_BOX_AXIS, periodic=periodic)
    spec_file = _box_spec(tmp_path, _QUARTIC_METRIC, [axis, _BOX_AXIS])
    code, out, _ = run(capsys, ["compute", "--spec-file", spec_file, "--functional", "volume",
                                "--no-timing"])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(7 / 3, rel=1e-12)


@pytest.mark.parametrize("periodic", ["false", 0])
def test_spec_file_periodic_must_be_a_json_boolean(tmp_path, capsys, periodic):
    # "false" used to make the axis periodic and exit 0 with a midpoint-rule volume
    spec_file = _box_spec(tmp_path, _QUARTIC_METRIC,
                          [dict(_BOX_AXIS, periodic=periodic), _BOX_AXIS])
    code, out, err = run(capsys, ["compute", "--spec-file", spec_file, "--functional", "volume",
                                  "--no-timing"])
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error") and 'axis 1 "periodic"' in err, err


def _nested(levels):
    return "(" * levels + "cos(x1)" + ")" * levels


def _chained(terms):
    return "0*x1+" * terms + "cos(x1)"


def _deep_runs(tmp_path, expression):
    """A ``--param`` run and a spec-file run that each parse ``expression``."""
    spec_file = _box_spec(tmp_path, [["1", "0"], ["0", expression]])
    return [["--manifold", "taubes", "--grid", "3", "--param", "u=" + expression],
            ["--spec-file", spec_file]]


@pytest.mark.parametrize("expression", [_nested(160), _chained(600)],
                         ids=["160-brackets", "600-terms"])
def test_too_deep_expression_exits_2_naming_it(tmp_path, capsys, expression):
    # both used to end in a RecursionError traceback
    for argv in _deep_runs(tmp_path, expression):
        code, out, err = run(capsys, ["compute", "--no-timing"] + argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("configuration error")
        # named by its two ends, in a message that does not grow with the text
        assert expression[:20] in err and expression[-20:] in err and len(err) < 200


@pytest.mark.parametrize("expression", [_nested(130), _chained(300)],
                         ids=["130-brackets", "300-terms"])
def test_deep_expression_within_bounds_runs(tmp_path, capsys, expression):
    for argv in _deep_runs(tmp_path, expression):
        code, out, _ = run(capsys, ["compute", "--no-timing"] + argv)
        assert code == 0
        assert math.isfinite(json.loads(out)["value"])
