"""The command-line interface: schemas, exit codes, and reproducibility."""

import argparse
import csv
import io
import json
import math

import pytest

from curvfun.cli import main, write_record
from curvfun.errors import NonFiniteError
from curvfun.quadrature import DEFAULT_CHUNK

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
    # 65 x 65 nodes exceed one chunk, so the thread pool runs two chunks
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
        assert json.loads(outputs[0])["n_points"] > DEFAULT_CHUNK
        assert outputs[0] == outputs[1] == outputs[2], extra


def test_frame_sweep_byte_identity_across_worker_counts(tmp_path):
    # 9 x 8 x 9 x 8 nodes exceed one chunk, so the thread pool runs two chunks
    outputs = []
    for w in (1, 2, 8):
        p = tmp_path / ("w%d.json" % w)
        code = main(["frame-sweep", "--manifold", "s2xs2", "--plane", "1,3", "--angles", "3",
                     "--grid", "9,8,9,8", "--workers", str(w), "--no-timing", "--out", str(p)])
        assert code == 0
        outputs.append(p.read_bytes())
    assert 9 * 8 * 9 * 8 > DEFAULT_CHUNK
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


def test_odd_dimensional_gamma_rejected(tmp_path, capsys):
    # a 3-axis user chart cannot carry the even-dimensional functionals
    spec = {
        "name": "flat-box",
        "axes": [{"lo": 0, "hi": 1, "n": 3} for _ in range(3)],
        "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    }
    p = tmp_path / "box.json"
    p.write_text(json.dumps(spec))
    code, _, err = run(capsys, ["compute", "--spec-file", str(p), "--functional", "gamma_d"])
    assert code == 2
    assert "even-dimensional" in err


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
    assert rec["value"] == pytest.approx(117 * math.pi / 2**17, rel=1e-12)
    assert rec["exact"]["permutation_sum"] == "351/64"
    assert rec["exact"]["matching_sum"] == "117/8192"
    code, out, _ = run(capsys, ["compute", "--manifold", "so4", "--no-timing"])
    assert json.loads(out)["value"] == 0.0


def test_group_manifold_rejects_other_functionals(capsys):
    code, _, _ = run(capsys, ["compute", "--manifold", "su3", "--functional", "gbc"])
    assert code == 2


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
    # coordinate-aligned frame maximizes the product functional
    assert values[0] == max(values) == pytest.approx(4.0, abs=1e-2)


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
    code, _, _ = run(capsys, ["reproduce", "not-a-case"])
    assert code == 2


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
