import json
import math

import numpy as np
import pytest

from logifpt.cli import main
from logifpt.montecarlo import read_samples_csv
from tests.conftest import FISHERIES


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(FISHERIES))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_derive(config_path, capsys):
    code, out, _ = run(capsys, "derive", config_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["derived"]["rho"] == pytest.approx(17.2509, abs=1e-4)
    assert doc["manifest"]["command"] == "derive"


def test_derive_infeasible_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"r": 0.5, "K": 1e3, "q": 0.0, "E": 0.0,
                                "sigma": 1.0, "x0": 100.0}))
    code, _, err = run(capsys, "derive", str(path))
    assert code == 2
    assert "persistence" in err


def test_derive_input_errors(tmp_path, capsys):
    code, _, _ = run(capsys, "derive", str(tmp_path / "missing.json"))
    assert code == 1
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"r": 0.7}))
    code, _, err = run(capsys, "derive", str(partial))
    assert code == 1 and "missing" in err


@pytest.mark.parametrize("field,value", [("q", math.nan), ("E", math.nan),
                                         ("r", math.inf), ("K", math.inf)])
def test_nonfinite_config_exits_1(tmp_path, capsys, field, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**FISHERIES, field: value}))  # writes NaN / Infinity
    code, _, err = run(capsys, "moments", str(path), "--direction", "up",
                       "--threshold", "1e4")
    assert code == 1 and "finite" in err


def test_infinite_threshold_exits_1(config_path, capsys):
    code, _, err = run(capsys, "moments", config_path, "--direction", "up",
                       "--threshold", "inf")
    assert code == 1 and "finite" in err


def test_bad_usage_exits_1(capsys):
    assert main(["moments"]) == 1  # missing required arguments
    assert main(["not-a-command"]) == 1


@pytest.mark.parametrize("argv", [
    ["density", "config.json", "--direction", "up", "--threshold", "1e4",
     "--grid", "0:30:0.5", "--diagnostics"],
    ["mle", "--samples", "s.csv", "--estimate", "sigma", "--fixed", "fixed.json",
     "--seed", "1"],
    ["compare", "--density", "d.csv", "--samples", "s.csv", "--precision", "128"],
])
def test_switches_a_command_never_read_are_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage: logifpt") and "unrecognized arguments" in err


def test_one_parser_serves_many_calls(config_path, capsys):
    from logifpt.cli import build_parser

    calls = [
        ["moments"],  # missing required arguments
        ["moments", config_path, "--direction", "up", "--threshold", "1e4"],
        ["density", config_path, "--direction", "up", "--threshold", "1e4",
         "--grid", "0:30:0.5"],
    ]
    build_parser.cache_clear()
    in_one_process = [run(capsys, *argv) for argv in calls]
    assert build_parser.cache_info().misses == 1
    code, out, err = in_one_process[0]
    assert code == 1 and out == "" and err.startswith("usage: logifpt moments")
    assert [c[0] for c in in_one_process[1:]] == [0, 0]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert in_one_process == fresh


def test_moments_table(config_path, capsys):
    code, out, _ = run(capsys, "moments", config_path, "--direction", "up",
                       "--threshold", "1e4", "--order", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("order,moment,cumulant,ratio")
    first = lines[1].split(",")
    assert abs(float(first[1]) - 13.35) <= 0.01
    assert abs(float(first[3]) - 2.98) <= 0.01


def test_moments_degenerate_zero(config_path, capsys):
    code, out, _ = run(capsys, "moments", config_path, "--direction", "up",
                       "--threshold", "100.0", "--order", "3")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert float(line.split(",")[1]) == 0.0


def test_moments_down_diagnostics(config_path, tmp_path, capsys):
    cfg = json.loads(open(config_path).read())
    cfg["x0"] = 6.0e7
    p2 = tmp_path / "down.json"
    p2.write_text(json.dumps(cfg))
    out_path = tmp_path / "m.csv"
    code, _, _ = run(capsys, "moments", str(p2), "--direction", "down",
                     "--threshold", "3.91e7", "--order", "4",
                     "--out", str(out_path), "--diagnostics")
    assert code == 0
    rows = out_path.read_text().strip().splitlines()
    assert len(rows) == 5
    est = float(rows[1].split(",")[4])
    assert est > 0
    diag = json.loads((tmp_path / "m.csv.diagnostics.json").read_text())
    assert len(diag["trunc_index"]) == 5
    manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
    assert manifest["command"] == "moments"


def test_density_from_exact_gamma_moments(config_path, tmp_path, capsys):
    from logifpt.series import rising_factorial

    alpha, beta = 4.5, 0.8
    moments = [float(rising_factorial(alpha + 1, j)) / beta ** j for j in range(1, 7)]
    mpath = tmp_path / "moments.json"
    mpath.write_text(json.dumps({"moments": moments}))
    out_path = tmp_path / "dens.csv"
    code, _, _ = run(capsys, "density", config_path, "--direction", "up",
                     "--threshold", "1e4", "--nmax", "6",
                     "--moments-from", f"moments:{mpath}",
                     "--grid", "0.5:20:0.5", "--out", str(out_path))
    assert code == 0
    from scipy import stats
    rows = [line.split(",") for line in out_path.read_text().strip().splitlines()[1:]]
    ts = np.array([float(r[0]) for r in rows])
    dens = np.array([float(r[1]) for r in rows])
    assert np.allclose(dens, stats.gamma.pdf(ts, a=alpha + 1, scale=1 / beta), rtol=1e-8)
    sidecar = json.loads((out_path.parent / "dens.csv.json").read_text())
    assert sidecar["alpha"] == pytest.approx(alpha, abs=1e-9)
    assert sidecar["converged"]


def test_density_from_sample_moments(config_path, tmp_path, capsys):
    spath = tmp_path / "s.csv"
    code, _, _ = run(capsys, "simulate", config_path, "--direction", "up",
                     "--threshold", "1e4", "--paths", "3000", "--dt", "0.002",
                     "--horizon", "60", "--seed", "5", "--out", str(spath))
    assert code == 0
    out_path = tmp_path / "emp.csv"
    code, _, _ = run(capsys, "density", config_path, "--direction", "up",
                     "--threshold", "1e4", "--nmax", "6", "--order", "4",
                     "--moments-from", f"samples:{spath}",
                     "--grid", "5:25:0.1", "--out", str(out_path))
    assert code == 0
    sidecar = json.loads((tmp_path / "emp.csv.json").read_text())
    # empirical matching lands near the theoretical reference (38.7, 2.98)
    assert abs(sidecar["alpha"] - 38.7) < 8.0
    assert abs(sidecar["beta"] - 2.98) < 0.5


def test_density_theory_warns_when_unstable(config_path, tmp_path, capsys):
    # cv > 1 scenario: singular-origin reference, order selection struggles
    out_path = tmp_path / "dens110.csv"
    code, _, err = run(capsys, "density", config_path, "--direction", "up",
                       "--threshold", "110", "--nmax", "8",
                       "--grid", "0:2:0.01", "--out", str(out_path))
    assert code == 0
    sidecar = json.loads((out_path.parent / "dens110.csv.json").read_text())
    assert sidecar["alpha"] < 0
    assert (not sidecar["converged"]) or sidecar["clip_applied"] or sidecar["negative_mass"] > 0


def test_density_down_high_writes_sidecar(tmp_path, capsys):
    # a clipped approximant: clip_applied must reach the sidecar as a JSON bool
    path = tmp_path / "high.json"
    path.write_text(json.dumps({**FISHERIES, "x0": 6e7}))
    out_path = tmp_path / "down.csv"
    code, _, _ = run(capsys, "density", str(path), "--direction", "down",
                     "--threshold", "3.91e7", "--nmax", "10",
                     "--grid", "0:40:0.05", "--out", str(out_path))
    assert code == 0
    sidecar = json.loads((tmp_path / "down.csv.json").read_text())
    assert isinstance(sidecar["clip_applied"], bool)


def test_simulate_deterministic_bytes(config_path, tmp_path, capsys):
    args = ["simulate", config_path, "--direction", "up", "--threshold", "1e4",
            "--paths", "200", "--dt", "0.002", "--horizon", "60", "--seed", "21"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    code1, _, _ = run(capsys, *args, "--out", str(out1))
    code2, _, _ = run(capsys, *args, "--out", str(out2))
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    sample = read_samples_csv(out1)
    assert sample.n + sample.censored == 200


def test_simulate_degenerate(config_path, tmp_path, capsys):
    out = tmp_path / "deg.csv"
    code, stdout, _ = run(capsys, "simulate", config_path, "--direction", "up",
                          "--threshold", "100.0", "--paths", "10", "--dt", "0.01",
                          "--horizon", "1", "--seed", "1", "--out", str(out))
    assert code == 0
    sample = read_samples_csv(out)
    assert np.all(sample.times == 0.0) and sample.censored == 0


def test_simulate_requires_out(config_path, capsys):
    code, _, err = run(capsys, "simulate", config_path, "--direction", "up",
                       "--threshold", "1e4", "--paths", "10", "--dt", "0.01",
                       "--horizon", "1")
    assert code == 1 and "--out" in err


def test_compare_self_consistency(config_path, tmp_path, capsys):
    out_d = tmp_path / "d.csv"
    code, _, _ = run(capsys, "density", config_path, "--direction", "up",
                     "--threshold", "1e4", "--order", "4",
                     "--grid", "0:40:0.02", "--out", str(out_d))
    assert code == 0
    # draw from the curve by inverse transform and package as a sample file
    rows = [line.split(",") for line in out_d.read_text().strip().splitlines()[1:]]
    ts = np.array([float(r[0]) for r in rows])
    dens = np.array([float(r[1]) for r in rows])
    cdf = np.concatenate([[0], np.cumsum(np.diff(ts) * 0.5 * (dens[1:] + dens[:-1]))])
    cdf /= cdf[-1]
    rng = np.random.default_rng(8)
    draws = np.sort(np.interp(rng.uniform(size=2000), cdf, ts))
    from logifpt import Direction, FptProblem, SimConfig
    from logifpt.montecarlo import FptSample, write_samples_csv
    sample = FptSample(times=draws, censored=0,
                       config=SimConfig(problem=FptProblem(Direction.UP, 1e4),
                                        paths=2000, dt=1e-3, horizon=60.0, seed=8))
    spath = tmp_path / "s.csv"
    write_samples_csv(sample, spath)
    code, out, _ = run(capsys, "compare", "--density", str(out_d),
                       "--samples", str(spath))
    assert code == 0
    doc = json.loads(out)
    # KS below the 1% critical value ~ 1.63/sqrt(n) for self-drawn samples
    assert doc["ks_statistic"] < 1.63 / math.sqrt(2000)
    assert doc["l1_distance"] < 0.2
    m = doc["moments"][0]
    assert m["density"] == pytest.approx(m["sample"], rel=0.05)


def test_mle_cli(config_path, tmp_path, capsys):
    spath = tmp_path / "fit.csv"
    code, _, _ = run(capsys, "simulate", config_path, "--direction", "up",
                     "--threshold", "1e4", "--paths", "400", "--dt", "0.002",
                     "--horizon", "60", "--seed", "31", "--out", str(spath))
    assert code == 0
    fixed = {**FISHERIES, "U": 1e4, "direction": "up"}
    fpath = tmp_path / "fixed.json"
    fpath.write_text(json.dumps(fixed))
    code, out, _ = run(capsys, "mle", "--samples", str(spath), "--estimate", "sigma",
                       "--fixed", str(fpath), "--init", "sigma=0.24",
                       "--max-iter", "40")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["estimates"]["sigma"] - 0.2) < 0.04
    # empty estimate echoes the init
    code, out, _ = run(capsys, "mle", "--samples", str(spath), "--estimate", "",
                       "--fixed", str(fpath))
    assert code == 0
    assert json.loads(out)["estimates"] == {}
    # infeasible init: sigma in the non-persistent regime
    code, _, err = run(capsys, "mle", "--samples", str(spath), "--estimate", "sigma",
                       "--fixed", str(fpath), "--init", "sigma=4.9")
    assert code == 2


@pytest.mark.parametrize("line, value", [(4, "nan"), (4, "-1.5"), (2, "# censored: 999999")])
def test_mle_on_invalid_sample_file_exits_1(config_path, tmp_path, capsys, line, value):
    spath = tmp_path / "s.csv"
    code, _, _ = run(capsys, "simulate", config_path, "--direction", "up",
                     "--threshold", "1e4", "--paths", "20", "--dt", "0.01",
                     "--horizon", "60", "--seed", "3", "--out", str(spath))
    assert code == 0
    lines = spath.read_text().splitlines()
    lines[line] = value
    spath.write_text("\n".join(lines) + "\n")
    fpath = tmp_path / "fixed.json"
    fpath.write_text(json.dumps({**FISHERIES, "U": 1e4, "direction": "up"}))
    code, _, err = run(capsys, "mle", "--samples", str(spath), "--estimate", "sigma",
                       "--fixed", str(fpath), "--init", "sigma=0.24")
    assert code == 1
    assert "paths" in err or ">= 0" in err


def test_oracle_cli(config_path, capsys):
    code, out, _ = run(capsys, "oracle", config_path, "--direction", "up",
                       "--threshold", "1e4", "--lambda-grid", "0:0.08:0.04",
                       "--order", "16")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,direct,series,abs_diff"
    first = lines[1].split(",")
    assert float(first[1]) == 1.0 and float(first[2]) == 1.0
    for line in lines[1:]:
        assert float(line.split(",")[3]) < 1e-8
