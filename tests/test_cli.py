import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from logifpt import Direction, FptProblem, ModelParams, derive_params, errors, fpt_moments
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


# the documented exit code of every package error: 1 input, 2 infeasible
# regime, 3 numerical non-convergence
EXIT_CODES = {
    errors.LogifptError: 1, errors.InvalidParams: 1, errors.ZeroVariance: 1,
    errors.InsufficientMoments: 1, errors.EmptySample: 1,
    errors.InvalidHarvest: 2, errors.NonPersistentRegime: 2, errors.WrongSide: 2,
    errors.NoFeasibleStart: 2,
    errors.NoConvergence: 3, errors.TransformFailure: 3, errors.UnreliableMoments: 3,
}


def test_every_package_error_has_an_exit_code():
    def subclasses(cls):
        return {cls}.union(*(subclasses(sub) for sub in cls.__subclasses__()))

    assert subclasses(errors.LogifptError) == set(EXIT_CODES)
    for cls, code in EXIT_CODES.items():
        assert cls.exit_code == code, cls.__name__


@pytest.mark.parametrize("error, code", EXIT_CODES.items(), ids=lambda v: getattr(v, "__name__", str(v)))
def test_moments_errors_map_to_exit_codes(config_path, capsys, monkeypatch, error, code):
    import logifpt.cli

    def raising(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(logifpt.cli, "fpt_moments", raising)
    got, out, err = run(capsys, "moments", config_path, "--direction", "up",
                        "--threshold", "1e4")
    assert (got, out) == (code, "")
    label = {1: "input error", 2: "infeasible regime", 3: "numerical non-convergence"}[code]
    assert err == f"{label}: injected\n"


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


def _input_error_argv(case, config, tmp_path):
    """argv for one malformed input; the files it names are written here."""
    from logifpt import Direction, FptProblem, SimConfig
    from logifpt.montecarlo import FptSample, write_samples_csv

    listed = tmp_path / "list.json"
    listed.write_text("[1.0, 2.0]")
    samples = tmp_path / "s.csv"
    write_samples_csv(FptSample(times=np.array([1.0, 2.0, 3.0]), censored=0, config=SimConfig(
        problem=FptProblem(Direction.UP, 1e4), paths=3, dt=1e-3, horizon=60.0, seed=0)),
        samples)
    fixed = tmp_path / "fixed.json"
    fixed.write_text(json.dumps({**FISHERIES, "U": 1e4}))
    bad_samples = {}  # sample files whose config line holds no valid run
    for name, edit in [("config-list", lambda meta: []),
                       ("paths-null", lambda meta: {**meta, "sim": {**meta["sim"], "paths": None}}),
                       ("paths-float", lambda meta: {**meta, "sim": {**meta["sim"], "paths": 5.7}}),
                       ("seed-float", lambda meta: {**meta, "sim": {**meta["sim"], "seed": 1.5}}),
                       ("model-huge-int", lambda meta: {**meta, "model": {**FISHERIES,
                                                                          "K": 10 ** 400}}),
                       ("dt-huge-int", lambda meta: {**meta, "sim": {**meta["sim"],
                                                                     "dt": 10 ** 400}})]:
        lines = samples.read_text().splitlines()
        meta = json.loads(lines[1].removeprefix("# config: "))
        lines[1] = "# config: " + json.dumps(edit(meta))
        bad_samples[name] = tmp_path / f"s-{name}.csv"
        bad_samples[name].write_text("\n".join(lines) + "\n")
    header_only = tmp_path / "d.csv"
    header_only.write_text("t,density\n")
    density = tmp_path / "d-ok.csv"
    density.write_text("t,density\n0.0,0.1\n0.5,0.2\n1.0,0.1\n")
    unmeasurable = {}  # density files compare cannot integrate
    for name, rows in [("nan", "0.0,0.1\n0.5,nan\n1.0,0.2\n"),
                       ("inf-t", "0.0,0.1\ninf,0.3\n1.0,0.2\n"),
                       ("decreasing", "0.0,0.1\n1.0,0.3\n0.5,0.2\n"),
                       ("inf-at-0", "0.0,inf\n0.5,0.1\n1.0,0.2\n")]:
        unmeasurable[name] = tmp_path / f"d-{name}.csv"
        unmeasurable[name].write_text("t,density\n" + rows)
    moments_null = tmp_path / "null.json"
    moments_null.write_text('{"moments": [null, 1, 2]}')
    moments_bool = tmp_path / "bool.json"
    # the exponential law's moments k!, with true standing for the mean 1
    moments_bool.write_text('{"moments": [true, 2, 6, 24, 120, 720, 5040, 40320, 362880, '
                            '3628800]}')
    fixed_null = tmp_path / "fixed-null.json"
    fixed_null.write_text(json.dumps({**FISHERIES, "U": 1e4, "K": None}))
    fixed_string = tmp_path / "fixed-string.json"
    fixed_string.write_text(json.dumps({**FISHERIES, "U": 1e4, "K": "8.05e7"}))
    fixed_huge = tmp_path / "fixed-huge.json"
    fixed_huge.write_text(json.dumps({**FISHERIES, "U": 10 ** 400}))
    fixed_sideways = tmp_path / "fixed-sideways.json"
    fixed_sideways.write_text(json.dumps({**FISHERIES, "U": 1e4, "direction": "sideways"}))
    configs = {}  # config files whose numbers follow the rule of the other JSON inputs
    for name, change in [("huge-int", {"K": 10 ** 400}), ("quoted", {"K": "8.05e7"}),
                         ("bool", {"E": True})]:
        configs[name] = tmp_path / f"config-{name}.json"
        configs[name].write_text(json.dumps({**FISHERIES, **change}))
    configs["not-utf8"] = tmp_path / "config-not-utf8.json"
    configs["not-utf8"].write_bytes(b'{"r": 0.71, "K": "\xff"}')
    moments_exp = tmp_path / "exp.json"  # the exponential law's moments k!
    moments_exp.write_text(json.dumps({"moments": [math.factorial(k) for k in range(1, 11)]}))
    up = ["--direction", "up", "--threshold", "1e4"]
    mle = ["mle", "--samples", str(samples), "--estimate", "sigma", "--init", "sigma=0.2"]
    return {
        "moments-list": ["density", config, *up, "--grid", "0:1:0.5",
                         "--moments-from", f"moments:{listed}"],
        "fixed-list": [*mle, "--fixed", str(listed)],
        "grid-inf": ["density", config, *up, "--grid", "0:inf:0.5"],
        "lambda-grid-inf": ["oracle", config, *up, "--lambda-grid", "0:inf:0.01"],
        # (stop - start) / step overflows to inf, or asks for 1e15 points
        "grid-overflow": ["density", config, *up, "--grid", "0:1e300:1e-300"],
        "grid-too-many": ["density", config, *up, "--grid", "0:1e12:1e-3"],
        "lambda-grid-too-many": ["oracle", config, *up, "--lambda-grid", "0:1e12:1e-3"],
        "kde-grid-too-many": ["simulate", config, *up, "--paths", "4", "--dt", "0.01",
                              "--horizon", "1", "--kde-grid", "0:1e12:1e-3",
                              "--out", str(tmp_path / "sim.csv")],
        "density-header-only": ["compare", "--density", str(header_only),
                                "--samples", str(samples)],
        **{f"density-{name}": ["compare", "--density", str(path), "--samples", str(samples)]
           for name, path in unmeasurable.items()},
        "precision-0": ["moments", config, *up, "--precision", "0"],
        "mle-precision-0": [*mle, "--fixed", str(fixed), "--precision", "0"],
        "mle-nmax-1": [*mle, "--fixed", str(fixed), "--nmax", "1"],
        "mle-nmax-257": [*mle, "--fixed", str(fixed), "--nmax", "257"],
        "moments-null": ["density", config, *up, "--grid", "0:1:0.5",
                         "--moments-from", f"moments:{moments_null}"],
        "moments-bool": ["density", config, *up, "--grid", "0:1:0.5",
                         "--moments-from", f"moments:{moments_bool}"],
        "fixed-null": [*mle, "--fixed", str(fixed_null)],
        "fixed-string": [*mle, "--fixed", str(fixed_string)],
        "fixed-huge-int": [*mle, "--fixed", str(fixed_huge)],
        "order-negative": ["density", config, *up, "--grid", "0:1:0.5", "--order", "-1",
                           "--moments-from", f"moments:{moments_exp}"],
        "nmax-negative": ["density", config, *up, "--grid", "0:1:0.5", "--nmax", "-1",
                          "--moments-from", f"moments:{moments_exp}"],
        "horizon-inf": ["simulate", config, *up, "--paths", "4", "--dt", "0.01",
                        "--horizon", "inf", "--out", str(tmp_path / "sim.csv")],
        "mle-estimate-twice": ["mle", "--samples", str(samples), "--estimate", "sigma,sigma",
                               "--init", "sigma=0.2", "--fixed", str(fixed)],
        "mle-init-nan": ["mle", "--samples", str(samples), "--estimate", "sigma",
                         "--init", "sigma=nan", "--fixed", str(fixed)],
        "mle-max-iter-negative": [*mle, "--fixed", str(fixed), "--max-iter", "-5"],
        "mle-init-not-estimated": ["mle", "--samples", str(samples), "--estimate", "sigma",
                                   "--init", "sigma=0.2,r=5", "--fixed", str(fixed)],
        "mle-init-twice": ["mle", "--samples", str(samples), "--estimate", "sigma",
                           "--init", "sigma=0.25,sigma=0.15", "--fixed", str(fixed)],
        "mle-init-unknown": ["mle", "--samples", str(samples), "--estimate", "sigma",
                             "--init", "sigma=0.2,bogus=1", "--fixed", str(fixed)],
        "mle-init-out-of-bounds": ["mle", "--samples", str(samples), "--estimate", "sigma,r",
                                   "--init", "sigma=0.2,r=12", "--fixed", str(fixed)],
        "samples-config-list": ["compare", "--density", str(density),
                                "--samples", str(bad_samples["config-list"])],
        "samples-paths-null": ["mle", "--samples", str(bad_samples["paths-null"]),
                               "--estimate", "sigma", "--init", "sigma=0.2", "--fixed", str(fixed)],
        "samples-paths-float": ["density", config, *up, "--grid", "0:1:0.5", "--moments-from",
                                f"samples:{bad_samples['paths-float']}"],
        "samples-seed-float": ["compare", "--density", str(density),
                               "--samples", str(bad_samples["seed-float"])],
        "samples-model-huge-int": ["compare", "--density", str(density),
                                   "--samples", str(bad_samples["model-huge-int"])],
        "samples-dt-huge-int": ["compare", "--density", str(density),
                                "--samples", str(bad_samples["dt-huge-int"])],
        **{f"config-{name}": ["moments", str(path), *up] for name, path in configs.items()},
        "mle-init-not-a-number": ["mle", "--samples", str(samples), "--estimate", "sigma",
                                  "--init", "sigma=abc", "--fixed", str(fixed)],
        "fixed-direction-sideways": [*mle, "--fixed", str(fixed_sideways)],
    }[case]


@pytest.mark.parametrize("case", ["moments-list", "fixed-list", "grid-inf", "lambda-grid-inf",
                                  "grid-overflow", "grid-too-many", "lambda-grid-too-many",
                                  "kde-grid-too-many", "density-header-only", "precision-0",
                                  "mle-precision-0", "mle-nmax-1", "mle-nmax-257",
                                  "moments-null", "moments-bool", "fixed-null", "fixed-string",
                                  "fixed-huge-int", "order-negative", "nmax-negative",
                                  "horizon-inf", "mle-estimate-twice", "mle-init-nan",
                                  "mle-max-iter-negative",
                                  "mle-init-not-estimated", "mle-init-twice",
                                  "mle-init-unknown",
                                  "mle-init-out-of-bounds", "density-nan", "density-inf-t",
                                  "density-decreasing", "density-inf-at-0",
                                  "samples-config-list", "samples-paths-null",
                                  "samples-paths-float", "samples-seed-float",
                                  "samples-model-huge-int", "samples-dt-huge-int",
                                  "config-huge-int", "config-quoted", "config-bool",
                                  "config-not-utf8", "mle-init-not-a-number",
                                  "fixed-direction-sideways"])
def test_malformed_inputs_exit_1_without_a_traceback(config_path, tmp_path, capsys,
                                                     monkeypatch, case):
    import logifpt.cli

    def not_reached(*args, **kwargs):
        raise AssertionError("moments computed before the input was checked")

    monkeypatch.setattr(logifpt.cli, "fpt_moments", not_reached)
    monkeypatch.setattr(logifpt.cli, "sample_fpt", not_reached)
    code, out, err = run(capsys, *_input_error_argv(case, config_path, tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("input error:") and "Traceback" not in err


@pytest.mark.parametrize("change, code, message", [
    ({"K": math.nan}, 1, "input error: K must be finite, got nan\n"),
    ({"K": -8.05e7}, 1, "input error: K must be > 0, got -80500000.0\n"),
    ({"U": -1e4}, 1, "input error: threshold must be finite and > 0, got -10000.0\n"),
    ({"E": 1e9}, 2, "infeasible regime: harvesting mortality q*E = 3300.0 must stay below "
                    "r = 0.71\n"),
    ({"Kk": 9e9}, 1, "input error: fixed values for unknown parameters: ['Kk']\n"),
], ids=["K-nan", "K-negative", "U-negative", "harvest-above-growth", "unknown-key"])
def test_mle_names_a_fixed_value_no_parameter_can_take(tmp_path, capsys, monkeypatch,
                                                       change, code, message):
    """A fixed value outside its parameter's domain is refused with that
    parameter's own error, before any likelihood is evaluated, not as an
    infeasible initial point."""
    import logifpt.cli

    def not_reached(*args, **kwargs):
        raise AssertionError("fit started on a bad fixed value")

    from logifpt import SimConfig
    from logifpt.montecarlo import FptSample, write_samples_csv

    monkeypatch.setattr(logifpt.cli, "mle_fit", not_reached)
    samples = tmp_path / "s.csv"
    write_samples_csv(FptSample(times=np.array([1.0, 2.0, 3.0]), censored=0, config=SimConfig(
        problem=FptProblem(Direction.UP, 1e4), paths=3, dt=1e-3, horizon=60.0, seed=0)),
        samples)
    fixed = tmp_path / "fixed.json"
    fixed.write_text(json.dumps({**FISHERIES, "U": 1e4, **change}))  # NaN written as NaN
    got, out, err = run(capsys, "mle", "--samples", str(samples), "--estimate", "sigma",
                        "--init", "sigma=0.2", "--fixed", str(fixed))
    assert (got, out, err) == (code, "", message)


@pytest.mark.parametrize("direction, x0, threshold", [("up", 100.0, "1e4"),
                                                      ("down", 6e7, "3.91e7")])
def test_moments_beyond_the_kernel_table_exit_1(tmp_path, capsys, direction, x0, threshold):
    # a downcrossing sum of order m starts at n = m, past the table's last n = 256
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**FISHERIES, "x0": x0}))
    code, out, err = run(capsys, "moments", str(path), "--direction", direction,
                         "--threshold", threshold, "--order", "257")
    assert (code, out) == (1, "")
    assert err.startswith("input error: order must be in 1..256") and "Traceback" not in err


@pytest.mark.parametrize("rows, names", [
    # what `density` writes at t = 0 when the matched Gamma shape offset is negative
    ("0.0,inf\n0.5,0.1\n1.0,0.2\n", ["line 2 (t = 0.0, density = inf)", "start the grid above 0"]),
    ("0.1,0.2\n0.2,0.3,9\n", ["line 3 ('0.2,0.3,9')", "too many values"]),
    ("0.1,0.2\n0.2,abc\n", ["line 3 ('0.2,abc')", "could not convert"]),
    ("0.1,0.2\n\n0.05,0.3\n", ["line 4 (t = 0.05, density = 0.3)", "strictly increasing"]),
], ids=["inf-at-0", "three-values", "not-a-number", "after-a-blank-line"])
def test_compare_names_the_first_row_it_cannot_measure(tmp_path, capsys, rows, names):
    density = tmp_path / "d.csv"
    density.write_text("t,density\n" + rows)
    code, out, err = run(capsys, "compare", "--density", str(density), "--samples", "s.csv")
    assert (code, out) == (1, "")
    assert err.startswith(f"input error: {density} line ") and all(n in err for n in names)


def test_bad_usage_exits_1(capsys):
    assert main(["moments"]) == 1  # missing required arguments
    assert main(["not-a-command"]) == 1


@pytest.mark.parametrize("argv", [
    ["density", "config.json", "--direction", "up", "--threshold", "1e4",
     "--grid", "0:30:0.5", "--diagnostics"],
    ["mle", "--samples", "s.csv", "--estimate", "sigma", "--fixed", "fixed.json",
     "--seed", "1"],
    ["compare", "--density", "d.csv", "--samples", "s.csv", "--precision", "128"],
    ["density", "config.json", "--direction", "up", "--threshold", "1e4",
     "--grid", "0:30:0.5", "--tol", "1e-6"],
    ["moments", "config.json", "--direction", "up", "--threshold", "1e4", "--method", "bell"],
    ["moments", "config.json", "--direction", "up", "--threshold", "1e4", "--diagnostics"],
    ["simulate", "config.json", "--direction", "up", "--threshold", "1e4", "--paths", "10",
     "--dt", "0.01", "--horizon", "1", "--out", "s.csv", "--no-interpolate"],
    ["simulate", "config.json", "--direction", "up", "--threshold", "1e4", "--paths", "10",
     "--dt", "0.01", "--horizon", "1", "--out", "s.csv", "--precision", "128"],
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


# the ten scenarios of the benchmark: name -> (x0, direction, threshold)
BENCH_SCENARIOS = {
    "up_150": (100.0, "up", 150.0), "up_1e4": (100.0, "up", 1e4),
    "up_1e5": (100.0, "up", 1e5), "up_110": (100.0, "up", 110.0),
    "up_large": (2.01e7, "up", 3.91e7), "up_mid": (2.01e7, "up", 2.51e7),
    "up_high": (4.0e7, "up", 6e7), "down_mid": (3.91e7, "down", 2.8e7),
    "down_high": (6.0e7, "down", 3.91e7), "down_deep": (3.91e7, "down", 2.01e7),
}


@pytest.mark.parametrize("name", [*BENCH_SCENARIOS, "degenerate"])
def test_moments_ratio_column_is_the_moment_sets_ratios(tmp_path, capsys, name):
    """The ratio column is MomentSet.ratios rounded once to doubles, and empty
    where the set has none: at the last order, and at every order of a
    degenerate set (x0 at the threshold)."""
    x0, direction, threshold = BENCH_SCENARIOS.get(name, (100.0, "up", 100.0))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**FISHERIES, "x0": x0}))
    code, out, _ = run(capsys, "moments", str(config), "--direction", direction,
                       "--threshold", repr(threshold), "--order", "10")
    assert code == 0
    column = [line.split(",")[3] for line in out.strip().splitlines()[1:]]
    ms = fpt_moments(derive_params(ModelParams.from_dict({**FISHERIES, "x0": x0})),
                     FptProblem(Direction(direction), threshold), 10)
    if name == "degenerate":
        assert column == [""] * 10
    else:
        assert column == [repr(float(r)) for r in ms.ratios] + [""]


def test_moments_beyond_the_double_range_exit_1(config_path, tmp_path, capsys):
    # fisheries moments from U = 1e4 pass 1.8e308 at order 179
    out = tmp_path / "m.csv"
    code, stdout, err = run(capsys, "moments", config_path, "--direction", "up",
                            "--threshold", "1e4", "--order", "180", "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err.startswith("input error: order 179: moment inf") and "Traceback" not in err
    assert not out.exists()


def test_moments_degenerate_zero(config_path, capsys):
    code, out, _ = run(capsys, "moments", config_path, "--direction", "up",
                       "--threshold", "100.0", "--order", "3")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert float(line.split(",")[1]) == 0.0


def test_degenerate_moments_sidecar_has_the_usual_keys(config_path, tmp_path, capsys):
    """x0 at the threshold writes the sidecar keys of any other moments run,
    with zero cuts and zero estimates."""
    sidecars = {}
    for threshold in ("100.0", "1e4"):
        out = tmp_path / f"m{threshold}.csv"
        code, _, _ = run(capsys, "moments", config_path, "--direction", "up",
                         "--threshold", threshold, "--order", "3", "--out", str(out))
        assert code == 0
        sidecars[threshold] = json.loads((tmp_path / f"m{threshold}.csv.json").read_text())
    degenerate = sidecars["100.0"]
    assert set(degenerate) == set(sidecars["1e4"])
    assert degenerate["trunc_index"] == [0] * 4 and degenerate["error_estimate"] == [0.0] * 4
    assert degenerate["error_estimates"] == [0.0] * 3 and degenerate["flagged"] == [False] * 3


def test_moments_down_diagnostics(config_path, tmp_path, capsys):
    cfg = json.loads(open(config_path).read())
    cfg["x0"] = 6.0e7
    p2 = tmp_path / "down.json"
    p2.write_text(json.dumps(cfg))
    out_path = tmp_path / "m.csv"
    code, _, _ = run(capsys, "moments", str(p2), "--direction", "down",
                     "--threshold", "3.91e7", "--order", "4", "--out", str(out_path))
    assert code == 0
    rows = out_path.read_text().strip().splitlines()
    assert len(rows) == 5
    est = float(rows[1].split(",")[4])
    assert est > 0
    sidecar = json.loads((tmp_path / "m.csv.json").read_text())
    assert len(sidecar["trunc_index"]) == 5
    assert sidecar["manifest"]["command"] == "moments"


def test_each_csv_output_gets_one_json_sidecar(tmp_path, capsys):
    from logifpt import Direction, FptProblem, ModelParams, derive_params, fpt_moments

    down = tmp_path / "down.json"
    down.write_text(json.dumps({**FISHERIES, "x0": 6.0e7}))
    up = tmp_path / "up.json"
    up.write_text(json.dumps(FISHERIES))
    runs = {
        "moments": [str(down), "--direction", "down", "--threshold", "3.91e7",
                    "--order", "4"],
        "moments-up": [str(up), "--direction", "up", "--threshold", "1e4", "--order", "4"],
        "density": [str(down), "--direction", "down", "--threshold", "3.91e7",
                    "--grid", "0.5:20:0.5"],
        "simulate": [str(down), "--direction", "down", "--threshold", "3.91e7",
                     "--paths", "50", "--dt", "0.01", "--horizon", "80", "--seed", "2",
                     "--kde-grid", "0:40:0.5"],
        "oracle": [str(down), "--direction", "down", "--threshold", "3.91e7",
                   "--lambda-grid", "0:0.02:0.01", "--order", "4"],
    }
    for command, argv in runs.items():
        outdir = tmp_path / command
        outdir.mkdir()
        out = outdir / "X"
        code, _, _ = run(capsys, command.partition("-")[0], *argv, "--out", str(out))
        assert code == 0
        extra = {"X.kde.csv"} if command == "simulate" else set()
        assert {f.name for f in outdir.iterdir()} == {"X", "X.json"} | extra
        sidecar = json.loads((outdir / "X.json").read_text())
        assert sidecar["manifest"]["command"] == command.partition("-")[0]
        if command.startswith("moments"):
            x0, direction, threshold = ((100.0, "up", 1e4) if command == "moments-up"
                                        else (6.0e7, "down", 3.91e7))
            ms = fpt_moments(derive_params(ModelParams(**{**FISHERIES, "x0": x0})),
                             FptProblem(Direction(direction), threshold), 4)
            assert sidecar["trunc_index"] == ms.diagnostics["trunc_index"]
            assert sidecar["error_estimate"] == [float(e)
                                                 for e in ms.diagnostics["error_estimate"]]
            assert sidecar["error_estimates"] == [float(e) for e in ms.error_estimates]
            assert sidecar["flagged"] == list(ms.flagged)
            assert sidecar["manifest"]["direction"] == direction
            # going down the summed estimates are positive, going up zeros
            assert all((e > 0) == (direction == "down") for e in sidecar["error_estimate"][1:])


def test_readme_lists_every_switch():
    import re
    from pathlib import Path

    from logifpt.cli import build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = build_parser()._subparsers._group_actions[0].choices
    switches = {name: {o for a in p._actions for o in a.option_strings}
                - {"-h", "--help"} for name, p in commands.items()}
    missing = sorted(f"{name} {o}" for name, opts in switches.items() for o in opts
                     if not re.search(rf"(?<![\w-]){re.escape(o)}(?![\w-])", readme))
    assert missing == []
    # each `logifpt <cmd>` line of README, with its continuation lines
    usages = re.findall(r"^logifpt (\w+)((?:.*\\\n)*.*)$", readme, flags=re.M)
    assert {name for name, _ in usages} == set(commands)
    stale = sorted(f"{name} {o}" for name, line in usages
                   for o in re.findall(r"--[\w-]+", line) if o not in switches[name])
    assert stale == []


def test_density_from_exact_gamma_moments(config_path, tmp_path, capsys):
    from tests.oracles import rising_factorial

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


@pytest.mark.parametrize("source", ["theory", "samples", "moments"])
def test_density_order_alone_computes_its_moments(config_path, tmp_path, capsys, source):
    """--order 12 without --nmax, past the default of 10: theory and sample
    moments are computed to order 12, and a moments file must hold 12."""
    argv = ["density", config_path, "--direction", "up", "--threshold", "1e4",
            "--order", "12", "--grid", "0.5:30:0.5", "--out", str(tmp_path / "d.csv")]
    if source == "samples":
        spath = tmp_path / "s.csv"
        code, _, _ = run(capsys, "simulate", config_path, "--direction", "up",
                         "--threshold", "1e4", "--paths", "200", "--dt", "0.01",
                         "--horizon", "60", "--seed", "5", "--out", str(spath))
        assert code == 0
        argv += ["--moments-from", f"samples:{spath}"]
    if source == "moments":
        ms = fpt_moments(derive_params(ModelParams(**FISHERIES)), FptProblem(Direction.UP, 1e4), 12)
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({"moments": ms.moments_float[:11]}))
        code, out, err = run(capsys, *argv, "--moments-from", f"moments:{mpath}")
        assert (code, out) == (1, "")
        assert err == "input error: moments file holds 11 moments, need 12\n"
        mpath.write_text(json.dumps({"moments": ms.moments_float}))
        argv += ["--moments-from", f"moments:{mpath}"]
    code, _, err = run(capsys, *argv)
    assert code == 0 and "need 12 moments" not in err
    sidecar = json.loads((tmp_path / "d.csv.json").read_text())
    assert sidecar["order"] == 12 and len(sidecar["coefficients"]) == 13


def test_density_cuts_a_long_moments_file_to_nmax(config_path, tmp_path, capsys):
    """--nmax 4 on a file of 10 fisheries moments selects over the first 4
    only, as from a file of those 4: order 8 would qualify on all 10."""
    ms = fpt_moments(derive_params(ModelParams(**FISHERIES)), FptProblem(Direction.UP, 1e4), 10)
    mpath, out_path = tmp_path / "m.json", tmp_path / "d.csv"
    argv = ["density", config_path, "--direction", "up", "--threshold", "1e4", "--nmax", "4",
            "--grid", "0:40:0.5", "--moments-from", f"moments:{mpath}", "--out", str(out_path)]
    written = []
    for moments in (ms.moments_float, ms.moments_float[:4]):
        mpath.write_text(json.dumps({"moments": moments}))
        code, _, err = run(capsys, *argv)
        sidecar = json.loads((tmp_path / "d.csv.json").read_text())
        del sidecar["manifest"]
        written.append((code, err, out_path.read_text(), sidecar))
    assert written[0] == written[1]
    assert written[0][3]["order"] == 4 and not written[0][3]["converged"]


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


FILE_MOMENTS = {"file": [2.0, 4.0], "negative-mean": [-1.0, 2.0, -6.0, 24.0],
                "zero-mean": [0.0, 2.0, 6.0, 24.0]}


@pytest.mark.parametrize("case, code, message", [
    # every moment flagged: the series give a zero variance on a valid input
    ("flagged", 3, "numerical non-convergence: flagged moments give a variance of 0.0"),
    # a moments file carries no estimates, so nothing is flagged
    ("file", 1, "input error: variance must be > 0"),
    ("degenerate", 1, "input error: variance must be > 0"),
    ("negative-mean", 1, "input error: mean must be > 0, got -1.0"),
    ("zero-mean", 1, "input error: mean must be > 0, got 0.0"),
])
def test_density_zero_variance_exit_codes(tmp_path, capsys, case, code, message):
    """A moment set that gives no Gamma reference writes no rows.  The case
    of the flagged set: fisheries K, q and E at sigma 0.577, r 6.63, from
    4e7 down to 2.5e7."""
    config = tmp_path / "config.json"
    x0, argv = 4e7, ["--direction", "down", "--threshold", "2.5e7"]
    if case == "flagged":
        config.write_text(json.dumps({**FISHERIES, "sigma": 0.577, "r": 6.63, "x0": x0}))
    else:
        config.write_text(json.dumps({**FISHERIES, "x0": x0}))
    if case in FILE_MOMENTS:
        (tmp_path / "m.json").write_text(json.dumps({"moments": FILE_MOMENTS[case]}))
        argv += ["--nmax", str(len(FILE_MOMENTS[case])),
                 "--moments-from", f"moments:{tmp_path / 'm.json'}"]
    if case == "degenerate":
        argv[-1] = repr(x0)
    got, out, err = run(capsys, "density", str(config), *argv, "--grid", "0.5:2:0.5")
    assert (got, out) == (code, "")
    assert err.startswith(message) and "Traceback" not in err


def test_density_refuses_a_nan_curve_from_flagged_moments(tmp_path, capsys):
    """Draw 10 of scripts/sweep_box.py: every order is flagged, and the
    variance is a rounding residue just above 0, so the Gamma match passes
    and the curve is NaN at every point.  Nothing is written."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "r": 0.2002058537285789, "K": 1128347210.9883878, "q": 1.0, "E": 0.004412859296355065,
        "sigma": 0.04000181127087052, "x0": 617207.8236245492}))
    out = tmp_path / "d.csv"
    code, stdout, err = run(capsys, "density", str(config), "--direction", "down",
                            "--threshold", "40705.527141046376", "--grid", "1:200:1",
                            "--out", str(out))
    assert (code, stdout) == (3, "")
    assert err.splitlines()[-1] == ("numerical non-convergence: flagged moments (orders "
                                    f"{list(range(1, 11))}) give a density of nan at t = 1.0")
    assert not out.exists() and not (tmp_path / "d.csv.json").exists()


def test_density_warning_names_a_sidecar_only_with_out(config_path, tmp_path, capsys):
    # up to 110 from 100 at nmax 8: order selection does not converge
    argv = ["density", config_path, "--direction", "up", "--threshold", "110",
            "--nmax", "8", "--grid", "0:2:0.5"]
    code, out, err = run(capsys, *argv)
    assert code == 0 and out.startswith("t,density\n")
    assert "warning: order selection did not converge; using n = 8\n" in err
    assert "(see" not in err
    out_path = tmp_path / "d.csv"
    code, _, err = run(capsys, *argv, "--out", str(out_path))
    assert code == 0
    assert ("warning: order selection did not converge; "
            f"using n = 8 (see {out_path}.json)\n") in err
    assert json.loads((tmp_path / "d.csv.json").read_text())["converged"] is False


def test_library_warnings_are_one_line_each(config_path, capsys):
    """Up to 110 from 100 the matched Gamma is singular at the origin: the
    library's SingularOriginWarning reaches stderr as one "warning:" line,
    with no source path or code line."""
    code, out, err = run(capsys, "density", config_path, "--direction", "up",
                         "--threshold", "110", "--grid", "0.05:1:0.05")
    assert code == 0 and out.startswith("t,density\n")
    lines = err.splitlines()
    assert all(line.startswith("warning: ") for line in lines), err
    assert any("reference density is singular at the origin" in line for line in lines), err


@pytest.mark.parametrize("bug", [ValueError, KeyError])
def test_a_bug_inside_a_command_propagates(config_path, monkeypatch, bug):
    """Only what reading a file raises is an input error; a ValueError or a
    KeyError from inside a command is a bug, not exit 1."""
    import logifpt.cli

    def broken(*args, **kwargs):
        raise bug("a bug")

    monkeypatch.setattr(logifpt.cli, "derive_params", broken)
    with pytest.raises(bug):
        main(["derive", config_path])


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


def test_density_at_large_gamma_shape(tmp_path, capsys):
    # sigma = 0.1 matches a Gamma shape near 165, where (beta t)^alpha
    # overflows a double
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps({**FISHERIES, "sigma": 0.1}))
    out_path = tmp_path / "narrow.csv"
    code, _, _ = run(capsys, "density", str(path), "--direction", "up",
                     "--threshold", "1e4", "--nmax", "10",
                     "--grid", "0:40:0.05", "--out", str(out_path))
    assert code == 0
    dens = np.loadtxt(out_path, delimiter=",", skiprows=1)[:, 1]
    assert np.all(np.isfinite(dens)) and dens.max() > 0
    sidecar = json.loads((tmp_path / "narrow.csv.json").read_text())
    assert sidecar["alpha"] > 160
    assert sidecar["coefficients"][0] == 1
    assert all(map(math.isfinite, sidecar["coefficients"]))


def test_density_is_zero_at_negative_times(config_path, tmp_path, capsys):
    out_path = tmp_path / "neg.csv"
    code, _, _ = run(capsys, "density", config_path, "--direction", "up",
                     "--threshold", "1e4", "--grid=-1:1:0.5", "--out", str(out_path))
    assert code == 0
    t, dens = np.loadtxt(out_path, delimiter=",", skiprows=1).T
    assert list(t) == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert np.all(np.isfinite(dens))
    assert np.all(dens[t < 0] == 0.0)


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
    assert err.startswith("usage: logifpt simulate")  # refused by the parser


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
    assert doc["censored"] == 0 and doc["censor_time"] == pytest.approx(60.0)
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


def test_oracle_cli_non_convergence_exits_3(tmp_path, capsys, monkeypatch):
    import mpmath

    def raising(*args, **kwargs):
        raise mpmath.mp.NoConvergence("injected")

    monkeypatch.setattr(mpmath, "hyperu", raising)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**FISHERIES, "x0": 3.91e7}))
    code, out, err = run(capsys, "oracle", str(path), "--direction", "down",
                         "--threshold", "2.8e7", "--lambda-grid", "0:0.02:0.01",
                         "--order", "4")
    assert (code, out) == (3, "")
    assert "injected" in err


def test_oracle_cli_past_the_pole_exits_3(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**FISHERIES, "x0": 3.91e7}))
    code, out, err = run(capsys, "oracle", str(path), "--direction", "down",
                         "--threshold", "2.8e7", "--lambda-grid=-0.25:0:0.05",
                         "--order", "4")
    assert (code, out) == (3, "")
    assert "lam = -0.25" in err


def test_oracle_transform_failure_exits_3(config_path, capsys, monkeypatch):
    import logifpt.cli

    def raising(*args, **kwargs):
        raise errors.TransformFailure("injected")

    monkeypatch.setattr(logifpt.cli, "laplace_transform", raising)
    code, out, err = run(capsys, "oracle", config_path, "--direction", "up",
                         "--threshold", "1e4", "--lambda-grid", "0:0.02:0.01",
                         "--order", "4")
    assert (code, out) == (3, "")
    assert err == "numerical non-convergence: injected\n"


# Run in a fresh interpreter; prints, after each stage, the scipy modules loaded.
SCIPY_PROBE = """
import contextlib, io, json, math, sys
from pathlib import Path

work = Path(sys.argv[1])

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

stages = {}
import logifpt
import logifpt.cli
stages["import"] = scipy_loaded()

def main(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert logifpt.cli.main([str(a) for a in argv]) == 0, argv

config = work / "config.json"
up = ("--direction", "up", "--threshold", "1e4")
main("derive", config)
main("moments", config, *up, "--order", "4")
main("oracle", config, *up, "--lambda-grid", "0:0.04:0.02", "--order", "4")
main("simulate", config, *up, "--paths", "40", "--dt", "0.01", "--horizon", "60",
     "--seed", "5", "--kde-grid", "0:40:0.5", "--out", work / "s.csv")
rows = [f"{t!r},{t * t * math.exp(-t) / 2!r}" for t in (0.05 * i for i in range(801))]
(work / "g.csv").write_text("t,density\\n" + "\\n".join(rows) + "\\n")
main("compare", "--density", work / "g.csv", "--samples", work / "s.csv")
stages["no-scipy commands"] = scipy_loaded()
main("density", config, *up, "--order", "4", "--grid", "0:40:0.5")
stages["density"] = scipy_loaded()
main("density", config, *up, "--order", "4", "--grid", "0:40:0.5", "--out", work / "d.csv")
stages["density --out"] = scipy_loaded()
main("mle", "--samples", work / "s.csv", "--estimate", "sigma", "--fixed", work / "fixed.json",
     "--init", "sigma=0.22", "--max-iter", "2")
stages["mle"] = scipy_loaded()
print(json.dumps(stages))
"""


def test_each_command_loads_only_the_scipy_it_calls(tmp_path):
    """scipy is imported inside the functions that call it: the package, and
    the commands that evaluate no density and fit nothing, load none of it."""
    (tmp_path / "config.json").write_text(json.dumps(FISHERIES))
    (tmp_path / "fixed.json").write_text(json.dumps({**FISHERIES, "U": 1e4, "direction": "up"}))
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    stages = json.loads(done.stdout)
    assert stages["import"] == []
    assert stages["no-scipy commands"] == []
    assert "scipy.special" in stages["density"]
    assert not {"scipy.linalg", "scipy.optimize"} & set(stages["density"])
    assert not {"scipy.linalg", "scipy.optimize"} & set(stages["density --out"])
    assert "scipy.optimize" in stages["mle"]
