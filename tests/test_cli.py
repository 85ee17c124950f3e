import json
import warnings

import numpy as np
import pytest

from brickwork_ep import cli
from brickwork_ep.cli import ConfigError, main
from brickwork_ep.gates import SingularGateError
from brickwork_ep.linalg import EigenDecompositionError
from brickwork_ep.superop import SymmetryViolationError

from conftest import GAMMA_A, X_A, exact_ep_x


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    meta, columns, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, val = line[2:].split(" = ", 1)
            meta[key] = val
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, columns, rows


def test_spectrum_command(tmp_path):
    out = tmp_path / "spec.csv"
    code = run(["spectrum", "--gamma", GAMMA_A, "--x", X_A, "--epsilon", 0.32,
                "--output", out])
    assert code == 0
    meta, columns, rows = read_csv(out)
    assert columns == ["index", "re_mu", "im_mu", "abs_mu", "source"]
    assert len(rows) == 32   # numeric and analytic blocks
    assert float(meta["max-analytic-numeric-distance"]) < 1e-9
    assert meta["near-defective"] == "false"


def test_spectrum_at_ep_pair_gap(tmp_path):
    out = tmp_path / "spec.csv"
    x_star = float(exact_ep_x(0.4, GAMMA_A))
    code = run(["spectrum", "--gamma", GAMMA_A, "--x", x_star, "--epsilon", 0.4,
                "--output", out])
    assert code == 0
    meta, _, _ = read_csv(out)
    assert float(meta["pair-gap-9-10"]) <= 1e-6
    assert meta["near-defective"] == "true"


def test_spectrum_identity_point(tmp_path):
    out = tmp_path / "spec.csv"
    assert run(["spectrum", "--gamma", 0.9, "--x", 0.0, "--epsilon", 1.0,
                "--output", out]) == 0
    _, _, rows = read_csv(out)
    assert all(abs(float(r[3]) - 1.0) < 1e-12 for r in rows)


def test_spectrum_singular_exit_code(tmp_path):
    out = tmp_path / "spec.csv"
    code = run(["spectrum", "--gamma", 1e-15, "--x", 0.0, "--epsilon", 0.5,
                "--output", out])
    assert code == 4


def test_config_error_exit_code(tmp_path):
    out = tmp_path / "spec.csv"
    code = run(["spectrum", "--gamma", GAMMA_A, "--epsilon", 0.5, "--output", out])
    assert code == 2   # neither --x nor --lambda


def test_lambda_flag_equivalent(tmp_path):
    out_x = tmp_path / "a.csv"
    out_l = tmp_path / "b.csv"
    lam = float(np.exp(X_A))
    run(["spectrum", "--gamma", GAMMA_A, "--x", X_A, "--epsilon", 0.32, "--output", out_x])
    run(["spectrum", "--gamma", GAMMA_A, "--lambda", lam, "--epsilon", 0.32, "--output", out_l])
    _, _, rows_x = read_csv(out_x)
    _, _, rows_l = read_csv(out_l)
    for rx, rl in zip(rows_x, rows_l):
        assert abs(float(rx[1]) - float(rl[1])) < 1e-12


def test_ep_scan_reference_points(tmp_path):
    out = tmp_path / "scan.csv"
    code = run(["ep-scan", "--gamma-grid", f"{np.pi/9}:{np.pi/2}:3",
                "--x-grid", "0.3013:0.3013:1", "--output", out])
    assert code == 0
    meta, columns, rows = read_csv(out)
    assert columns == ["gamma", "x", "epsilon_ep", "re_mu0", "im_mu0", "certified"]
    assert len(rows) == 3
    assert all(r[5] == "true" for r in rows)
    # the pi/9 column reproduces the reference manifold point
    assert abs(float(rows[0][2]) - 0.2) < 5e-3


def test_ep_scan_rejects_gamma_zero(tmp_path):
    out = tmp_path / "scan.csv"
    code = run(["ep-scan", "--gamma-grid", "0:1:2", "--x-grid", "0.3:0.4:2",
                "--output", out])
    assert code == 2


def test_bifurcate_sweep(tmp_path):
    out = tmp_path / "bif.csv"
    x_star = float(exact_ep_x(0.4, GAMMA_A))
    code = run(["bifurcate", "--gamma", GAMMA_A, "--x", x_star,
                "--sweep", "epsilon", "--sweep-grid", "0.1:0.9:17", "--output", out])
    assert code == 0
    _, columns, rows = read_csv(out)
    assert columns == ["sweep_value", "sector", "branch", "re_mu", "im_mu", "abs_mu"]
    assert len(rows) == 17 * 16
    values = sorted({float(r[0]) for r in rows})
    assert len(values) == 17
    # sector tags partition each sweep value into 8 + 8
    first = [r for r in rows if float(r[0]) == values[0]]
    assert sum(1 for r in first if r[1] == "plus") == 8
    assert sum(1 for r in first if r[1] == "minus") == 8
    # constant branches 1, eps^2, eps are present at every sweep value
    for val in (0.1, 0.9):
        sub = [complex(float(r[3]), float(r[4])) for r in rows if abs(float(r[0]) - val) < 1e-12]
        for target in (1.0, val**2, val):
            assert min(abs(m - target) for m in sub) < 1e-9


@pytest.mark.parametrize("args", [
    ["ep-scan", "--gamma-grid", "0.5:1:0", "--x-grid", "0.1:1:2"],
    ["bifurcate", "--gamma", 0.7, "--theta", 0.3, "--x", 0.5, "--sweep-grid", "0.1:0.5:0"],
])
def test_grid_count_below_one_exit_code(tmp_path, args):
    # an empty grid used to write a header-only table and exit 0
    out = tmp_path / "out.csv"
    assert run(args + ["--output", out]) == 2
    assert not out.exists()


def test_bifurcate_x_sweep(tmp_path):
    out = tmp_path / "bif.csv"
    code = run(["bifurcate", "--gamma", GAMMA_A, "--epsilon", 0.4,
                "--sweep", "x", "--sweep-grid=-0.4:0.4:5", "--output", out])
    assert code == 0
    meta, _, rows = read_csv(out)
    # the x = 0 column is fine here (gamma = pi/4 is not singular), nothing skipped
    assert meta["skipped"] == "0"
    assert len(rows) == 5 * 16


def test_bifurcate_skips_singular(tmp_path, capsys):
    # gamma close to zero makes the x = 0 grid column singular; it is skipped
    # with a notice while the remaining columns are emitted
    out = tmp_path / "bif.csv"
    code = run(["bifurcate", "--gamma", 1e-14, "--epsilon", 0.4,
                "--sweep", "x", "--sweep-grid=-0.4:0.4:5", "--output", out])
    assert code == 0
    meta, _, rows = read_csv(out)
    assert meta["skipped"] == "1"
    assert len(rows) == 4 * 16
    assert "skipping" in capsys.readouterr().err


def test_evolve_triptych(tmp_path):
    out = tmp_path / "evolve.csv"
    x_star = float(exact_ep_x(0.4, GAMMA_A))
    code = run(["evolve", "--gamma", GAMMA_A, "--x", x_star, "--epsilon0", 0.4,
                "--delta", 0.01, "--n-max", 200, "--output", out])
    assert code == 0
    meta, columns, rows = read_csv(out)
    assert columns == ["series", "n", "re_g", "im_g", "rescaled"]
    assert meta["regime-center"] == "at"
    assert meta["regime-plus"] == "above"
    assert meta["regime-minus"] == "below"
    assert len(rows) == 3 * 201


def test_evolve_readme_example_at_n_max_2000(tmp_path):
    # |mu|^n and the series fall below the smallest normal double before
    # n = 2000; the rescaled series used to divide by an underflowed |mu|^n,
    # warn, and tag the centre and plus series inconclusive
    out = tmp_path / "evolve.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["evolve", "--gamma", GAMMA_A, "--x", 0.3294198210614586, "--epsilon0", 0.4,
                    "--delta", 0.01, "--n-max", 2000, "--output", out])
    assert code == 0
    assert caught == []
    meta, _, rows = read_csv(out)
    assert (meta["regime-minus"], meta["regime-center"], meta["regime-plus"]) == (
        "below", "at", "above")
    assert all(np.isfinite(float(r[4])) for r in rows)


def test_evolve_zero_delta_identical_series(tmp_path):
    out = tmp_path / "evolve.csv"
    code = run(["evolve", "--gamma", GAMMA_A, "--x", X_A, "--epsilon0", 0.32,
                "--delta", 0.0, "--n-max", 50, "--output", out])
    assert code == 0
    _, _, rows = read_csv(out)
    by_tag = {}
    for tag, n, re, im, resc in rows:
        by_tag.setdefault(tag, []).append((n, re, im, resc))
    assert by_tag["minus"] == by_tag["center"] == by_tag["plus"]


def test_trotter_command(tmp_path):
    out = tmp_path / "trot.csv"
    code = run(["trotter", "--gamma", GAMMA_A, "--rate", 0.5, "--time", 1.0,
                "--n-list", "100,200,400", "--output", out])
    assert code == 0
    meta, columns, rows = read_csv(out)
    assert columns == ["n", "unitary_residual", "composite_error", "ratio_to_previous"]
    assert meta["halving-ok"] == "true"
    # closed-form identity up to repeated float powering at n = 400
    assert float(meta["spectral-map-max-diff"]) < 1e-13
    ratios = [float(r[3]) for r in rows[1:]]
    for ratio in ratios:
        assert abs(ratio - 2.0) < 0.6


def test_json_format(tmp_path):
    out = tmp_path / "spec.json"
    code = run(["spectrum", "--gamma", GAMMA_A, "--x", X_A, "--epsilon", 0.32,
                "--format", "json", "--output", out])
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"metadata", "columns", "rows"}
    assert doc["columns"][0] == "index"
    assert len(doc["rows"]) == 32


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["evolve", "--gamma", GAMMA_A, "--x", X_A, "--epsilon0", 0.32,
            "--delta", 0.01, "--n-max", 80, "--seed", 7]
    assert run(args + ["--output", a]) == 0
    assert run(args + ["--output", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 0.785398163397448\nx = 0.3293\nepsilon = 0.32\n# comment\n")
    out1 = tmp_path / "c1.csv"
    code = run(["spectrum", "--config", cfg, "--output", out1])
    assert code == 0
    meta, _, _ = read_csv(out1)
    assert abs(float(meta["epsilon"]) - 0.32) < 1e-12
    # command line wins over the file
    out2 = tmp_path / "c2.csv"
    code = run(["spectrum", "--config", cfg, "--epsilon", "0.5", "--output", out2])
    assert code == 0
    meta2, _, _ = read_csv(out2)
    assert abs(float(meta2["epsilon"]) - 0.5) < 1e-12


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("BRICKWORK_EP_OUTPUT_DIR", str(tmp_path))
    code = run(["spectrum", "--gamma", GAMMA_A, "--x", X_A, "--epsilon", 0.32,
                "--output", "envtest.csv"])
    assert code == 0
    assert (tmp_path / "envtest.csv").exists()


def test_tol_override_rejected_when_unknown(tmp_path):
    out = tmp_path / "spec.csv"
    # quadratic_ratio_rtol was a tolerance that nothing the CLI runs read
    for name in ("not_a_tol", "quadratic_ratio_rtol"):
        code = run(["spectrum", "--gamma", GAMMA_A, "--x", X_A, "--epsilon", 0.32,
                    "--tol-overrides", f"{name}=1", "--output", out])
        assert code == 2


def test_config_file_fills_flags_with_defaults(tmp_path):
    # values for flags whose argparse default is not None were ignored
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"gamma = {GAMMA_A!r}\nx = {X_A!r}\nepsilon0 = 0.32\n"
                   "delta = 0.05\nn_max = 30\nformat = json\nseed = 9\n"
                   "observable = probe-adjoint\n")
    out = tmp_path / "evolve.json"
    assert run(["evolve", "--config", cfg, "--output", out]) == 0
    doc = json.loads(out.read_text())
    meta = doc["metadata"]
    assert float(meta["delta"]) == 0.05
    assert (meta["n-max"], meta["format"], meta["seed"]) == ("30", "json", "9")
    assert meta["observable"] == "probe-adjoint"
    assert len(doc["rows"]) == 3 * 31
    # the command line still wins, and a bad file value is a usage error
    assert run(["evolve", "--config", cfg, "--format", "csv", "--output", out]) == 0
    assert out.read_text().startswith("# command = evolve")
    cfg.write_text("x = 0.3\nformat = xml\n")
    with pytest.raises(SystemExit) as exc:
        run(["spectrum", "--config", cfg, "--gamma", GAMMA_A, "--epsilon", 0.3,
             "--output", out])
    assert exc.value.code == 2


def test_config_file_sweep_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sweep = x\nsweep_grid = -0.4:0.4:5\nepsilon = 0.4\n")
    out = tmp_path / "bif.csv"
    assert run(["bifurcate", "--config", cfg, "--gamma", GAMMA_A, "--output", out]) == 0
    meta, _, rows = read_csv(out)
    assert meta["sweep"] == "x" and len(rows) == 5 * 16


def test_unwritable_output_exit_code(tmp_path, capsys):
    out = tmp_path / "missing" / "dir" / "spec.csv"
    code = run(["spectrum", "--gamma", GAMMA_A, "--x", X_A, "--epsilon", 0.32,
                "--output", out])
    assert code == 2
    assert "cannot write output file" in capsys.readouterr().err


def test_trotter_rejects_nonpositive_step_count(tmp_path):
    for n_list in ("0,10", "-5,10"):
        code = run(["trotter", "--gamma", GAMMA_A, f"--n-list={n_list}",
                    "--output", tmp_path / "t.csv"])
        assert code == 2


def test_ep_scan_grid_ending_at_half_pi(tmp_path):
    out = tmp_path / "scan.csv"
    code = run(["ep-scan", "--gamma-grid", "0.5:1.5707963267948966:3",
                "--x-grid", "0.2:0.6:3", "--output", out])
    assert code == 0
    _, _, rows = read_csv(out)
    assert len(rows) == 9 and all(r[5] == "true" for r in rows)


def test_ep_scan_non_finite_closed_forms_exit_code(tmp_path):
    out = tmp_path / "scan.csv"
    code = run(["ep-scan", "--gamma-grid", "0.5:1:2", "--x-grid", "200:201:2",
                "--output", out])
    assert code == 3
    assert not out.exists() or "nan" not in out.read_text()


@pytest.mark.parametrize("args", [
    ["spectrum", "--lambda", -1, "--epsilon", 0.3],
    ["spectrum", "--x", X_A, "--epsilon", 1.5],
    ["spectrum", "--x", "nan", "--epsilon", 0.3],
    ["evolve", "--x", X_A, "--epsilon0", 0.3, "--n-max", 5],
    ["evolve", "--x", X_A, "--epsilon0", 0.3, "--n-max", -3],
    ["bifurcate", "--lambda", -1, "--sweep-grid", "0.1:0.9:3"],
    ["bifurcate", "--sweep", "x", "--epsilon", 1.5, "--sweep-grid", "0.1:0.9:3"],
    ["evolve", "--x", X_A, "--epsilon0", 0.3, "--n-max", 19],
])
def test_bad_parameter_values_exit_code(tmp_path, args):
    out = tmp_path / "out.csv"
    assert run(args + ["--gamma", GAMMA_A, "--output", out]) == 2
    assert not out.exists()


def test_spectrum_non_finite_closed_forms_exit_code(tmp_path):
    out = tmp_path / "spec.csv"
    code = run(["spectrum", "--gamma", 0.7, "--x", 200, "--epsilon", 0.5, "--output", out])
    assert code == 3
    assert not out.exists()


@pytest.mark.parametrize("command, epsilon", [("spectrum", "--epsilon"), ("evolve", "--epsilon0")])
def test_overflowing_closed_forms_print_only_the_notice(tmp_path, capsys, command, epsilon):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run([command, "--gamma", 0.7, "--x", 200, epsilon, 0.5,
                    "--output", tmp_path / "out.csv"])
    assert code == 3
    assert caught == []
    assert capsys.readouterr().err == ("brickwork-ep: numerical failure: closed forms overflow "
                                       "at x = 200.0, gamma = 0.7\n")


@pytest.mark.parametrize("x", [800, -800])
def test_spectrum_overflowing_lambda_exit_code(tmp_path, x):
    out = tmp_path / "spec.csv"
    assert run(["spectrum", "--gamma", 0.7, f"--x={x}", "--epsilon", 0.5, "--output", out]) == 2
    assert not out.exists()


def test_bifurcate_skips_overflowing_lambda(tmp_path):
    out = tmp_path / "bif.csv"
    code = run(["bifurcate", "--gamma", 0.7, "--epsilon", 0.5, "--sweep", "x",
                "--sweep-grid", "0.5:800:2", "--output", out])
    assert code == 0
    meta, _, rows = read_csv(out)
    assert meta["skipped"] == "1"
    assert len(rows) == 16


@pytest.mark.parametrize("args", [
    ["--gamma", 0], ["--gamma", "nan"], ["--gamma", GAMMA_A, "--rate", -1],
    ["--gamma", GAMMA_A, "--time", -1],
    # eps_n = e^(-rate t/n) underflows to 0: an input error, as in ep-scan
    ["--gamma", GAMMA_A, "--time", 1e5, "--rate", 1],
    # checked before any work, so no RuntimeWarning (an error in this suite) comes first
    ["--gamma", GAMMA_A, "--time", "inf"], ["--gamma", GAMMA_A, "--rate", "nan"],
    ["--gamma", "inf"],
])
def test_trotter_bad_input_exit_code(tmp_path, args):
    out = tmp_path / "t.csv"
    assert run(["trotter", *args, "--output", out]) == 2
    assert not out.exists()


def test_evolve_negative_delta_exit_code(tmp_path):
    out = tmp_path / "ev.csv"
    code = run(["evolve", "--gamma", GAMMA_A, "--x", X_A, "--epsilon0", 0.3,
                "--delta=-0.01", "--output", out])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("x_grid, code", [("200:400:3", 3), ("400:500:2", 2), ("200:800:2", 3)])
def test_ep_scan_first_failing_point_decides_exit_code(tmp_path, x_grid, code):
    # x = 200 overflows the closed forms (exit 3) before x = 400 underflows
    # the critical epsilon (exit 2), as in a point-by-point scan
    out = tmp_path / "scan.csv"
    assert run(["ep-scan", "--gamma-grid", "0.5:1:2", "--x-grid", x_grid,
                "--output", out]) == code
    assert not out.exists()


def test_parser_reuse_is_stateless(tmp_path):
    spec = ["spectrum", "--gamma", GAMMA_A, "--x", X_A, "--epsilon", 0.32]
    scan = ["ep-scan", "--gamma-grid", "0.5:1:2", "--x-grid", "0.2:0.6:3"]
    assert run(spec + ["--output", tmp_path / "a.csv"]) == 0
    assert run(scan + ["--output", tmp_path / "b.csv"]) == 0
    assert run(spec + ["--output", tmp_path / "c.csv"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()


@pytest.mark.parametrize("args", [
    ["spectrum", "--gamma", 0.7, "--x", 705, "--epsilon", 0.5, "--theta", 0.2],
    ["bifurcate", "--gamma", 0.7, "--theta", 0.2, "--epsilon", 0.5, "--sweep", "x",
     "--sweep-grid", "700:705:2"],
])
def test_large_lambda_denominator_check_without_overflow(tmp_path, args):
    # runs under the suite's error::RuntimeWarning: lambda^2 is never formed
    assert run(args + ["--output", tmp_path / "out.csv"]) == 0


@pytest.mark.parametrize("args", [
    ["--gamma", 0.7, "--rate", -1, "--time", -100],
    ["--gamma", 4, "--rate", 1, "--time", 100],
])
def test_trotter_nonpositive_lambda_exit_code(tmp_path, args):
    # lambda_n = 1 + 2 sin(gamma) t/n <= 0 at the smallest n is an input error
    out = tmp_path / "t.csv"
    assert run(["trotter", *args, "--output", out]) == 2
    assert not out.exists()


@pytest.mark.parametrize("error, code, what", [
    (SingularGateError, 4, "singular parameters"),
    (ConfigError, 2, "config error"),
    (ValueError, 2, "config error"),
    (FloatingPointError, 3, "numerical failure"),
    (EigenDecompositionError, 3, "numerical failure"),
    (SymmetryViolationError, 3, "numerical failure"),
    (ArithmeticError, 3, "numerical failure"),   # the gate and channel tolerance checks
])
def test_main_maps_each_failure_to_its_exit_code(tmp_path, capsys, monkeypatch, error, code, what):
    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(cli, "superoperator_at", fail)
    out = tmp_path / "spec.csv"
    assert run(["spectrum", "--gamma", GAMMA_A, "--x", X_A, "--epsilon", 0.32,
                "--output", out]) == code
    assert capsys.readouterr().err == f"brickwork-ep: {what}: injected\n"
    assert not out.exists()


def test_ep_scan_singular_exit_code(tmp_path, capsys):
    # the same condition spectrum reports as singular; ep-scan used to exit 2
    out = tmp_path / "scan.csv"
    assert run(["ep-scan", "--gamma-grid", "0.0001:0.0001:1", "--x-grid", "0:0:1",
                "--tol-overrides", "singular_gate=1e-3", "--output", out]) == 4
    assert capsys.readouterr().err.startswith("brickwork-ep: singular parameters: ")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["spectrum", "--gamma", 0.7, "--x", 0.3, "--epsilon", 0.5, "--tol-overrides", "gate_unitarity=0"],
    ["spectrum", "--gamma", 0.7, "--x", 0.3, "--epsilon", 0.5,
     "--tol-overrides", "kraus_completeness=0"],
    ["bifurcate", "--gamma", 0.7, "--x", 0.3, "--theta", 0.2, "--sweep-grid", "0.1:0.9:3",
     "--tol-overrides", "gate_unitarity=0"],
    ["trotter", "--gamma", GAMMA_A, "--time", 1e308, "--rate", 0, "--n-list", "1,2"],
])
def test_tolerance_check_failure_exit_code(tmp_path, capsys, args):
    # these used to end in an AssertionError traceback
    out = tmp_path / "out.csv"
    assert run(args + ["--output", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("brickwork-ep: numerical failure: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("override", ["ep_gap=nan", "parity_commutator=-1"])
def test_invalid_tolerance_override_exit_code(tmp_path, capsys, override):
    # ep_gap=nan used to certify nothing and exit 0; a negative override ended in a traceback
    out = tmp_path / "scan.csv"
    assert run(["ep-scan", "--gamma-grid", "0.5:1:2", "--x-grid", "0.2:0.4:2",
                "--tol-overrides", override, "--output", out]) == 2
    assert "must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_trotter_non_finite_propagator_writes_no_nan(tmp_path, capsys):
    # runs under the suite's error::RuntimeWarning; the table used to hold nan errors
    assert run(["trotter", "--gamma", GAMMA_A, "--time", 2e300, "--rate", 0,
                "--output", tmp_path / "t.csv"]) == 3
    assert capsys.readouterr().err.count("\n") == 1
    assert all("nan" not in path.read_text() for path in tmp_path.iterdir())
