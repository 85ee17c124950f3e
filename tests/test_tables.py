"""Columnar table output against the per-cell, per-row formatting it
replaced, and the stacked bifurcate sweep against the point-by-point loop."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from brickwork_ep import ParameterPoint, SingularGateError, ep_scan, superoperator_at
from brickwork_ep.cli import main, write_table

from conftest import GAMMA_A, X_A
from test_cli import read_csv


def oracle_cell(x) -> str:
    """The per-cell formatter every table cell used to go through."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (complex, np.complexfloating)):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def oracle_table(fmt: str, metadata: dict, columns: list[str], rows) -> str:
    """The text the row-wise table writer produced."""
    meta = {k: oracle_cell(v) for k, v in sorted(metadata.items())}
    cells = [[oracle_cell(v) for v in row] for row in rows]
    if fmt == "csv":
        lines = [f"# {k} = {v}" for k, v in meta.items()] + [",".join(columns)]
        return "\n".join(lines + [",".join(row) for row in cells]) + "\n"
    return json.dumps({"metadata": meta, "columns": columns, "rows": cells},
                      indent=1, sort_keys=True) + "\n"


SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
           1e308, 0.1, -1.0 / 3.0]
floats = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_subnormal=True))
complexes = st.builds(complex, floats, floats)
ints = st.integers(-2**63, 2**63 - 1)
words = st.text("abcxyz-_.0123456789", max_size=8)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(0, 6), data=st.data())
def test_write_table_matches_per_cell_oracle(tmp_path, n, data):
    def column(values):
        return data.draw(st.lists(values, min_size=n, max_size=n))

    # numpy arrays and plain lists alike, as the subcommands pass both
    table = {"f_array": np.array(column(floats), dtype=float), "f_list": column(floats),
             "i_array": np.array(column(ints), dtype=np.int64), "i_list": column(ints),
             "b_array": np.array(column(st.booleans()), dtype=bool),
             "b_list": column(st.booleans()),
             "c_array": np.array(column(complexes), dtype=complex),
             "c_list": column(complexes), "s_list": column(words)}
    metadata = {"flag": data.draw(st.booleans()), "count": data.draw(ints),
                "value": data.draw(floats), "z": data.draw(complexes), "text": data.draw(words)}
    columns = list(table)
    rows = list(zip(*table.values()))
    for fmt in ("csv", "json"):
        path = tmp_path / f"t.{fmt}"
        write_table(str(path), fmt, metadata, columns, list(table.values()))
        assert path.read_text() == oracle_table(fmt, metadata, columns, rows)


def linspace(grid: str) -> np.ndarray:
    """The points of a 'start:stop:count' grid flag."""
    start, stop, count = grid.split(":")
    return np.linspace(float(start), float(stop), int(count))


def bifurcate_by_point(fixed: ParameterPoint, sweep: str, grid: np.ndarray):
    """Rows and skip notices of the point-by-point sweep the stack replaced."""
    rows, notices = [], []
    for val in grid:
        try:
            s = superoperator_at(replace(fixed, **{sweep: float(val)}))
        except (SingularGateError, ValueError) as exc:
            notices.append(f"brickwork-ep: skipping {sweep} = {val:.6g}: {exc}")
            continue
        for sector, tau in (("plus", s.tau_plus), ("minus", s.tau_minus)):
            evals = np.linalg.eigvals(tau)
            order = np.lexsort((evals.imag, evals.real))
            for k, mu in enumerate(evals[order]):
                rows.append([oracle_cell(v) for v in
                             (float(val), sector, k + 1, mu.real, mu.imag, abs(mu))])
    return rows, notices


@pytest.mark.parametrize("gamma, theta, fixed, sweep, grid, skipped", [
    # epsilon 1.25 and 1.5 leave (0, 1]
    (0.7, 0.3, {"x": 0.5}, "epsilon", "0.5:1.5:5", 2),
    (0.7, 0.3, {"x": 0.5}, "epsilon", "0.5:1.5:7", 3),
    # x = +-800 overflow lambda or its inverse, x = 0 is singular at gamma ~ 0
    (1e-14, 0.0, {"epsilon": 0.4}, "x", "-800:800:9", 3),
    (GAMMA_A, 1.1, {"x": X_A}, "epsilon", "0.05:0.95:50", 0),
    (0.7, 0.2, {"epsilon": 0.5}, "x", "700:705:2", 0),
])
def test_bifurcate_stack_matches_point_by_point(tmp_path, capsys, gamma, theta, fixed,
                                                sweep, grid, skipped):
    (key, val), = fixed.items()
    out = tmp_path / "bif.csv"
    code = main(["bifurcate", "--gamma", str(gamma), "--theta", str(theta), f"--{key}={val}",
                 "--sweep", sweep, f"--sweep-grid={grid}", "--output", str(out)])
    assert code == 0
    point = ParameterPoint.easy_plane(**{"x": 0.0, "epsilon": 1.0, **fixed}, gamma=gamma,
                                      theta=theta)
    rows, notices = bifurcate_by_point(point, sweep, linspace(grid))
    meta, columns, body = read_csv(out)
    assert meta["skipped"] == str(skipped) and len(notices) == skipped
    assert capsys.readouterr().err.splitlines() == notices
    assert columns == ["sweep_value", "sector", "branch", "re_mu", "im_mu", "abs_mu"]
    assert body == rows


def test_bifurcate_all_skipped_writes_header_only(tmp_path, capsys):
    out = tmp_path / "bif.csv"
    code = main(["bifurcate", "--gamma", "0.7", "--x", "0.3", "--sweep-grid", "1.25:1.5:2",
                 "--output", str(out)])
    assert code == 0
    meta, columns, body = read_csv(out)
    assert meta["skipped"] == "2" and body == []
    assert columns == ["sweep_value", "sector", "branch", "re_mu", "im_mu", "abs_mu"]
    assert len(capsys.readouterr().err.splitlines()) == 2


@pytest.mark.parametrize("argv", [
    ["bifurcate", "--gamma", "0.7", "--theta", "0.3", "--x", "0.5",
     "--sweep-grid", "0.5:1.5:5"],
    ["evolve", "--gamma", str(GAMMA_A), "--x", str(X_A), "--epsilon0", "0.32",
     "--n-max", "60"],
])
def test_json_rows_are_the_csv_cells(tmp_path, argv):
    csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
    assert main(argv + ["--output", str(csv_out)]) == 0
    assert main(argv + ["--format", "json", "--output", str(json_out)]) == 0
    meta, columns, body = read_csv(csv_out)
    doc = json.loads(json_out.read_text())
    assert doc["metadata"] == {**meta, "format": "json"}
    assert doc["columns"] == columns
    assert doc["rows"] == body and len(body) > 0


def read_table(path, fmt: str):
    """(metadata, columns) of a written table, its metadata as the cells read back."""
    if fmt == "csv":
        meta, columns, _ = read_csv(path)
        return meta, columns
    doc = json.loads(path.read_text())
    return doc["metadata"], doc["columns"]


# reversed grids, repeated values and grids that start at -0: the columns
# that repeat a grid are formatted once per grid value
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("gamma_grid, x_grid", [
    ("1.5:0.4:10", "1.1:0.1:20"), ("1.5:0.4:10", "0.5:0.5:3"), ("0.5:0.5:3", "0.5:0.5:3"),
    ("0.5:1.5:4", "-0:1:5"), ("0.5:1.5:4", "-0:-1:5"), ("0.5:1.5:4", "-0:0:3"),
])
def test_ep_scan_table_matches_per_cell_oracle(tmp_path, fmt, gamma_grid, x_grid):
    out = tmp_path / f"scan.{fmt}"
    assert main(["ep-scan", f"--gamma-grid={gamma_grid}", f"--x-grid={x_grid}",
                 "--format", fmt, "--output", str(out)]) == 0
    scan = ep_scan(linspace(gamma_grid), linspace(x_grid))
    rows = list(zip(scan.gamma, scan.x, scan.epsilon, scan.mu0.real, scan.mu0.imag,
                    scan.certified))
    meta, columns = read_table(out, fmt)
    assert len(rows) == int(meta["records"])
    assert out.read_text() == oracle_table(fmt, meta, columns, rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("fixed, sweep, grid", [
    ({"x": 0.5}, "epsilon", "1.5:0.4:10"), ({"x": 0.5}, "epsilon", "0.5:0.5:3"),
    ({"epsilon": 0.5}, "x", "1.5:0.4:10"), ({"epsilon": 0.5}, "x", "0.5:0.5:3"),
    ({"epsilon": 0.5}, "x", "-0:0.5:3"), ({"epsilon": 0.5}, "x", "-0:-0.5:3"),
])
def test_bifurcate_table_matches_per_cell_oracle(tmp_path, capsys, fmt, fixed, sweep, grid):
    (key, val), = fixed.items()
    out = tmp_path / f"bif.{fmt}"
    assert main(["bifurcate", "--gamma", "0.7", "--theta", "0.3", f"--{key}={val}",
                 "--sweep", sweep, f"--sweep-grid={grid}", "--format", fmt,
                 "--output", str(out)]) == 0
    point = ParameterPoint.easy_plane(**{"x": 0.0, "epsilon": 1.0, **fixed}, gamma=0.7, theta=0.3)
    rows, notices = bifurcate_by_point(point, sweep, linspace(grid))
    assert capsys.readouterr().err.splitlines() == notices
    meta, columns = read_table(out, fmt)
    assert out.read_text() == oracle_table(fmt, meta, columns, rows)
