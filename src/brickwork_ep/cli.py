"""Command-line interface: parameter sweeps, EP-manifold sampling,
bifurcation data, trajectory simulation, and continuum checks, written as
deterministic CSV or JSON files.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 singular parameters.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .config import DEFAULT_TOLS, override_tolerances, point_failures
from .continuum import composite_trotter_check, kraus_lindblad_spectral_map
from .dynamics import (coherence_probe, coherence_probe_adjoint,
                       identity_observable, sensitivity_probe)
from .gates import (ParameterPoint, SingularGateError, check_denominators, check_parameters,
                    gate_stack)
from .linalg import eig_general, match_spectra
from .spectrum import analytic_spectrum, ep_scan
from .superop import assemble, block_reduce, superoperator_at

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_SINGULAR = 4

_OBSERVABLES = {
    "probe": coherence_probe,
    "probe-adjoint": coherence_probe_adjoint,
    "identity": identity_observable,
}


class ConfigError(ValueError):
    pass


# one cell formatter per dtype kind; integers, strings and the rest by str
_FORMATTERS = {"b": lambda v: "true" if v else "false", "f": "{:.17g}".format,
               "c": lambda v: f"{v.real:.17g}{v.imag:+.17g}j"}


def _cells(column) -> list[str]:
    """The cells of one table column, by the formatter of its dtype."""
    values = np.asarray(column)
    return list(map(_FORMATTERS.get(values.dtype.kind, str), values.tolist()))


def _fmt(x) -> str:
    """One metadata value, formatted as a table cell."""
    return _cells([x])[0]


def _repeated_cells(values, repeats: int = 1, tiles: int = 1) -> np.ndarray:
    """The cells of np.tile(np.repeat(values, repeats), tiles), each value
    formatted once; `write_table` passes string cells through.  An object
    array repeats the str objects themselves, with no re-encoding."""
    return np.tile(np.repeat(np.array(_cells(values), dtype=object), repeats), tiles)


def write_table(path: str, fmt: str, metadata: dict, columns: list[str], data):
    """Write a table as CSV or JSON.  `data` holds one sequence (array or
    list) per column, all of one length; each column is formatted by one
    formatter chosen from its dtype: bool as true/false, floats as %.17g,
    complex as re+imj at that precision, integers and strings by str.  A
    CSV row and a JSON row are the same cells."""
    rows = zip(*map(_cells, data))
    if fmt == "csv":
        lines = [f"# {k} = {_fmt(v)}" for k, v in sorted(metadata.items())]
        lines.append(",".join(columns))
        lines.extend(map(",".join, rows))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        doc = {
            "metadata": {k: _fmt(v) for k, v in sorted(metadata.items())},
            "columns": columns,
            "rows": list(rows),
        }
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


def _parse_grid(text: str) -> np.ndarray:
    """'start:stop:count' -> inclusive linspace of count >= 1 points."""
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}, expected start:stop:count") from exc
    if count < 1:
        raise ConfigError(f"bad grid {text!r}: count must be at least 1")
    return np.linspace(start, stop, count)


def _read_config_file(path: str) -> dict[str, str]:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, val = line.split("=", 1)
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _merge_config(parser: argparse.ArgumentParser, argv: list[str],
                  args: argparse.Namespace) -> argparse.Namespace:
    """Config-file values fill every flag the command line left unset.

    Each key the subcommand knows becomes a `--flag=value` token placed
    before the command line's own flags, so argparse converts and
    validates it and a flag given on the command line wins.  Keys of other
    subcommands are ignored.
    """
    if not args.config:
        return args
    known = set(vars(args)) - {"command", "func"}
    tokens = [f"--{'lambda' if key == 'lam' else key.replace('_', '-')}={val}"
              for key, val in _read_config_file(args.config).items() if key in known]
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + tokens + argv[at:])


def _resolve_point(args, epsilon: float | None = None,
                   x: float | None = None) -> ParameterPoint:
    """The point the flags name, `epsilon` or `x` replacing a flag's value;
    invalid values are user errors."""
    if x is None:
        if args.x is None and args.lam is None:
            raise ConfigError("one of --x or --lambda is required")
        if args.lam is not None and not args.lam > 0:
            raise ConfigError(f"--lambda must be positive, got {args.lam}")
        x = float(args.x) if args.x is not None else float(np.log(args.lam))
    eps = epsilon if epsilon is not None else args.epsilon
    if args.gamma is None or eps is None:
        raise ConfigError("--gamma and --epsilon are required")
    return ParameterPoint.easy_plane(x, float(args.gamma), float(eps), float(args.theta or 0.0))


def _resolve_tols(args):
    """The default tolerances with `--tol-overrides name=value,...` applied."""
    overrides = {}
    for item in filter(str.strip, (args.tol_overrides or "").split(",")):
        key, sep, val = item.partition("=")
        if not sep or "=" in val:
            raise ConfigError(f"bad tolerance override {item!r}")
        overrides[key.strip()] = float(val)
    return override_tolerances(DEFAULT_TOLS, **overrides)


def _output_path(args, default_name: str) -> str:
    out = args.output or default_name
    if not os.path.isabs(out):
        base = os.environ.get("BRICKWORK_EP_OUTPUT_DIR", "")
        if base:
            out = os.path.join(base, out)
    return out


def _base_metadata(args) -> dict:
    meta = {"version": __version__, "command": args.command, "seed": args.seed,
            "format": args.format}
    for key in ("gamma", "x", "lam", "epsilon", "theta", "delta", "rate", "time",
                "n_max", "observable", "sweep", "sweep_grid", "gamma_grid",
                "x_grid", "n_list", "epsilon0", "tol_overrides"):
        if hasattr(args, key) and getattr(args, key) is not None:
            meta[key.replace("_", "-")] = getattr(args, key)
    return meta


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    tols = _resolve_tols(args)
    point = _resolve_point(args)
    s = superoperator_at(point, tols)
    es = eig_general(s.matrix, tols)
    order = np.lexsort((es.eigenvalues.imag, es.eigenvalues.real,
                        -np.abs(es.eigenvalues)))
    rows = [(int(k + 1), mu.real, mu.imag, abs(mu), "numeric")
            for k, mu in enumerate(es.eigenvalues[order])]
    meta = _base_metadata(args)
    meta["regime"] = point.regime.value
    meta["near-defective"] = es.near_defective
    meta["min-overlap"] = es.min_overlap
    if point.superintegrable:
        spec = analytic_spectrum(point, tols)
        rows += [(int(j + 1), mu.real, mu.imag, abs(mu), "analytic")
                 for j, mu in enumerate(spec.mu)]
        meta["max-analytic-numeric-distance"] = match_spectra(
            es.eigenvalues, spec.mu).max_distance
        pair_gap = abs(spec.mu[8] - spec.mu[9])
        meta["pair-gap-9-10"] = pair_gap
    write_table(_output_path(args, "spectrum.csv"), args.format, meta,
                ["index", "re_mu", "im_mu", "abs_mu", "source"], list(zip(*rows)))
    return EXIT_OK


def cmd_ep_scan(args) -> int:
    tols = _resolve_tols(args)
    if args.gamma_grid is None or args.x_grid is None:
        raise ConfigError("--gamma-grid and --x-grid are required")
    gammas = _parse_grid(args.gamma_grid)
    xs = _parse_grid(args.x_grid)
    scan = ep_scan(gammas, xs, tols)
    meta = _base_metadata(args)
    meta["regime"] = "easy-plane"
    meta["records"] = len(scan.gamma)
    # the rows run over the sorted grids, gamma outer and x inner
    nx = len(xs)
    write_table(_output_path(args, "ep_scan.csv"), args.format, meta,
                ["gamma", "x", "epsilon_ep", "re_mu0", "im_mu0", "certified"],
                [_repeated_cells(scan.gamma[::nx], repeats=nx),
                 _repeated_cells(scan.x[:nx], tiles=len(gammas)),
                 scan.epsilon, scan.mu0.real, scan.mu0.imag, scan.certified])
    return EXIT_OK


def cmd_bifurcate(args) -> int:
    tols = _resolve_tols(args)
    if args.sweep_grid is None:
        raise ConfigError("--sweep-grid is required")
    grid = _parse_grid(args.sweep_grid)
    # the fixed parameters are checked once, the swept one at each grid value
    fixed = (_resolve_point(args, epsilon=1.0) if args.sweep == "epsilon"
             else _resolve_point(args, x=0.0))

    # one stacked pass checks every sweep value, then the valid ones run as one stack
    params = {k: np.full(len(grid), getattr(fixed, k))
              for k in ("x", "gamma", "epsilon", "theta")} | {args.sweep: grid}
    with point_failures() as failed:
        check_denominators(*check_parameters(**params), tols)
    for i, exc in sorted(failed.items()):
        print(f"brickwork-ep: skipping {args.sweep} = {grid[i]:.6g}: {exc}", file=sys.stderr)
    stack = {k: np.delete(v, list(failed)) for k, v in params.items()}
    values = stack[args.sweep]
    n = len(values)
    taus = block_reduce(assemble(*gate_stack(**stack, tols=tols)[:3]), tols)
    evals = np.stack([np.linalg.eigvals(tau) for tau in taus], axis=1)   # (n, 2, 8)
    order = np.lexsort((evals.imag, evals.real), axis=-1)
    evals = np.take_along_axis(evals, order, axis=-1).ravel()
    data = [_repeated_cells(values, repeats=16), np.tile(np.repeat(["plus", "minus"], 8), n),
            _repeated_cells(np.arange(1, 9), tiles=2 * n), evals.real, evals.imag,
            list(map(abs, evals.tolist()))]   # scalar abs: np.abs differs in the last bit
    meta = _base_metadata(args)
    meta["skipped"] = len(grid) - n
    write_table(_output_path(args, "bifurcate.csv"), args.format, meta,
                ["sweep_value", "sector", "branch", "re_mu", "im_mu", "abs_mu"], data)
    return EXIT_OK


def cmd_evolve(args) -> int:
    tols = _resolve_tols(args)
    if args.epsilon0 is None:
        raise ConfigError("--epsilon0 is required")
    probe = sensitivity_probe(_resolve_point(args, epsilon=args.epsilon0), args.delta,
                              args.n_max, _OBSERVABLES[args.observable](), tols=tols)

    meta = _base_metadata(args)
    tags = ("minus", "center", "plus")
    records = (probe.minus, probe.center, probe.plus)
    for tag, rec in zip(tags, records):
        meta[f"regime-{tag}"] = rec.regime.value if rec.regime else "inconclusive"
    values = np.concatenate([rec.values for rec in records])
    data = [np.repeat(tags, args.n_max + 1), _repeated_cells(np.arange(args.n_max + 1), tiles=3),
            values.real, values.imag, np.concatenate([rec.rescaled for rec in records])]
    write_table(_output_path(args, "evolve.csv"), args.format, meta,
                ["series", "n", "re_g", "im_g", "rescaled"], data)
    return EXIT_OK


def cmd_trotter(args) -> int:
    tols = _resolve_tols(args)
    if args.gamma is None:
        raise ConfigError("--gamma is required")
    try:
        n_list = [int(v) for v in (args.n_list or "100,200,400").split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad --n-list {args.n_list!r}") from exc
    if min(n_list) < 1:
        raise ConfigError(f"--n-list step counts must be positive, got {args.n_list!r}")
    Gamma = float(args.rate if args.rate is not None else 1.0)
    t = float(args.time if args.time is not None else 1.0)
    report = composite_trotter_check(float(args.gamma), Gamma, t, n_list, tols)
    spectral = kraus_lindblad_spectral_map(Gamma, t, max(n_list)) if Gamma * t > 0 else None

    ns, unit_err, comp_err = zip(*report.rows)
    ratio = [0.0] + [prev / err if err else 0.0 for prev, err in zip(comp_err, comp_err[1:])]
    meta = _base_metadata(args)
    meta["halving-ok"] = report.halving_ok
    if spectral is not None:
        meta["spectral-map-max-diff"] = spectral.max_eig_diff
        meta["channel-embedding-diff"] = spectral.channel_diff
    write_table(_output_path(args, "trotter.csv"), args.format, meta,
                ["n", "unitary_residual", "composite_error", "ratio_to_previous"],
                [ns, unit_err, comp_err, ratio])
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--gamma", type=float, default=None, help="anisotropy angle (q = e^{i gamma})")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--x", type=float, default=None, help="log of the spectral parameter")
    group.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="spectral parameter itself")
    p.add_argument("--epsilon", type=float, default=None, help="relaxation strength in (0, 1]")
    p.add_argument("--theta", type=float, default=None, help="local phase-gate angle")
    p.add_argument("--output", default=None, help="output path (default under $BRICKWORK_EP_OUTPUT_DIR)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--config", default=None, help="key = value file; flags override it")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol-overrides", default=None, help="comma list name=value")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="brickwork-ep",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="all 16 eigenvalues at one parameter point")
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("ep-scan", help="sample the exceptional-point surface")
    _add_common(p)
    p.add_argument("--gamma-grid", default=None, help="start:stop:count")
    p.add_argument("--x-grid", default=None, help="start:stop:count")
    p.set_defaults(func=cmd_ep_scan)

    p = sub.add_parser("bifurcate", help="block eigenvalues along a parameter sweep")
    _add_common(p)
    p.add_argument("--sweep", choices=("epsilon", "x"), default="epsilon")
    p.add_argument("--sweep-grid", default=None, help="start:stop:count")
    p.set_defaults(func=cmd_bifurcate)

    p = sub.add_parser("evolve", help="probe trajectories at epsilon0 and epsilon0 +- delta")
    _add_common(p)
    p.add_argument("--epsilon0", type=float, default=None)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--observable", choices=sorted(_OBSERVABLES), default="probe")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("trotter", help="continuum-limit convergence report")
    _add_common(p)
    p.add_argument("--rate", type=float, default=None, help="dissipation rate of the target generator")
    p.add_argument("--time", type=float, default=None, help="total evolution time")
    p.add_argument("--n-list", default=None, help="comma list of step counts")
    p.set_defaults(func=cmd_trotter)
    return parser


# the one map from a failure to its exit code and notice; the first class that matches decides
_EXIT_CODES = {SingularGateError: (EXIT_SINGULAR, "singular parameters"),
               ValueError: (EXIT_CONFIG, "config error"),   # ConfigError among them
               ArithmeticError: (EXIT_NUMERICAL, "numerical failure"),
               RuntimeError: (EXIT_NUMERICAL, "numerical failure")}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(parser, argv, args)
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        code, what = next(v for kind, v in _EXIT_CODES.items() if isinstance(exc, kind))
        print(f"brickwork-ep: {what}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
