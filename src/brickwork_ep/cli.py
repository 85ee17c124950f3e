"""Command-line interface: parameter sweeps, EP-manifold sampling,
bifurcation data, trajectory simulation, and continuum checks, written as
deterministic CSV or JSON files.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 singular parameters.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .config import DEFAULT_TOLS, override_tolerances
from .continuum import composite_trotter_check, kraus_lindblad_spectral_map
from .dynamics import (coherence_probe, coherence_probe_adjoint,
                       identity_observable, sensitivity_probe)
from .gates import ParameterPoint, SingularGateError
from .linalg import EigenDecompositionError, eig_general, match_spectra
from .spectrum import analytic_spectrum, ep_scan
from .superop import UnsupportedRegimeError, superoperator_at

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


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (complex, np.complexfloating)):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def write_table(path: str, fmt: str, metadata: dict, columns: list[str], rows: list[tuple]):
    if fmt == "csv":
        lines = [f"# {k} = {_fmt(v)}" for k, v in sorted(metadata.items())]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        doc = {
            "metadata": {k: _fmt(v) for k, v in sorted(metadata.items())},
            "columns": columns,
            "rows": [[_fmt(v) for v in row] for row in rows],
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
    """'start:stop:count' -> inclusive linspace."""
    try:
        start, stop, count = text.split(":")
        return np.linspace(float(start), float(stop), int(count))
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}, expected start:stop:count") from exc


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


def _resolve_point(args, epsilon: float | None = None) -> ParameterPoint:
    if args.x is not None and args.lam is not None:
        raise ConfigError("--x and --lambda are mutually exclusive")
    if args.x is None and args.lam is None:
        raise ConfigError("one of --x or --lambda is required")
    x = float(args.x) if args.x is not None else float(np.log(args.lam))
    eps = epsilon if epsilon is not None else args.epsilon
    if args.gamma is None or eps is None:
        raise ConfigError("--gamma and --epsilon are required")
    theta = float(args.theta or 0.0)
    return ParameterPoint.easy_plane(x, float(args.gamma), float(eps), theta)


def _resolve_tols(args):
    if not getattr(args, "tol_overrides", None):
        return DEFAULT_TOLS
    overrides = {}
    for item in args.tol_overrides.split(","):
        if not item.strip():
            continue
        try:
            key, val = item.split("=")
            overrides[key.strip()] = float(val)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance override {item!r}") from exc
    try:
        return override_tolerances(DEFAULT_TOLS, **overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
                ["index", "re_mu", "im_mu", "abs_mu", "source"], rows)
    return EXIT_OK


def cmd_ep_scan(args) -> int:
    tols = _resolve_tols(args)
    if args.gamma_grid is None or args.x_grid is None:
        raise ConfigError("--gamma-grid and --x-grid are required")
    gammas = _parse_grid(args.gamma_grid)
    xs = _parse_grid(args.x_grid)
    try:
        records = ep_scan(gammas, xs, tols)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = []
    for rec in records:
        rows.append((np.real(rec.point.gamma), np.real(rec.point.x),
                     rec.point.epsilon, rec.mu0.real, rec.mu0.imag,
                     rec.certified))
    meta = _base_metadata(args)
    meta["regime"] = "easy-plane"
    meta["records"] = len(rows)
    write_table(_output_path(args, "ep_scan.csv"), args.format, meta,
                ["gamma", "x", "epsilon_ep", "re_mu0", "im_mu0", "certified"], rows)
    return EXIT_OK


def cmd_bifurcate(args) -> int:
    tols = _resolve_tols(args)
    if args.sweep not in ("epsilon", "x"):
        raise ConfigError("--sweep must be 'epsilon' or 'x'")
    if args.sweep_grid is None:
        raise ConfigError("--sweep-grid is required")
    grid = _parse_grid(args.sweep_grid)
    if args.gamma is None:
        raise ConfigError("--gamma is required")

    rows = []
    skipped = 0
    for val in grid:
        if args.sweep == "epsilon":
            if args.x is None and args.lam is None:
                raise ConfigError("fixed --x or --lambda is required for an epsilon sweep")
            x = float(args.x) if args.x is not None else float(np.log(args.lam))
            eps = float(val)
            if not 0.0 < eps <= 1.0:
                skipped += 1
                continue
        else:
            if args.epsilon is None:
                raise ConfigError("fixed --epsilon is required for an x sweep")
            x, eps = float(val), float(args.epsilon)
        try:
            point = ParameterPoint.easy_plane(x, float(args.gamma), eps,
                                              float(args.theta or 0.0))
            s = superoperator_at(point, tols)
        except (SingularGateError, ValueError) as exc:
            print(f"brickwork-ep: skipping {args.sweep} = {val:.6g}: {exc}", file=sys.stderr)
            skipped += 1
            continue
        for sector, tau in (("plus", s.tau_plus), ("minus", s.tau_minus)):
            evals = np.linalg.eigvals(tau)
            order = np.lexsort((evals.imag, evals.real))
            for k, mu in enumerate(evals[order]):
                rows.append((float(val), sector, int(k + 1), mu.real, mu.imag, abs(mu)))
    meta = _base_metadata(args)
    meta["skipped"] = skipped
    write_table(_output_path(args, "bifurcate.csv"), args.format, meta,
                ["sweep_value", "sector", "branch", "re_mu", "im_mu", "abs_mu"], rows)
    return EXIT_OK


def cmd_evolve(args) -> int:
    tols = _resolve_tols(args)
    if args.epsilon0 is None:
        raise ConfigError("--epsilon0 is required")
    eps0, delta = args.epsilon0, args.delta
    if not (0.0 < eps0 - delta and eps0 + delta <= 1.0):
        raise ConfigError(f"epsilon0 +- delta must stay in (0, 1]: {eps0} +- {delta}")
    probe = sensitivity_probe(_resolve_point(args, epsilon=eps0), delta, args.n_max,
                              _OBSERVABLES[args.observable](), tols=tols)

    rows = []
    meta = _base_metadata(args)
    for tag, rec in (("minus", probe.minus), ("center", probe.center), ("plus", probe.plus)):
        meta[f"regime-{tag}"] = rec.regime.value if rec.regime else "inconclusive"
        for n in range(args.n_max + 1):
            rows.append((tag, n, rec.values[n].real, rec.values[n].imag, rec.rescaled[n]))
    write_table(_output_path(args, "evolve.csv"), args.format, meta,
                ["series", "n", "re_g", "im_g", "rescaled"], rows)
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

    rows = []
    prev = None
    for n, unit_err, comp_err in report.rows:
        ratio = prev / comp_err if (prev is not None and comp_err) else 0.0
        rows.append((n, unit_err, comp_err, ratio))
        prev = comp_err
    meta = _base_metadata(args)
    meta["halving-ok"] = report.halving_ok
    if spectral is not None:
        meta["spectral-map-max-diff"] = spectral.max_eig_diff
        meta["channel-embedding-diff"] = spectral.channel_diff
    write_table(_output_path(args, "trotter.csv"), args.format, meta,
                ["n", "unitary_residual", "composite_error", "ratio_to_previous"], rows)
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


def build_parser() -> argparse.ArgumentParser:
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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(parser, argv, args)
        return args.func(args)
    except ConfigError as exc:
        print(f"brickwork-ep: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SingularGateError as exc:
        print(f"brickwork-ep: singular parameters: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (EigenDecompositionError, UnsupportedRegimeError, ValueError) as exc:
        print(f"brickwork-ep: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
