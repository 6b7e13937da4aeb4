"""Command-line front end: single-point diagnostics and (kappa, lambda) sweeps.

All subcommands read one JSON config (--config) and accept repeatable
--set KEY=VALUE overrides.  ``main`` turns --set, then --out and --workers, into
(key, value) pairs in that order, so the flags win over --set, which wins over the
file; ``sweep.read_config`` reads the file and the pairs once into the SweepConfig
every subcommand uses.  Exit codes, which no cache fault changes: 0 success, 1 usage
error (an unknown key, a malformed or out-of-range value), 2 runtime error, 130 Ctrl-C.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .cache import SpectrumCache
from .eigenstate_stats import binned_kl_divergence, build_histogram
from .errors import EmptyWindow, NonRectangularGrid, UsageError
from .sweep import (
    SweepConfig,
    _fmt,
    _write_text,
    boundary_from_rows,
    check_grids,
    compute_point_data,
    histogram_name,
    level_statistics,
    point_suffix,
    read_config,
    read_csv,
    run_sweep,
    write_boundary_csv,
    write_csv,
    write_errors_sidecar,
    write_histogram,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the CLI contract reserves 2 for runtime errors.
    def error(self, message):
        raise UsageError(message)


@functools.cache  # one parser per process: in-process callers of ``main`` build it once
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dicke-chaos", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable; dotted keys for "
                            "nested fields, e.g. thresholds.mean_r_min)")
        p.add_argument("--out", help="output directory (overrides output_dir)")
        p.add_argument("--workers", type=int, help="parallel workers (sweep only)")
    return parser


def _override(pair: str) -> tuple[str, object]:
    """One --set KEY=VALUE as a (key, value) pair; VALUE is parsed as JSON where it can be."""
    key, sep, raw = pair.partition("=")
    if not sep or key == "thresholds":
        raise UsageError(f"--set expects KEY=VALUE or thresholds.KEY=VALUE, got {pair!r}")
    if key in ("output_dir", "cache_dir"):  # a path stays text: a directory may be named 2024
        return key, raw
    try:
        return key, json.loads(raw)
    except ValueError:  # not JSON, or an int literal past Python's 4300-digit limit
        return key, raw


def _write_point_histogram(config: SweepConfig, kind: str, hist, meta: dict) -> list[Path]:
    """Write one point's histogram; its meta leads with kappa and lambda."""
    params = config.base
    meta = {"kappa": params.kappa, "lambda": params.lambda_, **meta}
    path = config.output_dir / f"{histogram_name(kind, params.kappa, params.lambda_)}.json"
    write_histogram(hist, path, meta)
    return [path]


def cmd_spectrum(config: SweepConfig, cache) -> list[Path]:
    params = config.base
    data = compute_point_data(params, cache=cache, want_vectors=False)
    if data.windowed.size == 0:
        raise EmptyWindow("no eigenvalue inside the energy window")
    path = config.output_dir / f"spectrum_{point_suffix(params.kappa, params.lambda_)}.csv"
    lines = ["index,energy"]
    lines += [f"{i},{_fmt(e)}" for i, e in zip(data.window_indices, data.windowed)]
    _write_text(path, "\n".join(lines) + "\n")
    return [path]


def cmd_spacing(config: SweepConfig, cache) -> list[Path]:
    windowed = compute_point_data(config.base, cache=cache, want_vectors=False).windowed
    stats = level_statistics(windowed, config.fit_degree)
    if stats.spacings is None:
        raise stats.errors["unfold"]
    clean = stats.spacings
    spacing_range = (0.0, float(clean.max())) if clean.size else (0.0, 1.0)
    hist = build_histogram(clean, config.bins, value_range=spacing_range)
    return _write_point_histogram(config, "spacing", hist, {
        "eta": stats.eta, "beta": stats.beta,
        "n_levels": int(windowed.size), "n_degenerate_dropped": stats.n_unfolded_dropped,
        "fit_degree": config.fit_degree,
    })


def cmd_ratio(config: SweepConfig, cache) -> list[Path]:
    windowed = compute_point_data(config.base, cache=cache, want_vectors=False).windowed
    stats = level_statistics(windowed, config.fit_degree)
    if stats.ratios is None:
        raise stats.errors["mean_r"]
    hist = build_histogram(stats.ratios, config.bins, value_range=(0.0, 1.0))
    return _write_point_histogram(config, "ratio", hist, {
        "mean_r": stats.mean_r, "n_ratios": int(stats.ratios.size),
        "n_degenerate_dropped": stats.n_degenerate_dropped,
        "n_dropped_pairs": stats.n_dropped_pairs,
    })


def cmd_eigstats(config: SweepConfig, cache) -> list[Path]:
    coeffs = compute_point_data(config.base, cache, bins=config.bins).coefficients
    if coeffs is None:
        raise EmptyWindow("no eigenstate inside the mid-spectrum window")
    return _write_point_histogram(config, "coeff", coeffs, {
        "d_kl": binned_kl_divergence(coeffs), "dim": coeffs.dim, "n_states": coeffs.n_states,
        "c_min": coeffs.lo, "c_max": coeffs.hi,
    })


def cmd_sweep(config: SweepConfig, cache) -> list[Path]:
    rows = run_sweep(check_grids(config))
    csv_path = config.output_dir / "sweep.csv"
    write_csv(rows, csv_path)
    written = [csv_path]
    sidecar = config.output_dir / "sweep_errors.json"
    if write_errors_sidecar(rows, sidecar):
        written.append(sidecar)
    return written


def cmd_boundary(config: SweepConfig, cache) -> list[Path]:
    csv_path = config.output_dir / "sweep.csv"
    try:
        curves = boundary_from_rows(read_csv(csv_path), config.thresholds)
    except FileNotFoundError as exc:
        raise UsageError(f"no sweep results at {csv_path}") from exc
    except NonRectangularGrid as exc:
        raise UsageError(f"{csv_path}: {exc}") from exc
    written = []
    for indicator, points in curves.items():
        path = config.output_dir / f"boundary_{indicator}.csv"
        write_boundary_csv(points, path)
        written.append(path)
    return written


#: Each subcommand's handler and help text; the parser and ``main`` both read this table.
_COMMANDS = {
    "spectrum": (cmd_spectrum, "write windowed eigenvalues for one (kappa, lambda) point"),
    "spacing": (cmd_spacing, "write P(s) histogram plus (eta, beta)"),
    "ratio": (cmd_ratio, "write P(r) histogram plus mean ratio"),
    "eigstats": (cmd_eigstats, "write P(c) histogram plus KL divergence"),
    "sweep": (cmd_sweep, "run the configured (kappa, lambda) grid"),
    "boundary": (cmd_boundary, "extract boundary curves from an existing sweep.csv"),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        overrides = [_override(pair) for pair in args.set]
        if args.out is not None:
            overrides.append(("output_dir", args.out))
        if args.workers is not None:
            overrides.append(("workers", args.workers))
        config = read_config(args.config, overrides)
        try:
            config.output_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot create output directory {config.output_dir}: {exc}") from exc
        cache = SpectrumCache(config.cache_dir) if config.cache_dir is not None else None
        handler, _ = _COMMANDS[args.command]
        written = handler(config, cache)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
