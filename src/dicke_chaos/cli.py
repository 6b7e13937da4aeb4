"""Command-line front end: single-point diagnostics and (kappa, lambda) sweeps.

Subcommands
-----------
spectrum   write the windowed eigenvalues of one parameter point
spacing    write the P(s) histogram with eta and the Brody exponent
ratio      write the P(r) histogram with the mean spacing ratio
eigstats   write the P(c) histogram with the KL divergence from GOE
sweep      run a full (kappa, lambda) grid and write sweep.csv
boundary   post-process a sweep.csv into chaos-boundary curves

All subcommands read one JSON config (--config) and accept repeatable
--set KEY=VALUE overrides; --out and --workers take precedence over --set,
which takes precedence over the file.  Exit codes: 0 success, 1 usage error,
2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .cache import SpectrumCache
from .eigenstate_stats import DEFAULT_BINS, build_histogram, kl_divergence
from .errors import DickeChaosError, EmptyWindow, UsageError
from .spectral_stats import (
    DEFAULT_FIT_DEGREE,
    eta_indicator,
    fit_brody,
    spacing_ratios,
    split_degenerate,
    unfold,
)
from .sweep import (
    CACHE_ENV_VAR,
    CONFIG_KEYS,
    THRESHOLD_KEYS,
    boundary_from_rows,
    compute_point_data,
    histogram_name,
    load_config,
    params_from_config,
    read_csv,
    run_sweep,
    sweep_config_from_config,
    thresholds_from_config,
    validate_config_keys,
    write_boundary_csv,
    write_csv,
    write_errors_sidecar,
    write_histogram,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the CLI contract reserves 2 for runtime errors.
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dicke-chaos", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("spectrum", "write windowed eigenvalues for one (kappa, lambda) point"),
        ("spacing", "write P(s) histogram plus (eta, beta)"),
        ("ratio", "write P(r) histogram plus mean ratio"),
        ("eigstats", "write P(c) histogram plus KL divergence"),
        ("sweep", "run the configured (kappa, lambda) grid"),
        ("boundary", "extract boundary curves from an existing sweep.csv"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable; dotted keys for "
                            "nested fields, e.g. thresholds.mean_r_min)")
        p.add_argument("--out", help="output directory (overrides output_dir)")
        p.add_argument("--workers", type=int, help="parallel workers (sweep only)")
    return parser


def apply_overrides(doc: dict, pairs: list[str]) -> dict:
    """Apply --set KEY=VALUE pairs on top of a config document."""
    doc = dict(doc)
    if isinstance(doc.get("thresholds"), dict):
        doc["thresholds"] = dict(doc["thresholds"])
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise UsageError(f"--set expects KEY=VALUE, got {pair!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        if key.startswith("thresholds."):
            subkey = key.split(".", 1)[1]
            if subkey not in THRESHOLD_KEYS:
                raise UsageError(f"unknown override key: {key}")
            doc.setdefault("thresholds", {})[subkey] = value
        elif key in CONFIG_KEYS and key != "thresholds":
            doc[key] = value
        else:
            raise UsageError(f"unknown override key: {key}")
    validate_config_keys(doc)
    return doc


def _write_point_histogram(out_dir: Path, kind: str, params, hist, meta: dict) -> list[Path]:
    """Write one point's histogram; its meta leads with kappa and lambda, NaN becomes null."""
    meta = {"kappa": params.kappa, "lambda": params.lambda_, **meta}
    meta = {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in meta.items()}
    path = out_dir / f"{histogram_name(kind, params.kappa, params.lambda_)}.json"
    write_histogram(hist, path, meta)
    return [path]


def _prepare(doc: dict, args) -> tuple[dict, Path, SpectrumCache | None]:
    if args.out:
        doc["output_dir"] = args.out
    if args.workers is not None:
        doc["workers"] = args.workers
    out_dir = Path(doc.get("output_dir", "out"))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {out_dir}: {exc}") from exc
    cache_dir = doc.get("cache_dir") or os.environ.get(CACHE_ENV_VAR)
    cache = SpectrumCache(cache_dir) if cache_dir else None
    return doc, out_dir, cache


def _point(doc: dict, cache, want_vectors: bool):
    params = params_from_config(doc)
    return params, compute_point_data(params, cache=cache, want_vectors=want_vectors)


def cmd_spectrum(doc: dict, out_dir: Path, cache) -> list[Path]:
    params, data = _point(doc, cache, want_vectors=False)
    windowed = data.windowed
    if windowed.size == 0:
        raise EmptyWindow("no eigenvalue inside the energy window")
    path = out_dir / (
        f"spectrum_{format(params.kappa, 'g')}_{format(params.lambda_, 'g')}.csv"
    )
    lines = ["index,energy"]
    lines += [f"{i},{format(e, '.17g')}" for i, e in zip(data.window_indices, windowed)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [path]


def cmd_spacing(doc: dict, out_dir: Path, cache) -> list[Path]:
    params, data = _point(doc, cache, want_vectors=False)
    windowed = data.windowed
    fit_degree = int(doc.get("fit_degree", DEFAULT_FIT_DEGREE))
    bins = int(doc.get("bins", DEFAULT_BINS))
    spacings = unfold(windowed, fit_degree).spacings
    clean, n_dropped = split_degenerate(spacings)
    eta = beta = math.nan
    try:
        eta = eta_indicator(spacings)
        beta, _ = fit_brody(spacings)
    except DickeChaosError:
        pass  # too few clean spacings: histogram still gets written
    spacing_range = (0.0, float(clean.max())) if clean.size else (0.0, 1.0)
    hist = build_histogram(clean, bins, value_range=spacing_range)
    return _write_point_histogram(out_dir, "spacing", params, hist, {
        "eta": eta, "beta": beta,
        "n_levels": int(windowed.size), "n_degenerate_dropped": n_dropped,
        "fit_degree": fit_degree,
    })


def cmd_ratio(doc: dict, out_dir: Path, cache) -> list[Path]:
    params, data = _point(doc, cache, want_vectors=False)
    windowed = data.windowed
    bins = int(doc.get("bins", DEFAULT_BINS))
    ratios, n_dropped_pairs = spacing_ratios(windowed)
    _, n_degenerate = split_degenerate(np.diff(windowed))
    mean_r = float(ratios.mean()) if ratios.size else math.nan
    hist = build_histogram(ratios, bins, value_range=(0.0, 1.0))
    return _write_point_histogram(out_dir, "ratio", params, hist, {
        "mean_r": mean_r, "n_ratios": int(ratios.size),
        "n_degenerate_dropped": n_degenerate,
        "n_dropped_pairs": n_dropped_pairs,
    })


def cmd_eigstats(doc: dict, out_dir: Path, cache) -> list[Path]:
    params, data = _point(doc, cache, want_vectors=True)
    bins = int(doc.get("bins", DEFAULT_BINS))
    sample = data.sample
    if sample is None:
        raise EmptyWindow("no eigenstate inside the mid-spectrum window")
    d_kl = kl_divergence(sample, bins=bins)
    hist = build_histogram(sample.values, bins, value_range=(sample.c_min, sample.c_max))
    return _write_point_histogram(out_dir, "coeff", params, hist, {
        "d_kl": d_kl, "dim": sample.dim, "n_states": sample.n_states,
        "c_min": sample.c_min, "c_max": sample.c_max,
    })


def cmd_sweep(doc: dict, out_dir: Path, cache) -> list[Path]:
    if "cache_dir" not in doc and cache is not None:
        doc = dict(doc)
        doc["cache_dir"] = str(cache.root)
    config = sweep_config_from_config({**doc, "output_dir": str(out_dir)})
    rows = run_sweep(config)
    csv_path = out_dir / "sweep.csv"
    write_csv(rows, csv_path)
    written = [csv_path]
    sidecar = out_dir / "sweep_errors.json"
    if write_errors_sidecar(rows, sidecar):
        written.append(sidecar)
    return written


def cmd_boundary(doc: dict, out_dir: Path, cache) -> list[Path]:
    csv_path = out_dir / "sweep.csv"
    try:
        rows = read_csv(csv_path)
    except FileNotFoundError as exc:
        raise UsageError(f"no sweep results at {csv_path}") from exc
    thresholds = thresholds_from_config(doc)
    written = []
    for indicator, points in boundary_from_rows(rows, thresholds).items():
        path = out_dir / f"boundary_{indicator}.csv"
        write_boundary_csv(points, path)
        written.append(path)
    return written


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "spacing": cmd_spacing,
    "ratio": cmd_ratio,
    "eigstats": cmd_eigstats,
    "sweep": cmd_sweep,
    "boundary": cmd_boundary,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        doc = load_config(args.config)
        doc = apply_overrides(doc, args.set)
        doc, out_dir, cache = _prepare(doc, args)
        written = _COMMANDS[args.command](doc, out_dir, cache)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
