"""(kappa, lambda) grid sweeps with caching, parallel workers and file output.

Every point, for sweeps and the CLI alike, comes from :func:`compute_point_data`:
the library's filter_energy_window, tail_weights and collect_coefficients behind
the spectrum cache.  Grid points are independent work units executed in spawned
worker processes; results are gathered and sorted (kappa ascending, lambda
ascending) before anything is written, so the worker count never changes a
single output byte.  A failed point turns into a row of NaN sentinels plus an
entry in the errors sidecar instead of aborting the sweep.
"""

from __future__ import annotations

import contextlib
import json
import math
import multiprocessing
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .cache import (
    KIND_ENERGIES,
    KIND_MID_COEFFS,
    KIND_TAIL_WEIGHTS,
    SpectrumCache,
)
from .eigenstate_stats import (
    DEFAULT_BINS,
    MIN_BINS,
    CoefficientSample,
    Histogram,
    collect_coefficients,
    kl_divergence,
)
from .errors import DickeChaosError, EmptyWindow, OutputUnwritable, UsageError
from .model import ModelParams, Parity, build_hamiltonian
from .spectral_stats import (
    DEFAULT_FIT_DEGREE,
    BoundaryPoint,
    ChaosIndicators,
    chaos_boundary,
    eta_indicator,
    fit_brody,
    mean_ratio,
    spacing_ratios,
    split_degenerate,
    unfold,
)
from .spectrum import (
    DEFAULT_TAIL_TOL,
    DEFAULT_TAIL_WIDTH,
    EigenDecomposition,
    diagonalize,
    filter_energy_window,
    tail_weights,
)

CSV_HEADER = "kappa,lambda,dim,n_levels,eta,beta,mean_r,d_kl,converged_fraction,n_degenerate_dropped"

#: Environment variable pointing at the spectrum cache directory.
CACHE_ENV_VAR = "DICKE_CHAOS_CACHE_DIR"


@dataclass(frozen=True)
class Thresholds:
    """Chaos-classification thresholds for the boundary scans."""

    eta_max: float = 0.3
    beta_min: float = 0.7
    mean_r_min: float = 0.48

    def __post_init__(self) -> None:
        for name in ("eta_max", "beta_min", "mean_r_min"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"threshold {name} must lie in (0, 1), got {v}")


@dataclass(frozen=True)
class SweepConfig:
    """Everything a sweep needs; lambda_/kappa on ``base`` are ignored."""

    base: ModelParams
    kappa_grid: tuple[float, ...]
    lambda_grid: tuple[float, ...]
    fit_degree: int = DEFAULT_FIT_DEGREE
    bins: int = DEFAULT_BINS
    thresholds: Thresholds = field(default_factory=Thresholds)
    workers: int = 1
    output_dir: Path = Path("out")
    cache_dir: Path | None = None

    def __post_init__(self) -> None:
        for name in ("kappa_grid", "lambda_grid"):
            grid = getattr(self, name)
            if len(grid) == 0:
                raise ValueError(f"{name} must not be empty")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{name} must be strictly ascending")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.fit_degree < 0:
            raise ValueError(f"fit_degree must be >= 0, got {self.fit_degree}")
        if self.bins < MIN_BINS:
            raise ValueError(f"bins must be >= {MIN_BINS}, got {self.bins}")


@dataclass
class SweepResultRow:
    """One grid point of a sweep; NaN floats mark failed computations."""

    kappa: float
    lambda_: float
    dim: int = 0
    n_levels: int = 0
    eta: float = math.nan
    beta: float = math.nan
    mean_r: float = math.nan
    d_kl: float = math.nan
    converged_fraction: float = math.nan
    n_degenerate_dropped: int = 0
    error: str | None = None

    @property
    def indicators(self) -> ChaosIndicators:
        return ChaosIndicators(
            eta=self.eta, beta=self.beta, mean_r=self.mean_r, d_kl=self.d_kl,
            n_levels=self.n_levels, converged_fraction=self.converged_fraction,
        )


@dataclass
class PointData:
    """One parameter point as the sweep and the CLI read it.

    ``tail`` and ``sample`` are None without vectors; ``sample`` also when the
    mid window holds no state.
    """

    energies: np.ndarray                 # full spectrum, ascending
    window_indices: np.ndarray           # positions of the E/N-windowed levels
    tail: np.ndarray | None              # Fock-tail weights per windowed level
    sample: CoefficientSample | None     # pooled mid-window components

    @property
    def windowed(self) -> np.ndarray:
        """Eigenvalues inside the analysis window, ascending."""
        return self.energies[self.window_indices]


def _point_data(params: ModelParams, energies: np.ndarray, tail: np.ndarray | None,
                mid: np.ndarray | None) -> PointData:
    """The record for one point; a cache hit and a fresh solve both end here."""
    window = np.zeros(0, dtype=np.intp)
    with contextlib.suppress(EmptyWindow):
        window = filter_energy_window(EigenDecomposition(energies, None, []), params).window_indices
    sample = CoefficientSample.pool(mid, energies.size) if mid is not None and mid.size else None
    return PointData(energies, window, tail, sample)


def compute_point_data(
    params: ModelParams,
    cache: SpectrumCache | None = None,
    want_vectors: bool = True,
    tail_width: int = DEFAULT_TAIL_WIDTH,
) -> PointData:
    """Obtain the spectrum (and, if wanted, eigenvector summaries) for one point.

    Consults the cache first; on a miss builds and diagonalizes the even-parity
    block and stores the results.  Cached payloads are exact float64 copies, so
    a warm run reproduces a cold run bit for bit; empty windows store empty arrays.
    """
    sector = Parity.EVEN
    if cache is not None:
        energies = cache.load(params, sector, KIND_ENERGIES)
        if energies is not None:
            if not want_vectors:
                return _point_data(params, energies, None, None)
            mid = cache.load(params, sector, KIND_MID_COEFFS)
            tail = cache.load(params, sector, KIND_TAIL_WEIGHTS, tail_width=tail_width)
            if mid is not None and tail is not None:
                return _point_data(params, energies, tail, mid)

    eig = diagonalize(build_hamiltonian(params, sector), want_vectors=want_vectors)
    mid = tail = None
    if want_vectors:
        mid = tail = np.zeros(0)  # what an empty analysis or mid window stores
        with contextlib.suppress(EmptyWindow):
            ds = filter_energy_window(eig, params)
            tail = tail_weights(ds, tail_width)
            mid = collect_coefficients(ds).values
    if cache is not None:
        cache.store(params, sector, KIND_ENERGIES, eig.energies)
        if want_vectors:
            cache.store(params, sector, KIND_MID_COEFFS, mid)
            cache.store(params, sector, KIND_TAIL_WEIGHTS, tail, tail_width=tail_width)
    return _point_data(params, eig.energies, tail, mid)


def compute_point(
    params: ModelParams,
    fit_degree: int = DEFAULT_FIT_DEGREE,
    bins: int = DEFAULT_BINS,
    cache: SpectrumCache | None = None,
    tail_width: int = DEFAULT_TAIL_WIDTH,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> SweepResultRow:
    """All four chaos indicators for a single (kappa, lambda) point.

    Indicator-level failures (too few levels, empty windows, ...) leave that
    field NaN and are collected into ``row.error``; only they never abort.
    """
    row = SweepResultRow(kappa=params.kappa, lambda_=params.lambda_)
    notes: list[str] = []
    try:
        data = compute_point_data(params, cache=cache, want_vectors=True,
                                  tail_width=tail_width)
    except Exception as exc:  # failed point -> NaN row, sweep continues
        row.error = f"{type(exc).__name__}: {exc}"
        return row

    row.dim = data.energies.size
    windowed = data.windowed
    row.n_levels = int(windowed.size)
    if windowed.size == 0:
        notes.append("energy window empty")
    else:
        _, row.n_degenerate_dropped = split_degenerate(np.diff(windowed))
        try:
            spac = unfold(windowed, fit_degree).spacings
        except DickeChaosError as exc:
            notes.append(f"unfold: {exc}")
        else:
            try:
                row.eta = eta_indicator(spac)
            except DickeChaosError as exc:
                notes.append(f"eta: {exc}")
            try:
                row.beta, _ = fit_brody(spac)
            except DickeChaosError as exc:
                notes.append(f"beta: {exc}")
        try:
            ratios, _ = spacing_ratios(windowed)
            row.mean_r = mean_ratio(ratios)
        except DickeChaosError as exc:
            notes.append(f"mean_r: {exc}")
        row.converged_fraction = float(np.mean(data.tail < tail_tol))
        if data.sample is None:
            notes.append("d_kl: mid window empty")
        else:
            try:
                row.d_kl = kl_divergence(data.sample, bins=bins)
            except DickeChaosError as exc:
                notes.append(f"d_kl: {exc}")
    if notes:
        row.error = "; ".join(notes)
    return row


def _point_task(task: tuple) -> SweepResultRow:
    base, kappa, lam, fit_degree, bins, cache_dir = task
    params = replace(base, kappa=kappa, lambda_=lam)
    cache = SpectrumCache(cache_dir) if cache_dir is not None else None
    return compute_point(params, fit_degree=fit_degree, bins=bins, cache=cache)


def run_sweep(config: SweepConfig) -> list[SweepResultRow]:
    """Run the full grid and return rows ordered (kappa asc, lambda asc).

    Every point runs in a spawned worker process regardless of ``workers``, so
    results are independent of the degree of parallelism.
    """
    cache_dir = str(config.cache_dir) if config.cache_dir is not None else None
    tasks = [
        (config.base, kappa, lam, config.fit_degree, config.bins, cache_dir)
        for kappa in config.kappa_grid
        for lam in config.lambda_grid
    ]
    workers = max(1, min(config.workers, len(tasks)))
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=workers) as pool:
        rows = pool.map(_point_task, tasks, chunksize=1)
    rows.sort(key=lambda r: (r.kappa, r.lambda_))
    return rows


# ---------------------------------------------------------------------------
# file output


def _write_text(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OutputUnwritable(f"cannot write {path}: {exc}") from exc


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(rows: Sequence[SweepResultRow], path: str | Path) -> None:
    """Write sweep rows; floats carry 17 significant digits (exact round-trip)."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join((
            _fmt(r.kappa), _fmt(r.lambda_), str(r.dim), str(r.n_levels),
            _fmt(r.eta), _fmt(r.beta), _fmt(r.mean_r), _fmt(r.d_kl),
            _fmt(r.converged_fraction), str(r.n_degenerate_dropped),
        )))
    _write_text(path, "\n".join(lines) + "\n")


def read_csv(path: str | Path) -> list[SweepResultRow]:
    """Parse a sweep.csv back into rows (exact float round-trip)."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise UsageError(f"{path} is not a sweep result file (bad header)")
    rows = []
    for ln in lines[1:]:
        f = ln.split(",")
        rows.append(SweepResultRow(
            kappa=float(f[0]), lambda_=float(f[1]), dim=int(f[2]),
            n_levels=int(f[3]), eta=float(f[4]), beta=float(f[5]),
            mean_r=float(f[6]), d_kl=float(f[7]),
            converged_fraction=float(f[8]), n_degenerate_dropped=int(f[9]),
        ))
    return rows


def write_errors_sidecar(rows: Sequence[SweepResultRow], path: str | Path) -> bool:
    """Write the error sidecar if any row failed; returns whether it was written."""
    entries = [
        {"kappa": r.kappa, "lambda": r.lambda_, "error": r.error}
        for r in rows if r.error
    ]
    if not entries:
        return False
    _write_text(path, json.dumps(entries, indent=2) + "\n")
    return True


def write_histogram(hist: Histogram, path: str | Path, meta: Mapping | None = None) -> None:
    """Serialize one histogram as JSON with edges, densities, counts and meta."""
    doc = {
        "edges": [float(x) for x in hist.edges],
        "densities": [float(x) for x in hist.densities],
        "counts": [int(x) for x in hist.counts],
        "meta": dict(meta or {}),
    }
    _write_text(path, json.dumps(doc, indent=2) + "\n")


def read_histogram(path: str | Path) -> tuple[Histogram, dict]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    hist = Histogram(
        edges=np.array(doc["edges"], dtype=float),
        densities=np.array(doc["densities"], dtype=float),
        counts=np.array(doc["counts"], dtype=np.int64),
    )
    return hist, doc["meta"]


def write_histograms(
    histos: Iterable[tuple[str, Histogram, Mapping | None]],
    out_dir: str | Path,
) -> list[Path]:
    """Write (name, histogram, meta) triples to <out_dir>/<name>.json."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, hist, meta in histos:
        path = out_dir / f"{name}.json"
        write_histogram(hist, path, meta)
        written.append(path)
    return written


def histogram_name(kind: str, kappa: float, lam: float) -> str:
    return f"hist_{kind}_{format(float(kappa), 'g')}_{format(float(lam), 'g')}"


def boundary_from_rows(
    rows: Sequence[SweepResultRow], thresholds: Thresholds
) -> dict[str, list[BoundaryPoint]]:
    """Boundary curves for all three indicators from finished sweep rows."""
    out = {}
    for indicator, threshold in (
        ("eta", thresholds.eta_max),
        ("beta", thresholds.beta_min),
        ("mean_r", thresholds.mean_r_min),
    ):
        triples = [(r.kappa, r.lambda_, getattr(r, indicator)) for r in rows]
        out[indicator] = chaos_boundary(triples, indicator, threshold)
    return out


def write_boundary_csv(points: Sequence[BoundaryPoint], path: str | Path) -> None:
    lines = ["kappa,lambda_star,crossed"]
    for p in points:
        lam = _fmt(p.lambda_star) if p.lambda_star is not None else "nan"
        lines.append(f"{_fmt(p.kappa)},{lam},{'true' if p.crossed else 'false'}")
    _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# JSON configuration

THRESHOLD_KEYS = {"eta_max", "beta_min", "mean_r_min"}
CONFIG_KEYS = {
    "omega", "omega0", "j", "n_cutoff", "energy_window", "mid_window",
    "lambda", "kappa", "kappa_grid", "lambda_grid", "fit_degree", "bins",
    "thresholds", "workers", "output_dir", "cache_dir",
}


def load_config(path: str | Path) -> dict:
    """Load and key-validate a JSON config document."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    validate_config_keys(doc)
    return doc


def validate_config_keys(doc: Mapping) -> None:
    for key in doc:
        if key not in CONFIG_KEYS:
            raise UsageError(f"unknown config key: {key}")
    thr = doc.get("thresholds")
    if thr is not None:
        if not isinstance(thr, Mapping):
            raise UsageError("thresholds must be an object")
        for key in thr:
            if key not in THRESHOLD_KEYS:
                raise UsageError(f"unknown config key: thresholds.{key}")


def params_from_config(doc: Mapping) -> ModelParams:
    """Single-point model parameters from a config document."""
    kwargs = {}
    for key in ("omega", "omega0", "j", "kappa"):
        if key in doc:
            kwargs[key] = float(doc[key])
    if "lambda" in doc:
        kwargs["lambda_"] = float(doc["lambda"])
    if "n_cutoff" in doc:
        kwargs["n_cutoff"] = int(doc["n_cutoff"])
    for key in ("energy_window", "mid_window"):
        if key in doc:
            lo, hi = doc[key]
            kwargs[key] = (float(lo), float(hi))
    try:
        return ModelParams(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def thresholds_from_config(doc: Mapping) -> Thresholds:
    """Boundary thresholds from a config document; bad values are usage errors."""
    try:
        return Thresholds(**{k: float(v) for k, v in doc.get("thresholds", {}).items()})
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def sweep_config_from_config(doc: Mapping) -> SweepConfig:
    """Full sweep configuration from a config document."""
    for key in ("kappa_grid", "lambda_grid"):
        if key not in doc:
            raise UsageError(f"config key {key} is required for sweeps")
    try:
        return SweepConfig(
            base=params_from_config(doc),
            kappa_grid=tuple(float(x) for x in doc["kappa_grid"]),
            lambda_grid=tuple(float(x) for x in doc["lambda_grid"]),
            fit_degree=int(doc.get("fit_degree", DEFAULT_FIT_DEGREE)),
            bins=int(doc.get("bins", DEFAULT_BINS)),
            thresholds=thresholds_from_config(doc),
            workers=int(doc.get("workers", 1)),
            output_dir=Path(doc.get("output_dir", "out")),
            cache_dir=Path(doc["cache_dir"]) if doc.get("cache_dir") else None,
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
