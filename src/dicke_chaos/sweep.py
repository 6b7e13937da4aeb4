"""(kappa, lambda) grid sweeps with caching, parallel workers and file output.

Every point, for sweeps and the CLI alike, comes from :func:`compute_point_data`
(the library's banded solve, filter_energy_window, windowed_eigenvectors,
tail_weights and collect_coefficients behind the spectrum cache) and
:func:`level_statistics`.  A sweep reads its cache hits in its own process and
solves only the misses, in spawned worker processes; either way a row is
:func:`point_row` of a :class:`PointData`, and the rows come back in grid order
(kappa ascending, lambda ascending), so neither the worker count nor the cache
warmth changes a single output byte.  A failed point turns into a row
of NaN sentinels plus an entry in the errors sidecar instead of aborting the sweep.
The config schema and its one reader, :func:`read_config`, live here too.
"""

from __future__ import annotations

import contextlib
import json
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Mapping, Sequence, get_type_hints

import numpy as np

from .cache import KIND_ENERGIES, KIND_MID_COEFFS, KIND_TAIL_WEIGHTS, SpectrumCache
from .eigenstate_stats import (
    DEFAULT_BINS,
    MIN_BINS,
    CoefficientSample,
    Histogram,
    collect_coefficients,
    kl_divergence,
)
from .errors import CacheFormatError, DickeChaosError, EmptyWindow, OutputUnwritable, UsageError
from .model import ModelParams, Parity, build_hamiltonian
from .spectral_stats import (
    DEFAULT_FIT_DEGREE,
    BoundaryPoint,
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
    _window_mask,
    diagonalize,
    filter_energy_window,
    tail_weights,
    windowed_eigenvectors,
)

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
    """Everything a run needs, as :func:`read_config` reads it from a config document;
    point commands use ``base`` at its kappa and lambda_, a sweep scans the grids."""

    base: ModelParams
    kappa_grid: tuple[float, ...] = ()
    lambda_grid: tuple[float, ...] = ()
    fit_degree: int = DEFAULT_FIT_DEGREE
    bins: int = DEFAULT_BINS
    thresholds: Thresholds = field(default_factory=Thresholds)
    workers: int = 1
    output_dir: Path = Path("out")
    cache_dir: Path | None = None

    def __post_init__(self) -> None:
        for name in ("kappa_grid", "lambda_grid"):
            grid = getattr(self, name)
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


#: The sweep.csv columns: every SweepResultRow field but ``error``, in order, with its type.
CSV_COLUMNS = tuple((name, kind) for name, kind in get_type_hints(SweepResultRow).items()
                    if name != "error")
CSV_HEADER = ",".join(name.removesuffix("_") for name, _ in CSV_COLUMNS)  # lambda_ -> lambda


@dataclass
class PointData:
    """One parameter point as the sweep and the CLI read it.

    The energies are the same with or without vectors.  ``tail`` and ``sample``
    are None without vectors; ``sample`` also when the mid window holds no state.
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
    window = np.nonzero(_window_mask(energies, params.n_atoms, params.energy_window))[0]
    sample = CoefficientSample.pool(mid, energies.size) if mid is not None and mid.size else None
    return PointData(energies, window, tail, sample)


def load_point_data(params: ModelParams, cache: SpectrumCache,
                    want_vectors: bool = True) -> PointData | None:
    """The cached record for one point, or None unless every payload it needs is
    cached and well-formed: a corrupt payload is a miss, which the solve rewrites."""
    sector = Parity.EVEN
    try:
        energies = cache.load(params, sector, KIND_ENERGIES)
        if energies is None:
            return None
        if not want_vectors:
            return _point_data(params, energies, None, None)
        mid = cache.load(params, sector, KIND_MID_COEFFS)
        tail = cache.load(params, sector, KIND_TAIL_WEIGHTS, tail_width=DEFAULT_TAIL_WIDTH)
    except CacheFormatError:
        return None
    if mid is None or tail is None:
        return None
    return _point_data(params, energies, tail, mid)


def compute_point_data(params: ModelParams, cache: SpectrumCache | None = None,
                       want_vectors: bool = True) -> PointData:
    """Obtain the spectrum (and, if wanted, eigenvector summaries) for one point.

    Consults the cache first (:func:`load_point_data`); on a miss builds the
    even-parity block, solves its band for the eigenvalues and, with vectors,
    finds the windowed eigenvectors by :func:`windowed_eigenvectors`, then stores
    the results.  No D x D matrix is made.  Both values of ``want_vectors`` solve
    and store the same eigenvalue entry; vectors only add the mid-window
    coefficients and tail weights.  Cached payloads are exact float64 copies, so a
    warm run reproduces a cold run bit for bit; empty windows store empty arrays.
    """
    if cache is not None:
        data = load_point_data(params, cache, want_vectors)
        if data is not None:
            return data

    sector = Parity.EVEN
    h = build_hamiltonian(params, sector)
    eig = diagonalize(h)
    mid = tail = None
    if want_vectors:
        mid = tail = np.zeros(0)  # what an empty analysis or mid window stores
        with contextlib.suppress(EmptyWindow):
            ds = filter_energy_window(eig, params)
            ds.coefficients = windowed_eigenvectors(h.band, eig.energies, ds.window_indices)
            tail = tail_weights(ds, DEFAULT_TAIL_WIDTH)
            mid = collect_coefficients(ds).values
    if cache is not None:
        cache.store(params, sector, KIND_ENERGIES, eig.energies)
        if want_vectors:
            cache.store(params, sector, KIND_MID_COEFFS, mid)
            cache.store(params, sector, KIND_TAIL_WEIGHTS, tail, tail_width=DEFAULT_TAIL_WIDTH)
    return _point_data(params, eig.energies, tail, mid)


@dataclass
class LevelStatistics:
    """Spacing and ratio indicators of one windowed spectrum; what cannot be formed
    stays NaN or None, and ``errors`` keeps why under "unfold", "eta", "beta" or "mean_r"."""

    n_degenerate_dropped: int                 # raw spacings below the degeneracy tolerance
    spacings: np.ndarray | None = None        # unfolded
    ratios: np.ndarray | None = None
    n_dropped_pairs: int = 0
    eta: float = math.nan
    beta: float = math.nan
    mean_r: float = math.nan
    errors: dict[str, DickeChaosError] = field(default_factory=dict)


def level_statistics(windowed: np.ndarray, fit_degree: int) -> LevelStatistics:
    """Eta, Brody beta and <r> of a windowed spectrum, for sweeps and point commands alike."""
    stats = LevelStatistics(split_degenerate(np.diff(windowed))[1])
    try:
        stats.spacings = unfold(windowed, fit_degree).spacings
    except DickeChaosError as exc:
        stats.errors["unfold"] = exc
    else:
        try:
            stats.eta = eta_indicator(stats.spacings)
        except DickeChaosError as exc:
            stats.errors["eta"] = exc
        try:
            stats.beta, _ = fit_brody(stats.spacings)
        except DickeChaosError as exc:
            stats.errors["beta"] = exc
    try:
        stats.ratios, stats.n_dropped_pairs = spacing_ratios(windowed)
        stats.mean_r = mean_ratio(stats.ratios)
    except DickeChaosError as exc:
        stats.errors["mean_r"] = exc
    return stats


def compute_point(params: ModelParams, fit_degree: int = DEFAULT_FIT_DEGREE,
                  bins: int = DEFAULT_BINS, cache: SpectrumCache | None = None) -> SweepResultRow:
    """All four chaos indicators for a single (kappa, lambda) point, by :func:`point_row`;
    a point whose data cannot be obtained is a NaN row whose ``error`` names why."""
    try:
        data = compute_point_data(params, cache=cache, want_vectors=True)
    except Exception as exc:  # failed point -> NaN row, sweep continues
        return _failed_row(params, exc)
    return point_row(params, data, fit_degree, bins)


def _failed_row(params: ModelParams, exc: Exception) -> SweepResultRow:
    return SweepResultRow(kappa=params.kappa, lambda_=params.lambda_,
                          error=f"{type(exc).__name__}: {exc}")


def point_row(params: ModelParams, data: PointData, fit_degree: int = DEFAULT_FIT_DEGREE,
              bins: int = DEFAULT_BINS) -> SweepResultRow:
    """The sweep row of one point's data (with vectors), fresh or cached alike.

    Indicator-level failures (too few levels, empty windows, ...) leave that
    field NaN and are collected into ``row.error``; they never abort.
    """
    row = SweepResultRow(kappa=params.kappa, lambda_=params.lambda_, dim=data.energies.size)
    notes: list[str] = []
    windowed = data.windowed
    row.n_levels = int(windowed.size)
    if windowed.size == 0:
        notes.append("energy window empty")
    else:
        stats = level_statistics(windowed, fit_degree)
        row.eta, row.beta, row.mean_r = stats.eta, stats.beta, stats.mean_r
        row.n_degenerate_dropped = stats.n_degenerate_dropped
        notes += [f"{name}: {exc}" for name, exc in stats.errors.items()]
        row.converged_fraction = float(np.mean(data.tail < DEFAULT_TAIL_TOL))
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


def run_sweep(config: SweepConfig) -> list[SweepResultRow]:
    """Run the full grid and return rows ordered (kappa asc, lambda asc).

    This process builds the rows of the cache hits (a corrupt entry is a miss, and
    its solve rewrites it; any other failure makes an error row, as in
    :func:`compute_point`); only the misses go to a pool of
    ``min(workers, misses)`` spawned processes, so an all-hit grid starts none.
    Both end in :func:`point_row`, and each solved row returns to its miss's place.
    A worker that dies raises ``BrokenProcessPool`` instead of hanging the sweep.
    """
    points = [replace(config.base, kappa=kappa, lambda_=lam)
              for kappa in config.kappa_grid for lam in config.lambda_grid]
    cache = SpectrumCache(config.cache_dir) if config.cache_dir is not None else None

    def cached_row(params: ModelParams) -> SweepResultRow | None:
        try:
            data = load_point_data(params, cache)
        except Exception as exc:  # failed point -> NaN row, sweep continues
            return _failed_row(params, exc)
        return None if data is None else point_row(params, data, config.fit_degree, config.bins)

    rows = [cached_row(params) if cache is not None else None for params in points]
    misses = [params for params, row in zip(points, rows) if row is None]
    if not misses:
        return rows
    point = partial(compute_point, fit_degree=config.fit_degree, bins=config.bins, cache=cache)
    with ProcessPoolExecutor(max_workers=min(config.workers, len(misses)),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        solved = iter(list(pool.map(point, misses)))
    return [row if row is not None else next(solved) for row in rows]


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
        lines.append(",".join((str if kind is int else _fmt)(getattr(r, name))
                              for name, kind in CSV_COLUMNS))
    _write_text(path, "\n".join(lines) + "\n")


def read_csv(path: str | Path) -> list[SweepResultRow]:
    """Parse a sweep.csv back into rows (exact float round-trip).

    Raises
    ------
    UsageError
        If the file is not UTF-8 text, the header is wrong, or a row, named by
        its line number, is malformed.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not a sweep result file (not UTF-8 text: {exc})") from exc
    lines = [(lineno, ln) for lineno, ln in enumerate(text.splitlines(), 1) if ln]
    if not lines or lines[0][1] != CSV_HEADER:
        raise UsageError(f"{path} is not a sweep result file (bad header)")
    rows = []
    for lineno, ln in lines[1:]:
        f = ln.split(",")
        try:
            if len(f) != len(CSV_COLUMNS):
                raise ValueError(f"expected {len(CSV_COLUMNS)} fields, got {len(f)}")
            rows.append(SweepResultRow(**{name: kind(x) for (name, kind), x in zip(CSV_COLUMNS, f)}))
        except ValueError as exc:
            raise UsageError(f"{path}, line {lineno}: malformed sweep row: {exc}") from exc
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


def _number(value, kind: type = float):
    """A finite number or numeric string as ``kind``; bools, and fractions for int, are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(f"expected a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number) or not (kind is float or number.is_integer()):
        expected = "an integer" if kind is int else "a finite number"
        raise ValueError(f"expected {expected}, got {value!r}")
    return kind(number)


def _numbers(value, length: int | None = None) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        raise TypeError(f"expected {length or 'a list of'} numbers, got {value!r}")
    return tuple(_number(x) for x in value)


def _path(value) -> Path:
    if not isinstance(value, str):
        raise TypeError(f"expected a path string, got {value!r}")
    return Path(value)


#: The config schema: each key a document may hold and the converter that types its value.
CONFIG_SCHEMA = {
    **dict.fromkeys(("omega", "omega0", "j", "lambda", "kappa"), _number),
    **dict.fromkeys(("n_cutoff", "fit_degree", "bins", "workers"), lambda v: _number(v, int)),
    **dict.fromkeys(("energy_window", "mid_window"), lambda v: _numbers(v, 2)),
    **dict.fromkeys(("kappa_grid", "lambda_grid"), _numbers),
    "thresholds": lambda v: Thresholds(**{k: _number(x) for k, x in v.items()}),
    "output_dir": _path,
    "cache_dir": lambda v: None if v == "" else _path(v),
}
MODEL_KEYS = ("omega", "omega0", "j", "n_cutoff", "energy_window", "mid_window", "lambda", "kappa")


def load_config(path: str | Path) -> dict:
    """Load and key-check a JSON config document; :func:`read_config` reads its values."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    check_config_keys(doc)
    return doc


def check_config_keys(doc: Mapping) -> None:
    """Reject a key the schema does not know, at the top level or under thresholds."""
    thresholds = doc.get("thresholds", {})
    if not isinstance(thresholds, Mapping):
        raise UsageError("thresholds must be an object")
    unknown = [k for k in doc if k not in CONFIG_SCHEMA]
    unknown += [f"thresholds.{k}" for k in thresholds if k not in THRESHOLD_KEYS]
    if unknown:
        raise UsageError(f"unknown config key: {unknown[0]}")


def read_config(doc: Mapping) -> SweepConfig:
    """The one reader of config values: each is typed once, and any malformed or
    out-of-range value raises a UsageError naming its key.  Defaults and range
    rules are those of ModelParams, SweepConfig and Thresholds."""
    check_config_keys(doc)
    values = {}
    for key, raw in doc.items():
        try:
            values[key] = CONFIG_SCHEMA[key](raw)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"config key {key}: {exc}") from exc
    model = {"lambda_" if k == "lambda" else k: values.pop(k) for k in MODEL_KEYS if k in values}
    try:
        return SweepConfig(base=ModelParams(**model), **values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def check_grids(config: SweepConfig) -> SweepConfig:
    """``config`` if it describes a sweep, that is, gives both grids."""
    for name in ("kappa_grid", "lambda_grid"):
        if not getattr(config, name):
            raise UsageError(f"config key {name} is required for sweeps")
    return config
