"""(kappa, lambda) grid sweeps with caching, parallel workers and file output.

Every point, for sweeps and the CLI alike, comes from :func:`compute_point_data`
(each payload read from the spectrum cache, or made by the library's banded solve,
windowed_eigenvectors, tail_weights and collect_coefficients and stored) and
:func:`level_statistics`.  Every sweep row is :func:`compute_point`: a sweep runs it
in the calling thread for the points whose cache entries are on disk and in a
pool of threads of its own process for the rest, and the rows come back in grid
order (kappa ascending, lambda ascending), so neither the worker count nor the
cache warmth changes a single output byte.  A failed point turns into a row
of NaN sentinels plus an entry in the errors sidecar instead of aborting the sweep.
The config schema and its one reader, :func:`read_config`, live here too: it turns
a config file, the overrides the CLI's ``--set``, ``--out`` and ``--workers`` make,
and the ``$DICKE_CHAOS_CACHE_DIR`` fallback into the :class:`SweepConfig` every
command runs on.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import cache as memoize, partial  # `cache` is a SpectrumCache parameter
from pathlib import Path
from typing import Mapping, Sequence, get_type_hints

import numpy as np

from .cache import (KIND_ENERGIES, KIND_MID_COEFFS, KIND_MID_HISTOGRAM, KIND_TAIL_WEIGHTS,
                    SpectrumCache)
from .eigenstate_stats import (
    DEFAULT_BINS,
    MIN_BINS,
    CoefficientHistogram,
    CoefficientSample,
    Histogram,
    binned_kl_divergence,
    collect_coefficients,
)
from .errors import DickeChaosError, EmptyWindow, OutputUnwritable, UsageError
from .model import ModelParams, Parity, build_hamiltonian, check_coupling
from .spectral_stats import (
    DEFAULT_FIT_DEGREE,
    BoundaryPoint,
    _brody_beta,
    _checked_spacings,
    _eta,
    chaos_boundary,
    mean_ratio,
    spacing_ratios,
    split_degenerate,
    unfold,
)
from .spectrum import (
    DEFAULT_TAIL_TOL,
    DEFAULT_TAIL_WIDTH,
    SpectralDataset,
    _window_mask,
    diagonalize,
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
        for f in fields(self):
            v = getattr(self, f.name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"threshold {f.name} must lie in (0, 1), got {v}")


@dataclass(frozen=True)
class SweepConfig:
    """Everything a run needs, as :func:`read_config` reads it from a config file;
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
        for name, param in (("kappa_grid", "kappa"), ("lambda_grid", "lambda_")):
            grid = getattr(self, name)
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{name} must be strictly ascending")
            for value in grid:
                check_coupling(f"{name}: {param}", value)
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

    The energies are the same with or without vectors.  ``tail`` and ``coefficients``
    (the pooled mid-window components' histogram, not the components) are None
    without vectors; ``coefficients`` also when the mid window holds no state.
    """

    energies: np.ndarray                          # full spectrum, ascending
    window_indices: np.ndarray                    # positions of the E/N-windowed levels
    tail: np.ndarray | None                       # Fock-tail weights per windowed level
    coefficients: CoefficientHistogram | None     # binned pooled mid-window components

    @property
    def windowed(self) -> np.ndarray:
        """Eigenvalues inside the analysis window, ascending."""
        return self.energies[self.window_indices]


def compute_point_data(params: ModelParams, cache: SpectrumCache | None = None,
                       want_vectors: bool = True, bins: int = DEFAULT_BINS) -> PointData:
    """Obtain the spectrum (and, if wanted, eigenvector summaries) for one point.

    One rule for every payload: read its cache entry; if that is unusable (missing,
    unreadable or malformed), make the payload and store it.  Payloads are made only
    when read, so the pooled mid-window coefficients are read only to make a missing
    histogram in ``bins`` bins, and solved only when both are missing.  The even-parity
    block is built at most once, for a missing payload that needs it.  Its band solve
    gives the eigenvalues, stored before :func:`windowed_eigenvectors` solves the window's
    vectors from them, cached or fresh, in a thread per available core, making no D x D
    matrix.  Cached payloads are exact float64 copies, so a warm run reproduces a cold
    run bit for bit; empty windows store empty arrays.
    """
    sector = Parity.EVEN

    def cached(kind: str, make) -> np.ndarray:
        values = None if cache is None else cache.load(params, sector, kind,
                                                       DEFAULT_TAIL_WIDTH, bins)
        if values is None:  # an unusable entry is a miss; the store below replaces it
            values = make()
            if cache is not None:
                cache.store(params, sector, kind, values, DEFAULT_TAIL_WIDTH, bins)
        return values

    hamiltonian = memoize(lambda: build_hamiltonian(params, sector))
    energies = cached(KIND_ENERGIES, lambda: diagonalize(hamiltonian()).energies)
    window = np.nonzero(_window_mask(energies, params.n_atoms, params.energy_window))[0]
    if not want_vectors:
        return PointData(energies, window, None, None)

    @memoize
    def dataset() -> SpectralDataset:
        h = hamiltonian()
        return SpectralDataset(params, energies[window],
                               windowed_eigenvectors(h.band, energies, window),
                               window, h.basis)

    def mid_coeffs() -> np.ndarray:
        try:
            return collect_coefficients(dataset()).values
        except EmptyWindow:
            return np.zeros(0)  # what an empty mid window stores

    def histogram() -> np.ndarray:
        mid = cached(KIND_MID_COEFFS, mid_coeffs)
        return (CoefficientHistogram.of(CoefficientSample.pool(mid, energies.size), bins).payload
                if mid.size else np.zeros(0))

    tail = cached(KIND_TAIL_WEIGHTS, lambda: tail_weights(dataset(), DEFAULT_TAIL_WIDTH))
    hist = cached(KIND_MID_HISTOGRAM, histogram)
    coefficients = CoefficientHistogram.from_payload(hist, energies.size) if hist.size else None
    return PointData(energies, window, tail, coefficients)


@dataclass
class LevelStatistics:
    """Spacing and ratio indicators of one windowed spectrum; what cannot be formed
    stays NaN or None, and ``errors`` keeps why under "unfold", "eta", "beta" or "mean_r"."""

    n_degenerate_dropped: int                 # raw spacings below the degeneracy tolerance
    spacings: np.ndarray | None = None        # unfolded, those below the tolerance dropped
    n_unfolded_dropped: int = 0               # unfolded spacings below the tolerance
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
        unfolded = unfold(windowed, fit_degree).spacings
    except DickeChaosError as exc:
        stats.errors["unfold"] = exc
    else:  # kept when the check fails: the spacing histogram is made of them
        stats.spacings, stats.n_unfolded_dropped = split_degenerate(unfolded)
        try:  # one check of the unfolded spacings serves eta and beta
            _checked_spacings(unfolded, (stats.spacings, stats.n_unfolded_dropped))
            stats.eta, stats.beta = _eta(stats.spacings), _brody_beta(stats.spacings)
        except DickeChaosError as exc:
            stats.errors["eta"] = stats.errors["beta"] = exc
    try:
        stats.ratios, stats.n_dropped_pairs = spacing_ratios(windowed)
        stats.mean_r = mean_ratio(stats.ratios)
    except DickeChaosError as exc:
        stats.errors["mean_r"] = exc
    return stats


def compute_point(params: ModelParams, fit_degree: int = DEFAULT_FIT_DEGREE,
                  bins: int = DEFAULT_BINS, cache: SpectrumCache | None = None) -> SweepResultRow:
    """All four chaos indicators for a single (kappa, lambda) point: the one maker of
    sweep rows, in a sweep's calling thread and in its pool threads alike.

    A point whose data cannot be obtained is a NaN row whose ``error`` names why.
    Indicator-level failures (too few levels, empty windows, ...) leave that
    field NaN and are collected into ``row.error``; they never abort.
    """
    row = SweepResultRow(kappa=params.kappa, lambda_=params.lambda_)
    try:
        data = compute_point_data(params, cache=cache, want_vectors=True, bins=bins)
    except Exception as exc:  # failed point -> NaN row, sweep continues
        row.error = f"{type(exc).__name__}: {exc}"
        return row
    row.dim = data.energies.size
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
        if data.coefficients is None:
            notes.append("d_kl: mid window empty")
        else:
            try:
                row.d_kl = binned_kl_divergence(data.coefficients)
            except DickeChaosError as exc:
                notes.append(f"d_kl: {exc}")
    if notes:
        row.error = "; ".join(notes)
    return row


def run_sweep(config: SweepConfig) -> list[SweepResultRow]:
    """Run the full grid and return rows ordered (kappa asc, lambda asc).

    Every row is :func:`compute_point`.  A point whose energies and tail weights
    are on disk, and either its coefficient histogram at ``config.bins`` or the
    mid-window coefficients it is made from, is computed in the calling thread, one
    after another (a corrupt entry it reads, or a missing histogram, is remade and
    written there); the rest go to a pool of ``min(workers, misses)`` threads, so an
    all-hit grid starts none, and each solved row returns to its miss's place.  The
    LAPACK solves of the pool's points release the GIL and overlap; each point's
    inverse iteration cuts its own slice per core, so a miss that solves alone uses
    every core and concurrent ones share them.  The Python and numpy parts of each
    point share the GIL.  On Ctrl-C the points not yet started are cancelled and the
    ones in flight finish before KeyboardInterrupt leaves this function.
    """
    points = [replace(config.base, kappa=kappa, lambda_=lam)
              for kappa in config.kappa_grid for lam in config.lambda_grid]
    cache = SpectrumCache(config.cache_dir) if config.cache_dir is not None else None
    point = partial(compute_point, fit_degree=config.fit_degree, bins=config.bins, cache=cache)

    def on_disk(params: ModelParams) -> bool:
        def exists(kind: str) -> bool:
            return os.path.exists(  # False, not an error, for an entry it cannot stat
                cache.path(params, Parity.EVEN, kind, DEFAULT_TAIL_WIDTH, config.bins))

        return cache is not None and exists(KIND_ENERGIES) and exists(KIND_TAIL_WEIGHTS) and (
            exists(KIND_MID_HISTOGRAM) or exists(KIND_MID_COEFFS))

    rows = [point(params) if on_disk(params) else None for params in points]
    misses = [params for params, row in zip(points, rows) if row is None]
    if not misses:
        return rows
    with ThreadPoolExecutor(min(config.workers, len(misses))) as pool:
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
    """Write the error sidecar if any row failed, else remove one an earlier run left;
    returns whether it was written."""
    entries = [
        {"kappa": r.kappa, "lambda": r.lambda_, "error": r.error}
        for r in rows if r.error
    ]
    if not entries:
        Path(path).unlink(missing_ok=True)
        return False
    _write_text(path, json.dumps(entries, indent=2) + "\n")
    return True


def write_histogram(hist: Histogram, path: str | Path, meta: Mapping | None = None) -> None:
    """Serialize one histogram as strict JSON: edges, densities, counts and meta (NaN as null)."""
    doc = {
        "edges": [float(x) for x in hist.edges],
        "densities": [float(x) for x in hist.densities],
        "counts": [int(x) for x in hist.counts],
        "meta": {k: None if isinstance(v, float) and math.isnan(v) else v
                 for k, v in (meta or {}).items()},
    }
    _write_text(path, json.dumps(doc, indent=2, allow_nan=False) + "\n")


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

THRESHOLD_KEYS = {f.name for f in fields(Thresholds)}


def _number(value, kind: type = float):
    """A finite number or numeric string as ``kind``; bools, and fractions for int, are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError as exc:  # an int beyond the float range
        raise ValueError(f"expected a finite number, got {value!r}") from exc
    if not math.isfinite(number) or not (kind is float or number.is_integer()):
        expected = "an integer" if kind is int else "a finite number"
        raise ValueError(f"expected {expected}, got {value!r}")
    return kind(number)


def _numbers(value, length: int | None = None) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        raise TypeError(f"expected {length or 'a list of'} numbers, got {value!r}")
    return tuple(_number(x) for x in value)


def _path(value) -> Path:
    if not isinstance(value, str) or not value:  # "" would name the working directory
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


def read_config(path: str | Path, overrides: Sequence[tuple[str, object]] = ()) -> SweepConfig:
    """The one config reader: the UTF-8 JSON object at ``path`` with each ``(key, value)``
    override applied in order (a ``thresholds.KEY`` one goes into ``thresholds``),
    its keys checked and each value typed once by CONFIG_SCHEMA; an unset or empty
    ``cache_dir`` falls back to ``$DICKE_CHAOS_CACHE_DIR``.  An unreadable file, an
    unknown key, or a malformed or out-of-range value raises a UsageError naming it.
    Defaults and range rules are those of ModelParams, SweepConfig and Thresholds."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"config {path} is not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an int literal past the digit limit
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    for key, value in overrides:
        if key.startswith("thresholds.") and isinstance(doc.get("thresholds", {}), dict):
            doc.setdefault("thresholds", {})[key.partition(".")[2]] = value
        else:  # any other key, and one under a malformed thresholds, is judged below
            doc[key] = value
    thresholds = doc.get("thresholds", {})
    if not isinstance(thresholds, dict):
        raise UsageError("thresholds must be an object")
    unknown = [k for k in doc if k not in CONFIG_SCHEMA]
    unknown += [f"thresholds.{k}" for k in thresholds if k not in THRESHOLD_KEYS]
    if unknown:
        raise UsageError(f"unknown config key: {unknown[0]}")
    values = {}
    for key, raw in doc.items():
        try:
            values[key] = CONFIG_SCHEMA[key](raw)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"config key {key}: {exc}") from exc
    if values.get("cache_dir") is None and os.environ.get(CACHE_ENV_VAR):
        values["cache_dir"] = Path(os.environ[CACHE_ENV_VAR])
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
