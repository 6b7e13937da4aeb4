"""Driver process of the benchmark: set-up, timed passes, traced replay and checks.

``run.py`` starts this file as a fresh process for every step, so that the
peak resident memory it reports belongs to one workload and its own workers:

    python3 perfbench/driver.py setup   --workload W --seed N --scale S --work DIR
    python3 perfbench/driver.py pass    --work DIR --seconds T --trace 0|1 --out FILE
    python3 perfbench/driver.py solve1t --work DIR --out FILE

The package is imported from ``src/`` of the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import dicke_chaos.cli as cli  # noqa: E402
from dicke_chaos import (  # noqa: E402
    CoefficientSample,
    EigenDecomposition,
    ModelParams,
    Parity,
    SpectrumCache,
    SweepConfig,
    Thresholds,
    boundary_from_rows,
    build_hamiltonian,
    chaos_boundary,
    collect_coefficients,
    compute_point,
    diagonalize,
    enumerate_basis,
    eta_indicator,
    filter_energy_window,
    fit_brody,
    kl_divergence,
    mean_ratio,
    read_csv,
    run_sweep,
    spacing_ratios,
    unfold,
    write_csv,
)
from dicke_chaos.cache import KIND_ENERGIES, KIND_MID_COEFFS, KIND_TAIL_WEIGHTS  # noqa: E402
from dicke_chaos.eigenstate_stats import DEFAULT_BINS  # noqa: E402
from dicke_chaos.spectrum import DEFAULT_TAIL_WIDTH, tail_weights  # noqa: E402
from dicke_chaos.sweep import write_errors_sidecar  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer, Tracer, span_cost  # noqa: E402

FIT_DEGREE = 10
SECTOR = Parity.EVEN
THRESHOLDS = Thresholds()
INDICATOR_THRESHOLDS = (("eta", THRESHOLDS.eta_max), ("beta", THRESHOLDS.beta_min),
                        ("mean_r", THRESHOLDS.mean_r_min))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OVERHEAD_REPEATS = 3
MODULES = ("model", "spectrum", "spectral_stats", "eigenstate_stats", "cache", "sweep", "cli")


def base_params(spec: dict) -> ModelParams:
    return ModelParams(j=spec["j"], n_cutoff=spec["n_cutoff"])


def grid(spec: dict) -> list[ModelParams]:
    """Grid points in sweep order: kappa ascending, then lambda ascending."""
    base = base_params(spec)
    return [replace(base, kappa=k, lambda_=lam)
            for k in spec["kappas"] for lam in spec["lambdas"]]


def sweep_config(spec: dict, out_dir: Path, cache_dir: Path) -> SweepConfig:
    return SweepConfig(base=base_params(spec), kappa_grid=tuple(spec["kappas"]),
                       lambda_grid=tuple(spec["lambdas"]), fit_degree=FIT_DEGREE,
                       workers=spec["workers"], output_dir=out_dir, cache_dir=cache_dir)


def row_dict(r) -> dict:
    return {"kappa": r.kappa, "lambda": r.lambda_, "dim": r.dim, "n_levels": r.n_levels,
            "eta": r.eta, "beta": r.beta, "mean_r": r.mean_r, "d_kl": r.d_kl,
            "converged_fraction": r.converged_fraction, "error": r.error}


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


# ---------------------------------------------------------------------------
# set-up


def setup(workload: str, seed: int, scale: str, work: Path) -> dict:
    """Generate the inputs; for sweep-warm also fill the cache one point at a time."""
    work.mkdir(parents=True, exist_ok=True)
    spec = workloads.generate(workload, seed, scale)
    spec["dim"] = checks.sector_dim(base_params(spec))
    spec["points"] = len(spec["kappas"]) * len(spec["lambdas"])
    if workload == "sweep-warm":
        cache = SpectrumCache(work / "cache")
        rows = [compute_point(p, fit_degree=FIT_DEGREE, cache=cache) for p in grid(spec)]
        write_csv(rows, work / "setup_sweep.csv")
        config = {"j": spec["j"], "n_cutoff": spec["n_cutoff"], "kappa_grid": spec["kappas"],
                  "lambda_grid": spec["lambdas"], "fit_degree": FIT_DEGREE,
                  "workers": spec["workers"], "cache_dir": str(work / "cache")}
        (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    return spec


# ---------------------------------------------------------------------------
# one pass of each workload; the tracer is a NullTracer in timed passes


def scan_pass(spec: dict, work: Path, index: int, tracer) -> dict:
    """build -> eigenvalues -> window -> indicators per point, then boundaries."""
    rows = []
    for pid, params in enumerate(grid(spec)):
        row = {"kappa": params.kappa, "lambda": params.lambda_, "dim": 0, "n_levels": 0,
               "eta": math.nan, "beta": math.nan, "mean_r": math.nan, "error": None}
        with tracer.span("bench.point", point=pid):
            try:
                with tracer.span("model.build"):
                    h = build_hamiltonian(params, SECTOR)
                with tracer.span("spectrum.eigvals"):
                    eig = diagonalize(h, want_vectors=False)
                row["dim"] = h.dim
                del h
                with tracer.span("spectrum.window"):
                    ds = filter_energy_window(eig, params)
                with tracer.span("spectral_stats.unfold"):
                    spacings = unfold(ds.energies, FIT_DEGREE).spacings
                with tracer.span("spectral_stats.eta"):
                    row["eta"] = eta_indicator(spacings)
                with tracer.span("spectral_stats.brody"):
                    row["beta"] = fit_brody(spacings)[0]
                with tracer.span("spectral_stats.ratio"):
                    row["mean_r"] = mean_ratio(spacing_ratios(ds.energies)[0])
                row["n_levels"] = int(ds.energies.size)
                row["energies"] = eig.energies
            except Exception as exc:  # noqa: BLE001 - a failed point is counted, the pass goes on
                row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    with tracer.span("spectral_stats.boundary"):
        boundary = {
            name: chaos_boundary([(r["kappa"], r["lambda"], r[name]) for r in rows], name, thr)
            for name, thr in INDICATOR_THRESHOLDS
        }
    return {"rows": rows, "boundary": boundary}


def cold_pass(spec: dict, work: Path, index: int, tracer) -> dict:
    """run_sweep into an empty cache, then the sweep's file output and boundaries."""
    out = work / f"pass{index}"
    out.mkdir()
    config = sweep_config(spec, out, out / "cache")
    cpu0, t0 = children_cpu_s(), time.perf_counter()
    with tracer.span("sweep.run_sweep"):
        rows = run_sweep(config)
    wall, cpu = time.perf_counter() - t0, children_cpu_s() - cpu0
    with tracer.span("sweep.write_csv"):
        write_csv(rows, out / "sweep.csv")
    with tracer.span("sweep.boundary_from_rows"):
        boundary = boundary_from_rows(rows, config.thresholds)
    with tracer.span("sweep.write_errors_sidecar"):
        write_errors_sidecar(rows, out / "sweep_errors.json")
    return {"rows": [row_dict(r) for r in rows], "boundary": boundary, "dir": out,
            "cache": out / "cache", "run_sweep_s": wall, "worker_cpu_s": cpu}


def warm_pass(spec: dict, work: Path, index: int, tracer) -> dict:
    """``dicke-chaos sweep`` then ``dicke-chaos boundary`` against the full cache."""
    out = work / f"pass{index}"
    args = ["--config", str(work / "config.json"), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        with tracer.span("cli.main_sweep"):
            rc_sweep = cli.main(["sweep", *args])
        with tracer.span("cli.main_boundary"):
            rc_boundary = cli.main(["boundary", *args])
    return {"exit_codes": [rc_sweep, rc_boundary], "dir": out,
            "written": printed.getvalue().split()}


PASSES = {"scan-eigvals": scan_pass, "sweep-cold": cold_pass, "sweep-warm": warm_pass}


# ---------------------------------------------------------------------------
# traced replay of the sweep layers, in this process


def replay_stages(params: ModelParams, cache: SpectrumCache, tracer, counts: dict) -> dict:
    """The stages of ``sweep.compute_point``, one public call per span."""
    with tracer.span("cache.load"):
        energies = cache.load(params, SECTOR, KIND_ENERGIES)
        mid = tail = None
        if energies is not None:
            mid = cache.load(params, SECTOR, KIND_MID_COEFFS)
            tail = cache.load(params, SECTOR, KIND_TAIL_WEIGHTS, tail_width=DEFAULT_TAIL_WIDTH)
    loaded = [a for a in (energies, mid, tail) if a is not None]
    lookups = 1 if energies is None else 3
    counts["hits"] += len(loaded)
    counts["misses"] += lookups - len(loaded)
    counts["bytes_read"] += sum(a.nbytes for a in loaded)
    if mid is None or tail is None:
        with tracer.span("model.basis"):
            enumerate_basis(params, SECTOR)
        with tracer.span("model.build"):
            h = build_hamiltonian(params, SECTOR)
        counts["h_bytes"] = h.entries.nbytes
        with tracer.span("spectrum.eigvecs"):
            eig = diagonalize(h, want_vectors=True)
        del h
        with tracer.span("spectrum.window"):
            ds = filter_energy_window(eig, params)
        with tracer.span("spectrum.convergence"):
            tail = tail_weights(ds, DEFAULT_TAIL_WIDTH)
        with tracer.span("eigenstate_stats.collect"):
            sample = collect_coefficients(ds)
        energies = eig.energies
        del eig
        with tracer.span("cache.store"):
            cache.store(params, SECTOR, KIND_ENERGIES, energies)
            cache.store(params, SECTOR, KIND_MID_COEFFS, sample.values)
            cache.store(params, SECTOR, KIND_TAIL_WEIGHTS, tail, tail_width=DEFAULT_TAIL_WIDTH)
        counts["bytes_written"] += energies.nbytes + sample.values.nbytes + tail.nbytes
    else:
        with tracer.span("spectrum.window"):
            ds = filter_energy_window(EigenDecomposition(energies, None, []), params)
        sample = CoefficientSample(values=mid, dim=energies.size,
                                   n_states=mid.size // energies.size,
                                   c_min=float(mid.min()), c_max=float(mid.max()))
    with tracer.span("spectral_stats.unfold"):
        spacings = unfold(ds.energies, FIT_DEGREE).spacings
    with tracer.span("spectral_stats.eta"):
        eta = eta_indicator(spacings)
    with tracer.span("spectral_stats.brody"):
        beta = fit_brody(spacings)[0]
    with tracer.span("spectral_stats.ratio"):
        mean_r = mean_ratio(spacing_ratios(ds.energies)[0])
    with tracer.span("eigenstate_stats.kl"):
        kl_divergence(sample, bins=DEFAULT_BINS)
    counts["n_levels"] += ds.energies.size
    counts["n_coeffs"] += sample.values.size
    return {"eta": eta, "beta": beta, "mean_r": mean_r}


def new_counts() -> dict:
    return dict.fromkeys(("hits", "misses", "bytes_read", "bytes_written", "n_levels",
                          "n_coeffs", "h_bytes"), 0)


def traced_run(spec: dict, work: Path, tracer: Tracer) -> tuple[dict, dict]:
    """One traced pass plus in-process replays; returns (pass output, layer metrics).

    Sweep stages run in pool workers, out of the tracer's reach, so every grid
    point is replayed here: one ``compute_point`` call, then its stages one
    public call at a time.  sweep-warm replays the stages twice, reading the
    set-up cache (its own path) and writing an empty one (the set-up's path).
    """
    workload, n = spec["workload"], spec["points"]
    points = grid(spec)
    t0 = time.perf_counter()
    with tracer.span("bench.pass"):
        output = PASSES[workload](spec, work, 0, tracer)
    pass_s = time.perf_counter() - t0

    run_sweep_s = worker_cpu = cpu_util = cli_bytes = 0.0
    if workload == "scan-eigvals":
        own = written = new_counts()
        own["h_bytes"] = 8 * spec["dim"] ** 2
        own["n_levels"] = sum(r["n_levels"] for r in output["rows"])
        for pid, params in enumerate(points):
            with tracer.span("model.basis", point=pid):
                enumerate_basis(params, SECTOR)
        # The ROADMAP's "one full-scale compute_point": cold, uncached, first point.
        with tracer.span("sweep.compute_point", point=0):
            compute_point(points[0], fit_degree=FIT_DEGREE)
    else:
        own = new_counts()
        if workload == "sweep-cold":
            run_sweep_s, worker_cpu = output["run_sweep_s"], output["worker_cpu_s"]
            point_cache = SpectrumCache(work / "replay_point")
            written = own
            replays = [(SpectrumCache(work / "replay_stages"), own)]
        else:
            cli_bytes = sum(Path(p).stat().st_size for p in output["written"])
            written = new_counts()
            point_cache = SpectrumCache(work / "cache")
            replays = [(point_cache, own), (SpectrumCache(work / "replay_stages"), written)]
            # cli.main minus run_sweep is small next to the pool's run-to-run noise,
            # so both are repeated, alternating, and compared by their means.
            config = sweep_config(spec, work / "replay_sweep", work / "cache")
            args = ["--config", str(work / "config.json"), "--out", str(work / "replay_cli")]
            for _ in range(OVERHEAD_REPEATS):
                with contextlib.redirect_stdout(io.StringIO()), tracer.span("cli.main_sweep"):
                    cli.main(["sweep", *args])
                cpu0, t1 = children_cpu_s(), time.perf_counter()
                with tracer.span("sweep.run_sweep"):
                    run_sweep(config)
                run_sweep_s += time.perf_counter() - t1
                worker_cpu += children_cpu_s() - cpu0
            run_sweep_s /= OVERHEAD_REPEATS
            worker_cpu /= OVERHEAD_REPEATS
        cpu_util = worker_cpu / (run_sweep_s * (os.cpu_count() or 1))
        triples = []
        for pid, params in enumerate(points):
            with tracer.span("bench.replay", point=pid):
                with tracer.span("sweep.compute_point"):
                    compute_point(params, fit_degree=FIT_DEGREE, cache=point_cache)
                for cache, counts in replays:
                    values = replay_stages(params, cache, tracer, counts)
            triples.append((params, values))
        with tracer.span("spectral_stats.boundary"):
            for name, thr in INDICATOR_THRESHOLDS:
                chaos_boundary([(p.kappa, p.lambda_, v[name]) for p, v in triples], name, thr)

    tot, mean = tracer.totals(), tracer.means()
    lookups = own["hits"] + own["misses"]
    layers = {
        "model.basis_s": mean.get("model.basis", 0.0),
        "model.build_s": mean.get("model.build", 0.0),
        "model.dim": spec["dim"],
        "model.h_bytes": written["h_bytes"],
        "spectrum.eigvals_s": mean.get("spectrum.eigvals", 0.0),
        "spectrum.eigvals_share": tot.get("spectrum.eigvals", 0.0) / pass_s,
        "spectrum.eigvecs_s": mean.get("spectrum.eigvecs", 0.0),
        "spectrum.window_s": mean.get("spectrum.window", 0.0),
        "spectrum.convergence_s": mean.get("spectrum.convergence", 0.0),
        "spectral_stats.unfold_s": mean.get("spectral_stats.unfold", 0.0),
        "spectral_stats.eta_s": mean.get("spectral_stats.eta", 0.0),
        "spectral_stats.brody_s": mean.get("spectral_stats.brody", 0.0),
        "spectral_stats.ratio_s": mean.get("spectral_stats.ratio", 0.0),
        "spectral_stats.boundary_s": tot.get("spectral_stats.boundary", 0.0),
        "spectral_stats.n_levels": own["n_levels"] / n,
        "eigenstate_stats.collect_s": mean.get("eigenstate_stats.collect", 0.0),
        "eigenstate_stats.kl_s": mean.get("eigenstate_stats.kl", 0.0),
        "eigenstate_stats.n_coeffs": own["n_coeffs"] / n,
        "cache.load_s": mean.get("cache.load", 0.0),
        "cache.store_s": mean.get("cache.store", 0.0),
        "cache.bytes_read": own["bytes_read"],
        "cache.bytes_written": written["bytes_written"],
        "cache.hits": own["hits"],
        "cache.misses": own["misses"],
        "cache.hit_ratio": own["hits"] / lookups if lookups else 0.0,
        "sweep.compute_point_s": mean.get("sweep.compute_point", 0.0),
        "sweep.run_sweep_s": run_sweep_s,
        "sweep.pool_overhead_s": (run_sweep_s - mean.get("sweep.compute_point", 0.0) * n
                                  / spec["workers"]) if spec["workers"] else 0.0,
        "sweep.cpu_util": cpu_util,
        "cli.overhead_s": mean["cli.main_sweep"] - run_sweep_s if "cli.main_sweep" in mean else 0.0,
        "cli.bytes_written": cli_bytes,
        "trace.pass_s": pass_s,
        "trace.spans": len(tracer.spans),
        "trace.overhead_s": len(tracer.spans) * span_cost(),
    }
    self_times = tracer.self_times()
    layers.update({f"{m}.self_s": self_times.get(m, 0.0) for m in MODULES})
    return output, layers


# ---------------------------------------------------------------------------
# checks, outside the timed window


def check(spec: dict, work: Path, outputs: list[dict]) -> dict:
    """Count attempted and failed points over all passes; a failed point has a problem."""
    points = grid(spec)
    dim = spec["dim"]
    use_reference = spec["scale"] == "full" and spec["seed"] == workloads.DEFAULT_SEED
    reference = checks.load_reference(spec["workload"]) if use_reference else None
    invariants: dict[int, tuple] = {}

    def spectrum(pid: int, energies) -> list[str]:
        if energies is None:
            return ["no eigenvalues"]
        if pid not in invariants:
            invariants[pid] = checks.h_invariants(points[pid])
        return checks.spectrum_problems(energies, invariants[pid])

    failures: list[str] = []
    attempted = failed = 0
    for index, out in enumerate(outputs):
        problems = [[] for _ in points]
        rows = pass_rows(spec, work, out, problems)
        for pid, (params, row) in enumerate(zip(points, rows)):
            if row is None:
                continue
            problems[pid] += checks.row_problems(row, dim)
            if use_reference:
                problems[pid] += (checks.reference_problems(row, reference) if reference
                                  else ["no reference rows for this workload"])
            if spec["workload"] == "scan-eigvals":
                if not row["error"]:
                    problems[pid] += spectrum(pid, row["energies"])
            else:
                cache = SpectrumCache(out.get("cache", work / "cache"))
                problems[pid] += spectrum(pid, cache.load(params, SECTOR, KIND_ENERGIES))
                mid = cache.load(params, SECTOR, KIND_MID_COEFFS)
                problems[pid] += (["no mid-window coefficients"] if mid is None
                                  else checks.coefficient_problems(mid, dim))
        for pid, found in enumerate(problems):
            failures += [f"pass {index} point {pid}: {p}" for p in found]
        attempted += len(points)
        failed += sum(1 for found in problems if found)
    return {"attempted": attempted, "failed": failed, "failures": failures[:20]}


def pass_rows(spec: dict, work: Path, out: dict, problems: list[list[str]]) -> list:
    """Rows of one pass in grid order; pass-level problems are charged to every point."""
    n_kappa = len(spec["kappas"])
    whole = []
    workload = spec["workload"]
    if workload == "scan-eigvals":
        rows = out["rows"]
    elif workload == "sweep-cold":
        rows = out["rows"]
        on_disk = [row_dict(r) for r in read_csv(out["dir"] / "sweep.csv")]
        for pid, (row, disk) in enumerate(zip(rows, on_disk)):
            if {k: v for k, v in row.items() if k != "error"} != {
                    k: v for k, v in disk.items() if k != "error"}:
                problems[pid].append("sweep.csv row differs from the returned row")
        if len(on_disk) != len(rows):
            whole.append("sweep.csv has the wrong number of rows")
    else:
        if out["exit_codes"] != [0, 0]:
            whole.append(f"CLI exit codes {out['exit_codes']}")
        csv = out["dir"] / "sweep.csv"
        expected = (work / "setup_sweep.csv").read_bytes().splitlines()
        got = csv.read_bytes().splitlines() if csv.exists() else []
        if len(got) != len(expected) or got[:1] != expected[:1]:
            whole.append("sweep.csv header or length differs from the set-up pass")
            rows = [None] * len(problems)
        else:
            for pid, (a, b) in enumerate(zip(got[1:], expected[1:])):
                if a != b:
                    problems[pid].append("sweep.csv row bytes differ from the set-up pass")
            rows = [row_dict(r) for r in read_csv(csv)]
        for name in ("eta", "beta", "mean_r"):
            if not (out["dir"] / f"boundary_{name}.csv").exists():
                whole.append(f"boundary_{name}.csv missing")
    if workload != "sweep-warm":
        boundary = out["boundary"]
        if sorted(boundary) != ["beta", "eta", "mean_r"] or any(
                len(curve) != n_kappa
                or any(p.lambda_star not in (None, *spec["lambdas"]) for p in curve)
                for curve in boundary.values()):
            whole.append("boundary curves malformed")
    for found in problems:
        found += whole
    return rows


# ---------------------------------------------------------------------------
# provenance


def high_water_kb() -> int | None:
    """VmHWM, this process's peak resident memory so far, where /proc is readable."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def machine_counters() -> list[int]:
    """user, nice, system, idle, iowait, irq, softirq, steal: the machine's CPU time."""
    try:
        return [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    except OSError:
        return []


def steal_share(before: list[int], after: list[int]) -> float | None:
    """Share of CPU time the hypervisor gave to other guests between two readings."""
    if len(before) != 8 or len(after) != 8 or sum(after) == sum(before):
        return None
    return (after[7] - before[7]) / (sum(after) - sum(before))


def provenance(spec: dict) -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas'].get('version', '?')}"
        lapack = f"{deps['lapack']['name']} {deps['lapack'].get('version', '?')}"
    except (TypeError, KeyError):
        blas = lapack = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "lapack": lapack,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": spec["seed"],
        "workload": spec["workload"],
        "scale": spec["scale"],
        "j": spec["j"],
        "n_cutoff": spec["n_cutoff"],
        "dim": spec["dim"],
        "points": spec["points"],
        "workers": spec["workers"],
        "kappas": spec["kappas"],
        "lambdas": spec["lambdas"],
    }


# ---------------------------------------------------------------------------
# entry points


def run_passes(work: Path, seconds: float, trace: bool, spans_path: Path | None) -> dict:
    spec = json.loads((work / "spec.json").read_text(encoding="utf-8"))
    at_spawn_kb = high_water_kb()
    load_1min = os.getloadavg()[0]
    counters = machine_counters()
    layers = None
    times: list[float] = []
    outputs: list[dict] = []
    if trace:
        tracer = Tracer()
        output, layers = traced_run(spec, work, tracer)
        outputs.append(output)
        if spans_path is not None:
            spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
    else:
        run = PASSES[spec["workload"]]
        while not times or sum(times) < seconds:
            t0 = time.perf_counter()
            outputs.append(run(spec, work, len(times), NullTracer()))
            times.append(time.perf_counter() - t0)
    machine = {"load_1min_at_start": load_1min,
               "steal_share": steal_share(counters, machine_counters())}
    rss = {
        "driver_peak_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "worker_peak_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "driver_at_spawn_kb": at_spawn_kb,
    }
    result = check(spec, work, outputs)
    first = outputs[0]
    rows = first.get("rows")
    if rows is None:
        csv = first["dir"] / "sweep.csv"
        rows = [row_dict(r) for r in read_csv(csv)] if csv.exists() else []
    return {
        **result,
        "pass_seconds": times,
        "rss": rss,
        "provenance": {**provenance(spec), "machine": machine},
        "layers": layers,
        "rows": [{k: v for k, v in r.items() if k != "energies"} for r in rows],
    }


def solve_one_thread(work: Path) -> dict:
    """Eigenvalue-only solve of the first grid point, timed in this process."""
    spec = json.loads((work / "spec.json").read_text(encoding="utf-8"))
    h = build_hamiltonian(grid(spec)[0], SECTOR)
    t0 = time.perf_counter()
    diagonalize(h, want_vectors=False)
    return {"seconds": time.perf_counter() - t0,
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="step", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", default="full", choices=sorted(workloads.SCALES))
    p.add_argument("--work", type=Path, required=True)
    p = sub.add_parser("pass")
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", type=Path)
    p.add_argument("--out", type=Path, required=True)
    p = sub.add_parser("solve1t")
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    if args.step == "setup":
        setup(args.workload, args.seed, args.scale, args.work)
        return 0
    if args.step == "pass":
        doc = run_passes(args.work, args.seconds, bool(args.trace), args.spans)
    else:
        doc = solve_one_thread(args.work)
    args.out.write_text(json.dumps(doc, default=str), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
