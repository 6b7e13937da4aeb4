"""Benchmark of the dicke-chaos pipeline; run from the root of a checkout.

    python3 perfbench/run.py --workload scan-eigvals --seed 0 --seconds 20 --trace 0

Workloads (see workloads.py, BENCHMARK.json and BASELINE.md):
  scan-eigvals  D=5297 eigenvalue-only indicator scan of 4 points, in one process
  sweep-warm    D=1369 CLI sweep + boundary of 12 points against a cache filled in set-up
  sweep-cold    D=5297 run_sweep of 2 points with 2 workers into an empty cache; runnable,
                but left out of BENCHMARK.json because two workers times two BLAS
                threads on two cores make its wall time swing too widely

This process imports no numpy and stays small.  Every step runs in a fresh
driver process (driver.py): set-up (repeated, the median is setup_s), the
passes, and for traced runs the single-threaded solve.  A fresh driver keeps
the peak memory that getrusage reports for its workers their own: spawned
children inherit the high-water mark of the process that starts them.

With --trace 0 the last line carries the end-to-end metrics; with --trace 1,
one traced pass plus an in-process replay of the sweep stages gives the
per-layer metrics.  Outputs are checked outside the timed window; a point
that raises, carries an error or fails a check counts as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DRIVER = HERE / "driver.py"
WORK_ROOT = HERE / ".work"
RESULTS = WORK_ROOT / "results"
SETUP_REPEATS = 3
TIME_LIMIT_S = 175.0
ONE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "points_per_s": "1/s", "pass_s_p50": "s", "peak_rss_mb": "MB"}


class StepFailed(Exception):
    pass


def run_step(args: list[str], deadline: float, env: dict | None = None) -> None:
    """Run one driver step in its own process group; kill the group on timeout."""
    proc = subprocess.Popen([sys.executable, str(DRIVER), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise StepFailed(f"driver step {args[0]} ran out of time") from None
    if proc.returncode != 0:
        raise StepFailed(f"driver step {args[0]} exited {proc.returncode}:\n"
                         + err.decode(errors="replace"))


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith(("_share", "_ratio", "_util")):
        return "fraction"
    return "count"


def end_to_end(setup_times: list[float], doc: dict) -> dict:
    times = doc["pass_seconds"]
    workers = doc["provenance"]["workers"]
    points = doc["provenance"]["points"]
    rss = doc["rss"]
    # getrusage reports only the largest child; the sweeps' workers peak together.
    workers_rss_kb = min(workers, points) * rss["worker_peak_kb"] if workers else 0
    return {
        "setup_s": statistics.median(setup_times),
        "points_per_s": (doc["attempted"] - doc["failed"]) / sum(times),
        "pass_s_p50": statistics.median(times),
        "peak_rss_mb": (rss["driver_peak_kb"] + workers_rss_kb) / 1024.0,
    }


def report(args, setup_times: list[float], doc: dict, one_thread: dict | None) -> dict:
    prov = doc["provenance"]
    prov.update(git_commit=git_commit(ROOT), src_sha256=source_digest(ROOT),
                setup_repeats=len(setup_times))
    if args.trace:
        layers = dict(doc["layers"])
        layers["spectrum.eigvals_1t_s"] = one_thread["seconds"] if one_thread else 0.0
        values = layers
    else:
        values = end_to_end(setup_times, doc)
    metrics = {name: {"value": v, "unit": END_TO_END_UNITS.get(name) or unit_of(name)}
               for name, v in sorted(values.items())}

    print(f"workload {args.workload}  seed {args.seed}  D={prov['dim']}  "
          f"{prov['points']} points  trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    failed_fraction = doc["failed"] / doc["attempted"]
    print(f"  {'failed_fraction':32s} {failed_fraction:.6g} "
          f"({doc['failed']} of {doc['attempted']} points)")
    times = sorted(doc["pass_seconds"])
    if times:
        line = f"  passes: {len(times)}, median {statistics.median(times):.4f} s"
        if len(times) > 10:
            q = 100.0 * (len(times) - 10) / len(times)
            line += f", p{q:.0f} {times[len(times) - 11]:.4f} s"
        else:
            line += "; fewer than 11 passes, so no percentile has ten samples beyond it"
        print(line)
    rss = doc["rss"]
    print(f"  rss kB: driver peak {rss['driver_peak_kb']}, largest worker {rss['worker_peak_kb']}"
          f", driver high-water mark when the workers were spawned {rss['driver_at_spawn_kb']}")
    for failure in doc["failures"]:
        print(f"  FAILED {failure}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    record = {"metrics": metrics, "setup_seconds": setup_times, "one_thread": one_thread, **doc}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")
    return {"correct": doc["failed"] == 0, "attempted": doc["attempted"],
            "failed": doc["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny D for the benchmark's own tests; no reference check")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dicke_chaos" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'dicke_chaos'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    scale = "smoke" if args.smoke else "full"
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    setup_times: list[float] = []
    one_thread = None
    try:
        for i in range(1 if args.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            run_step(["setup", "--workload", args.workload, "--seed", str(args.seed),
                      "--scale", scale, "--work", str(work / f"setup{i}")], deadline)
            setup_times.append(time.perf_counter() - t0)
            if i:
                shutil.rmtree(work / f"setup{i}")
        setup_dir = work / "setup0"
        if args.trace and args.workload == "scan-eigvals":
            run_step(["solve1t", "--work", str(setup_dir), "--out", str(work / "solve1t.json")],
                     deadline, env={**os.environ, **ONE_THREAD_ENV})
            one_thread = json.loads((work / "solve1t.json").read_text(encoding="utf-8"))
        RESULTS.mkdir(parents=True, exist_ok=True)
        spans = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
        run_step(["pass", "--work", str(setup_dir), "--seconds", str(args.seconds),
                  "--trace", str(args.trace), "--spans", str(spans),
                  "--out", str(work / "pass.json")], deadline)
        doc = json.loads((work / "pass.json").read_text(encoding="utf-8"))
    except StepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report(args, setup_times, doc, one_thread)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
