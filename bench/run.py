"""rkhskit benchmark: time real CLI jobs and the layers under them.

    python3 bench/run.py --workload filtration --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload
    python3 bench/run.py --workload exact,gff --seed 1      # a named subset

Run from a checkout: the program is imported from ``src/`` next to this
directory, and inputs and outputs live in a temporary directory under
``.bench_work/`` that is removed at the end.  Human-readable lines come
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics.
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from spans import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
TAIL_BEYOND = 10          # the tail percentile keeps this many jobs above it
DIGEST_CYCLES = 2         # warm-up cycle plus the first measured cycle
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import rkhskit, rkhskit.cli; print(time.perf_counter() - t)"
)


def _blas_threads(nproc: int) -> dict:
    """Threads in effect for every OpenBLAS the process has loaded, capped
    at ``nproc``."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        return {}
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is None or setter is None or Path(path).name in found:
                    continue
                get.restype = ctypes.c_int
                setter.argtypes = [ctypes.c_int]
                if get() > nproc:
                    setter(nproc)
                found[Path(path).name] = get()
    return found


def machine_record(seed: int) -> dict:
    import scipy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.split()
        if Path(top).resolve() != ROOT:
            commit = None  # the checkout sits inside some other repository
    except (OSError, subprocess.SubprocessError, ValueError):
        commit = None  # a plain source checkout; source_sha256 identifies the code
    digest = hashlib.sha256()
    for path in sorted((SRC / "rkhskit").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(nproc),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def measure_setup() -> float:
    """Median seconds for a fresh interpreter to import rkhskit and its CLI."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def run_job(entry, job) -> dict:
    """Run one job through ``entry(argv)`` and check its output."""
    out_buf, err_buf = io.StringIO(), io.StringIO()
    gc.collect()
    error = None
    with redirect_stdout(out_buf), redirect_stderr(err_buf):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            rc = entry(job.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc, error = None, traceback.format_exc(limit=3)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    rec = {"kind": job.kind, "wall": wall, "cpu": cpu, "ok": False, "bytes": 0, "stats": None, "digest": None}
    if rc != 0:
        rec["reason"] = error or f"exit {rc}: {err_buf.getvalue().strip()[-300:]}"
        return rec
    try:
        data = job.out.read_bytes() if job.out is not None else out_buf.getvalue().encode()
        rec["bytes"] = len(data)
        rec["stats"] = job.check(data)
        if job.digest is not None:
            rec["digest"] = hashlib.sha256(job.digest(data)).hexdigest()
        rec["ok"] = True
    except Exception as exc:  # any wrong or unreadable output is a failed job
        rec["reason"] = f"{type(exc).__name__}: {exc}"
    finally:
        if job.out is not None:
            job.out.unlink(missing_ok=True)
    return rec


def _count_exit(counts, args, rc, state):
    if rc != 0:
        counts["cli.errors"] += 1


def run_workload(name: str, seed: int, seconds: float, traced: bool):
    """Warm-up cycle, then whole cycles until the window is used.  With
    tracing, odd cycles are traced and even ones are not."""
    from rkhskit.cli import main

    make_cycle = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    tracer = Tracer() if traced else None
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
    records = []
    try:
        cycle, start, last = 0, None, 0.0
        while True:
            if cycle == 1:
                start = time.perf_counter()
            if cycle > (2 if traced else 1) and time.perf_counter() - start + 0.5 * last > seconds:
                break
            t0 = time.perf_counter()
            trace_this = traced and cycle % 2 == 1
            entry = main
            if trace_this:
                tracer.install()
                entry = tracer.wrap("cli.job", main, count=_count_exit)
            try:
                for job in make_cycle(rng, workdir, f"c{cycle}"):
                    if trace_this:
                        tracer.job = len(records)
                    rec = run_job(entry, job)
                    rec.update(cycle=cycle, traced=trace_this)
                    records.append(rec)
            finally:
                if trace_this:
                    tracer.uninstall()
            last = time.perf_counter() - t0
            cycle += 1
        window = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run is still using it
    return records, window, tracer


def end_to_end(records: list, setup_s: float) -> tuple[dict, list]:
    measured = [r for r in records if r["cycle"] > 0]
    walls = sorted(r["wall"] for r in measured)
    n = len(walls)
    # the 11th-largest job; a short run without eleven jobs reports its slowest
    tail_index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    cycles = {}
    for r in measured:
        done, spent = cycles.get(r["cycle"], (0, 0.0))
        cycles[r["cycle"]] = (done + r["ok"], spent + r["wall"])
    metrics = {
        "setup_s": (setup_s, "s"),
        "job_p50_s": (statistics.median(walls), "s"),
        "job_tail_s": (walls[tail_index], "s"),
        "jobs_per_s": (statistics.median(done / spent for done, spent in cycles.values()), "1/s"),
        "job_cpu_s": (statistics.median(r["cpu"] for r in measured), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"job_p50_s over {n} measured jobs",
        f"job_tail_s is p{100.0 * (tail_index + 1) / n:.1f}: the {n - tail_index}th largest of {n}, "
        f"{n - tail_index - 1} jobs beyond it",
        f"jobs_per_s is the median over {len(cycles)} cycles of verified jobs / seconds inside main()",
    ]
    return metrics, notes


def per_layer(records: list, tracer: Tracer) -> tuple[dict, list]:
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if r["cycle"] > 0 and not r["traced"]]
    metrics = tracer.metrics(len(traced), sum(r["bytes"] for r in traced))
    job_mean = statistics.fmean(r["wall"] for r in traced)
    overhead = statistics.median(r["wall"] for r in traced) - statistics.median(r["wall"] for r in plain)
    metrics["trace.job_mean_s"] = (job_mean, "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    layer_sum = sum(value for key, (value, _) in metrics.items() if key.endswith(".self_s"))
    notes = [
        f"{len(traced)} traced and {len(plain)} untraced measured jobs",
        f"layer self times sum to {layer_sum:.6f} s/job against a traced job wall of {job_mean:.6f} s/job",
        f"tracing overhead: traced job_p50 - untraced job_p50 = {overhead:.6f} s",
    ]
    if tracer.missing:
        notes.append("not traced (absent in this version): " + ", ".join(tracer.missing))
    notes += [f"  span {name:<28} {calls:>9} calls {self_s:>12.6f} s self" for name, calls, self_s in
              tracer.span_table()]
    return metrics, notes


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    if not (SRC / "rkhskit" / "cli.py").is_file():
        raise SystemExit(f"error: no rkhskit sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import rkhskit.cli  # noqa: F401  (compiles the sources before the set-up timing)

    print("machine: " + json.dumps(machine_record(seed), sort_keys=True))
    setup_s = None if traced else measure_setup()
    records, window, tracer = run_workload(name, seed, seconds, traced)
    if traced:
        metrics, notes = per_layer(records, tracer)
    else:
        metrics, notes = end_to_end(records, setup_s)
    failed = [r for r in records if not r["ok"]]
    cycles = max(r["cycle"] for r in records)
    print(f"workload {name}, seed {seed}, trace {int(traced)}: {len(records)} jobs in {cycles} measured "
          f"cycles plus 1 warm-up cycle, window {window:.2f} s")
    print(f"fail_ratio {len(failed) / len(records):.6f} ({len(failed)} of {len(records)} jobs)")
    for rec in failed[:10]:
        print(f"  FAILED {rec['kind']} (cycle {rec['cycle']}): {rec['reason']}")
    kinds = sorted({r["kind"] for r in records})
    for kind in kinds:
        walls = [r["wall"] for r in records if r["kind"] == kind and r["cycle"] > 0]
        print(f"  {kind:<22} {len(walls):>4} measured jobs, median {statistics.median(walls):.4f} s")
    for key, value in sorted(_max_stats(records).items()):
        print(f"worst {key}: {value:.3f}")
    for name_, (value, unit) in metrics.items():
        print(f"{name_:<28} {value:>16.6f} {unit}")
    for note in notes:
        print(note)
    digests = [r for r in records if r["digest"] and r["cycle"] < DIGEST_CYCLES]
    if digests:
        joined = hashlib.sha256("".join(r["digest"] for r in digests).encode()).hexdigest()
        print(f"digest of {len(digests)} outputs from cycles 0-{DIGEST_CYCLES - 1}: {joined}")
        for i, rec in enumerate(digests):
            print(f"  sha256 {rec['kind']} cycle {rec['cycle']} #{i}: {rec['digest']}")
    return {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _max_stats(records: list) -> dict:
    out = {}
    for rec in records:
        for key, value in (rec["stats"] or {}).items():
            out[key] = max(out.get(key, value), value)
    return out


def run_many(names: list, args) -> dict:
    """Each workload in its own interpreter, so peak memory and warm state
    stay per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with {done.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS)}, a comma-separated list, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="measured window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; choose from {', '.join(WORKLOADS)}")
    if len(names) > 1:
        result = run_many(names, args)
    else:
        result = run_one(names[0], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
