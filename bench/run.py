"""Fit benchmark for spatialvb.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from `src/` next to this directory.
The seed makes the dataset (`simulate_dataset`) and seeds the fit. The fits
run one after another in one fresh process with one BLAS thread (two
threads made the small-matrix workloads swing by +-10% between identical
fits on a 2-core machine). That process first makes an untimed warm-up fit
on a tiny grid, then repeats the measured fit for S seconds and at least
MIN_FITS times. Fits of one run share their seed, so their numeric artifacts
must be byte-identical.

--trace 0 reports the end-to-end metrics, each the median over the run's
fits. --trace 1 gives half of S to untraced fits and half to traced fits,
each in its own process, and reports the per-layer metrics of the traced
ones plus the tracing overhead. The last line printed is the result; the
line before it is a report with the provenance and the quartiles, also
written with every fit's record under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREADS = 1
MIN_FITS = 3
RUN_LIMIT_S = 165.0       # no fit process runs past this, so runs end < 180 s
BLAS_ENV = {name: str(THREADS) for name in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

sys.path.insert(0, str(HERE))
from workloads import END_TO_END, PER_LAYER, WORKLOADS, Workload, tiny  # noqa: E402


def make_dataset(w: Workload, seed: int, out: Path) -> dict:
    """Simulate and write the dataset as `spatialvb simulate` does; returns
    its shape and how long that took (kept out of every fit metric)."""
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    from spatialvb import __version__
    from spatialvb.io import write_dataset
    from spatialvb.simulate import SimConfig, simulate_dataset

    start = time.perf_counter()
    cfg = SimConfig.from_json(w.sim_config_json(seed))
    sim = simulate_dataset(cfg)
    write_dataset(sim, cfg, out, __version__)
    return {"n": cfg.n, "n_u": int(sim.pattern.n_u),
            "generate_s": time.perf_counter() - start}


def fit_spec(w: Workload, dataset: Path, seed: int) -> dict:
    return {"config": w.run_config(str(dataset), seed),
            "iterations": w.iterations, "tolerance": w.tolerance}


def run_fits(w: Workload, seed: int, work: Path, traced: bool, seconds: float,
             min_fits: int, deadline: float) -> dict:
    """One fit process: a warm-up fit, then the measured fits."""
    tag = "traced" if traced else "plain"
    limit = deadline - time.perf_counter()
    request = {"src": str(SRC), "traced": traced, "seconds": seconds,
               "min_fits": min_fits, "limit_s": max(0.0, limit - 10.0),
               "out": str(work / tag),
               "warmup": fit_spec(tiny(w), work / "warmup-dataset", seed),
               "fit": fit_spec(w, work / "dataset", seed)}
    req_path = work / f"{tag}.json"
    req_path.write_text(json.dumps(request))
    failed = {"iterations": w.iterations, "failed": w.iterations}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "fit.py"), str(req_path)],
                              env={**os.environ, **BLAS_ENV},
                              capture_output=True, text=True,
                              timeout=max(1.0, limit))
    except subprocess.TimeoutExpired:
        return {"fits": [{**failed, "problems": [f"{tag} fits timed out"]}]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"fits": [{**failed, "problems": [
            f"{tag} fits exited {proc.returncode}: {proc.stderr[-2000:]}"]}]}
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """Median, quartiles and count of one metric over a run's fits."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values)}


def end_to_end(batch: dict) -> dict:
    fits = batch["fits"]
    done = [f for f in fits if "total_s" in f]
    attempted = sum(f["iterations"] for f in fits)
    failed = sum(f["failed"] for f in fits)
    per_fit = {
        "setup_s": [f["setup_s"] for f in done],
        "iters_per_s": [f["iterations"] / f["engine_s"] for f in done],
        "total_s": [f["total_s"] for f in done],
        "yu_rmse": [f["yu_rmse"] for f in done],
    }
    out = {k: spread(v) for k, v in per_fit.items() if v}
    if "peak_rss_mb" in batch:
        out["peak_rss_mb"] = spread([batch["peak_rss_mb"]])
    out["ok_frac"] = {"median": 1.0 - failed / attempted, "q1": None, "q3": None,
                      "n": len(fits)}
    return out


def per_layer(plain: dict, traced: dict) -> dict:
    layered = [f for f in traced["fits"] if "layers" in f]
    out = {}
    if layered:
        out = {name: spread([f["layers"][name] for f in layered])
               for name in layered[0]["layers"]}
    plain_s = [f["total_s"] for f in plain["fits"] if "total_s" in f]
    traced_s = [f["total_s"] for f in layered]
    if plain_s and traced_s:
        out["trace.overhead_s"] = {
            "median": statistics.median(traced_s) - statistics.median(plain_s),
            "q1": None, "q3": None, "n": len(traced_s)}
    return out


def provenance(w: Workload, seed: int, dataset: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = git.stdout.strip() if git.returncode == 0 else None
    except OSError:         # no git on this machine
        sha = None
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)), "blas": blas,
        "blas_threads": THREADS, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "seed": seed, "workload": w.name, "method": w.fit["method"],
        "mechanism": w.mechanism["kind"], "iterations": w.iterations,
        "fit_config": w.fit, **dataset,
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the report whose `result` is the last line."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    work = OUT / f"{w.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    dataset = make_dataset(w, seed, work / "dataset")
    make_dataset(tiny(w), seed, work / "warmup-dataset")
    if trace:
        plain = run_fits(w, seed, work, False, seconds / 2, 1,
                         time.perf_counter() + (deadline - time.perf_counter()) / 2)
        traced = run_fits(w, seed, work, True, seconds / 2, 1, deadline)
        batches = [plain, traced]
        stats = per_layer(plain, traced)
    else:
        batches = [run_fits(w, seed, work, False, seconds, MIN_FITS, deadline)]
        stats = end_to_end(batches[0])
    fits = [f for b in batches for f in b["fits"]]
    problems = [p for b in batches for p in b.get("warmup_problems", [])]
    problems += [p for f in fits for p in f["problems"]]
    digests = {f.get("digest") for f in fits}
    if len(digests) != 1 or None in digests:
        problems.append(f"fits with seed {seed} disagree: digests {sorted(map(str, digests))}")
    wanted = PER_LAYER if trace else END_TO_END
    missing = [m.name for m in wanted if m.name not in stats]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    attempted = sum(f["iterations"] for f in fits)
    failed = attempted if missing else sum(f["failed"] for f in fits)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {m.name: {"value": stats[m.name]["median"], "unit": m.unit}
                          for m in wanted if m.name in stats}}
    report = {"provenance": provenance(w, seed, dataset), "problems": problems,
              "stats": stats, "batches": batches, "result": result}
    (work / "report.json").write_text(json.dumps(report, indent=1))
    for name in ("dataset", "warmup-dataset"):
        shutil.rmtree(work / name, ignore_errors=True)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spatialvb" / "__init__.py").is_file():
        print(f"error: no spatialvb sources under {SRC}", file=sys.stderr)
        return 2
    report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({k: report[k] for k in ("provenance", "problems", "stats")}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
