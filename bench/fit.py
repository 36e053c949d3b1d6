"""Benchmark fits in one process, on the path `spatialvb fit` takes.

    python3 bench/fit.py REQUEST.json

REQUEST.json names the source tree, the warm-up fit, the measured fit
(dataset, run config, output-check tolerance), the output directory, how
many seconds to measure, the fewest fits to make, a hard time limit, and
whether to trace. The process first runs the warm-up fit, a few iterations
on a tiny grid of the same shape, so that imports and first-call costs
stay out of the figures. Then it repeats the measured fit until the next
fit would end past the measuring time and at least the fewest fits are
done. Each fit is `spatialvb.cli.run_fit`; the only addition to an
untraced fit is one timer around the engine call. The last line printed
is one JSON object: a record per measured fit (phase times, failures,
output checks, digest of the numeric artifacts and, when traced, the
per-layer values) and the peak memory of the process.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ENGINES = ("jvb_fit", "hvb_fit", "hmc_fit")
NUMERIC_ARTIFACTS = ("elbo_trace.csv", "mean_trajectory.csv",
                     "missing_posterior.csv", "chain.csv")


def artifact_digest(out_dir: Path) -> str:
    """sha256 of the numeric artifacts; summary.json enters without its
    wall-clock field."""
    h = hashlib.sha256()
    summary = json.loads((out_dir / "summary.json").read_text())
    summary.pop("elapsed_seconds")
    h.update(json.dumps(summary, sort_keys=True).encode())
    for name in NUMERIC_ARTIFACTS:
        path = out_dir / name
        if path.exists():
            h.update(name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def truth_errors(res, truth: dict) -> dict:
    """Largest |posterior mean - truth| over beta, and for sigma2_y and rho."""
    means = dict(zip(res.theta_names, res.theta_mean))
    return {"beta": max(abs(means[f"beta{j}"] - b) for j, b in enumerate(truth["beta"])),
            "sigma2_y": abs(means["sigma2_y"] - truth["sigma2_y"]),
            "rho": abs(means["rho"] - truth["rho"])}


def output_problems(res, errors: dict, tolerance: dict | None) -> list[str]:
    problems = [f"non-finite {name}" for name in
                ("theta_mean", "theta_sd", "yu_mean", "yu_sd")
                if not np.all(np.isfinite(getattr(res, name)))]
    if tolerance is not None:
        problems += [f"{name} posterior mean is {errors[name]:.4f} from the truth "
                     f"(tolerance {tol})"
                     for name, tol in tolerance.items() if not errors[name] <= tol]
    return problems


class Fitter:
    """Runs `cli.run_fit` and records one fit; engine calls are timed."""

    def __init__(self, src: str, traced: bool):
        sys.path.insert(0, src)
        import spatialvb
        from spatialvb import cli

        if Path(spatialvb.__file__).resolve().parent != Path(src, "spatialvb").resolve():
            raise RuntimeError(f"imported spatialvb from {spatialvb.__file__}")
        self.cli = cli
        self.recorder = None
        if traced:
            import spans
            self.recorder = spans.SpanRecorder()
            spans.install(self.recorder)
        self.marks: dict[str, float] = {}
        for name in ENGINES:
            setattr(cli, name, self._timed(getattr(cli, name)))

    def _timed(self, engine):
        marks = self.marks

        def call(*args, **kwargs):
            marks["engine_start"] = time.perf_counter()
            try:
                return engine(*args, **kwargs)
            finally:
                marks["engine_end"] = time.perf_counter()
        return call

    def fit(self, spec: dict, out_dir: Path, spans_path: Path | None) -> dict:
        from spatialvb.io import read_response

        cfg = self.cli.RunConfig.from_json(json.dumps(spec["config"]))
        iterations = spec["iterations"]
        record = {"iterations": iterations, "failed": iterations, "problems": []}
        if self.recorder is not None:
            self.recorder.reset()
        gc.collect()
        start = time.perf_counter()
        try:
            res = self.cli.run_fit(cfg, out_dir)
        except Exception:
            record["problems"].append(traceback.format_exc())
            return record
        end = time.perf_counter()
        record.update(setup_s=self.marks["engine_start"] - start,
                      engine_s=self.marks["engine_end"] - self.marks["engine_start"],
                      total_s=end - start)
        dataset = Path(cfg.dataset)
        truth = json.loads((dataset / "truth.json").read_text())
        y_full, _ = read_response(dataset / "y_full.csv")
        record["yu_rmse"] = float(np.sqrt(np.mean((res.yu_mean - y_full[res.yu_index]) ** 2)))
        record["truth_error"] = truth_errors(res, truth)
        record["problems"] = output_problems(res, record["truth_error"], spec["tolerance"])
        record["digest"] = artifact_digest(out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        record["failed"] = (iterations if record["problems"] else
                            int(res.flags.get("skipped_iterations", 0))
                            + int(res.tuning.get("divergences", 0)))
        record["flags"] = res.flags
        record["tuning"] = res.tuning
        if self.recorder is not None:
            import spans
            record["layers"] = spans.layer_metrics(self.recorder, res)
            if spans_path is not None:
                self.recorder.dump(spans_path)
        return record


def run(req: dict) -> dict:
    fitter = Fitter(req["src"], req["traced"])
    out = Path(req["out"])
    warmup = fitter.fit(req["warmup"], out / "warmup", None)
    fits: list[dict] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if fits:
            typical = statistics.median(f.get("total_s", req["seconds"]) for f in fits)
            if len(fits) >= req["min_fits"] and elapsed + typical > req["seconds"]:
                break
            if elapsed + typical > req["limit_s"]:
                break
        k = len(fits)
        spans_path = out / f"fit{k}-spans.json" if req["traced"] else None
        fits.append(fitter.fit(req["fit"], out / f"fit{k}", spans_path))
    return {"warmup_problems": warmup["problems"], "fits": fits,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


if __name__ == "__main__":
    request = json.loads(Path(sys.argv[1]).read_text())
    print(json.dumps(run(request)))
