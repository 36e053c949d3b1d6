"""Workloads and metrics of the fit benchmark.

Every workload is a rook grid (r = 10 covariates, sigma2 = 1, rho = 0.8)
simulated from the run's seed and one `spatialvb fit` configuration. Each
puts a different layer on the critical path; `why` says which. The metric
tables below are the source of truth for `BENCHMARK.json`: the smoke test
checks that the two agree, and `moves` records which end-to-end metric a
per-layer metric should move, and on which workload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

MAR = {"kind": "MAR", "missing_fraction": 0.75}
# the paper's MNAR setting: selection on the intercept, covariate 3 and y
MNAR = {"kind": "MNAR", "psi_0": 1.5, "psi_xstar": 0.5, "psi_y": -0.1,
        "covariate_index": 3}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    side: int
    mechanism: dict
    fit: dict                  # run-config fields besides dataset and seed
    # largest |posterior mean - truth| accepted over the beta_j, and for
    # sigma2_y and rho; None skips the check. The runs are far too short
    # for the engines to converge, so these catch blow-ups, not bias.
    tolerance: dict | None

    def sim_config_json(self, seed: int) -> str:
        return json.dumps({"side": self.side, "r": 10, "sigma2_true": 1.0,
                           "rho_true": 0.8, "mechanism": self.mechanism,
                           "seed": seed})

    def run_config(self, dataset: str, seed: int) -> dict:
        return {"dataset": dataset, "seed": seed, **self.fit}

    @property
    def iterations(self) -> int:
        """Outer iterations of one fit; for HMC burn-in plus kept samples."""
        if self.fit["method"] == "hmc":
            return self.fit["hmc"]["burn_in"] + self.fit["hmc"]["n_samples"]
        return self.fit["iterations"]


_TOL = {"beta": 0.5, "sigma2_y": 2.5, "rho": 0.9}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="allb-mnar-1600",
        why="MNAR block Metropolis, 10 blocks x N1=10 per iteration: many "
            "small factors and selection ratios, bound by call overhead.",
        side=40, mechanism=MNAR,
        fit={"method": "hvb-allb", "iterations": 100, "p": 4,
             "warm_start": True},
        tolerance=_TOL),
    Workload(
        name="jvb-mar-10000",
        why="Paper scale: sparse-LU log-det, Hutchinson trace, power-iteration "
            "rho bound, dense 7500^2 initial draw and post-loop summaries.",
        side=100, mechanism=MAR,
        fit={"method": "jvb", "iterations": 20, "p": 4},
        tolerance=_TOL),
    Workload(
        name="hmc-mnar-1600",
        why="HMC with its step-size pilot: almost all time is per-call cost "
            "of log_h_and_grads, which other workloads hide behind factors.",
        # side 40, not 25: the short chain barely leaves its random initial
        # y_u, so yu_rmse follows that draw, and on 625 sites it varied by
        # 20% between seeds
        side=40, mechanism=MNAR,
        # the pilot starts at 0.25/64: from a larger step it halves or not
        # depending on the seed (from 0.25/32 on 2 of 20 seeds), which would
        # make run time bimodal; at 0.25/64 its acceptance was >= 0.93
        fit={"method": "hmc",
             "hmc": {"n_samples": 100, "burn_in": 50, "n_leapfrog": 30,
                     "step_size": 0.00390625}},
        tolerance={"beta": 1.0, "sigma2_y": 3.0, "rho": 1.2}),
)}


def tiny(w: Workload) -> Workload:
    """The same fit shape on a 6 x 6 grid with a few iterations (enough for
    HVB to average two y_u states)."""
    fit = dict(w.fit)
    if "iterations" in fit:
        fit["iterations"] = 10
    if "hmc" in fit:
        fit["hmc"] = {**fit["hmc"], "n_samples": 5, "burn_in": 2, "n_leapfrog": 5}
    return replace(w, name=f"tiny-{w.name}", side=6, fit=fit, tolerance=None)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None     # end-to-end metrics only
    moves: str = ""                # per-layer: "end-to-end metric @ workload"

    def spec(self) -> dict:
        doc = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            doc["bound"] = self.bound
        return doc


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("iters_per_s", "1/s", "higher", 0.25),
    Metric("total_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("yu_rmse", "1", "lower", 0.25),
    Metric("ok_frac", "1", "higher", 0.01),
)

_JVB, _ALLB, _HMC = "jvb-mar-10000", "allb-mnar-1600", "hmc-mnar-1600"


def _layer(name, unit, better, moves):
    return Metric(name, unit, better, moves=moves)


def _calls_self(span, moves):
    return (_layer(f"{span}.calls", "count", "lower", moves),
            _layer(f"{span}.self_s", "s", "lower", moves))


PER_LAYER = (
    _layer("weights.weight_eigenvalues.self_s", "s", "lower", f"setup_s@{_ALLB},{_HMC}"),
    _layer("weights.rho_interval.self_s", "s", "lower", f"setup_s@{_JVB}"),
    *_calls_self("sem.logdet_m", f"iters_per_s@{_JVB}"),
    *_calls_self("sem.trace_minv_dm", f"iters_per_s@{_JVB}"),
    _layer("sem.hutchinson_solves", "count", "lower", f"iters_per_s@{_JVB}"),
    *_calls_self("sem.spatial_filter", f"iters_per_s@{_ALLB}"),
    _layer("posterior.TargetDensity.init_s", "s", "lower", "setup_s@all"),
    *_calls_self("posterior.log_h_and_grads", f"iters_per_s@{_HMC}"),
    *_calls_self("posterior.grad_log_h_theta", f"iters_per_s@{_ALLB}"),
    *_calls_self("posterior.log_h", f"iters_per_s@{_ALLB}"),
    _layer("missing.selection_log_prob.self_s", "s", "lower", f"iters_per_s@{_HMC}"),
    _layer("missing.selection_grad_psi.self_s", "s", "lower", f"iters_per_s@{_HMC}"),
    _layer("missing.selection_grad_yu.self_s", "s", "lower", f"iters_per_s@{_HMC}"),
    _layer("missing.make_blocks.self_s", "s", "lower", f"setup_s@{_ALLB}"),
    *_calls_self("samplers.mar_conditional",
                 f"setup_s,peak_rss_mb@{_JVB}"),
    *_calls_self("samplers.sample_conditional",
                 f"setup_s,peak_rss_mb@{_JVB}"),
    *_calls_self("samplers.mcmc_block", f"iters_per_s,yu_rmse@{_ALLB}"),
    _layer("samplers.block_proposals", "count", "lower", f"iters_per_s,yu_rmse@{_ALLB}"),
    _layer("samplers.block_accepts", "count", "higher", f"iters_per_s,yu_rmse@{_ALLB}"),
    _layer("samplers.block_accept_frac", "1", "higher", f"iters_per_s,yu_rmse@{_ALLB}"),
    _layer("samplers.dense_factor_bytes", "B-computed", "lower", f"peak_rss_mb@{_JVB}"),
    _layer("samplers.tune_step_size.self_s", "s", "lower", f"iters_per_s@{_HMC}"),
    _layer("samplers.tune_step_size.total_s", "s", "lower", f"iters_per_s@{_HMC}"),
    *_calls_self("samplers.hmc_run", f"iters_per_s@{_HMC}"),
    _layer("samplers.hmc.grad_evals", "count", "lower", f"iters_per_s@{_HMC}"),
    _layer("samplers.hmc.accept_frac", "1", "higher", f"iters_per_s,ok_frac@{_HMC}"),
    _layer("samplers.hmc.divergences", "count", "lower", f"iters_per_s,ok_frac@{_HMC}"),
    *_calls_self("vb.woodbury_solve", f"iters_per_s@{_JVB}"),
    *_calls_self("vb.woodbury_logdet", f"iters_per_s@{_JVB}"),
    _layer("vb.adadelta_step.self_s", "s", "lower", f"iters_per_s@{_JVB}"),
    _layer("vb.draw_variational.self_s", "s", "lower", f"iters_per_s@{_JVB}"),
    _layer("vb.jvb_gradient_estimate.self_s", "s", "lower", f"iters_per_s@{_JVB}"),
    _layer("vb.hvb_gradient_estimate.self_s", "s", "lower", f"iters_per_s@{_ALLB}"),
    _layer("vb.jvb_fit.self_s", "s", "lower", f"iters_per_s,peak_rss_mb@{_JVB}"),
    _layer("vb.hvb_fit.self_s", "s", "lower", f"iters_per_s,peak_rss_mb@{_ALLB}"),
    _layer("vb.draw_initial_yu.self_s", "s", "lower", f"setup_s@{_JVB}"),
    _layer("vb.skipped_iterations", "count", "lower", "ok_frac@all"),
    _layer("vb.clipped_coordinates", "count", "lower", "ok_frac@all"),
    _layer("io.load_dataset.self_s", "s", "lower", f"setup_s@{_JVB}"),
    _layer("io.write_fit_result.self_s", "s", "lower", f"total_s@{_JVB}"),
    _layer("io.write_fit_result.bytes", "B", "lower", f"total_s@{_JVB}"),
    _layer("trace.spans", "count", "lower", "tracing overhead@all"),
    _layer("trace.overhead_s", "s", "lower", "traced total_s - untraced total_s@all"),
)
