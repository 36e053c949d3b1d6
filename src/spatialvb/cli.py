"""Command-line entry points: simulate / fit / compare.

All configuration is JSON; every default can be overridden in the config
document, and --seed/--out override the config from the command line.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .io import (Dataset, check_types, load_dataset, read_fit_summary,
                 read_missing_posterior, read_response, write_dataset,
                 write_fit_result)
from .missing import default_block_size, make_blocks
from .posterior import PriorSpec, TargetDensity
from .samplers import PILOT_ITERATIONS, HmcConfig, McmcConfig
from .simulate import SimConfig, simulate_dataset
from .vb import (default_init_theta, draw_initial_yu, hmc_fit, hvb_fit, jvb_fit)

METHODS = ("jvb", "hvb-nob", "hvb-g", "hvb-allb", "hvb-3b", "hmc")

_METHOD_MECHANISMS = {
    "jvb": ("mar", "mnar"),
    "hvb-nob": ("mar", "mnar"),
    "hvb-g": ("mar",),
    "hvb-allb": ("mnar",),
    "hvb-3b": ("mnar",),
    "hmc": ("mar", "mnar"),
}

_HMC_DEFAULTS = {"n_samples": 5000, "n_leapfrog": 30, "step_size": 0.25,
                 "burn_in": 1000}

# the JSON type of each run-config value (None: null is allowed)
_RUN_TYPES = {"dataset": str, "method": str, "iterations": int, "p": int,
              "n1": (int, None), "block_size": (int, None), "k_prime": int,
              "warm_start": bool, "priors": (dict, None), "seed": int,
              "out": (str, None), "yu_window": float, "hmc": (dict, None),
              "replicates": (list, None)}


@dataclass
class RunConfig:
    dataset: str
    method: str
    iterations: int = 10_000
    p: int = 4
    n1: int | None = None
    block_size: int | None = None
    k_prime: int = 3
    warm_start: bool = False
    priors: PriorSpec = field(default_factory=PriorSpec)
    seed: int = 1
    out: str | None = None
    yu_window: float = 0.2
    hmc: dict = field(default_factory=lambda: dict(_HMC_DEFAULTS))
    replicates: list | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; pick one of {METHODS}")

    @staticmethod
    def from_json(text: str) -> "RunConfig":
        """Parse a run config; an unknown key, at the top or in ``priors`` or
        ``hmc``, a value of the wrong JSON type, or a missing ``dataset`` or
        ``method`` is a ValueError."""
        doc = check_types(json.loads(text), "run config", _RUN_TYPES,
                          ("dataset", "method"))
        priors = check_types(doc.pop("priors", None) or {}, "run config priors",
                             dict.fromkeys((f.name for f in fields(PriorSpec)), float))
        hmc = check_types(doc.pop("hmc", None) or {}, "run config hmc",
                          {k: type(v) for k, v in _HMC_DEFAULTS.items()})
        return RunConfig(priors=PriorSpec(**priors), hmc={**_HMC_DEFAULTS, **hmc}, **doc)

    def to_doc(self) -> dict:
        return asdict(self)


def check_compatibility(method: str, mechanism: str) -> None:
    if mechanism not in _METHOD_MECHANISMS[method]:
        raise ValueError(f"method {method!r} is not applicable under "
                         f"{mechanism.upper()} (allowed: "
                         f"{', '.join(_METHOD_MECHANISMS[method]).upper()})")


def planned_evaluations(cfg: RunConfig) -> int:
    """Target evaluations the fit of ``cfg`` plans: one per SGA step, or
    one per leapfrog step of HMC's burn-in and kept samples and of its first
    step-size pilot, counted at its full PILOT_ITERATIONS though it stops
    once its verdict is certain."""
    if cfg.method == "hmc":
        h = cfg.hmc
        return (PILOT_ITERATIONS + h["burn_in"] + h["n_samples"]) * h["n_leapfrog"]
    return cfg.iterations


def build_target(dataset: Dataset, cfg: RunConfig) -> TargetDensity:
    return TargetDensity(x=dataset.x, weights=dataset.weights,
                         y_obs=dataset.y_obs, pattern=dataset.pattern,
                         priors=cfg.priors, x_star=dataset.x_star,
                         mechanism=dataset.mechanism,
                         evaluations=planned_evaluations(cfg))


def sampler_config_for(method: str, mechanism: str, cfg: RunConfig,
                       target: TargetDensity) -> McmcConfig:
    if method == "hvb-nob":
        return McmcConfig(scheme="nob", n1=cfg.n1 or 10, warm_start=cfg.warm_start)
    k_star = cfg.block_size or default_block_size(target.n_u, mechanism)
    part = make_blocks(target.pattern, k_star, cfg.seed)
    scheme = "randomb" if method == "hvb-3b" else "allb"
    return McmcConfig(scheme=scheme, n1=cfg.n1 or (5 if mechanism == "mar" else 10),
                      partition=part, k_prime=cfg.k_prime, warm_start=cfg.warm_start)


def run_fit(cfg: RunConfig, out_dir: str | Path):
    dataset = load_dataset(cfg.dataset)
    mechanism = dataset.mechanism
    check_compatibility(cfg.method, mechanism)
    target = build_target(dataset, cfg)
    rng = np.random.default_rng(cfg.seed)
    theta0 = default_init_theta(target)
    if cfg.method == "jvb":
        yu0 = draw_initial_yu(target, theta0, rng)
        init = np.concatenate([theta0, yu0])
        res = jvb_fit(target, init, cfg.iterations, cfg.p, rng, seed=cfg.seed)
    elif cfg.method == "hmc":
        hmc_cfg = HmcConfig(n_samples=int(cfg.hmc["n_samples"]),
                            n_leapfrog=int(cfg.hmc["n_leapfrog"]),
                            step_size=float(cfg.hmc["step_size"]),
                            burn_in=int(cfg.hmc["burn_in"]))
        res = hmc_fit(target, hmc_cfg, theta0, rng, seed=cfg.seed)
    else:
        sampler_cfg = sampler_config_for(cfg.method, mechanism, cfg, target)
        res = hvb_fit(target, theta0, cfg.iterations, cfg.p, sampler_cfg, rng,
                      yu_window=cfg.yu_window, seed=cfg.seed,
                      method_tag=cfg.method)
    write_fit_result(res, out_dir, __version__,
                     dataset_digest_value=dataset.digest,
                     config_doc=cfg.to_doc(),
                     unconstrained_names=target.unconstrained_names())
    return res


def _replicate_job(args):
    doc, seed, out_dir = args
    cfg = RunConfig.from_json(json.dumps(doc))
    cfg.seed = seed
    run_fit(cfg, out_dir)
    return seed


def cmd_simulate(args) -> int:
    cfg = SimConfig.from_json(Path(args.config).read_text())
    if args.seed is not None:
        doc = json.loads(cfg.to_json())
        doc["seed"] = args.seed
        cfg = SimConfig.from_json(json.dumps(doc))
    if args.print_config:
        print(cfg.to_json())
        return 0
    out = Path(args.out or "dataset")
    sim = simulate_dataset(cfg)
    write_dataset(sim, cfg, out, __version__)
    print(f"dataset written to {out} (n={cfg.n}, n_u={sim.pattern.n_u}, "
          f"mechanism={sim.mechanism.upper()})")
    return 0


def cmd_fit(args) -> int:
    cfg = RunConfig.from_json(Path(args.config).read_text())
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out = args.out
    if args.print_config:
        print(json.dumps(cfg.to_doc(), indent=2))
        return 0
    out = Path(cfg.out or "run")
    if cfg.replicates:
        jobs = [(cfg.to_doc(), int(s), str(out / f"seed_{int(s)}"))
                for s in cfg.replicates]
        if args.jobs > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
                for seed in pool.map(_replicate_job, jobs):
                    print(f"replicate seed={seed} done")
        else:
            for job in jobs:
                _replicate_job(job)
                print(f"replicate seed={job[1]} done")
        return 0
    res = run_fit(cfg, out)
    means = ", ".join(f"{n}={m:.4f}" for n, m in
                      zip(res.theta_names, res.theta_mean))
    print(f"{res.method} finished in {res.elapsed_seconds:.1f}s; "
          f"posterior means: {means}")
    print(f"artifacts written to {out}")
    return 0


def cmd_compare(args) -> int:
    runs = list(args.runs)
    dataset_dir = None
    if args.config:
        doc = json.loads(Path(args.config).read_text())
        runs = list(doc.get("runs", [])) + runs
        dataset_dir = doc.get("dataset")
    if len(runs) < 2:
        raise SystemExit("compare needs at least two completed fit directories")
    summaries = [read_fit_summary(r) for r in runs]
    digests = []
    for r in runs:
        manifest = json.loads((Path(r) / "manifest.json").read_text())
        digests.append(manifest.get("dataset_digest"))
    if len({d for d in digests if d is not None}) > 1:
        raise SystemExit("refusing to compare fits on different datasets")
    methods = [s["method"] for s in summaries]
    names = summaries[0]["theta_order"]
    truth = None
    y_full = None
    if dataset_dir:
        truth_path = Path(dataset_dir) / "truth.json"
        if truth_path.exists():
            truth = json.loads(truth_path.read_text())
        yf = Path(dataset_dir) / "y_full.csv"
        if yf.exists():
            y_full, _ = read_response(yf)
    header = ["parameter"] + [f"{m} mean (sd)" for m in methods]
    rows = []
    for name in names:
        row = [name]
        for s in summaries:
            cell = s["theta"].get(name)
            row.append("-" if cell is None
                       else f"{cell['mean']:.4f} ({cell['sd']:.4f})")
        rows.append(row)
    if y_full is not None:
        mse_row = ["MSE(y_u)"]
        for r in runs:
            idx, mean, _ = read_missing_posterior(r)
            mse = float(np.mean((mean - y_full[idx]) ** 2)) if idx.size else np.nan
            mse_row.append(f"{mse:.4f}")
        rows.append(mse_row)
    widths = [max(len(str(r[j])) for r in [header] + rows) for j in range(len(header))]
    lines = ["  ".join(str(c).ljust(w) for c, w in zip(r, widths))
             for r in [header] + rows]
    table = "\n".join(lines)
    print(table)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "compare.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        if truth is not None:
            (out / "truth_used.json").write_text(json.dumps(truth, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatialvb",
        description="Spatial error models with missing responses: simulate, "
                    "fit (VB/HMC), and compare runs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic dataset bundle")
    sim.add_argument("--config", required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", default=None)
    sim.add_argument("--print-config", action="store_true")
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="fit one method to a dataset")
    fit.add_argument("--config", required=True)
    fit.add_argument("--seed", type=int, default=None)
    fit.add_argument("--out", default=None)
    fit.add_argument("--jobs", type=int, default=1)
    fit.add_argument("--print-config", action="store_true")
    fit.set_defaults(func=cmd_fit)

    cmp_ = sub.add_parser("compare", help="tabulate two or more completed fits")
    cmp_.add_argument("runs", nargs="*", help="fit output directories")
    cmp_.add_argument("--config", default=None)
    cmp_.add_argument("--out", default=None)
    cmp_.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
