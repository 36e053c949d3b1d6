"""MNAR simulation experiment: logistic selection missingness, fits with
JVB and the blocked Metropolis HVB variants, comparison table at the end.

Example (~8 minutes at the default scale):
    python scripts/run_mnar_simulation.py --side 25 --iters 10000
"""

import argparse
import json
from pathlib import Path

from spatialvb.cli import main as cli_main


def cli(argv):
    """Run one spatialvb command; a failed command stops the script."""
    if cli_main(argv) != 0:
        raise SystemExit(f"spatialvb {argv[0]} failed")


def run(side, psi_0, psi_xstar, psi_y, iters, seed, out, methods):
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    sim_cfg = {"side": side, "r": 10, "sigma2_true": 1.0, "rho_true": 0.8,
               "mechanism": {"kind": "MNAR", "psi_0": psi_0,
                             "psi_xstar": psi_xstar, "psi_y": psi_y,
                             "covariate_index": 3},
               "seed": seed}
    sim_path = out / "sim.json"
    sim_path.write_text(json.dumps(sim_cfg, indent=2))
    ds = out / "dataset"
    cli(["simulate", "--config", str(sim_path), "--out", str(ds)])

    runs = []
    for method in methods:
        run_dir = out / f"run_{method}"
        fit_cfg = {"dataset": str(ds), "method": method, "iterations": iters,
                   "p": 4, "seed": seed, "out": str(run_dir)}
        cfg_path = out / f"fit_{method}.json"
        cfg_path.write_text(json.dumps(fit_cfg, indent=2))
        cli(["fit", "--config", str(cfg_path)])
        runs.append(str(run_dir))

    cmp_cfg = out / "compare.json"
    cmp_cfg.write_text(json.dumps({"runs": runs, "dataset": str(ds)}))
    cli(["compare", "--config", str(cmp_cfg), "--out", str(out / "compare")])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--side", type=int, default=25)
    parser.add_argument("--psi0", type=float, default=1.5)
    parser.add_argument("--psi-xstar", type=float, default=0.5)
    parser.add_argument("--psi-y", type=float, default=-0.1)
    parser.add_argument("--iters", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", default="experiments/mnar")
    parser.add_argument("--methods", nargs="+",
                        default=["jvb", "hvb-nob", "hvb-allb", "hvb-3b"])
    args = parser.parse_args()
    run(args.side, args.psi0, args.psi_xstar, args.psi_y, args.iters,
        args.seed, args.out, args.methods)
