"""Opt-in full-scale reproduction of the large simulated-data comparisons
(n = 10,000 with 75% missing, posterior means and SDs per method).

These runs are deliberately NOT part of the acceptance test suite;
runtimes are hardware-dependent and not asserted anywhere. With the default
10,000 iterations, on one BLAS thread of a 2-vCPU VM, `mar` took 165 s
(JVB 30 s and HVB-G 101 s of fitting, each after a spectrum of W, which then
took ~16 s and now takes 3.4-3.9 s, solved at half order on the bipartite
grid) and `mnar` 393 s (JVB 32 s, HVB-AllB 213 s, HVB-3B 99 s). Start with --scale to
rehearse the pipeline at n = 1,600 first.

    python scripts/reproduce_tables.py mar            # HVB-G vs JVB table
    python scripts/reproduce_tables.py mnar           # HVB-AllB/3B vs JVB table
    python scripts/reproduce_tables.py mar --scale    # n=1,600 rehearsal
"""

import argparse
import json
from pathlib import Path

from spatialvb.cli import main as cli_main


def cli(argv):
    """Run one spatialvb command; a failed command stops the script."""
    if cli_main(argv) != 0:
        raise SystemExit(f"spatialvb {argv[0]} failed")


def run_mar(side, iters, seed, out):
    out.mkdir(parents=True, exist_ok=True)
    sim = {"side": side, "r": 10, "sigma2_true": 1.0, "rho_true": 0.8,
           "mechanism": {"kind": "MAR", "missing_fraction": 0.75}, "seed": seed}
    (out / "sim.json").write_text(json.dumps(sim, indent=2))
    ds = out / "dataset"
    cli(["simulate", "--config", str(out / "sim.json"), "--out", str(ds)])
    runs = []
    for method in ("jvb", "hvb-g"):
        run_dir = out / f"run_{method}"
        cfg = {"dataset": str(ds), "method": method, "iterations": iters,
               "p": 4, "seed": seed, "out": str(run_dir),
               # warm starting runs the Gibbs sweeps from the previous y_u,
               # skipping the direct redraw from its full conditional (a
               # banded GMRF factor) that otherwise starts every iteration
               "warm_start": method == "hvb-g"}
        (out / f"fit_{method}.json").write_text(json.dumps(cfg, indent=2))
        cli(["fit", "--config", str(out / f"fit_{method}.json")])
        runs.append(str(run_dir))
    (out / "compare.json").write_text(json.dumps({"runs": runs, "dataset": str(ds)}))
    cli(["compare", "--config", str(out / "compare.json"),
         "--out", str(out / "table")])


def run_mnar(side, iters, seed, out):
    out.mkdir(parents=True, exist_ok=True)
    sim = {"side": side, "r": 10, "sigma2_true": 1.0, "rho_true": 0.8,
           "mechanism": {"kind": "MNAR", "psi_0": 1.5, "psi_xstar": 0.5,
                         "psi_y": -0.1, "covariate_index": 3}, "seed": seed}
    (out / "sim.json").write_text(json.dumps(sim, indent=2))
    ds = out / "dataset"
    cli(["simulate", "--config", str(out / "sim.json"), "--out", str(ds)])
    runs = []
    for method in ("jvb", "hvb-allb", "hvb-3b"):
        run_dir = out / f"run_{method}"
        cfg = {"dataset": str(ds), "method": method, "iterations": iters,
               "p": 4, "seed": seed, "out": str(run_dir),
               "warm_start": method != "jvb"}
        (out / f"fit_{method}.json").write_text(json.dumps(cfg, indent=2))
        cli(["fit", "--config", str(out / f"fit_{method}.json")])
        runs.append(str(run_dir))
    (out / "compare.json").write_text(json.dumps({"runs": runs, "dataset": str(ds)}))
    cli(["compare", "--config", str(out / "compare.json"),
         "--out", str(out / "table")])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mechanism", choices=["mar", "mnar"])
    parser.add_argument("--scale", action="store_true",
                        help="rehearse at n=1,600 instead of n=10,000")
    parser.add_argument("--iters", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    side = 40 if args.scale else 100
    out = Path(args.out or f"experiments/full_{args.mechanism}_n{side * side}")
    if args.mechanism == "mar":
        run_mar(side, args.iters, args.seed, out)
    else:
        run_mnar(side, args.iters, args.seed, out)
