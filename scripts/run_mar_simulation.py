"""MAR simulation experiment: simulate a gridded dataset, fit JVB and the
appropriate HVB variant, and print a comparison table.

Example (the scaled-down protocol, ~3 minutes):
    python scripts/run_mar_simulation.py --side 25 --missing 0.75 --iters 10000
"""

import argparse
import json
from pathlib import Path

from spatialvb.cli import main as cli_main


def cli(argv):
    """Run one spatialvb command; a failed command stops the script."""
    if cli_main(argv) != 0:
        raise SystemExit(f"spatialvb {argv[0]} failed")


def run(side, missing, iters, seed, out):
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    sim_cfg = {"side": side, "r": 10, "sigma2_true": 1.0, "rho_true": 0.8,
               "mechanism": {"kind": "MAR", "missing_fraction": missing},
               "seed": seed}
    sim_path = out / "sim.json"
    sim_path.write_text(json.dumps(sim_cfg, indent=2))
    ds = out / "dataset"
    cli(["simulate", "--config", str(sim_path), "--out", str(ds)])

    n_u = round(side * side * missing)
    hvb_method = "hvb-g" if n_u > 1000 else "hvb-nob"
    runs = []
    for method in ("jvb", hvb_method):
        run_dir = out / f"run_{method}"
        fit_cfg = {"dataset": str(ds), "method": method, "iterations": iters,
                   "p": 4, "seed": seed, "out": str(run_dir)}
        if method == "hvb-g":
            fit_cfg["warm_start"] = True  # skip the banded-factor redraw before Gibbs
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
    parser.add_argument("--missing", type=float, default=0.75)
    parser.add_argument("--iters", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", default="experiments/mar")
    args = parser.parse_args()
    run(args.side, args.missing, args.iters, args.seed, args.out)
