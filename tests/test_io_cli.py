import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spatialvb import (MarMechanism, MissingPattern, MnarMechanism, SimConfig,
                       build_rook_grid_weights, row_normalize,
                       simulate_dataset)
from spatialvb.cli import RunConfig, main, planned_evaluations
from spatialvb.io import (load_dataset, read_matrix, read_pattern,
                          read_response, read_weights, write_dataset,
                          write_matrix, write_pattern, write_response,
                          write_weights)


def test_weights_round_trip_exact(tmp_path):
    w = row_normalize(build_rook_grid_weights(4))
    path = tmp_path / "W.txt"
    write_weights(w, path)
    back = read_weights(path)
    assert back.row_normalized
    assert abs(w.matrix - back.matrix).max() == 0.0


def test_weights_symmetric_completion(tmp_path):
    path = tmp_path / "W.txt"
    path.write_text("0 1 1.0\n1 2 1.0\n")  # one triangle only
    w = read_weights(path)
    dense = w.matrix.toarray()
    np.testing.assert_array_equal(dense, dense.T)
    assert dense[1, 0] == 1.0 and dense[2, 1] == 1.0


def test_weights_matrix_market_tolerance(tmp_path):
    path = tmp_path / "W.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "% a comment\n"
                    "3 3 4\n"
                    "1 2 1.0\n2 1 1.0\n2 3 1.0\n3 2 1.0\n")
    w = read_weights(path)
    assert w.n == 3
    assert w.matrix[0, 1] == 1.0 and w.matrix[1, 2] == 1.0


def test_weights_reader_rejects_diagonal(tmp_path):
    path = tmp_path / "W.txt"
    path.write_text("0 0 1.0\n")
    with pytest.raises(ValueError, match="diagonal"):
        read_weights(path)


def test_response_round_trip_with_na(tmp_path):
    y = np.array([1.5, -2.25, 0.1234567890123456, 7.0])
    pattern = MissingPattern(m=np.array([0, 1, 0, 1], dtype=np.int8))
    path = tmp_path / "y.csv"
    write_response(y, path, pattern=pattern)
    text = path.read_text().splitlines()
    assert text[0] == "y"
    assert text[2] == "NA" and text[4] == "NA"
    values, back = read_response(path)
    np.testing.assert_array_equal(back.m, pattern.m)
    # observed entries round-trip bit-exactly
    np.testing.assert_array_equal(values[back.observed_idx], y[[0, 2]])


def test_response_rejects_empty_fields(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("y\n1.0\n\n" )  # blank line is skipped, but...
    path.write_text("y\n1.0\n \n")
    with pytest.raises(ValueError, match="NA token"):
        read_response(path)


def test_response_na_case_insensitive(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("y\nna\n2.0\n")
    values, pattern = read_response(path)
    assert pattern.n_u == 1 and np.isnan(values[0])


def test_matrix_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((7, 3))
    path = tmp_path / "X.csv"
    write_matrix(x, path, "x")
    back = read_matrix(path)
    np.testing.assert_array_equal(back, x)
    assert Path(path).read_text().splitlines()[0] == "x0,x1,x2"


def test_pattern_round_trip(tmp_path):
    pattern = MissingPattern(m=np.array([1, 0, 0, 1, 1], dtype=np.int8))
    path = tmp_path / "pattern.csv"
    write_pattern(pattern, path)
    back = read_pattern(path)
    np.testing.assert_array_equal(back.m, pattern.m)


@pytest.mark.parametrize("last_row, message", [
    ("500,1", "line 6: index 500 is outside the 5 units"),
    ("-1,1", "line 6: index -1 is outside the 5 units"),
    ("1,1", "line 6: index 1 repeats"),
])
def test_pattern_reader_names_a_bad_index(tmp_path, last_row, message):
    path = tmp_path / "pattern.csv"
    path.write_text("index,m\n0,1\n1,0\n2,0\n3,1\n" + last_row + "\n")
    with pytest.raises(ValueError, match=message):
        read_pattern(path)


@pytest.mark.parametrize("m", [500, 2, -1])
def test_pattern_reader_names_a_bad_indicator(tmp_path, m):
    path = tmp_path / "pattern.csv"
    path.write_text(f"index,m\n0,1\n1,0\n2,0\n3,1\n4,{m}\n")
    with pytest.raises(ValueError, match=f"line 6: m is {m}; it must be 0 "
                                         r"\(observed\) or 1 \(missing\)"):
        read_pattern(path)


@pytest.mark.parametrize("last_row", ["4,1,0", "4", "4,one", "4,1.0"])
def test_pattern_reader_names_a_malformed_row(tmp_path, last_row):
    path = tmp_path / "pattern.csv"
    path.write_text("index,m\n0,1\n1,0\n2,0\n3,1\n" + last_row + "\n")
    with pytest.raises(ValueError, match=re.escape(
            f"pattern.csv, line 6: expected two integers index,m; got {last_row!r}")):
        read_pattern(path)


@pytest.mark.parametrize("row, message", [
    ("nan", "'nan' is not finite; mark a missing response NA"),
    ("inf", "'inf' is not finite; mark a missing response NA"),
    ("-inf", "'-inf' is not finite; mark a missing response NA"),
    ("2.0,7", "expected one field; got '2.0,7'"),
    ("NA,1", "expected one field; got 'NA,1'"),
    (" ", "empty field; use the explicit NA token"),
])
def test_response_reader_names_a_bad_row(tmp_path, row, message):
    path = tmp_path / "y.csv"
    path.write_text(f"y\n1.0\nNA\n{row}\n")
    with pytest.raises(ValueError, match=re.escape(f"y.csv, line 4: {message}")):
        read_response(path)


@pytest.mark.parametrize("token", ["abc", "1.0.0", "1,5"])
def test_response_reader_names_a_non_numeric_token(tmp_path, token):
    path = tmp_path / "y.csv"
    path.write_text(f'y\n1.0\nNA\n"{token}"\n')
    with pytest.raises(ValueError, match=re.escape(
            f"y.csv, line 4: {token!r} is neither a number nor NA")):
        read_response(path)


def test_dataset_round_trip_mar(tmp_path):
    cfg = SimConfig(side=4, r=2, mechanism=MarMechanism(missing_fraction=0.3),
                    seed=5)
    sim = simulate_dataset(cfg)
    write_dataset(sim, cfg, tmp_path / "ds", "0.1.0")
    ds = load_dataset(tmp_path / "ds")
    np.testing.assert_array_equal(ds.x, sim.x)
    np.testing.assert_array_equal(ds.pattern.m, sim.pattern.m)
    np.testing.assert_array_equal(ds.y_obs, sim.y_obs)
    np.testing.assert_array_equal(ds.y_full, sim.y_full)
    assert abs(ds.weights.matrix - sim.weights.matrix).max() == 0.0
    assert ds.mechanism == "mar"
    assert ds.truth["rho"] == cfg.rho_true


def test_dataset_round_trip_mnar(tmp_path):
    cfg = SimConfig(side=4, r=3,
                    mechanism=MnarMechanism(psi_0=0.5, psi_xstar=0.5,
                                            psi_y=-0.2, covariate_index=1),
                    seed=6)
    sim = simulate_dataset(cfg)
    write_dataset(sim, cfg, tmp_path / "ds", "0.1.0")
    ds = load_dataset(tmp_path / "ds")
    assert ds.mechanism == "mnar"
    np.testing.assert_array_equal(ds.x_star, sim.selection.x_star)
    assert ds.truth["psi"]["psi_y"] == -0.2


# -- CLI ----------------------------------------------------------------------
#
# Config keys are checked strictly: an unknown key, at the top or in a nested
# block, or a missing required key, stops the command with exit code 2.


def write_sim_config(tmp_path, side=4, mechanism=None, seed=9, r=2):
    mech = mechanism or {"kind": "MAR", "missing_fraction": 0.3}
    doc = {"side": side, "r": r, "sigma2_true": 1.0, "rho_true": 0.5,
           "mechanism": mech, "seed": seed}
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(doc))
    return cfg_path


def test_cli_simulate_writes_bundle(tmp_path, capsys):
    cfg_path = write_sim_config(tmp_path)
    out = tmp_path / "ds"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    for name in ("y.csv", "y_full.csv", "X.csv", "W.txt", "pattern.csv",
                 "truth.json", "manifest.json"):
        assert (out / name).exists()
    values, pattern = read_response(out / "y.csv")
    assert pattern.n_u == round(16 * 0.3)


def test_cli_simulate_deterministic_bytes(tmp_path):
    cfg_path = write_sim_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(cfg_path), "--out", str(out1)])
    main(["simulate", "--config", str(cfg_path), "--out", str(out2)])
    for name in ("y.csv", "X.csv", "W.txt", "pattern.csv", "truth.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def run_config(dataset, method, out, iterations=60, extra=None):
    doc = {"dataset": str(dataset), "method": method,
           "iterations": iterations, "p": 2, "seed": 3, "out": str(out)}
    doc.update(extra or {})
    return doc


def make_dataset(tmp_path, mechanism=None, seed=9):
    cfg_path = write_sim_config(tmp_path, mechanism=mechanism, seed=seed)
    out = tmp_path / "ds"
    main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    return out


def test_cli_fit_jvb_and_summary_contract(tmp_path):
    ds = make_dataset(tmp_path)
    run_dir = tmp_path / "run_jvb"
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps(run_config(ds, "jvb", run_dir)))
    assert main(["fit", "--config", str(cfg)]) == 0
    summary = json.loads((run_dir / "summary.json").read_text())
    names = summary["theta_order"]
    assert names[:3] == ["beta0", "beta1", "beta2"]
    assert "sigma2_y" in names and "rho" in names
    for name in names:
        assert set(summary["theta"][name]) == {"mean", "sd"}
    assert (run_dir / "elbo_trace.csv").exists()
    assert (run_dir / "mean_trajectory.csv").exists()
    idx, mean, sd = __import__("spatialvb.io", fromlist=["read_missing_posterior"]) \
        .read_missing_posterior(run_dir)
    assert idx.size == round(16 * 0.3)


def test_cli_fit_rejects_incompatible_method(tmp_path, capsys):
    ds = make_dataset(tmp_path)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(run_config(ds, "hvb-3b", tmp_path / "x")))
    rc = main(["fit", "--config", str(cfg)])
    assert rc == 2
    assert "not applicable" in capsys.readouterr().err


def test_cli_fit_hvb_nob_mar(tmp_path):
    ds = make_dataset(tmp_path)
    run_dir = tmp_path / "run_hvb"
    cfg = tmp_path / "fit2.json"
    cfg.write_text(json.dumps(run_config(ds, "hvb-nob", run_dir)))
    assert main(["fit", "--config", str(cfg)]) == 0
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["tuning"]["scheme"] == "nob"
    assert summary["tuning"]["mean_acceptance"] is None
    assert summary["flags"]["elbo_is_proxy"] is True


def test_cli_fit_hvb_nob_records_no_n1_or_warm_start_for_the_exact_mar_draw(tmp_path):
    # under MAR hvb-nob makes one exact draw, which reads neither; under MNAR
    # both steer its Metropolis chain
    extra = {"n1": 7, "warm_start": True}
    mnar = {"kind": "MNAR", "psi_0": 0.2, "psi_xstar": 0.5, "psi_y": -0.2,
            "covariate_index": 1}
    for mechanism, recorded in ((None, (None, None)), (mnar, (7, True))):
        case = tmp_path / ("mnar" if mechanism else "mar")
        case.mkdir()
        ds = make_dataset(case, mechanism=mechanism)
        run_dir = case / "run"
        cfg = case / "fit.json"
        cfg.write_text(json.dumps(run_config(ds, "hvb-nob", run_dir, iterations=5,
                                             extra=extra)))
        assert main(["fit", "--config", str(cfg)]) == 0
        tuning = json.loads((run_dir / "summary.json").read_text())["tuning"]
        assert (tuning["n1"], tuning["warm_start"]) == recorded


def test_cli_fit_hvb_g_runs_the_allb_scheme_under_mar(tmp_path):
    ds = make_dataset(tmp_path)
    run_dir = tmp_path / "run_hvb_g"
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps(run_config(ds, "hvb-g", run_dir)))
    assert main(["fit", "--config", str(cfg)]) == 0
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["method"] == "hvb-g"
    assert summary["tuning"]["scheme"] == "allb"
    assert summary["tuning"]["n1"] == 5
    assert summary["tuning"]["mean_acceptance"] is None


def test_cli_fit_hvb_allb_mnar_and_hvb_g_guard(tmp_path):
    mnar = {"kind": "MNAR", "psi_0": 0.2, "psi_xstar": 0.5, "psi_y": -0.2,
            "covariate_index": 1}
    ds = make_dataset(tmp_path, mechanism=mnar, seed=12)
    run_dir = tmp_path / "run_allb"
    cfg = tmp_path / "fit3.json"
    cfg.write_text(json.dumps(run_config(ds, "hvb-allb", run_dir,
                                         extra={"block_size": 2, "n1": 3})))
    assert main(["fit", "--config", str(cfg)]) == 0
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["tuning"]["scheme"] == "allb"
    assert summary["tuning"]["mean_acceptance"] is not None
    # hvb-g demands MAR
    cfg.write_text(json.dumps(run_config(ds, "hvb-g", tmp_path / "xx")))
    assert main(["fit", "--config", str(cfg)]) == 2


def test_cli_fit_hmc_chain_shape(tmp_path):
    ds = make_dataset(tmp_path)
    run_dir = tmp_path / "run_hmc"
    cfg = tmp_path / "fit4.json"
    cfg.write_text(json.dumps(run_config(
        ds, "hmc", run_dir,
        extra={"hmc": {"n_samples": 40, "n_leapfrog": 5, "step_size": 0.1,
                       "burn_in": 20}})))
    assert main(["fit", "--config", str(cfg)]) == 0
    lines = (run_dir / "chain.csv").read_text().splitlines()
    header = lines[0].split(",")
    n_u = round(16 * 0.3)
    assert len(header) == 5 + n_u  # beta0..2, gamma, rho_logit, yu...
    assert len(lines) == 1 + 40
    assert header[3] == "gamma" and header[4] == "rho_logit"
    assert header[5].startswith("yu")


def test_cli_compare_table_and_mse(tmp_path, capsys):
    ds = make_dataset(tmp_path)
    runs = []
    for method in ("jvb", "hvb-nob"):
        run_dir = tmp_path / f"cmp_{method}"
        cfg = tmp_path / f"cmp_{method}.json"
        cfg.write_text(json.dumps(run_config(ds, method, run_dir)))
        assert main(["fit", "--config", str(cfg)]) == 0
        runs.append(str(run_dir))
    compare_cfg = tmp_path / "compare.json"
    compare_cfg.write_text(json.dumps({"runs": runs, "dataset": str(ds)}))
    out = tmp_path / "cmp_out"
    assert main(["compare", "--config", str(compare_cfg), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "jvb mean (sd)" in printed and "hvb-nob mean (sd)" in printed
    assert "MSE(y_u)" in printed
    assert (out / "compare.csv").exists()


def test_cli_compare_requires_two_runs(tmp_path):
    with pytest.raises(SystemExit):
        main(["compare", str(tmp_path / "only_one")])


def test_cli_compare_refuses_mixed_datasets(tmp_path):
    ds1 = make_dataset(tmp_path, seed=1)
    ds2_cfg = write_sim_config(tmp_path, seed=2)
    ds2 = tmp_path / "ds2"
    main(["simulate", "--config", str(ds2_cfg), "--out", str(ds2)])
    runs = []
    for name, ds in (("r1", ds1), ("r2", ds2)):
        run_dir = tmp_path / name
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(run_config(ds, "jvb", run_dir, iterations=30)))
        main(["fit", "--config", str(cfg)])
        runs.append(str(run_dir))
    with pytest.raises(SystemExit, match="different datasets"):
        main(["compare"] + runs)


def test_cli_print_config_echoes_resolved(tmp_path, capsys):
    ds = make_dataset(tmp_path)
    cfg = tmp_path / "fit5.json"
    cfg.write_text(json.dumps(run_config(ds, "jvb", tmp_path / "nope")))
    capsys.readouterr()  # drop the simulate command's output
    assert main(["fit", "--config", str(cfg), "--print-config"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "jvb" and doc["p"] == 2
    assert not (tmp_path / "nope").exists()
    # the resolved document, which replicate jobs re-read, parses as it is
    assert RunConfig.from_json(json.dumps(doc)).to_doc() == doc


def _edit(doc, path, value):
    """``doc`` with the key at ``path`` set to ``value``, or removed if
    ``value`` is None."""
    doc = json.loads(json.dumps(doc))
    *parents, key = path
    inner = doc
    for name in parents:
        inner = inner.setdefault(name, {})
    if value is None:
        del inner[key]
    else:
        inner[key] = value
    return doc


@pytest.mark.parametrize("path, value, message", [
    (("draws_per_iteraton",), 2, "run config: unknown key 'draws_per_iteraton'"),
    (("draws_per_iteration",), 1, "run config: unknown key 'draws_per_iteration'"),
    (("hmc", "mass"), 1, "run config hmc: unknown key 'mass'"),
    (("priors", "var_sigma"), 1.0, "run config priors: unknown key 'var_sigma'"),
    (("method",), None, "run config: missing required key 'method'"),
])
def test_cli_fit_refuses_unknown_and_missing_keys(tmp_path, capsys, path, value,
                                                   message):
    ds = make_dataset(tmp_path)
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps(_edit(run_config(ds, "jvb", tmp_path / "run"),
                                    path, value)))
    capsys.readouterr()
    assert main(["fit", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("path, value, message", [
    (("iterations",), "10", "run config: 'iterations' must be an integer, got '10'"),
    (("iterations",), True, "run config: 'iterations' must be an integer, got True"),
    (("p",), 2.0, "run config: 'p' must be an integer, got 2.0"),
    (("n1",), "5", "run config: 'n1' must be an integer or null, got '5'"),
    (("yu_window",), "0.2", "run config: 'yu_window' must be a number, got '0.2'"),
    (("warm_start",), 1, "run config: 'warm_start' must be true or false, got 1"),
    (("dataset",), 7, "run config: 'dataset' must be a string, got 7"),
    (("replicates",), 3, "run config: 'replicates' must be a list or null, got 3"),
    (("hmc",), [30], "run config: 'hmc' must be an object or null, got [30]"),
    (("hmc", "n_leapfrog"), "30",
     "run config hmc: 'n_leapfrog' must be an integer, got '30'"),
    (("hmc", "step_size"), False,
     "run config hmc: 'step_size' must be a number, got False"),
    (("priors", "var_beta"), "1e4",
     "run config priors: 'var_beta' must be a number, got '1e4'"),
])
def test_cli_fit_refuses_values_of_the_wrong_type(tmp_path, capsys, path, value,
                                                  message):
    ds = make_dataset(tmp_path)
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps(_edit(run_config(ds, "jvb", tmp_path / "run"),
                                    path, value)))
    capsys.readouterr()
    assert main(["fit", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_config_type_tables_name_every_field():
    from dataclasses import fields

    from spatialvb import cli, simulate
    assert set(cli._RUN_TYPES) == {f.name for f in fields(RunConfig)}
    assert set(simulate._SIM_TYPES) == {f.name for f in fields(SimConfig)}


def test_planned_evaluations_follow_the_config():
    assert planned_evaluations(RunConfig(dataset="d", method="hvb-g",
                                         iterations=123)) == 123
    hmc = RunConfig(dataset="d", method="hmc",
                    hmc={"n_samples": 100, "burn_in": 50, "n_leapfrog": 30,
                         "step_size": 0.1})
    # the first step-size pilot, burn-in and kept samples, a gradient per leapfrog step
    assert planned_evaluations(hmc) == (200 + 50 + 100) * 30


def test_run_config_takes_an_integer_where_a_number_is_expected(tmp_path, capsys):
    ds = make_dataset(tmp_path)
    doc = run_config(ds, "hmc", tmp_path / "run")
    doc.update(yu_window=1, priors={"var_beta": 100},
               hmc={"step_size": 1, "n_samples": 10})
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["fit", "--config", str(cfg), "--print-config"]) == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["yu_window"] == 1.0 and isinstance(resolved["yu_window"], float)
    assert resolved["priors"]["var_beta"] == 100.0
    assert resolved["hmc"]["step_size"] == 1.0
    assert isinstance(resolved["hmc"]["step_size"], float)
    assert resolved["hmc"]["n_samples"] == 10


@pytest.mark.parametrize("path, value, message", [
    (("side",), "10", "sim config: 'side' must be an integer, got '10'"),
    (("seed",), True, "sim config: 'seed' must be an integer, got True"),
    (("rho_true",), "0.8", "sim config: 'rho_true' must be a number, got '0.8'"),
    (("mechanism", "missing_fraction"), "0.75",
     "sim config mechanism MAR: 'missing_fraction' must be a number, got '0.75'"),
])
def test_cli_simulate_refuses_values_of_the_wrong_type(tmp_path, capsys, path,
                                                       value, message):
    cfg_path = write_sim_config(tmp_path)
    cfg_path.write_text(json.dumps(_edit(json.loads(cfg_path.read_text()),
                                         path, value)))
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(tmp_path / "ds")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("path, value, message", [
    (("side",), None, "sim config: missing required key 'side'"),
    (("sigma2",), 4.0, "sim config: unknown key 'sigma2'"),
    (("mechanism",), None, "sim config: missing required key 'mechanism'"),
    (("mechanism", "missing_fraction"), None,
     "sim config mechanism MAR: missing required key 'missing_fraction'"),
    (("mechanism", "psi_y"), -0.2, "sim config mechanism MAR: unknown key 'psi_y'"),
    (("mechanism", "rate"), 0.5, "sim config mechanism: unknown key 'rate'"),
])
def test_cli_simulate_refuses_unknown_and_missing_keys(tmp_path, capsys, path,
                                                       value, message):
    cfg_path = write_sim_config(tmp_path)
    cfg_path.write_text(json.dumps(_edit(json.loads(cfg_path.read_text()),
                                         path, value)))
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(tmp_path / "ds")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


def test_cli_seed_override(tmp_path):
    ds = make_dataset(tmp_path)
    outs = []
    for seed, name in ((11, "s11"), (12, "s12")):
        run_dir = tmp_path / name
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(run_config(ds, "jvb", run_dir, iterations=40)))
        assert main(["fit", "--config", str(cfg), "--seed", str(seed)]) == 0
        outs.append(json.loads((run_dir / "summary.json").read_text()))
    assert outs[0]["seed"] == 11 and outs[1]["seed"] == 12


def test_cli_entry_point_installed():
    proc = subprocess.run([sys.executable, "-m", "spatialvb.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


def test_cli_fit_replicates_with_jobs(tmp_path):
    ds = make_dataset(tmp_path)
    out = tmp_path / "reps"
    cfg = tmp_path / "reps.json"
    cfg.write_text(json.dumps(run_config(ds, "jvb", out, iterations=40,
                                         extra={"replicates": [5, 6, 7]})))
    assert main(["fit", "--config", str(cfg), "--jobs", "2"]) == 0
    for seed in (5, 6, 7):
        summary = json.loads((out / f"seed_{seed}" / "summary.json").read_text())
        assert summary["seed"] == seed
    # replicate with the same seed is byte-identical when run again serially
    out2 = tmp_path / "reps2"
    cfg.write_text(json.dumps(run_config(ds, "jvb", out2, iterations=40,
                                         extra={"replicates": [5]})))
    assert main(["fit", "--config", str(cfg)]) == 0
    assert ((out / "seed_5" / "missing_posterior.csv").read_bytes()
            == (out2 / "seed_5" / "missing_posterior.csv").read_bytes())


_NUMERIC_ARTIFACTS = ("elbo_trace.csv", "mean_trajectory.csv",
                      "missing_posterior.csv", "chain.csv")


def test_cli_fit_deterministic_bytes(tmp_path):
    mnar = {"kind": "MNAR", "psi_0": 0.2, "psi_xstar": 0.5, "psi_y": -0.2,
            "covariate_index": 1}
    hmc = {"hmc": {"n_samples": 6, "n_leapfrog": 3, "step_size": 0.5, "burn_in": 2}}
    for mechanism, methods in (("mar", ("jvb", "hvb-nob", "hvb-g", "hmc")),
                               ("mnar", ("jvb", "hvb-nob", "hvb-allb", "hvb-3b",
                                         "hmc"))):
        cfg_path = write_sim_config(tmp_path, side=5, seed=4,
                                    mechanism=mnar if mechanism == "mnar" else None)
        ds = tmp_path / f"ds_{mechanism}"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(ds)]) == 0
        for method in methods:
            runs = [tmp_path / f"{method}_{mechanism}_{k}" for k in range(2)]
            for run_dir in runs:
                cfg = tmp_path / "fit.json"
                cfg.write_text(json.dumps(run_config(
                    ds, method, run_dir, iterations=8,
                    extra=hmc if method == "hmc" else None)))
                assert main(["fit", "--config", str(cfg)]) == 0, method
            names = [n for n in _NUMERIC_ARTIFACTS if (runs[0] / n).exists()]
            assert ("chain.csv" in names) == (method == "hmc")
            for name in names:
                assert ((runs[0] / name).read_bytes()
                        == (runs[1] / name).read_bytes()), (method, name)
            summaries = [[line for line in (r / "summary.json").read_text().splitlines()
                          if '"elapsed_seconds"' not in line] for r in runs]
            assert summaries[0] == summaries[1], method


def test_fit_artifact_schemas(tmp_path):
    ds = make_dataset(tmp_path)
    run_dir = tmp_path / "schema_run"
    cfg = tmp_path / "schema.json"
    cfg.write_text(json.dumps(run_config(ds, "jvb", run_dir, iterations=25)))
    assert main(["fit", "--config", str(cfg)]) == 0
    elbo_lines = (run_dir / "elbo_trace.csv").read_text().splitlines()
    assert elbo_lines[0] == "iteration,value"
    assert len(elbo_lines) == 1 + 25
    traj_lines = (run_dir / "mean_trajectory.csv").read_text().splitlines()
    assert traj_lines[0] == "iteration,beta0,beta1,beta2,gamma,rho_logit"
    assert len(traj_lines) == 1 + 25
    mp_lines = (run_dir / "missing_posterior.csv").read_text().splitlines()
    assert mp_lines[0] == "index,mean,sd"
    assert len(mp_lines) == 1 + round(16 * 0.3)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["kind"] == "fit" and manifest["dataset_digest"]
    assert (run_dir / "run_config.json").exists()


# -- readers against the line-by-line reference -------------------------------


_WEIGHT_FILES = {
    "market": ("%%MatrixMarket matrix coordinate real general\n% a comment\n"
               "4 4 5\n1 2 0.5\n2 1 0.25\n2 3 1e-3\n3 2 7\n4 3 0.1\n"),
    "two-column": "0 1\n1 2\n2 0\n1 0\n",
    "comma-separated": "0,1,0.1\n1, 0, 0.2\n1 ,2,0.30000000000000004\n2,1,3\n",
    "commented": ("# neighbours\n\n0 1 1.5\n  % aside\n1 0 2.5\n\n"
                  "# tail\n2 3 0.125\n3 2 0.125\n0 1 1.5\n"),
    "one-triangle": "0 1 0.5\n0 2 0.25\n1 3 2.0\n2 3 0.1\n",
    "mixed-width": "0 1\n1 2 0.5\n2 1 0.5\n",
}


@pytest.mark.parametrize("name", sorted(_WEIGHT_FILES))
def test_weights_reader_equals_line_reference(tmp_path, name):
    from reference_parsers import read_weights_lines
    path = tmp_path / "W.txt"
    path.write_text(_WEIGHT_FILES[name])
    got, want = read_weights(path).matrix, read_weights_lines(path)
    assert got.shape == want.shape
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_dataset_readers_equal_line_reference(tmp_path):
    from reference_parsers import read_matrix_lines, read_weights_lines
    mnar = {"kind": "MNAR", "psi_0": 0.2, "psi_xstar": 0.5, "psi_y": -0.2,
            "covariate_index": 1}
    ds = make_dataset(tmp_path, mechanism=mnar, seed=4)
    for name in ("X.csv", "Xstar.csv"):
        got, want = read_matrix(ds / name), read_matrix_lines(ds / name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    got, want = read_weights(ds / "W.txt").matrix, read_weights_lines(ds / "W.txt")
    assert got.data.tobytes() == want.data.tobytes()
    assert got.indices.tobytes() == want.indices.tobytes()


@pytest.mark.parametrize("text, message", [
    ("0 1 1.0\n1 1 1.0\n", "diagonal weight entry at unit 1"),
    ("0 1 1.0\n1 0 1.0\n0 1 2.0\n", r"conflicting duplicate entry at \(0, 1\)"),
    ("0 1 1.0\n0 1 2.0\n2 2 1.0\n", r"conflicting duplicate entry at \(0, 1\)"),
    ("2 2 1.0\n0 1 1.0\n0 1 2.0\n", "diagonal weight entry at unit 2"),
    ("0 1 1.0\n1 0 1.0 9\n", "malformed triplet line: '1 0 1.0 9'"),
    ("%%MatrixMarket matrix coordinate real general\n3 4 2\n1 2 1.0\n",
     "weight matrix must be square"),
    ("# only comments\n", "no weight entries found"),
])
def test_weights_reader_errors_match_line_reference(tmp_path, text, message):
    from reference_parsers import read_weights_lines
    path = tmp_path / "W.txt"
    path.write_text(text)
    for reader in (read_weights, read_weights_lines):
        with pytest.raises(ValueError, match=message):
            reader(path)


@pytest.mark.parametrize("body", ["1.0,2.0\n3.0\n", "1.0,2.0,3.0\n4.0,5.0,6.0\n"])
def test_matrix_reader_names_ragged_row(tmp_path, body):
    from reference_parsers import read_matrix_lines
    path = tmp_path / "X.csv"
    path.write_text("x0,x1\n" + body)
    for reader in (read_matrix, read_matrix_lines):
        with pytest.raises(ValueError, match="ragged row"):
            reader(path)


# -- datasets the simulator does not write -------------------------------------


def _fully_observed(tmp_path, mechanism):
    """An 8 x 8 dataset whose every response is observed."""
    cfg_path = write_sim_config(tmp_path, side=8, mechanism=mechanism, seed=5)
    out = tmp_path / "full"
    main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    (out / "y.csv").write_text((out / "y_full.csv").read_text())
    for name in ("pattern.csv", "manifest.json"):
        (out / name).unlink()
    return out


@pytest.mark.parametrize("mechanism, methods", [
    (None, ("hvb-nob", "hvb-g")),
    ({"kind": "MNAR", "psi_0": 0.2, "psi_xstar": 0.5, "psi_y": -0.2,
      "covariate_index": 1}, ("hvb-nob", "hvb-allb", "hvb-3b")),
])
def test_cli_hvb_methods_run_with_nothing_missing(tmp_path, mechanism, methods):
    ds = _fully_observed(tmp_path, mechanism)
    for method in methods:
        run_dir = tmp_path / method
        cfg = tmp_path / f"{method}.json"
        cfg.write_text(json.dumps(run_config(ds, method, run_dir, iterations=10)))
        assert main(["fit", "--config", str(cfg)]) == 0, method
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["method"] == method
        assert all(np.isfinite(v["mean"]) for v in summary["theta"].values())


def test_cli_names_the_row_sum_gap_of_short_printed_weights(tmp_path, capsys):
    cfg_path = write_sim_config(tmp_path, side=10, seed=6)
    ds = tmp_path / "ds"
    main(["simulate", "--config", str(cfg_path), "--out", str(ds)])
    w = read_weights(ds / "W.txt")
    coo = w.matrix.tocoo()
    (ds / "W.txt").write_text("".join(f"{i} {j} {v:.6g}\n"
                                      for i, j, v in zip(coo.row, coo.col, coo.data)))
    assert not read_weights(ds / "W.txt").row_normalized
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps(run_config(ds, "jvb", tmp_path / "run", iterations=5)))
    assert main(["fit", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "largest |row sum - 1| is 1e-06" in err
    assert "full precision" in err and "row_normalize" in err


def _island_dataset(tmp_path):
    """The 4 x 4 dataset with unit 15, the highest index, cut off from its
    neighbours and the other rows renormalised: W.txt then holds no entry
    that names unit 15."""
    from scipy import sparse
    from spatialvb import SpatialWeights
    ds = make_dataset(tmp_path)
    keep = sparse.diags((np.arange(16) != 15).astype(float))
    m = (keep @ build_rook_grid_weights(4).matrix @ keep).tocsr()
    m.eliminate_zeros()
    sums = np.asarray(m.sum(axis=1)).ravel()
    m = (sparse.diags(1.0 / np.maximum(sums, 1.0)) @ m).tocsr()
    write_weights(SpatialWeights(matrix=m, row_normalized=True), ds / "W.txt")
    return ds


def test_cli_fit_keeps_an_island_at_the_highest_index(tmp_path):
    ds = _island_dataset(tmp_path)
    assert read_weights(ds / "W.txt").n == 15   # the file alone cannot tell
    assert load_dataset(ds).weights.n == 16     # y.csv has 16 units
    for method in ("jvb", "hvb-g"):
        cfg = tmp_path / f"{method}.json"
        cfg.write_text(json.dumps(run_config(ds, method, tmp_path / method,
                                             iterations=10)))
        assert main(["fit", "--config", str(cfg)]) == 0, method


@pytest.mark.parametrize("index, message", [
    (500, "index 500 is outside the 16 units"),
    (-1, "index -1 is outside the 16 units"),
    (0, "index 0 repeats"),
])
def test_cli_fit_names_a_bad_pattern_index(tmp_path, capsys, index, message):
    ds = make_dataset(tmp_path)
    lines = (ds / "pattern.csv").read_text().splitlines()
    lines[-1] = f"{index},{lines[-1].split(',')[1]}"
    (ds / "pattern.csv").write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps(run_config(ds, "jvb", tmp_path / "run", iterations=5)))
    assert main(["fit", "--config", str(cfg)]) == 2
    assert f"pattern.csv, line 17: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("name, row, message", [
    ("pattern.csv", "15,1,0", "expected two integers index,m; got '15,1,0'"),
    ("pattern.csv", "15,x", "expected two integers index,m; got '15,x'"),
    ("y.csv", "abc", "'abc' is neither a number nor NA"),
    ("y.csv", "inf", "'inf' is not finite; mark a missing response NA"),
    ("y.csv", "2.0,7", "expected one field; got '2.0,7'"),
])
def test_cli_fit_names_a_malformed_row(tmp_path, capsys, name, row, message):
    ds = make_dataset(tmp_path)
    lines = (ds / name).read_text().splitlines()
    lines[-1] = row
    (ds / name).write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps(run_config(ds, "jvb", tmp_path / "run", iterations=5)))
    assert main(["fit", "--config", str(cfg)]) == 2
    assert f"{name}, line 17: {message}" in capsys.readouterr().err


def test_cli_fit_names_a_weight_index_past_the_units(tmp_path, capsys):
    ds = make_dataset(tmp_path)
    with open(ds / "W.txt", "a") as fh:
        fh.write("3 16 0.5\n")
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps(run_config(ds, "jvb", tmp_path / "run", iterations=5)))
    assert main(["fit", "--config", str(cfg)]) == 2
    assert "weight entry '3 16 0.5' indexes a unit outside the 16 units" in \
        capsys.readouterr().err
