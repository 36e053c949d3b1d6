"""File formats: weight-matrix triplets, delimited data with NA markers,
and the artifact layout written by the CLI.

Reals are serialized with repr(), the shortest decimal that round-trips, so
replicate comparisons are exact.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from .missing import MissingPattern
from .vb import FitResult
from .weights import ROW_SUM_ATOL, SpatialWeights, row_sum_gap

NA_TOKEN = "NA"
_TRIPLET = np.dtype([("i", np.intp), ("j", np.intp), ("v", float)])


def _fmt(x) -> str:
    return repr(float(x))


def _fmt_rows(mat: np.ndarray):
    """Rows of ``mat`` as lists of ``_fmt`` strings, each row read through
    one ``tolist`` instead of one numpy scalar per value."""
    return (list(map(repr, row.tolist())) for row in np.asarray(mat, dtype=float))


def check_keys(doc, where: str, known, required=()) -> dict:
    """``doc`` if it is a JSON object with no key outside ``known`` and every
    key of ``required``; otherwise a ValueError naming the offending key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {doc!r}")
    for key in doc:
        if key not in known:
            raise ValueError(f"{where}: unknown key {key!r} "
                             f"(known: {', '.join(sorted(known))})")
    for key in required:
        if key not in doc:
            raise ValueError(f"{where}: missing required key {key!r}")
    return doc


_JSON_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number",
                    str: "a string", list: "a list", dict: "an object",
                    None: "null"}


def _has_json_type(value, kind) -> bool:
    if kind is None:
        return value is None
    if isinstance(value, bool):      # JSON true/false is no number
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def check_types(doc, where: str, types: dict, required=()) -> dict:
    """``doc`` checked by :func:`check_keys` with the keys of ``types``, and
    each value against the JSON type that ``types`` gives its key: bool,
    int, float, str, list, dict, or a tuple of them with None for null. An
    int is a float too, and is returned as one; a JSON true or false is no
    number. A value of another type is a ValueError naming its key."""
    out = {}
    for key, value in check_keys(doc, where, types, required).items():
        kinds = types[key] if isinstance(types[key], tuple) else (types[key],)
        if not any(_has_json_type(value, kind) for kind in kinds):
            want = " or ".join(_JSON_TYPE_NAMES[kind] for kind in kinds)
            raise ValueError(f"{where}: {key!r} must be {want}, got {value!r}")
        out[key] = float(value) if float in kinds and isinstance(value, int) else value
    return out


# -- weight matrices ----------------------------------------------------------


def write_weights(w: SpatialWeights, path) -> None:
    """Coordinate triplets `i j weight`, 0-based, both triangles."""
    coo = w.matrix.tocoo()
    with open(path, "w") as fh:
        for i, j, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{i} {j} {_fmt(v)}\n")


def read_weights(path, n: int | None = None) -> SpatialWeights:
    """Read triplet text; tolerates a MatrixMarket header (1-based indices,
    size line). Entries present in only one triangle are mirrored.

    The unit count is the size line's, else ``n``, else the largest index
    plus one; an index outside it is an error naming its line. Whether the
    weights are row-normalised is detected from the row sums.
    """
    text = Path(path).read_text()
    market = text.startswith("%%MatrixMarket")
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] not in "%#"]
    if market and lines:
        parts = lines.pop(0).replace(",", " ").split()
        n = int(parts[0])
        if int(parts[1]) != n:
            raise ValueError("weight matrix must be square")
    if not lines:
        raise ValueError(f"no weight entries found in {path}")
    width = np.fromiter((len(ln.replace(",", " ").split()) for ln in lines),
                        dtype=np.intp, count=len(lines))
    bad = np.flatnonzero((width < 2) | (width > 3))
    if bad.size:
        raise ValueError(f"malformed triplet line: {lines[bad[0]]!r}")
    rows = lines
    if (width == 2).any():   # an unweighted pair has weight 1
        rows = [ln if w == 3 else ln + " 1" for ln, w in zip(lines, width)]
    table = np.loadtxt(io.StringIO("\n".join(rows).replace(",", " ")),
                       dtype=_TRIPLET, ndmin=1)
    base = 1 if market else 0
    i, j, v = table["i"] - base, table["j"] - base, table["v"]
    span = int(max(i.max(), j.max())) + 1
    n = span if n is None else n
    outside = np.flatnonzero((np.minimum(i, j) < 0) | (np.maximum(i, j) >= n))
    if outside.size:
        raise ValueError(f"weight entry {lines[outside[0]]!r} indexes a unit "
                         f"outside the {n} units")
    key = i.astype(np.int64) * span + j
    # group equal keys in file order; a repeat conflicts if its value differs
    # from the first, so the error names the first offending line, as a
    # line-by-line reader would
    order = np.argsort(key, kind="stable")
    fresh = np.concatenate([[True], key[order][1:] != key[order][:-1]])
    first_of = order[np.maximum.accumulate(np.where(fresh, np.arange(key.size), 0))]
    conflict = order[~fresh & (v[order] != v[first_of])]
    diagonal = np.flatnonzero(i == j)
    if diagonal.size and not (conflict.size and conflict.min() < diagonal[0]):
        raise ValueError(f"diagonal weight entry at unit {i[diagonal[0]]}")
    if conflict.size:
        k = conflict.min()
        raise ValueError(f"conflicting duplicate entry at ({i[k]}, {j[k]})")
    keep = order[fresh]
    i, j, v = i[keep], j[keep], v[keep]
    lone = ~np.isin(j.astype(np.int64) * span + i, key)   # mirror these
    m = sparse.csr_matrix((np.concatenate([v, v[lone]]),
                           (np.concatenate([i, j[lone]]), np.concatenate([j, i[lone]]))),
                          shape=(n, n))
    return SpatialWeights(matrix=m, row_normalized=row_sum_gap(m) <= ROW_SUM_ATOL)


# -- delimited data -----------------------------------------------------------


def write_response(y: np.ndarray, path, pattern: MissingPattern | None = None) -> None:
    """One `y` column; positions flagged missing are written as NA."""
    missing = set(pattern.unobserved_idx.tolist()) if pattern is not None else set()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y"])
        for i, v in enumerate(np.asarray(y, dtype=float)):
            writer.writerow([NA_TOKEN if i in missing else _fmt(v)])


def read_response(path) -> tuple[np.ndarray, MissingPattern]:
    """Returns (values with NaN at missing positions, pattern)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or header[0].strip().lower() != "y":
            raise ValueError(f"{path}: expected a 'y' header row")
        vals, miss = [], []
        for row in reader:
            if not row:
                continue
            token = row[0].strip()
            if token == "":
                raise ValueError(f"{path}: empty field; use the explicit NA token")
            missing = token.upper() == NA_TOKEN
            try:
                vals.append(np.nan if missing else float(token))
            except ValueError:
                raise ValueError(f"{path}, line {reader.line_num}: {token!r} is "
                                 f"neither a number nor {NA_TOKEN}") from None
            miss.append(missing)
    return np.asarray(vals), MissingPattern(m=np.asarray(miss, dtype=np.int8))


def write_matrix(mat: np.ndarray, path, prefix: str) -> None:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"{prefix}{j}" for j in range(mat.shape[1])])
        writer.writerows(_fmt_rows(mat))


def _raise_ragged(path, body: str, ncol: int) -> None:
    for row in csv.reader(io.StringIO(body)):
        if row and len(row) != ncol:
            raise ValueError(f"{path}: ragged row {row!r}")


def read_matrix(path) -> np.ndarray:
    with open(path, newline="") as fh:
        ncol = len(next(csv.reader([fh.readline()])))
        body = fh.read()
    if not body.strip():
        return np.empty((0, ncol))
    try:
        mat = np.loadtxt(io.StringIO(body), delimiter=",", quotechar='"',
                         comments=None, ndmin=2)
    except ValueError:
        _raise_ragged(path, body, ncol)
        raise
    if mat.shape[1] != ncol:
        _raise_ragged(path, body, ncol)
    return mat


def write_pattern(pattern: MissingPattern, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "m"])
        for i, m in enumerate(pattern.m):
            writer.writerow([i, int(m)])


def read_pattern(path) -> MissingPattern:
    """Rows `index,m` in any order; each of the indices 0..rows-1 must
    appear once, and an index that does not is an error naming its line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [(reader.line_num, r) for r in reader if r]
    m = [None] * len(rows)
    for line, r in rows:
        try:
            i, v = map(int, r)
        except ValueError:
            raise ValueError(f"{path}, line {line}: expected two integers "
                             f"index,m; got {','.join(r)!r}") from None
        if not 0 <= i < len(m):
            raise ValueError(f"{path}, line {line}: index {i} is outside the "
                             f"{len(m)} units")
        if v not in (0, 1):
            raise ValueError(f"{path}, line {line}: m is {v}; it must be 0 "
                             "(observed) or 1 (missing)")
        if m[i] is not None:
            raise ValueError(f"{path}, line {line}: index {i} repeats")
        m[i] = v
    return MissingPattern(m=np.array(m, dtype=np.int8))


# -- dataset bundles ----------------------------------------------------------


@dataclass
class Dataset:
    x: np.ndarray
    weights: SpatialWeights
    y: np.ndarray                 # NaN at missing positions
    pattern: MissingPattern
    x_star: np.ndarray | None
    y_full: np.ndarray | None
    truth: dict | None
    digest: str | None = None

    @property
    def y_obs(self) -> np.ndarray:
        return self.y[self.pattern.observed_idx]

    @property
    def mechanism(self) -> str:
        return "mnar" if self.x_star is not None else "mar"


def dataset_digest(directory) -> str:
    directory = Path(directory)
    h = hashlib.sha256()
    for name in sorted(p.name for p in directory.iterdir() if p.is_file()):
        if name == "manifest.json":
            continue
        h.update(name.encode())
        h.update((directory / name).read_bytes())
    return h.hexdigest()


def write_dataset(sim, cfg, out_dir, version: str) -> None:
    """Emit the file bundle for a simulated dataset."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_response(sim.y_full, out / "y.csv", pattern=sim.pattern)
    write_response(sim.y_full, out / "y_full.csv")
    write_matrix(sim.x, out / "X.csv", "x")
    write_weights(sim.weights, out / "W.txt")
    write_pattern(sim.pattern, out / "pattern.csv")
    truth = {"beta": [float(b) for b in sim.truth.beta],
             "sigma2_y": sim.truth.sigma2_y, "rho": sim.truth.rho,
             "seed": cfg.seed}
    if sim.selection is not None:
        write_matrix(sim.selection.x_star, out / "Xstar.csv", "xstar")
        truth["psi"] = {"psi_x": [float(v) for v in sim.selection.psi_x],
                        "psi_y": float(sim.selection.psi_y)}
    (out / "truth.json").write_text(json.dumps(truth, indent=2))
    (out / "sim_config.json").write_text(cfg.to_json())
    manifest = {"kind": "dataset", "seed": cfg.seed, "version": version,
                "config_sha256": hashlib.sha256(cfg.to_json().encode()).hexdigest(),
                "digest": dataset_digest(out)}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))


def load_dataset(directory) -> Dataset:
    d = Path(directory)
    y, pattern = read_response(d / "y.csv")
    x = read_matrix(d / "X.csv")
    weights = read_weights(d / "W.txt", n=y.shape[0])
    x_star = read_matrix(d / "Xstar.csv") if (d / "Xstar.csv").exists() else None
    y_full = None
    if (d / "y_full.csv").exists():
        y_full, _ = read_response(d / "y_full.csv")
    truth = None
    if (d / "truth.json").exists():
        truth = json.loads((d / "truth.json").read_text())
    if (d / "pattern.csv").exists():
        stored = read_pattern(d / "pattern.csv")
        if not np.array_equal(stored.m, pattern.m):
            raise ValueError(f"{d}: pattern.csv disagrees with the NAs in y.csv")
    digest = None
    if (d / "manifest.json").exists():
        digest = json.loads((d / "manifest.json").read_text()).get("digest")
    if digest is None:
        digest = dataset_digest(d)
    return Dataset(x=x, weights=weights, y=y, pattern=pattern, x_star=x_star,
                   y_full=y_full, truth=truth, digest=digest)


# -- fit artifacts ------------------------------------------------------------


def _trace_csv(path, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def write_fit_result(res: FitResult, out_dir, version: str,
                     dataset_digest_value: str, config_doc: dict,
                     unconstrained_names: list) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "method": res.method, "mechanism": res.mechanism, "seed": res.seed,
        "iterations": res.iterations, "p": res.p,
        "elbo_label": res.elbo_label,
        "theta": {name: {"mean": float(m), "sd": float(s)}
                  for name, m, s in zip(res.theta_names, res.theta_mean, res.theta_sd)},
        "theta_order": list(res.theta_names),
        "tuning": res.tuning, "flags": res.flags,
        "elapsed_seconds": res.elapsed_seconds,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    _trace_csv(out / "elbo_trace.csv", ["iteration", "value"],
               ((t, _fmt(v) if np.isfinite(v) else NA_TOKEN)
                for t, v in enumerate(res.elbo_trace)))
    names = list(unconstrained_names)
    _trace_csv(out / "mean_trajectory.csv", ["iteration"] + names,
               ([t, *row] for t, row in enumerate(_fmt_rows(res.mean_trajectory))))
    _trace_csv(out / "missing_posterior.csv", ["index", "mean", "sd"],
               ((int(i), _fmt(m), _fmt(s) if np.isfinite(s) else NA_TOKEN)
                for i, m, s in zip(res.yu_index, res.yu_mean, res.yu_sd)))
    if res.chain is not None:
        chain_names = names + [f"yu{int(i)}" for i in res.yu_index]
        _trace_csv(out / "chain.csv", chain_names,
                   _fmt_rows(res.chain))
    manifest = {"kind": "fit", "method": res.method, "seed": res.seed,
                "version": version, "dataset_digest": dataset_digest_value,
                "config_sha256": hashlib.sha256(
                    json.dumps(config_doc, sort_keys=True).encode()).hexdigest()}
    (out / "run_config.json").write_text(json.dumps(config_doc, indent=2))
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))


def read_fit_summary(run_dir) -> dict:
    return json.loads((Path(run_dir) / "summary.json").read_text())


def read_missing_posterior(run_dir) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    with open(Path(run_dir) / "missing_posterior.csv", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        idx, mean, sd = [], [], []
        for row in reader:
            if not row:
                continue
            idx.append(int(row[0]))
            mean.append(float(row[1]))
            sd.append(np.nan if row[2] == NA_TOKEN else float(row[2]))
    return np.asarray(idx), np.asarray(mean), np.asarray(sd)
