"""Line-by-line weight and matrix readers, kept as the reference that the
array-based readers of ``spatialvb.io`` must reproduce bit for bit."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
from scipy import sparse


def read_weights_lines(path) -> sparse.csr_matrix:
    lines = Path(path).read_text().splitlines()
    market = bool(lines) and lines[0].startswith("%%MatrixMarket")
    entries: dict[tuple[int, int], float] = {}
    size_line_pending = market
    n_declared = None
    for line in lines:
        line = line.strip()
        if not line or line.startswith("%") or line.startswith("#"):
            continue
        parts = line.replace(",", " ").split()
        if size_line_pending:
            n_declared = int(parts[0])
            if int(parts[1]) != n_declared:
                raise ValueError("weight matrix must be square")
            size_line_pending = False
            continue
        if len(parts) == 2:
            i, j, v = int(parts[0]), int(parts[1]), 1.0
        elif len(parts) == 3:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        else:
            raise ValueError(f"malformed triplet line: {line!r}")
        if market:
            i, j = i - 1, j - 1
        if i == j:
            raise ValueError(f"diagonal weight entry at unit {i}")
        if (i, j) in entries and entries[(i, j)] != v:
            raise ValueError(f"conflicting duplicate entry at ({i}, {j})")
        entries[(i, j)] = v
    if not entries:
        raise ValueError(f"no weight entries found in {path}")
    for (i, j), v in list(entries.items()):
        if (j, i) not in entries:
            entries[(j, i)] = v
    n = n_declared if n_declared is not None else 1 + max(max(i, j) for i, j in entries)
    rows = np.fromiter((k[0] for k in entries), dtype=np.intp, count=len(entries))
    cols = np.fromiter((k[1] for k in entries), dtype=np.intp, count=len(entries))
    vals = np.fromiter(entries.values(), dtype=float, count=len(entries))
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def read_matrix_lines(path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        ncol = len(header)
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != ncol:
                raise ValueError(f"{path}: ragged row {row!r}")
            rows.append([float(v) for v in row])
    return np.asarray(rows)
