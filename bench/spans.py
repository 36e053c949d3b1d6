"""Span recorder for the traced benchmark run.

`install` wraps the layer functions of `spatialvb` listed in TRACED: the
public functions and methods on the paths the workloads run, except
file-format helpers and scalar transforms, whose time stays in the caller.
Each call of a wrapped function records one span: its name, the span open
when it was called (its parent), and its start and end. Spans stay in memory and
are written out once, after the fit. A span's self time is its duration
minus the time its direct child spans cover.

A function is rebound in every `spatialvb` module that holds it, so calls
through an imported name (`spatialvb.vb.mcmc_block`, `spatialvb.cli.hvb_fit`)
are recorded too. Methods are replaced on their class.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

TRACED = {
    "weights": ("rho_interval", "weight_eigenvalues"),
    "sem": ("spatial_filter", "PrecisionOps.logdet_m", "PrecisionOps.trace_minv_dm"),
    "posterior": ("TargetDensity.__init__", "TargetDensity.log_h",
                  "TargetDensity.grad_log_h_theta", "TargetDensity.log_h_and_grads"),
    "missing": ("selection_log_prob", "selection_grad_psi", "selection_grad_yu",
                "make_blocks"),
    "samplers": ("mar_conditional", "sample_conditional", "mcmc_block", "hmc_run",
                 "tune_step_size"),
    "vb": ("draw_variational", "woodbury_solve", "woodbury_logdet",
           "adadelta_step", "jvb_gradient_estimate", "hvb_gradient_estimate",
           "draw_initial_yu", "jvb_fit", "hvb_fit", "hmc_fit"),
    "io": ("load_dataset", "write_fit_result"),
}


class SpanRecorder:
    """Spans of one single-threaded process, kept in call order."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []   # [name index, parent index or -1, start, end]
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None):
        """fn recording a span per call; after(recorder, args, kwargs, result)
        runs once the call has returned."""
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [nid, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def reset(self) -> None:
        """Forget the spans and counts recorded so far; keep the wrappers."""
        self.spans.clear()
        self.counters.clear()

    def summary(self) -> dict[str, dict]:
        """Per wrapped name, called or not: calls, total_s and self_s."""
        covered = [0.0] * len(self.spans)
        for _, parent, t0, t1 in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i, (nid, _, t0, t1) in enumerate(self.spans):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - covered[i]
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` that have a span called `ancestor` above them."""
        want, above = self.names.index(name), self.names.index(ancestor)
        count = 0
        for nid, parent, _, _ in self.spans:
            if nid != want:
                continue
            while parent >= 0 and self.spans[parent][0] != above:
                parent = self.spans[parent][1]
            count += parent >= 0
        return count

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps({"names": self.names,
                                          "spans": self.spans}))


# -- exact counts taken at span boundaries -------------------------------


def _hutchinson(rec, args, kwargs, result):
    ops = args[0]
    if ops.eigenvalues is None:
        rec.counters["sem.hutchinson_solves"] += ops.n_probes


def _dense_bytes(rec, n_bytes):
    key = "samplers.dense_factor_bytes"
    rec.counters[key] = max(rec.counters[key], n_bytes)


def _mar_conditional(rec, args, kwargs, result):
    n = result.chol_lower.shape[0]
    _dense_bytes(rec, 8 * n * n)


def _mcmc_block_hook(signature):
    def hook(rec, args, kwargs, result):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        a = call.arguments
        blocks = a["partition"].blocks
        per_sweep = len(blocks) if a["scheme"] == "allb" else a["k_prime"]
        rec.counters["samplers.block_proposals"] += a["n1"] * per_sweep
        if a["scheme"] == "allb":
            # every block is proposed n1 times, so rate * n1 is its accept count
            rec.counters["samplers.block_accepts"] += int(
                np.rint(np.sum(result[1]) * a["n1"]))
        _dense_bytes(rec, sum(8 * b.size * b.size for b in blocks))
    return hook


def _written_bytes(rec, args, kwargs, result):
    out = Path(args[1])
    rec.counters["io.write_fit_result.bytes"] += sum(
        p.stat().st_size for p in out.iterdir() if p.is_file())


def install(recorder: SpanRecorder) -> None:
    """Wrap every TRACED name wherever `spatialvb` looks it up."""
    importlib.import_module("spatialvb.cli")
    samplers = importlib.import_module("spatialvb.samplers")
    hooks = {
        "sem.trace_minv_dm": _hutchinson,
        "samplers.mar_conditional": _mar_conditional,
        "samplers.mcmc_block": _mcmc_block_hook(
            inspect.signature(samplers.mcmc_block)),
        "io.write_fit_result": _written_bytes,
    }
    modules = [m for n, m in sys.modules.items()
               if n == "spatialvb" or n.startswith("spatialvb.")]
    for short, names in TRACED.items():
        module = importlib.import_module(f"spatialvb.{short}")
        for name in names:
            if "." in name:
                cls_name, method = name.split(".")
                cls = getattr(module, cls_name)
                label = (f"{short}.{cls_name}.init" if method == "__init__"
                         else f"{short}.{method}")
                setattr(cls, method, recorder.wrap(label, cls.__dict__[method],
                                                   hooks.get(label)))
                continue
            label = f"{short}.{name}"
            original = getattr(module, name)
            wrapped = recorder.wrap(label, original, hooks.get(label))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder: SpanRecorder, res) -> dict[str, float]:
    """Values of every per-layer metric except trace.overhead_s, which needs
    an untraced fit to compare with."""
    table = recorder.summary()
    out: dict[str, float] = {}
    for span, row in table.items():
        for key in ("calls", "self_s", "total_s"):
            out[f"{span}.{key}"] = row[key]
    c = recorder.counters
    flags, tuning = res.flags, res.tuning
    out.update({
        "posterior.TargetDensity.init_s":
            table["posterior.TargetDensity.init"]["total_s"],
        "sem.hutchinson_solves": c["sem.hutchinson_solves"],
        "samplers.block_proposals": c["samplers.block_proposals"],
        "samplers.block_accepts": c["samplers.block_accepts"],
        "samplers.block_accept_frac": _ratio(c["samplers.block_accepts"],
                                             c["samplers.block_proposals"]),
        "samplers.dense_factor_bytes": c["samplers.dense_factor_bytes"],
        "samplers.hmc.grad_evals": recorder.count_under(
            "posterior.log_h_and_grads", "samplers.hmc_run"),
        "samplers.hmc.accept_frac": float(tuning.get("accept_rate", 0.0)),
        "samplers.hmc.divergences": int(tuning.get("divergences", 0)),
        "vb.skipped_iterations": int(flags.get("skipped_iterations", 0)),
        "vb.clipped_coordinates": int(flags.get("clipped_coordinates", 0)),
        "io.write_fit_result.bytes": c["io.write_fit_result.bytes"],
        "trace.spans": len(recorder.spans),
    })
    return out
