"""Smoke tests of the fit benchmark: `python -m pytest bench`.

Each workload shape runs on a 6 x 6 grid with a few iterations, untraced and
traced, and must emit every metric BENCHMARK.json names.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import spans  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS, tiny  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_tables():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in WORKLOADS.values()]
    assert SPEC["end_to_end"] == [m.spec() for m in END_TO_END]
    assert SPEC["per_layer"] == [m.spec() for m in PER_LAYER]
    assert all(m.moves for m in PER_LAYER)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_emits_every_metric(name, trace):
    report = run.run_workload(tiny(WORKLOADS[name]), seed=3, seconds=0,
                              trace=trace)
    result = report["result"]
    assert report["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_span_self_time_excludes_children():
    rec = spans.SpanRecorder()
    inner = rec.wrap("inner", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()
        inner()

    rec.wrap("outer", body)()
    table = rec.summary()
    assert table["inner"]["calls"] == 2
    assert table["outer"]["total_s"] >= table["inner"]["total_s"] + 0.01
    assert table["outer"]["self_s"] == pytest.approx(
        table["outer"]["total_s"] - table["inner"]["total_s"])
    assert rec.count_under("inner", "outer") == 2
    assert rec.count_under("outer", "inner") == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                           "hmc-mnar-1600", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
