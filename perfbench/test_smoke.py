"""Tiny-scale smoke run of the benchmark: every workload, untraced and traced.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402
import xmlir.cli  # noqa: E402,F401  (the tracer patches loaded modules only)

END_TO_END = {"setup_s", "peak_rss_mb"} | {
    f"topic_ms.{tag}.p90" for tag in ("fulltext", "xmldb", "xmldb-cre", "hybrid", "hybrid-cre")
}


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "0.05"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = run_bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_layers(workload):
    result = run_bench(workload, 1)
    metrics = result["metrics"]
    assert result["correct"]
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert metrics["trace.absent_layers"]["value"] == 0
    assert metrics["pipeline.execute_calls"]["value"] > 0
    assert metrics["evaluation.size_map_calls"]["value"] == 117
    assert metrics["cli.diagnostic_lines"]["value"] > 0


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_tracer_records_a_missing_layer_as_absent(monkeypatch):
    monkeypatch.setattr(tracer, "TRACED", tracer.TRACED + (("gone.layer", "xmlir.matcher", "no_such_function"),))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["gone.layer"]
    assert t.layer_stats()["gone.layer"].calls == 0


def test_same_seed_same_bytes(tmp_path):
    for out in (tmp_path / "a", tmp_path / "b"):
        workloads.generate("dense-and", 3, 0.05, out)
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.xml"))
    assert files
    assert all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files)
