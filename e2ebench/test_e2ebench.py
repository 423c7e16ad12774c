"""The benchmark's own tests: every workload at seconds scale on small worlds.

Run from the repository root with ``python3 -m pytest e2ebench -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload: str, references: Path, *extra: str, seed: int = 1,
        trace: int = 0, script: Path = HERE / "run.py",
        cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "small", "--references", str(references), *extra],
        capture_output=True, text=True, timeout=600, cwd=cwd)


def result(proc: subprocess.CompletedProcess) -> Dict[str, Any]:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_follows_the_schema() -> None:
    assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["e2ebench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    names: List[str] = []
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(
        workload: str, trace: int, tmp_path: Path) -> None:
    proc = run(workload, tmp_path / "none.json", trace=trace)
    out = result(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    assert "verification: unverified" in proc.stdout
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = out["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0.0, metric["name"]
    if trace:
        assert "per-layer attribution" in proc.stdout
        assert "working set" in proc.stdout
    else:
        metrics = out["metrics"]
        assert metrics["tail_s"]["value"] >= metrics["p50_s"]["value"]


def _corrupt(node: Any) -> bool:
    """Change the first float or digest string found; True if changed."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, float):
            node[key] = value + 0.125
            return True
        if isinstance(value, str):
            node[key] = "0" * len(value)
            return True
        if isinstance(value, (dict, list)) and _corrupt(value):
            return True
    return False


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_passes_and_a_corrupted_one_fails(
        workload: str, tmp_path: Path) -> None:
    references = tmp_path / "references.json"
    recorded = run(workload, references, "--record", seed=3)
    assert "verification: recorded" in recorded.stdout
    assert result(recorded)["failed"] == 0

    again = run(workload, references, seed=3)
    assert "verification: passed" in again.stdout
    assert result(again)["failed"] == 0

    book = json.loads(references.read_text(encoding="utf-8"))
    assert _corrupt(book[workload]["small"]["3"])
    references.write_text(json.dumps(book), encoding="utf-8")
    corrupted = run(workload, references, seed=3)
    out = result(corrupted)
    assert "verification: failed" in corrupted.stdout
    assert out["failed"] >= 1 and out["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("paper_eval", tmp_path / "none.json",
               script=tmp_path / "e2ebench" / "run.py", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
