"""Fast smoke test of the benchmark harness, kept out of the tier-1 suite.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload once on tiny inputs in both modes and checks the
output contract: every metric BENCHMARK.json names, with its unit, and in
the traced run one span per call the replay makes, nested as the CLI
stages nest them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = 7


def run(workload: str, trace: int, root: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "0",
         "--trace", str(trace), "--scale", "0.1"],
        cwd=root, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    return lines, result


def units(result) -> dict:
    return {k: v["unit"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_reports_every_end_to_end_metric(workload):
    lines, result = result_of(run(workload, 0))
    assert units(result) == {m["name"]: m["unit"]
                             for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith(f"{workload} failed_ratio ")
               for line in lines)
    assert any(line.startswith(f"{workload} probe_ms ") for line in lines)
    assert lines[0].startswith("# env ")
    env = json.loads(lines[0][len("# env "):])
    assert {"git_sha", "python", "nproc"} <= set(env)


# Direct children each stage span must have, in call order.
STAGES = {
    "cli.validate": ["validation.validate_text"],
    "cli.compress": ["codec.parse", "geomops.quantize"],
    "cli.dedupe": ["geomops.dedupe_vertices"],
    "cli.subset": ["ops.subset"],
    "cli.metadata": ["ops.refresh_metadata"],
    "cli.save": ["codec.dumps"],
    "cli.import": ["gml.import_citygml"],
}
# After import the model is already in memory, so compress does not parse.
GML_STAGES = {**STAGES, "cli.compress": ["geomops.quantize"]}
ROOTS = {
    "ingest": ["cli.validate", "cli.compress", "cli.dedupe", "cli.subset",
               "cli.metadata", "cli.save"],
    "gml-import": ["cli.import", "cli.compress", "cli.save"],
    "validate-gate": ["cli.validate"],
}


def _tree(spans):
    by_id = {s["id"]: s for s in spans}
    kids: dict = {s["id"]: [] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            assert s["parent"] in by_id
            assert by_id[s["parent"]]["doc"] == s["doc"]
            kids[s["parent"]].append(s)
    for v in kids.values():
        v.sort(key=lambda s: s["start_ns"])
    return kids


def _names(spans):
    return [s["name"] for s in spans]


def _check_split_merge(root, kids):
    stages = kids[root["id"]]
    if root["doc"].endswith("/partition"):
        assert _names(stages) == ["cli.compress", "cli.partition"]
        assert _names(kids[stages[0]["id"]]) == STAGES["cli.compress"]
        calls = kids[stages[1]["id"]]
        parts = calls[0]["counts"]["parts"]
        assert _names(calls) == ["ops.partition_grid"] \
            + ["codec.dumps"] * parts
        return
    assert _names(stages)[-1] == "cli.save"
    merges = stages[:-1]
    assert set(_names(merges)) <= {"cli.merge"}
    for i, stage in enumerate(merges):
        assert _names(kids[stage["id"]]) == \
            ["codec.parse"] * (2 if i == 0 else 1) + ["ops.merge"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_one_span_per_replayed_call(workload):
    lines, result = result_of(run(workload, 1))
    assert units(result) == {m["name"]: m["unit"]
                             for m in BENCH["per_layer"]}
    trace = ROOT / ".bench_out" / f"trace_{workload}_{SEED}.jsonl"
    spans = [json.loads(line) for line in trace.open(encoding="utf-8")]
    replay = [s for s in spans if s["phase"] == "replay"]
    kids = _tree(replay)
    roots = [s for s in replay if s["parent"] is None]
    assert roots and all(s["name"] == "cli.run" for s in roots)
    for root in roots:
        if workload == "split-merge":
            _check_split_merge(root, kids)
            continue
        if root.get("error"):          # input unreadable: no stage ran
            assert workload == "validate-gate"
            continue
        stages = kids[root["id"]]
        assert _names(stages) == ROOTS[workload]
        expected = GML_STAGES if workload == "gml-import" else STAGES
        for stage in stages:
            assert _names(kids[stage["id"]]) == expected[stage["name"]]
        if workload != "gml-import":
            text = kids[stages[0]["id"]][0]
            assert _names(kids[text["id"]])[0] == "codec.parse"
    synth = [s for s in spans if s["phase"] == "setup"]
    assert "synth.make_scene" in _names(synth)
    assert result["metrics"]["trace.remainder_ms"]["value"] >= 0
    assert result["metrics"]["codec.dumps.calls"]["value"] == \
        _names(replay).count("codec.dumps")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
