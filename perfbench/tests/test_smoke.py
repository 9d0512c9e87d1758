"""Smoke tests of the benchmark: every workload at its smallest size, traced
and untraced; BENCHMARK.json against the code; the fingerprint comparison;
and the refusal to run without the library's sources.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
from tracing import WORKLOADS, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(workload, trace):
    args = ["--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", str(trace)]
    proc = _bench(*args, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: e["unit"] for m, e in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if not trace:
        assert all(e["value"] > 0 for e in result["metrics"].values())


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (m["name"], m["unit"], m["better"]) for m in layer_metrics()
    ]


def test_compare_lists_drifted_fields(tmp_path, capsys):
    old = {"0.0": {"a": 1.0, "b": 2.0, "c": float("inf")}, "0.1": {"a": 5.0}}
    new = {"0.0": {"a": 1.0 + 1e-9, "b": 2.0 * (1 + 1e-14), "c": float("inf")}, "0.2": {"a": 5.0}}
    paths = []
    for name, fingerprint in (("old", old), ("new", new)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"fingerprint": fingerprint}))
        paths.append(path)
    assert run.compare(*paths) == 1
    out = capsys.readouterr().out
    assert "0.0 a:" in out and "0.0 b:" not in out and "0.0 c:" not in out
    assert "1 fields drifted" in out


def test_percentile_matches_linear_interpolation():
    assert run.percentile([3.0, 1.0, 2.0, 4.0], 50.0) == 2.5
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 75.0) == 4.0


def test_calibrate_scales_by_the_nearby_kernel_time():
    from speed import REF_S, WINDOW_S, calibrate

    samples = [(0.0, REF_S), (1.0, REF_S), (100.0, 2 * REF_S), (101.0, 2 * REF_S)]
    starts = [0.5, 100.5, 50.0 + WINDOW_S / 2]
    out = calibrate(starts, [1.0, 1.0, 1.0], samples)
    # at reference speed, at half of it, and by all samples when none is near
    assert out == [1.0, 0.5, pytest.approx(1 / 1.5)]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = _bench("--workload", "library", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "not found" in proc.stderr
