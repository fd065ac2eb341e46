"""Tests of the benchmark itself (not part of the program's tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench -q

The smoke tests run every workload at ``--size tiny`` through the same
command the benchmark is driven by, once untraced and once traced; each
run trains the error models cold, so the module takes a minute or two.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--size", "tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout[-3000:]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    return result


def _report(proc: subprocess.CompletedProcess) -> dict:
    line = next(
        line for line in proc.stdout.splitlines() if line.startswith("perfbench-report ")
    )
    return json.loads(line.split(" ", 1)[1])


def _assert_metrics(result: dict, declared: list[dict]) -> None:
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert math.isfinite(metrics[m["name"]]["value"]), m["name"]


def test_spec_names_workloads_the_benchmark_runs() -> None:
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_run_prints_every_end_to_end_metric(workload: str) -> None:
    result = _result(_run(workload, trace=0))
    _assert_metrics(result, SPEC["end_to_end"])
    assert result["metrics"]["setup_s"]["value"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_prints_every_per_layer_metric(workload: str) -> None:
    proc = _run(workload, trace=1)
    result = _result(proc)
    _assert_metrics(result, SPEC["per_layer"])
    metrics = result["metrics"]
    assert metrics["fleet.cache.misses"]["value"] == 2  # models + one place, cold
    assert metrics["world.environment_at_calls_per_step"]["value"] > 0
    if workload == "daily-faults":
        assert metrics["core.framework.contained_failures"]["value"] > 0
    if workload == "office-population":
        # The batched fusion re-weighting shares the Wi-Fi index; its
        # fingerprint pass must still be charged to fusion.
        kernels = _report(proc)["scheme_kernel_ms_per_step"]
        assert kernels.get("fusion/radio.kernels.fingerprint", 0.0) > 0
        assert kernels.get("wifi/radio.kernels.fingerprint", 0.0) > 0


def test_campus_windows_stay_on_their_paths_and_reach_every_environment() -> None:
    from repro.world import EnvironmentType
    from repro.world.campus import build_campus_place

    place = build_campus_place()
    workload = WORKLOADS["campus-fleet"]
    window = workload.sizes["full"].max_length_m
    seen = set()
    for round_index in range(workload.sizes["full"].accuracy_rounds):
        for job in workload.jobs(1, round_index, "full", place):
            polyline = place.paths[job.path_name].polyline
            assert 0.0 <= job.start_arc <= polyline.length() - window
            for offset in (0.0, window / 2, window):
                seen.add(place.environment_at(
                    polyline.point_at_distance(job.start_arc + offset)))
    # Every environment the campus paths cross (the campus has no mall).
    assert seen == set(EnvironmentType) - {EnvironmentType.MALL}


def test_same_seed_gives_the_same_result_digest() -> None:
    digests = []
    for _ in range(2):
        proc = _run("office-population", trace=0, seed=3)
        _result(proc)
        digests.append(_report(proc)["digest_round0"])
    assert digests[0] == digests[1]


def test_run_without_program_source_fails_without_a_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("office-population", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- the output check on a synthetic walk -------------------------------------


def _walk(n: int = 3):
    from repro.core.framework import StepDecision
    from repro.eval.runner import StepRecord, WalkResult
    from repro.geometry import Point
    from repro.motion import Moment
    from repro.world import EnvironmentType

    moments = [
        Moment(index=i, time_s=0.5 * i, position=Point(float(i), 0.0), heading=0.0,
               arc_length=float(i), step_length=0.7, step_period=0.5)
        for i in range(n)
    ]
    records = [
        StepRecord(
            moment=m,
            environment=EnvironmentType.OFFICE,
            decision=StepDecision(
                outputs={}, predicted_errors={"wifi": 2.0, "motion": 3.0},
                confidences={"wifi": 0.75, "motion": 0.25},
                weights={"wifi": 0.75, "motion": 0.25}, tau=2.5, indoor=True,
                selected="wifi", uniloc1_position=m.position,
                uniloc2_position=Point(m.position.x + 0.5, 0.0), gps_enabled=False,
            ),
            scheme_errors={}, uniloc1_error=0.0, uniloc2_error=0.5, oracle=None,
        )
        for m in moments
    ]
    return WalkResult("office", "survey", records), moments


def _corrupt(result, step: int, **changes):
    record = result.records[step]
    result.records[step] = dataclasses.replace(
        record, decision=dataclasses.replace(record.decision, **changes)
    )
    return result


def test_output_check_accepts_a_valid_walk() -> None:
    result, moments = _walk()
    assert checks.check_walk(result, moments) == []


@pytest.mark.parametrize(
    "corruption",
    [
        lambda r: _corrupt(r, 1, confidences={"wifi": 1.5, "motion": 0.25}),
        lambda r: _corrupt(r, 2, weights={"wifi": 0.75, "motion": 0.5}),
        lambda r: _corrupt(r, 0, uniloc2_position=_nan_point()),
        lambda r: r.records.pop(),
    ],
    ids=["confidence", "weights", "nonfinite", "missing-record"],
)
def test_output_check_rejects_a_corrupted_walk(corruption) -> None:
    result, moments = _walk()
    corruption(result)
    assert checks.check_walk(result, moments)


def test_corrupted_walk_counts_all_its_steps_as_failed(monkeypatch) -> None:
    from perfbench.bench import Round, Scored

    result, moments = _walk()
    _corrupt(result, 1, confidences={"wifi": -0.1, "motion": 0.25})
    monkeypatch.setattr(checks, "expected_moments", lambda job, place: moments)
    job = dataclasses.make_dataclass("Job", ["path_name", "walk_seed"])("survey", 0)
    scored = Scored()
    scored.add(Round(jobs=[job], results=[result], wall_s=1.0), place=None)
    assert scored.attempted == scored.failed == len(moments)
    assert scored.failed_walks == 1 and scored.problems


def test_digest_sees_a_last_digit_change() -> None:
    result, _ = _walk()
    before = checks.digest([result])
    record = result.records[1]
    result.records[1] = dataclasses.replace(
        record, uniloc2_error=math.nextafter(record.uniloc2_error, 1.0)
    )
    assert checks.digest([result]) != before


def _nan_point():
    from repro.geometry import Point

    return Point(float("nan"), 0.0)
