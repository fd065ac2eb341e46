"""Pin seeded WalkResult pickles as SHA-256 golden hashes.

The population core (``repro.core.population``) promises that the scalar
``UniLocFramework`` keeps producing **byte-identical** ``WalkResult``
pickles after it became a thin front over a population of size 1.  That
promise is only checkable against a fixed point: this tool runs the
golden job matrix (office + open-space, with and without a fault plan,
plus one campus window that crosses five environment legs)
and records each result's pickle hash in ``tests/data/walk_goldens.json``.

``tests/eval/test_population_equivalence.py`` replays the same jobs and
compares hashes — any drift in the scalar pipeline (scheme math, RNG
draw order, framework control flow, result schema) fails the suite.

Regenerate only when a change is *supposed* to alter walk results:

    PYTHONPATH=src python tools/make_walk_goldens.py
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "tests" / "data" / "walk_goldens.json"


def golden_jobs():
    """Return the named golden job matrix (shared with the test suite)."""
    from repro.faults.plan import FaultPlan, SchemeFault, SensorFault
    from repro.fleet.executor import WalkJob

    plan = FaultPlan(
        seed=5,
        scheme_faults=(
            SchemeFault(scheme="wifi", kind="crash", probability=0.3, start_step=5),
            SchemeFault(scheme="motion", kind="drop", probability=0.25, start_step=10),
            SchemeFault(scheme="gps", kind="garbage", probability=0.2),
        ),
        sensor_faults=(
            SensorFault(kind="radio_blackout", start_step=20, end_step=30),
        ),
    )
    return {
        "office-clean": WalkJob(
            place_name="office",
            path_name="survey",
            walk_seed=7,
            trace_seed=8,
            max_length=50.0,
            compact=False,
        ),
        "open-space-clean": WalkJob(
            place_name="open-space",
            path_name="survey",
            walk_seed=7,
            trace_seed=8,
            max_length=50.0,
            compact=False,
        ),
        "office-faulted": WalkJob(
            place_name="office",
            path_name="survey",
            walk_seed=12,
            trace_seed=13,
            max_length=50.0,
            gps_duty_cycling=False,
            fault_plan=plan,
        ),
        "open-space-faulted": WalkJob(
            place_name="open-space",
            path_name="survey",
            walk_seed=12,
            trace_seed=13,
            max_length=50.0,
            gps_duty_cycling=False,
            fault_plan=plan,
        ),
        # A campus window over office, corridor, open space, corridor and
        # basement legs: the only golden on a large map (93 regions, 148
        # walls, 74 corridors), so it pins the compiled place's culling.
        "campus-window": WalkJob(
            place_name="campus",
            path_name="path4",
            walk_seed=21,
            trace_seed=22,
            start_arc=50.0,
            max_length=150.0,
            compact=False,
        ),
    }


def result_hash(result) -> str:
    """Return the SHA-256 of a WalkResult's protocol-5 pickle."""
    return hashlib.sha256(pickle.dumps(result, protocol=5)).hexdigest()


def main() -> None:
    from repro.fleet.executor import run_walks

    jobs = golden_jobs()
    results = run_walks(list(jobs.values()))
    payload = {
        "format": "walk-goldens",
        "version": 1,
        "pickle_protocol": 5,
        "hashes": {
            name: {"sha256": result_hash(result), "steps": len(result.records)}
            for name, result in zip(jobs, results)
        },
    }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for name, entry in payload["hashes"].items():
        print(f"{name}: {entry['sha256'][:16]}… ({entry['steps']} steps)")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
