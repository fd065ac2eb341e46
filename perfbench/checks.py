"""Output checks and result digests for benchmark walks.

Every scored walk is checked against the walk the benchmark itself
generates from the job's seeds:

* one scored record per generated moment, in order, at the same position;
* every confidence in [0, 1];
* BMA weights summing to 1 whenever any scheme was weighted;
* every UniLoc2 position finite.

A walk that fails any check counts all its steps as failed.  The digest
hashes the scored results exactly (floats by ``repr``), so two runs of
the same code on the same seed can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any

#: Largest ``|sum(weights) - 1|`` accepted for one step's BMA weights.
WEIGHT_SUM_TOLERANCE = 1e-9


def expected_moments(job: Any, place: Any) -> list[Any]:
    """Regenerate the ground-truth moments a job's walk must be scored on."""
    import numpy as np

    from repro.motion import DEFAULT_GAIT, generate_walk

    walk = generate_walk(
        place.paths[job.path_name].polyline,
        DEFAULT_GAIT,
        np.random.default_rng(job.walk_seed),
        start_arc=job.start_arc,
        max_length=job.max_length,
    )
    return list(walk.moments)


def check_walk(result: Any, moments: list[Any]) -> list[str]:
    """Return the problems found in one scored walk (empty when it passes)."""
    problems: list[str] = []
    records = result.records
    if len(records) != len(moments):
        problems.append(
            f"{len(records)} scored records for {len(moments)} generated moments"
        )
    for step, (record, moment) in enumerate(zip(records, moments)):
        if record.moment.index != moment.index or record.moment.position != moment.position:
            problems.append(f"step {step}: record does not match the generated moment")
        decision = record.decision
        for name, value in decision.confidences.items():
            if not 0.0 <= value <= 1.0:
                problems.append(f"step {step}: confidence of {name} is {value!r}")
        if decision.weights:
            total = math.fsum(decision.weights.values())
            if not abs(total - 1.0) <= WEIGHT_SUM_TOLERANCE:
                problems.append(f"step {step}: BMA weights sum to {total!r}")
        position = decision.uniloc2_position
        if position is not None and not (
            math.isfinite(position.x) and math.isfinite(position.y)
        ):
            problems.append(f"step {step}: UniLoc2 position {position!r} is not finite")
        if len(problems) >= 5:
            break
    return problems


def unanswered_steps(result: Any) -> int:
    """Return how many steps of a walk got no UniLoc2 estimate."""
    return sum(1 for r in result.records if r.decision.uniloc2_position is None)


def _sorted_items(mapping: dict) -> list:
    return sorted(mapping.items())


def digest(results: list[Any]) -> str:
    """Return a SHA-256 over the exact scored content of a round's results."""
    sha = hashlib.sha256()
    for index, result in enumerate(results):
        if not hasattr(result, "records"):
            sha.update(f"failed {index} {getattr(result, 'kind', '?')}\n".encode())
            continue
        sha.update(f"walk {index} {result.place_name} {result.path_name}\n".encode())
        for record in result.records:
            decision = record.decision
            position = decision.uniloc2_position
            row = (
                record.moment.index,
                record.environment.value,
                _sorted_items(record.scheme_errors),
                record.uniloc1_error,
                record.uniloc2_error,
                None if position is None else (position.x, position.y),
                decision.selected,
                _sorted_items(decision.confidences),
                _sorted_items(decision.weights),
                decision.gps_enabled,
                _sorted_items(decision.failures),
                tuple(decision.quarantined),
            )
            sha.update(repr(row).encode())
            sha.update(b"\n")
    return sha.hexdigest()
