"""The benchmark's workloads: walk jobs generated from the workload seed.

Each workload is a list of :class:`repro.fleet.WalkJob` per *round*.
Round ``r`` of seed ``s`` uses its own walk and trace seeds, so every
round is a fresh set of walkers on the same paths, and the same
``(seed, round)`` always yields the same jobs.  The program receives
only these jobs; artifacts use the experiment suite's seeds (error
models on seed 0, place surveys on seed 3), as ``repro run`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

#: Error-model training seed and place survey seed (experiment defaults).
MODELS_SEED = 0
SETUP_SEED = 3

#: Seeds of consecutive rounds and of consecutive workload seeds are
#: spaced so that no two jobs of one benchmark share a walk seed.
ROUND_STRIDE = 1_000
SEED_STRIDE = 1_000_000

#: Irrational steps of the campus window phase per workload seed and per
#: round (a Weyl sequence), so every run's rounds spread their windows
#: evenly along the paths and no two seeds share them.
_SEED_PHASE = math.sqrt(2.0)
_ROUND_PHASE = (math.sqrt(5.0) - 1.0) / 2.0


def campus_window_starts(
    seed: int, round_index: int, lengths: list[float], window_m: float
) -> list[float]:
    """Return the start arc of each campus walk of one round.

    The walks of a round sit at evenly staggered fractions of their paths
    (``phase + idx / n``), so each round walks one window in every
    ``1/n`` of the path length -- office, corridor, basement, car park,
    street and open space alike -- and the phase moves with the seed and
    the round.
    """
    phase = (seed * _SEED_PHASE + round_index * _ROUND_PHASE) % 1.0
    n = len(lengths)
    return [
        round(((phase + idx / n) % 1.0) * max(length - window_m, 0.0), 3)
        for idx, length in enumerate(lengths)
    ]


@dataclass(frozen=True)
class Size:
    """How much work one round holds.

    Attributes:
        walks: walk jobs per round (campus: paths; office: lanes, split
            evenly over the populations; daily: consecutive segments of
            the path).
        max_length_m: length cap of each walk.
        accuracy_rounds: rounds every end-to-end run makes, however short
            ``--seconds``; the accuracy and GPS metrics cover exactly
            these, so they are a deterministic function of the seed.
            Every run also makes at least one timed round after the
            untimed warm-up round 0.
    """

    walks: int
    max_length_m: float
    accuracy_rounds: int


@dataclass(frozen=True)
class Workload:
    """One named workload: where it walks and which entry point runs it.

    Why each workload was chosen is recorded in ``BENCHMARK.json`` and
    ``README.md``.
    """

    name: str
    place: str
    runner: str  # "fleet" (run_walks) or "population" (run_population)
    workers: int  # run_walks workers, or populations run at once (one process each)
    sizes: dict[str, Size] = field(default_factory=dict)

    def jobs(self, seed: int, round_index: int, size: str, place: Any) -> list[Any]:
        """Return the walk jobs of one round on the workload's built ``place``."""
        from repro.faults.plan import FaultPlan, SchemeFault
        from repro.fleet import WalkJob

        spec = self.sizes[size]
        base = seed * SEED_STRIDE + round_index * ROUND_STRIDE
        if self.name == "campus-fleet":
            paths = sorted(place.paths)[: spec.walks]
            starts = campus_window_starts(
                seed,
                round_index,
                [place.paths[path].polyline.length() for path in paths],
                spec.max_length_m,
            )
            return [
                WalkJob(
                    place_name="campus",
                    path_name=path,
                    setup_seed=SETUP_SEED,
                    models_seed=MODELS_SEED,
                    walk_seed=base + idx,
                    trace_seed=base + 500 + idx,
                    start_arc=starts[idx],
                    max_length=spec.max_length_m,
                    grid_cell_m=4.0,
                )
                for idx, path in enumerate(paths)
            ]
        if self.name == "office-population":
            return [
                WalkJob(
                    place_name="office",
                    path_name="survey",
                    setup_seed=SETUP_SEED,
                    models_seed=MODELS_SEED,
                    walk_seed=base + idx,
                    trace_seed=base + 500 + idx,
                    max_length=spec.max_length_m,
                )
                for idx in range(spec.walks)
            ]
        if self.name == "daily-faults":
            return [
                WalkJob(
                    place_name="daily",
                    path_name="path1",
                    setup_seed=SETUP_SEED,
                    models_seed=MODELS_SEED,
                    walk_seed=base + idx,
                    trace_seed=base + 500 + idx,
                    start_arc=idx * spec.max_length_m,
                    max_length=spec.max_length_m,
                    gps_duty_cycling=True,
                    fault_plan=FaultPlan(
                        seed=base + idx,
                        scheme_faults=(
                            SchemeFault("wifi", "crash", probability=0.15),
                            SchemeFault("fusion", "nan", probability=0.10),
                            SchemeFault("cellular", "garbage", probability=0.25),
                        ),
                    ),
                )
                for idx in range(spec.walks)
            ]
        raise ValueError(f"no job generator for workload {self.name!r}")


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="campus-fleet",
            place="campus",
            runner="fleet",
            workers=2,
            sizes={
                "full": Size(walks=8, max_length_m=12.0, accuracy_rounds=8),
                "tiny": Size(walks=2, max_length_m=4.0, accuracy_rounds=1),
            },
        ),
        Workload(
            name="office-population",
            place="office",
            runner="population",
            workers=2,
            sizes={
                "full": Size(walks=64, max_length_m=12.0, accuracy_rounds=3),
                "tiny": Size(walks=4, max_length_m=4.0, accuracy_rounds=1),
            },
        ),
        Workload(
            name="daily-faults",
            place="daily",
            runner="fleet",
            workers=2,
            sizes={
                "full": Size(walks=16, max_length_m=20.0, accuracy_rounds=3),
                "tiny": Size(walks=2, max_length_m=6.0, accuracy_rounds=1),
            },
        ),
    )
}
