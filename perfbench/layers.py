"""Per-layer metrics from the spans of a traced run.

Spans come in chunks (one per flushed buffer); a span's parent index is
local to its chunk.  For every span name the aggregation keeps

* ``calls``: how many spans,
* ``inclusive``: total duration of the spans not nested in a span of the
  same name (so a recursive or re-entered layer is not counted twice),
* ``self``: total duration minus the part covered by direct children.

Batched kernels that run outside any scheme span (the population
pre-pass) are charged to schemes by their tag: the particle-filter lane
kernels split their time evenly over the filters they advanced, and the
batched fingerprint distance pass goes to the scheme owning the index.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable

from perfbench.probe import Chunk

SCHEMES = ("gps", "wifi", "cellular", "motion", "fusion")

#: Span names timed as one layer each.
_LAYER_SPANS = {
    "geometry.grid.posterior_ms_per_step": "geometry.grid.posterior",
    "core.features.ms_per_step": "core.features",
    "core.error_model.predict_ms_per_step": "core.error_model.predict",
    "core.confidence.ms_per_step": "core.confidence",
    "core.hmm.ms_per_step": "core.hmm",
    "eval.score_step_ms_per_step": "eval.score_step",
    "motion.generate_walk_ms_per_step": "motion.generate_walk",
    "sensors.record_walk_ms_per_step": "sensors.record_walk",
    "world.environment_at_ms_per_step": "world.environment_at",
    "world.walls_crossed_ms_per_step": "world.walls_crossed",
    "radio.wifi_rssi_ms_per_step": "radio.wifi_rssi",
    "radio.cell_rssi_ms_per_step": "radio.cell_rssi",
    "radio.kernels.fingerprint_ms_per_step": "radio.kernels.fingerprint",
}

#: Span names counted per walker-step.
_CALL_SPANS = {
    "world.environment_at_calls_per_step": "world.environment_at",
    "world.walls_crossed_calls_per_step": "world.walls_crossed",
    "world.corridor_width_at_calls_per_step": "world.corridor_width_at",
}


@dataclass
class SpanStats:
    """Aggregated spans of one phase of a run."""

    calls: Counter = field(default_factory=Counter)
    inclusive: defaultdict = field(default_factory=lambda: defaultdict(float))
    self_time: defaultdict = field(default_factory=lambda: defaultdict(float))
    #: Batched kernel time charged to each scheme, by ``(scheme, span
    #: name)`` (seconds).
    scheme_kernels: defaultdict = field(default_factory=lambda: defaultdict(float))
    #: Top-level place set-ups (not the ones inside training).
    place_create_s: float = 0.0
    batch_lanes: int = 0
    job_s: list[float] = field(default_factory=list)
    env_points: set = field(default_factory=set)
    counts: Counter = field(default_factory=Counter)


def aggregate(chunks: Iterable[Chunk]) -> SpanStats:
    """Fold span chunks into per-name totals (durations in seconds)."""
    stats = SpanStats()
    for chunk in chunks:
        stats.env_points |= chunk.env_points
        stats.counts.update(chunk.counts)
        spans = chunk.spans
        covered = [0.0] * len(spans)
        # span index -> (names on the path to and including it, whether a
        # scheme span is among them); entries are interned, since most
        # spans share a handful of ancestor paths.
        root: tuple[frozenset, bool] = (frozenset(), False)
        above: list[tuple[frozenset, bool]] = [root] * len(spans)
        interned: dict[tuple[frozenset, str], tuple[frozenset, bool]] = {}
        for index, span in enumerate(spans):
            if span is None:
                continue  # still open when flushed: cannot happen after a job
            name, start, end, parent, _walk, tag = span
            duration = end - start
            if parent >= 0:
                covered[parent] += duration
            names, in_scheme = above[parent] if parent >= 0 else root
            entry = interned.get((names, name))
            if entry is None:
                entry = (names | {name}, in_scheme or name.startswith("schemes."))
                interned[(names, name)] = entry
            above[index] = entry
            stats.calls[name] += 1
            if name not in names:
                stats.inclusive[name] += duration
            if name == "eval.setup.place_create" and "eval.setup.train_error_models" not in names:
                stats.place_create_s += duration
            elif name == "core.population.step_batch":
                stats.batch_lanes += tag
            elif name == "fleet.executor.job":
                stats.job_s.append(duration)
            if tag is None or in_scheme:
                continue
            if isinstance(tag, str):
                stats.scheme_kernels[tag, name] += duration
            elif isinstance(tag, tuple) and tag:
                for owner in tag:
                    stats.scheme_kernels[owner, name] += duration / len(tag)
        for index, span in enumerate(spans):
            if span is not None:
                stats.self_time[span[0]] += span[2] - span[1] - covered[index]
    return stats


def _per_step_ms(seconds: float, steps: int) -> float:
    return seconds * 1e3 / steps if steps else 0.0


def setup_metrics(stats: SpanStats) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced cold set-up."""
    builds = stats.calls["eval.setup.build_framework"]
    return {
        "eval.setup.train_error_models_s": (
            stats.inclusive["eval.setup.train_error_models"], "s"),
        "eval.setup.place_create_s": (stats.place_create_s, "s"),
        "eval.setup.build_framework_ms": (
            stats.inclusive["eval.setup.build_framework"] * 1e3 / builds if builds else 0.0,
            "ms",
        ),
    }


def step_metrics(
    stats: SpanStats,
    results: list[Any],
    steps: int,
    wall_s: float,
    workers: int,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced rounds (per walker-step where named so)."""
    metrics: dict[str, tuple[float, str]] = {}
    for metric, name in _LAYER_SPANS.items():
        metrics[metric] = (_per_step_ms(stats.inclusive[name], steps), "ms/step")
    for metric, name in _CALL_SPANS.items():
        metrics[metric] = (stats.calls[name] / steps if steps else 0.0, "calls/step")
    env_calls = stats.calls["world.environment_at"]
    metrics["world.environment_at_distinct_frac"] = (
        len(stats.env_points) / env_calls if env_calls else 0.0, "frac")
    # The simulator's share of in-process time: the jobs when the fleet
    # ran them, else the whole round in each of the processes running it.
    busy_s = sum(stats.job_s) if stats.job_s else workers * wall_s
    metrics["sensors.record_walk_share"] = (
        stats.inclusive["sensors.record_walk"] / busy_s if busy_s else 0.0, "frac")

    walked = [r for r in results if hasattr(r, "records")]
    records = [record for r in walked for record in r.records]
    for scheme in SCHEMES:
        seconds = stats.inclusive[f"schemes.{scheme}"] + sum(
            time for (owner, _), time in stats.scheme_kernels.items() if owner == scheme
        )
        metrics[f"schemes.{scheme}.ms_per_step"] = (_per_step_ms(seconds, steps), "ms/step")
        metrics[f"schemes.{scheme}.failures"] = (
            float(sum(1 for rec in records if scheme in rec.decision.failures)), "count")
        metrics[f"schemes.{scheme}.unavailable_frac"] = (
            sum(1 for rec in records if rec.decision.outputs.get(scheme) is None)
            / len(records) if records else 0.0,
            "frac",
        )

    framework_self = (
        stats.self_time["core.framework.step"] + stats.self_time["core.framework.lane_step"]
    )
    metrics["core.framework.self_ms_per_step"] = (
        _per_step_ms(framework_self, steps), "ms/step")
    metrics["core.framework.contained_failures"] = (
        float(sum(len(rec.decision.failures) for rec in records)), "count")
    metrics["core.framework.quarantined_steps"] = (
        float(sum(len(rec.decision.quarantined) for rec in records)), "count")

    batches = stats.calls["core.population.step_batch"]
    lanes = stats.batch_lanes
    metrics["core.population.step_batch_ms_per_walker_step"] = (
        stats.inclusive["core.population.step_batch"] * 1e3 / lanes if lanes else 0.0,
        "ms/step",
    )
    metrics["core.population.lanes_per_batch"] = (
        lanes / batches if batches else 0.0, "lanes")
    metrics["core.population.self_ms_per_walker_step"] = (
        stats.self_time["core.population.step_batch"] * 1e3 / lanes if lanes else 0.0,
        "ms/step",
    )

    job_s = stats.job_s
    metrics["fleet.executor.worker_busy_frac"] = (
        sum(job_s) / (workers * wall_s) if job_s and wall_s else 0.0, "frac")
    metrics["fleet.executor.job_s_p50"] = (statistics.median(job_s) if job_s else 0.0, "s")
    metrics["fleet.executor.job_s_max"] = (max(job_s) if job_s else 0.0, "s")
    return metrics
