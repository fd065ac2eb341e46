"""Run one workload end to end: cold set-ups, timed rounds, checks, metrics.

Two kinds of run, never mixed:

* the **end-to-end run** (``trace=False``) reports the ``end_to_end``
  metrics of ``BENCHMARK.json``.  Only step latencies are recorded, by a
  timer around the two step entry points.
* the **traced run** (``trace=True``) reports the ``per_layer`` metrics.
  It traces one cold set-up, runs one untraced warm-up round, then a
  fixed number of rounds twice each — traced first, then untraced — so
  that ``obs.tracing_overhead_frac`` compares the same work.

Both drive the program only through its public entry points
(``ArtifactCache``, ``PlaceSetup``, ``build_framework``, ``run_walks``,
``run_population``, ``WalkJob``/``FaultPlan``) with the default step path.
"""

from __future__ import annotations

import math
import pickle
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

from perfbench import checks, layers
from perfbench.probe import CacheCounter, Chunk, Probe
from perfbench.workloads import MODELS_SEED, SETUP_SEED, Workload

#: Traced rounds of a traced run, each also run untraced for the overhead.
TRACE_ROUNDS = {"full": 2, "tiny": 1}


@dataclass
class Round:
    """One round of jobs and what came back."""

    jobs: list[Any]
    results: list[Any]
    wall_s: float
    jobs_retried: int = 0


@dataclass
class Scored:
    """Output checks and scores over a list of rounds."""

    attempted: int = 0
    failed: int = 0
    scored_steps: int = 0
    failed_walks: int = 0
    problems: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)

    def add(self, rnd: Round, place: Any) -> int:
        """Check one round's walks; return how many steps it scored."""
        from repro.fleet import WalkFailure

        before = self.scored_steps
        for job, result in zip(rnd.jobs, rnd.results):
            moments = checks.expected_moments(job, place)
            self.attempted += len(moments)
            if isinstance(result, WalkFailure):
                self.failed += len(moments)
                self.failed_walks += 1
                self.problems.append(result.describe())
                continue
            problems = checks.check_walk(result, moments)
            if problems:
                self.failed += len(moments)
                self.failed_walks += 1
                self.problems.extend(f"{job.path_name}/w{job.walk_seed}: {p}" for p in problems)
                continue
            self.failed += checks.unanswered_steps(result)
            self.scored_steps += len(result.records)
        self.digests.append(checks.digest(rnd.results))
        return self.scored_steps - before


# -- set-up -----------------------------------------------------------------


def cold_setup(
    workload: Workload, seed: int, size: str, tracer: Any = None
) -> tuple[Any, Any, float]:
    """Train, deploy, survey and build one framework with an empty cache.

    The cache is memory-only, so it is private to this process and
    ``REPRO_CACHE_DIR`` is never read.  Returns ``(cache, setup, seconds)``.
    """
    from repro.eval.setup import build_framework
    from repro.fleet import ArtifactCache

    cache = ArtifactCache(None, tracer=tracer) if tracer is not None else ArtifactCache(None)
    start = perf_counter()
    models = cache.error_models(MODELS_SEED)
    setup = cache.place_setup(workload.place, SETUP_SEED)
    job = workload.jobs(seed, 0, size, setup.place)[0]
    path = setup.place.paths[job.path_name]
    build_framework(
        setup,
        models,
        path.polyline.point_at_distance(job.start_arc),
        scheme_seed=job.walk_seed + 11,
        gps_duty_cycling=job.gps_duty_cycling,
        grid_cell_m=job.grid_cell_m,
    )
    return cache, setup, perf_counter() - start


# -- rounds -----------------------------------------------------------------


#: The artifact cache a forked population process inherits (see ``run_round``).
_POPULATION_CACHE: Any = None


def _population_in_child(jobs: list[Any]) -> list[Any]:
    """Run one population in a forked process and spool its probe buffer."""
    from repro.fleet import run_population

    from perfbench import probe

    results = run_population(jobs, cache=_POPULATION_CACHE)
    if probe._ACTIVE is not None:
        probe._ACTIVE.flush_worker()
    return results


def run_round(workload: Workload, cache: Any, jobs: list[Any]) -> Round:
    """Run one round of jobs through the workload's entry point.

    A population workload with ``workers`` > 1 splits the round into that
    many equal populations and runs each through ``run_population`` in its
    own forked process, at once: one population per core.
    """
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    from repro.fleet import run_population, run_walks
    from repro.obs.metrics import MetricsRegistry

    global _POPULATION_CACHE
    # Pool workers always meter into a registry of their own; the parent
    # only merges it, so passing one changes no worker's work.  Inline
    # runs get none, which keeps their step path as shipped.
    registry = MetricsRegistry() if workload.runner == "fleet" and workload.workers > 1 else None
    start = perf_counter()
    if workload.runner == "population" and workload.workers > 1:
        n, w = len(jobs), workload.workers
        groups = [jobs[k * n // w:(k + 1) * n // w] for k in range(w)]
        _POPULATION_CACHE = cache  # inherited by the forked processes
        with ProcessPoolExecutor(w, mp_context=get_context("fork")) as pool:
            results = [r for group in pool.map(_population_in_child, groups) for r in group]
    elif workload.runner == "population":
        results = run_population(jobs, cache=cache)
    else:
        results = run_walks(
            jobs,
            workers=workload.workers,
            cache=cache,
            metrics=registry,
            on_failure="return",
        )
    wall_s = perf_counter() - start
    retried = 0
    if registry is not None:
        retried = int(registry.snapshot().get("fleet.jobs_retried", {}).get("value", 0))
    return Round(jobs=jobs, results=results, wall_s=wall_s, jobs_retried=retried)


def score(rounds: list[Round], place: Any) -> Scored:
    """Check every walk of every round against its generated moments."""
    scored = Scored()
    for rnd in rounds:
        scored.add(rnd, place)
    return scored


def _records(rnd: Round) -> list[Any]:
    return [rec for r in rnd.results if hasattr(r, "records") for rec in r.records]


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def peak_rss_mb() -> float:
    """Peak resident memory of this process and of its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# -- the two runs -------------------------------------------------------------


def run_end_to_end(
    workload: Workload, seed: int, seconds: float, size: str, spool: Path
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Return ``(result, report)`` of an untraced end-to-end run.

    Round 0 is a warm-up: it is checked and scored for accuracy but not
    timed.  Timings average over the timed rounds instead of taking their
    median, because the shared host switches between a fast and a ~1.5x
    slower speed for minutes at a time: a median flips between the two
    with the share of rounds that ran slow, a time average moves with it
    linearly (see README.md, "Steadiness").
    """
    cache, setup, setup_s = cold_setup(workload, seed, size)

    scored = Scored()
    rates: list[float] = []
    round_p50: list[float] = []
    round_p95: list[float] = []
    step_ms: list[float] = []
    accuracy: list[Any] = []
    timed_steps = 0
    timed_wall_s = 0.0
    accuracy_rounds = workload.sizes[size].accuracy_rounds
    minimum = max(accuracy_rounds, 2)  # the warm-up and one timed round
    with Probe("time", spool) as probe:
        deadline = perf_counter() + seconds
        index = 0
        while index < minimum or perf_counter() < deadline:
            jobs = workload.jobs(seed, index, size, setup.place)
            rnd = run_round(workload, cache, jobs)
            steps = scored.add(rnd, setup.place)
            samples = [ms for chunk in probe.take() for ms in chunk.step_ms]
            if index < accuracy_rounds:
                accuracy.extend(
                    (rec.uniloc2_error, rec.decision.gps_enabled) for rec in _records(rnd)
                )
            if index > 0:
                timed_steps += steps
                timed_wall_s += rnd.wall_s
                rates.append(steps / rnd.wall_s)
                round_p50.append(_percentile(samples, 50))
                round_p95.append(_percentile(samples, 95))
                step_ms.extend(samples)
            index += 1

    errors = [error for error, _ in accuracy if error is not None]
    gps_off = sum(1 for _, gps_on in accuracy if not gps_on)
    attempted = max(scored.attempted, 1)
    metrics = {
        "setup_s": (setup_s, "s"),
        "walker_steps_per_s": (timed_steps / timed_wall_s, "1/s"),
        "step_ms_p50": (statistics.fmean(round_p50), "ms"),
        # The tail is the highest percentile with at least ten samples
        # beyond it on every workload: office-population lanes share the
        # time of only ~400 batches a run.
        "step_ms_p95": (_percentile(step_ms, 95), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "answered_frac": ((scored.attempted - scored.failed) / attempted, "frac"),
        "uniloc2_error_m_p50": (_percentile(errors, 50), "m"),
        "gps_off_frac": (gps_off / len(accuracy) if accuracy else float("nan"), "frac"),
    }
    report = {
        "samples": {
            "setup": 1,
            "timed_rounds": len(rates),
            "step_latencies": len(step_ms),
            "accuracy_steps": len(errors),
        },
        "uniloc2_error_m_mean": statistics.fmean(errors) if errors else None,
        "step_ms_p50_pooled": _percentile(step_ms, 50),
        "tails": {
            "walker_steps_per_s_min": min(rates),
            "step_ms_p99": _percentile(step_ms, 99),
            "step_ms_max": max(step_ms) if step_ms else None,
        },
        "walker_steps_per_s_rounds": rates,
        "step_ms_p50_rounds": round_p50,
        "step_ms_p95_rounds": round_p95,
    }
    return _result(scored, metrics, len(step_ms)), {**report, **_scored_report(scored)}


def run_traced(
    workload: Workload, seed: int, seconds: float, size: str, spool: Path
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Return ``(result, report)`` of a traced run (per-layer metrics)."""
    with Probe("setup", spool) as probe:
        cache, setup, setup_seconds = cold_setup(workload, seed, size, tracer=CacheCounter())
        setup_chunks = probe.take()

    # Warm-up, untraced, so neither side of the overhead pair pays first-round costs.
    with Probe("time", spool) as probe:
        run_round(workload, cache, workload.jobs(seed, 0, size, setup.place))
        probe.take()

    traced: list[Round] = []
    untraced: list[Round] = []
    chunks: list[Chunk] = []
    for index in range(1, TRACE_ROUNDS[size] + 1):
        jobs = workload.jobs(seed, index, size, setup.place)
        with Probe("trace", spool) as probe:
            probe.register_setup(setup)
            traced.append(run_round(workload, cache, jobs))
            chunks.extend(probe.take())
        with Probe("time", spool) as probe:
            untraced.append(run_round(workload, cache, jobs))
            probe.take()

    scored = score(traced, setup.place)
    untraced_scored = score(untraced, setup.place)
    if untraced_scored.digests != scored.digests:
        scored.problems.append("traced and untraced rounds scored different results")
    setup_stats = layers.aggregate(setup_chunks)
    stats = layers.aggregate(chunks)
    results = [r for rnd in traced for r in rnd.results]
    steps = sum(len(r.records) for r in results if hasattr(r, "records"))
    traced_wall = sum(rnd.wall_s for rnd in traced)
    untraced_wall = sum(rnd.wall_s for rnd in untraced)
    metrics = layers.setup_metrics(setup_stats)
    counts = setup_stats.counts + stats.counts
    metrics["fleet.cache.hits"] = (float(counts["fleet.cache.hit"]), "count")
    metrics["fleet.cache.misses"] = (float(counts["fleet.cache.miss"]), "count")
    metrics.update(
        layers.step_metrics(
            stats, results, steps, traced_wall, min(workload.workers, len(traced[0].jobs))
        )
    )
    result_bytes = sum(len(pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL)) for r in results)
    metrics["fleet.executor.result_bytes_per_step"] = (
        result_bytes / steps if steps else 0.0, "bytes/step")
    metrics["fleet.executor.jobs_failed"] = (
        float(sum(1 for r in results if not hasattr(r, "records"))), "count")
    metrics["fleet.executor.jobs_retried"] = (
        float(sum(rnd.jobs_retried for rnd in traced)), "count")
    metrics["obs.tracing_overhead_frac"] = (traced_wall / untraced_wall - 1.0, "frac")
    errors = [
        rec.uniloc2_error
        for r in results if hasattr(r, "records")
        for rec in r.records if rec.uniloc2_error is not None
    ]
    metrics["eval.uniloc2_error_m_mean"] = (
        statistics.fmean(errors) if errors else float("nan"), "m")
    report = {
        "samples": {"traced_rounds": len(traced), "traced_steps": steps},
        "setup_s_traced": setup_seconds,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "self_ms_per_step": {
            name: value * 1e3 / steps
            for name, value in sorted(stats.self_time.items(), key=lambda kv: -kv[1])
        } if steps else {},
        "scheme_kernel_ms_per_step": {
            f"{owner}/{name}": value * 1e3 / steps
            for (owner, name), value in sorted(stats.scheme_kernels.items())
        } if steps else {},
    }
    return _result(scored, metrics, steps), {**report, **_scored_report(scored)}


def _result(scored: Scored, metrics: dict[str, tuple[float, str]], samples: int) -> dict:
    finite = all(math.isfinite(value) for value, _ in metrics.values())
    return {
        "correct": not scored.problems and finite and samples > 0,
        "attempted": scored.attempted,
        "failed": scored.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _scored_report(scored: Scored) -> dict[str, Any]:
    return {
        "digest_round0": scored.digests[0] if scored.digests else None,
        "failed_walks": scored.failed_walks,
        "problems": scored.problems[:20],
    }
