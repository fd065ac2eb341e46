"""Batch-first population stepping: N walkers as ``(N, ...)`` arrays.

:class:`PopulationFramework` advances many :class:`UniLocFramework`
*lanes* through one location-estimation step at a time.  The design
follows the kernel layer's contract from the radio substrate: the batched
path must be **byte-identical** to serial scalar execution, so serial
``UniLocFramework`` walks stay reproducible bit-for-bit while large
populations amortize the numpy work.

The step is split into two phases:

1. **Pre-pass (batched).**  Everything that is provably bit-identical
   when stacked across lanes runs once for the whole population:

   * particle-filter prediction as a ``(K, P, 2)`` tensor update with
     per-lane RNG streams (:func:`repro.schemes.particle_filter.predict_lanes`),
   * fingerprint matching as one dense ``(K, E)`` distance evaluation
     (:meth:`repro.radio.kernels.CompiledFingerprintDatabase.distances_batch`),
   * fusion RSSI re-weighting with one KD-tree query over the
     concatenated clouds,
   * GPS dispatched through the :class:`repro.schemes.base.Scheme`
     Protocol's ``estimate_batch`` hook, and
   * point-scheme BMA posteriors as one ``(L, I)`` Gaussian
     rasterization (:meth:`repro.geometry.grid.Grid.gaussian_posteriors`).

   Each lane's scheme gets its computed output *primed* onto it
   (``scheme._population_primed``), and geometry features (corridor
   width, fingerprint density) are memoized on the shared place and
   survey so the first lane pays the scalar cost and the rest reuse the
   exact float.

2. **Lane pass (scalar).**  Every lane then runs its unmodified scalar
   control flow (:meth:`UniLocFramework._step_scalar`): quarantine and
   health bookkeeping, the per-scheme guards, confidence weighting, BMA,
   and the HMM update all execute per walker, consuming the primed
   results where the guards would have called ``estimate``.

What is *never* primed: fault-wrapped schemes (fault gating is per-step
and must run in place), lanes with tracing enabled (span latencies must
be measured), and lanes with a ``scheme_timeout_ms`` budget (the budget
times the real call).  Those lanes simply run scalar inside the
population, which is always correct.

The pre-pass assumes the paper's own schemes do not raise; an exception
there propagates instead of being contained as a per-scheme failure.
Schemes that need containment should be fault-wrapped — which excludes
them from priming and restores exact scalar containment semantics.
"""

from __future__ import annotations

from typing import Annotated, Sequence

import numpy as np

from repro.core.framework import StepDecision, UniLocFramework
from repro.geometry import Grid
from repro.radio.fingerprint import FingerprintDatabase
from repro.radio.kernels import CompiledFingerprintDatabase, compile_fingerprints
from repro.schemes.base import Scheme, SchemeOutput
from repro.schemes.fingerprinting import CellularScheme, RadarScheme
from repro.schemes.fusion import FusionScheme
from repro.schemes.gps_scheme import GpsScheme
from repro.schemes.particle_filter import estimate_lanes, predict_lanes
from repro.schemes.pdr import PdrScheme, compensate_steps
from repro.sensors import SensorSnapshot
from repro.shapes import Shape


class PopulationFramework:
    """Step N independent UniLoc walkers at once.

    Lanes are full :class:`UniLocFramework` instances — each keeps its
    own schemes, RNG streams, health/quarantine state, and trajectory
    predictor — so a population is exactly N serial walkers, only faster.
    A population of size 1 is how the scalar ``step()`` API runs by
    default.

    Raises:
        ValueError: for an empty population or lanes sharing scheme
            instances (priming state is per scheme object).
    """

    def __init__(self, lanes: Sequence[UniLocFramework]) -> None:
        if not lanes:
            raise ValueError("a population needs at least one lane")
        self.lanes: list[UniLocFramework] = list(lanes)
        seen: set[int] = set()
        for lane in self.lanes:
            for bundle in lane.bundles.values():
                if id(bundle.scheme) in seen:
                    raise ValueError(
                        "population lanes must not share scheme instances"
                    )
                seen.add(id(bundle.scheme))
            self._enable_memos(lane)

    @property
    def n_lanes(self) -> int:
        """Return the population size N."""
        return len(self.lanes)

    def reset(self) -> None:
        """Reset every lane (schemes, health, trajectory predictors)."""
        for lane in self.lanes:
            lane.reset()

    def step_batch(
        self,
        snapshots: Sequence[SensorSnapshot],
        lanes: Sequence[UniLocFramework] | None = None,
    ) -> list[StepDecision]:
        """Advance every lane by one step; returns one decision per lane.

        Args:
            snapshots: one sensor snapshot per lane, aligned with the
                lane order.
            lanes: optional subset (or reordering) of the population to
                step this call — walkers in a fleet do not all share walk
                lengths.  Defaults to all lanes.

        Raises:
            ValueError: if ``snapshots`` and the stepped lanes disagree
                in length.
        """
        stepped = self.lanes if lanes is None else list(lanes)
        if len(snapshots) != len(stepped):
            raise ValueError("need exactly one snapshot per stepped lane")
        primable = [
            i for i, lane in enumerate(stepped) if self._primable(lane)
        ]
        if primable:
            self._prime(stepped, snapshots, primable)
        decisions: list[StepDecision] = []
        try:
            for lane, snapshot in zip(stepped, snapshots):
                decisions.append(lane._step_scalar(snapshot))
        finally:
            for lane in stepped:
                self._cleanup(lane)
        return decisions

    # ------------------------------------------------------------------
    # Pre-pass
    # ------------------------------------------------------------------

    @staticmethod
    def _primable(lane: UniLocFramework) -> bool:
        """True when the lane's guards can consume prepared results.

        Tracing lanes must measure real ``estimate()`` spans and budgeted
        lanes must time the real call, so both run fully scalar.
        """
        return not lane.tracer.enabled and lane.scheme_timeout_ms is None

    def _prime(
        self,
        lanes: Sequence[UniLocFramework],
        snapshots: Sequence[SensorSnapshot],
        indices: Sequence[int],
    ) -> None:
        """Compute batched scheme outputs and hand them to the lanes."""
        gps_jobs: list[tuple[UniLocFramework, str, GpsScheme, SensorSnapshot]] = []
        fp_groups: dict[
            int,
            tuple[
                CompiledFingerprintDatabase,
                list[tuple[UniLocFramework, str, Scheme, dict, SensorSnapshot]],
            ],
        ] = {}
        pf_jobs: list[tuple[UniLocFramework, str, PdrScheme, SensorSnapshot]] = []
        for i in indices:
            lane, snapshot = lanes[i], snapshots[i]
            for name, bundle in lane.bundles.items():
                if lane._health[name].is_quarantined(lane._step_index):
                    continue  # the lane will skip this scheme entirely
                scheme = bundle.scheme
                kind = type(scheme)
                if kind is GpsScheme:
                    gps_jobs.append((lane, name, scheme, snapshot))
                elif kind is RadarScheme or kind is CellularScheme:
                    scan = scheme._scan(snapshot)
                    if scan:
                        group = fp_groups.setdefault(
                            id(scheme._index), (scheme._index, [])
                        )
                        group[1].append((lane, name, scheme, scan, snapshot))
                elif kind is PdrScheme or kind is FusionScheme:
                    pf_jobs.append((lane, name, scheme, snapshot))
        posterior_entries: list[tuple[UniLocFramework, str, SchemeOutput]] = []
        self._prime_gps(gps_jobs, posterior_entries)
        for index, jobs in fp_groups.values():
            self._prime_fingerprints(index, jobs, posterior_entries)
        self._prime_particles(pf_jobs)
        self._prime_posteriors(posterior_entries)

    def _prime_gps(self, jobs, posterior_entries) -> None:
        """Batch GPS through the Scheme Protocol's ``estimate_batch``.

        GPS is stateless, so lanes sharing one map frame are dispatched
        as a single ``estimate_batch`` call on the group's first scheme —
        with equal frames the outputs are identical to per-lane calls.
        The lane's §IV-C duty-cycling policy still decides whether the
        primed output is consumed; unconsumed primes are swept after the
        step.
        """
        groups: list[tuple[object, list]] = []
        for lane, name, scheme, snapshot in jobs:
            for frame, members in groups:
                if frame == scheme.frame:
                    members.append((lane, name, scheme, snapshot))
                    break
            else:
                groups.append((scheme.frame, [(lane, name, scheme, snapshot)]))
        for _, members in groups:
            leader = members[0][2]
            outputs = leader.estimate_batch([snap for _, _, _, snap in members])
            for (lane, name, scheme, snapshot), output in zip(members, outputs):
                scheme._population_primed = (snapshot, output)
                if output is not None:
                    posterior_entries.append((lane, name, output))

    def _prime_fingerprints(self, index, jobs, posterior_entries) -> None:
        """One dense ``(K, E)`` distance pass for every non-empty scan.

        Each lane's scheme then builds its own output from its score row
        (continuity anchor and all), which is bit-identical to its scalar
        ``estimate`` — see ``FingerprintScheme._estimate_from``.
        """
        rows: Annotated[np.ndarray, Shape("(K, E)")] = index.distances_batch(
            [scan for _, _, _, scan, _ in jobs]
        )
        for (lane, name, scheme, scan, snapshot), row in zip(jobs, rows):
            output = scheme._estimate_from(scan, row)
            scheme._population_primed = (snapshot, output)
            if output is not None:
                posterior_entries.append((lane, name, output))

    def _prime_particles(self, jobs) -> None:
        """Advance all motion/fusion particle clouds as stacked tensors.

        Per lane the operation order is exactly the scalar ``estimate``
        (motion update, RSSI re-weighting for fusion, landmark update,
        resampling, output) and every random draw comes from the lane's
        own generator in scalar order; only independent per-lane work is
        stacked, so the clouds evolve bit-for-bit as in serial execution.
        Particle outputs rasterize as histograms, which stay scalar in
        the BMA (cheap bincounts), so no posterior rows are primed here.
        """
        if not jobs:
            return
        filters = [scheme._pf for _, _, scheme, _ in jobs]
        lengths = [
            compensate_steps(snapshot.imu.step_events)
            for _, _, _, snapshot in jobs
        ]
        headings = [snapshot.imu.heading_rad for _, _, _, snapshot in jobs]
        rounds = max(len(l) for l in lengths)
        for r in range(rounds):
            active = [k for k, l in enumerate(lengths) if len(l) > r]
            predict_lanes(
                [filters[k] for k in active],
                [lengths[k][r] for k in active],
                [headings[k] for k in active],
            )
        for (_, _, scheme, _), lane_lengths in zip(jobs, lengths):
            walked = 0.0
            for length in lane_lengths:
                walked += length
            scheme.distance_since_landmark += walked
        self._rssi_updates(
            [
                (scheme, snapshot)
                for _, _, scheme, snapshot in jobs
                if type(scheme) is FusionScheme
            ]
        )
        for _, _, scheme, snapshot in jobs:
            scheme._landmark_update(snapshot)
            scheme._pf.resample_if_needed()
        estimates = estimate_lanes(filters)
        for (_, _, scheme, snapshot), (position, spread) in zip(jobs, estimates):
            scheme._population_primed = (
                snapshot,
                scheme._output_from(snapshot, position, spread),
            )

    def _rssi_updates(self, jobs) -> None:
        """Fusion RSSI re-weighting across lanes sharing one survey.

        One KD-tree query runs over the concatenated ``(K * P, 2)``
        particle positions (each point's nearest fingerprint is
        independent of the others) and one dense distance pass scores
        every lane's scan; the per-lane unique/searchsorted gather and
        the re-weighting tail run through the scalar
        ``FusionScheme._apply_rssi_factors``.
        """
        groups: dict[int, tuple[CompiledFingerprintDatabase, list]] = {}
        for scheme, snapshot in jobs:
            scan = snapshot.wifi_scan
            if not scan:
                continue
            group = groups.setdefault(id(scheme._fp_index), (scheme._fp_index, []))
            group[1].append((scheme, scan))
        for index, members in groups.values():
            stacked: Annotated[np.ndarray, Shape("(K * P, 2)")] = np.concatenate(
                [scheme._pf.positions for scheme, _ in members]
            )
            distances, nearest = members[0][0]._fp_tree.query(stacked)
            rows = index.distances_batch([scan for _, scan in members])
            offset = 0
            for (scheme, _), row in zip(members, rows):
                n = scheme._pf.n_particles
                lane_distances = distances[offset : offset + n]
                lane_nearest = nearest[offset : offset + n]
                offset += n
                unique = np.unique(lane_nearest)
                per_particle = row[unique][
                    np.searchsorted(unique, lane_nearest)
                ]
                scheme._apply_rssi_factors(per_particle, lane_distances)

    def _prime_posteriors(self, entries) -> None:
        """Rasterize all point-scheme outputs as one ``(L, I)`` pass.

        Rows are grouped by (equal) lane grids and handed to each lane's
        BMA via ``_population_posteriors``; the framework identity-checks
        the output before mixing, so rows for outputs the guards later
        reject are simply never used.
        """
        groups: dict[Grid, list] = {}
        for lane, name, output in entries:
            if output.samples is not None and len(output.samples) > 0:
                continue  # particle shape: histogram posterior, stays scalar
            groups.setdefault(lane._grid, []).append((lane, name, output))
        for grid, members in groups.items():
            means = np.array(
                [[o.position.x, o.position.y] for _, _, o in members]
            )
            sigmas = np.array([max(o.spread, 1.0) for _, _, o in members])
            rows = grid.gaussian_posteriors(means, sigmas)
            for (lane, name, output), row in zip(members, rows):
                lane._population_posteriors[name] = (output, row)

    # ------------------------------------------------------------------

    @staticmethod
    def _enable_memos(lane: UniLocFramework) -> None:
        """Turn on cross-lane feature memoization for one lane.

        Fingerprint spatial densities are pure functions queried at
        grid-snapped points; memoizing them on the shared survey dedupes
        identical queries across lanes and steps while returning the
        scalar functions' exact floats.
        """
        for bundle in lane.bundles.values():
            for attr in ("_index", "_fp_index"):
                index = getattr(bundle.scheme, attr, None)
                if isinstance(index, CompiledFingerprintDatabase):
                    index.enable_density_memo()
            database = getattr(bundle.extractor, "database", None)
            if isinstance(database, FingerprintDatabase):
                compile_fingerprints(database).enable_density_memo()

    @staticmethod
    def _cleanup(lane: UniLocFramework) -> None:
        """Sweep unconsumed primes (e.g. duty-cycled GPS) after a step."""
        lane._population_posteriors.clear()
        for bundle in lane.bundles.values():
            if getattr(bundle.scheme, "_population_primed", None) is not None:
                del bundle.scheme._population_primed
