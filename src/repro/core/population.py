"""Batch-first population stepping: N walkers as ``(N, ...)`` arrays.

:class:`PopulationFramework` advances many :class:`UniLocFramework`
*lanes* through one location-estimation step at a time.  It is the only
step path: :meth:`UniLocFramework.step` is a population of size 1.  The
design follows the kernel layer's contract from the radio substrate: the
batched path must be **byte-identical** to stepping each lane alone, so
walks stay reproducible bit-for-bit while populations (and the two
particle filters of a single walker) amortize the numpy work.

The step is split into two phases:

1. **Pre-pass (batched).**  The work of the paper's own schemes that is
   provably bit-identical when stacked across lanes runs once for the
   whole population:

   * particle-filter prediction as a ``(K, P, 2)`` tensor update with
     per-lane RNG streams (:func:`repro.schemes.particle_filter.predict_lanes`),
   * fingerprint matching as one dense ``(K, E)`` distance evaluation
     (:meth:`repro.radio.kernels.CompiledFingerprintDatabase.distances_batch`),
   * fusion RSSI re-weighting with one KD-tree query over the
     concatenated clouds and one distance pass over the survey rows
     those clouds are nearest to, and
   * fingerprint BMA posteriors as one ``(L, I)`` Gaussian
     rasterization (:meth:`repro.geometry.grid.Grid.gaussian_posteriors`).

   Each lane gets one :class:`~repro.core.framework.PreparedResult` per
   scheme the pre-pass ran: its output or the exception its work
   raised, plus the output's posterior row.

2. **Lane pass (scalar).**  Every lane then runs its scalar control
   flow (:meth:`UniLocFramework._step_scalar`) over its prepared
   results: quarantine and health bookkeeping, the per-scheme guards,
   confidence weighting, BMA, and the HMM update all execute per walker.

Faults are contained per lane.  An exception from one lane's own
pre-pass work (its scan, its match tail, its RSSI factors, landmark
step, resampling or output) becomes that scheme's outcome for the step,
and the scheme does no further work that step; the lane body records
it through the same health, quarantine, metrics and telemetry path as
an exception from ``estimate``.  When a pure stacked kernel raises
(``distances_batch``, the KD-tree query, ``estimate_lanes``,
``gaussian_posteriors``) it is re-run one lane at a time, so only the
lanes it raises for fail; a lane whose posterior row cannot be
rasterized mixes its output in the BMA like a lone step would.  One
stage is not contained: ``predict_lanes`` draws from every lane's
generator, so a stacked prediction that raises part-way cannot be
replayed per lane, and its exception propagates.

What is never prepared: GPS (the §IV-C duty-cycling policy decides in
the lane whether to power it), schemes of any other type, fault-wrapped
ones included (they run through ``estimate`` in the lane), lanes with
tracing enabled (span latencies must be measured), and lanes with a
``scheme_timeout_ms`` budget (the budget times the real call).
"""

from __future__ import annotations

from typing import Annotated, Any, Callable, Sequence

import numpy as np

from repro.core.framework import PreparedResult, StepDecision, UniLocFramework
from repro.geometry import Grid
from repro.radio.kernels import CompiledFingerprintDatabase
from repro.schemes.base import SchemeOutput
from repro.schemes.fingerprinting import CellularScheme, FingerprintScheme, RadarScheme
from repro.schemes.fusion import FusionScheme
from repro.schemes.particle_filter import estimate_lanes, predict_lanes
from repro.schemes.pdr import PdrScheme, compensate_steps
from repro.sensors import SensorSnapshot
from repro.shapes import Shape

class PopulationFramework:
    """Step N independent UniLoc walkers at once.

    Lanes are full :class:`UniLocFramework` instances — each keeps its
    own schemes, RNG streams, health/quarantine state, and trajectory
    predictor — so a population is exactly N lone walkers, only faster.

    Raises:
        ValueError: for an empty population or lanes sharing scheme
            instances (the pre-pass advances each scheme object once per
            stage, which matches lone stepping only for distinct ones).
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
        prepared: list[dict[str, PreparedResult]] = [{} for _ in stepped]
        self._prepare(
            [
                (lane, snapshot, results)
                for lane, snapshot, results in zip(stepped, snapshots, prepared)
                if self._preparable(lane)
            ]
        )
        return [
            lane._step_scalar(snapshot, results)
            for lane, snapshot, results in zip(stepped, snapshots, prepared)
        ]

    # ------------------------------------------------------------------
    # Pre-pass
    # ------------------------------------------------------------------

    @staticmethod
    def _preparable(lane: UniLocFramework) -> bool:
        """True when the lane's guards can consume prepared results.

        Tracing lanes must measure real ``estimate()`` spans and budgeted
        lanes must time the real call, so both run fully scalar.
        """
        return not lane.tracer.enabled and lane.scheme_timeout_ms is None

    def _prepare(self, lanes) -> None:
        """Run the lanes' schemes in stacked stages, one result per scheme."""
        fp_groups: dict[
            int,
            tuple[
                CompiledFingerprintDatabase,
                list[tuple[PreparedResult, FingerprintScheme, dict, Grid]],
            ],
        ] = {}
        pf_jobs: list[tuple[PreparedResult, PdrScheme, SensorSnapshot]] = []
        for lane, snapshot, results in lanes:
            for name, bundle in lane.bundles.items():
                if lane._health[name].is_quarantined(lane._step_index):
                    continue  # the lane will skip this scheme entirely
                scheme = bundle.scheme
                kind = type(scheme)
                if kind is RadarScheme or kind is CellularScheme:
                    result = results[name] = PreparedResult()
                    try:
                        scan = scheme._scan(snapshot)
                    except Exception as exc:  # noqa: BLE001 — black-box scheme
                        result.error = exc
                        continue
                    if scan:
                        group = fp_groups.setdefault(
                            id(scheme._index), (scheme._index, [])
                        )
                        group[1].append((result, scheme, scan, lane._grid))
                elif kind is PdrScheme or kind is FusionScheme:
                    result = results[name] = PreparedResult()
                    pf_jobs.append((result, scheme, snapshot))
        posterior_jobs: list[tuple[Grid, PreparedResult]] = []
        for index, jobs in fp_groups.values():
            self._prepare_fingerprints(index, jobs, posterior_jobs)
        self._prepare_particles(pf_jobs)
        self._prepare_posteriors(posterior_jobs)

    def _prepare_fingerprints(self, index, jobs, posterior_jobs) -> None:
        """One dense ``(K, E)`` distance pass for every non-empty scan.

        Each lane's scheme then builds its own output from its score row
        (continuity anchor and all), which is bit-identical to its scalar
        ``estimate`` — see ``FingerprintScheme._estimate_from``.
        """
        rows = _lanewise(index.distances_batch, [scan for _, _, scan, _ in jobs])
        for (result, scheme, scan, grid), row in zip(jobs, rows):
            if isinstance(row, Exception):
                result.error = row
                continue
            try:
                result.output = scheme._estimate_from(scan, row)
            except Exception as exc:  # noqa: BLE001 — black-box scheme
                result.error = exc
                continue
            if result.output is not None:
                posterior_jobs.append((grid, result))

    def _prepare_particles(self, jobs) -> None:
        """Advance all motion/fusion particle clouds as stacked tensors.

        Per lane the operation order is exactly the scalar ``estimate``
        (motion update, RSSI re-weighting for fusion, landmark update,
        resampling, output) and every random draw comes from the lane's
        own generator in scalar order; only independent per-lane work is
        stacked, so the clouds evolve bit-for-bit as in serial execution.
        A lane whose work raises at one stage skips the later ones, as
        its ``estimate`` would.  Particle outputs rasterize as histograms,
        which stay scalar in the BMA (cheap bincounts), so no posterior
        rows are prepared here.
        """
        moved: list[tuple[PreparedResult, PdrScheme, SensorSnapshot, list[float]]] = []
        for result, scheme, snapshot in jobs:
            try:
                lengths = compensate_steps(snapshot.imu.step_events)
            except Exception as exc:  # noqa: BLE001 — black-box scheme
                result.error = exc
                continue
            moved.append((result, scheme, snapshot, lengths))
        filters = [scheme._pf for _, scheme, _, _ in moved]
        headings = [snapshot.imu.heading_rad for _, _, snapshot, _ in moved]
        rounds = max((len(lengths) for *_, lengths in moved), default=0)
        for r in range(rounds):
            active = [k for k, job in enumerate(moved) if len(job[3]) > r]
            predict_lanes(
                [filters[k] for k in active],
                [moved[k][3][r] for k in active],
                [headings[k] for k in active],
            )
        for _, scheme, _, lengths in moved:
            walked = 0.0
            for length in lengths:
                walked += length
            scheme.distance_since_landmark += walked
        self._rssi_updates(
            [
                (result, scheme, snapshot)
                for result, scheme, snapshot, _ in moved
                if type(scheme) is FusionScheme
            ]
        )
        settled: list[tuple[PreparedResult, PdrScheme, SensorSnapshot]] = []
        for result, scheme, snapshot, _ in moved:
            if result.error is not None:
                continue  # the RSSI re-weighting raised for this lane
            try:
                scheme._landmark_update(snapshot)
                scheme._pf.resample_if_needed()
            except Exception as exc:  # noqa: BLE001 — black-box scheme
                result.error = exc
                continue
            settled.append((result, scheme, snapshot))
        estimates = _lanewise(estimate_lanes, [scheme._pf for _, scheme, _ in settled])
        for (result, scheme, snapshot), estimate in zip(settled, estimates):
            if isinstance(estimate, Exception):
                result.error = estimate
                continue
            try:
                result.output = scheme._output_from(snapshot, *estimate)
            except Exception as exc:  # noqa: BLE001 — black-box scheme
                result.error = exc

    def _rssi_updates(self, jobs) -> None:
        """Fusion RSSI re-weighting across lanes sharing one survey.

        One KD-tree query runs over the concatenated ``(K * P, 2)``
        particle positions (each point's nearest fingerprint is
        independent of the others).  One distance pass then scores every
        lane's scan against only the survey rows some particle is
        nearest to, the rows scalar ``FusionScheme._rssi_update`` scores;
        a row's distance does not depend on which other rows are scored
        with it.  The re-weighting tail runs through the scalar
        ``FusionScheme._apply_rssi_factors``.
        """
        groups: dict[int, tuple[CompiledFingerprintDatabase, list]] = {}
        for result, scheme, snapshot in jobs:
            scan = snapshot.wifi_scan
            if not scan:
                continue
            group = groups.setdefault(id(scheme._fp_index), (scheme._fp_index, []))
            group[1].append((result, scheme, scan))
        for index, members in groups.values():
            tree = members[0][1]._fp_tree

            def query(
                clouds: list[Annotated[np.ndarray, Shape("(P, 2)")]],
            ) -> list[tuple[np.ndarray, np.ndarray]]:
                """Each particle's nearest survey row and distance, per lane."""
                distances, nearest = tree.query(np.concatenate(clouds))
                bounds = np.cumsum([len(cloud) for cloud in clouds])[:-1]
                return list(
                    zip(np.split(distances, bounds), np.split(nearest, bounds))
                )

            clouds = [scheme._pf.positions for _, scheme, _ in members]
            live: list[tuple] = []
            for member, found in zip(members, _lanewise(query, clouds)):
                if isinstance(found, Exception):
                    member[0].error = found
                else:
                    live.append((*member, *found))
            if not live:
                continue
            unique = np.unique(np.concatenate([nearest for *_, nearest in live]))
            scores = _lanewise(
                lambda scans: index.distances_batch(scans, rows=unique),
                [scan for _, _, scan, _, _ in live],
            )
            for (result, scheme, _, distances, nearest), row in zip(live, scores):
                if isinstance(row, Exception):
                    result.error = row
                    continue
                try:
                    scheme._apply_rssi_factors(
                        row[np.searchsorted(unique, nearest)], distances
                    )
                except Exception as exc:  # noqa: BLE001 — black-box scheme
                    result.error = exc

    @staticmethod
    def _prepare_posteriors(jobs: list[tuple[Grid, PreparedResult]]) -> None:
        """Rasterize all fingerprint outputs as one ``(L, I)`` pass per grid.

        Lanes with equal grids share the pass; each row lands in the
        lane's prepared result, where the BMA mixes it in place of
        rasterizing the output (rows of outputs the guards later reject
        are simply never used).
        """
        groups: dict[Grid, list[PreparedResult]] = {}
        for grid, result in jobs:
            groups.setdefault(grid, []).append(result)
        for grid, results in groups.items():

            def rasterize(outputs: list[SchemeOutput]) -> np.ndarray:
                means = np.array([[o.position.x, o.position.y] for o in outputs])
                sigmas = np.array([max(o.spread, 1.0) for o in outputs])
                return grid.gaussian_posteriors(means, sigmas)

            rows = _lanewise(rasterize, [result.output for result in results])
            for result, row in zip(results, rows):
                if not isinstance(row, Exception):
                    result.posterior = row


def _lanewise(kernel: Callable[[list[Any]], Any], items: list[Any]) -> list[Any]:
    """Run a pure stacked kernel over per-lane inputs, one result per lane.

    Stacking changes no value, so when the batch raises, the kernel is
    re-run one lane at a time: a lane it still raises for gets that
    exception as its result, every other lane gets its own row.
    """
    try:
        return list(kernel(items))
    except Exception:  # noqa: BLE001 — re-run per lane below
        results: list[Any] = []
        for item in items:
            try:
                results.append(kernel([item])[0])
            except Exception as exc:  # noqa: BLE001 — black-box scheme
                results.append(exc)
        return results
