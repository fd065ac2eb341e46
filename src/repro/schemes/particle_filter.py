"""A vectorized particle filter for pedestrian dead reckoning.

The paper's motion and fusion schemes maintain 300 particles updated every
0.5 s step.  Each particle carries a position and a personal step-length
scale (the paper's step-model personalization: "step length adaptively
updated by particle filter", §III-B).  Map constraints kill particles that
leave the walkable area; systematic resampling keeps the cloud healthy.

Everything is numpy-vectorized: corridor containment and wall crossing
for all particles are computed against the compiled place's nearby
corridor and wall segments at once, so 300 particles x ~500 steps remain
fast in pure Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated, Sequence

import numpy as np

from repro.geometry import Point
from repro.shapes import Shape
from repro.world import Place


@dataclass
class ParticleFilter:
    """A particle cloud tracking one pedestrian.

    Attributes:
        place: the map that provides walkability constraints.
        n_particles: cloud size (the paper uses 300).
        heading_noise_std: per-particle heading perturbation per step.
        position_noise_std: per-step process noise in meters.
        scale_noise_std: random walk of the per-particle step-length scale.
        seed: seed of the placeholder RNG used before :meth:`initialize`
            installs the caller's walk-derived generator.
    """

    place: Place
    n_particles: int = 300
    heading_noise_std: float = 0.08
    position_noise_std: float = 0.15
    scale_noise_std: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_particles <= 0:
            raise ValueError("n_particles must be positive")
        self.positions = np.zeros((self.n_particles, 2))
        self.scales = np.ones(self.n_particles)
        self.weights = np.full(self.n_particles, 1.0 / self.n_particles)
        self._rng = np.random.default_rng(self.seed)

    def initialize(
        self, start: Point, spread: float, rng: np.random.Generator
    ) -> None:
        """Scatter the cloud around a known start position."""
        self._rng = rng
        self.positions = np.column_stack(
            [
                rng.normal(start.x, spread, self.n_particles),
                rng.normal(start.y, spread, self.n_particles),
            ]
        )
        self.scales = rng.normal(1.0, 0.05, self.n_particles)
        self.weights = np.full(self.n_particles, 1.0 / self.n_particles)

    def walkable_mask(self, positions: np.ndarray) -> np.ndarray:
        """Return a boolean mask of positions allowed by the map.

        A position is blocked only when it lies inside an *indoor* region
        but outside every corridor — i.e. inside a wall or a room it
        cannot reach.  Outdoor positions are always walkable, so in open
        spaces the map imposes no constraint (and PDR drifts, as in the
        paper).  Evaluated on the compiled place, which only tests the
        regions and corridors near the query cloud.
        """
        return self.place.compiled().walkable_mask(positions)

    def predict(self, step_length: float, heading: float) -> None:
        """Advance every particle by one step.

        Particles that would step off the walkable area keep their old
        position but get their weight suppressed, which is how map edges
        constrain the cloud without instantly emptying it.
        """
        headings = heading + self._rng.normal(
            0.0, self.heading_noise_std, self.n_particles
        )
        lengths = step_length * self.scales
        proposed = self.positions + np.column_stack(
            [lengths * np.cos(headings), lengths * np.sin(headings)]
        )
        proposed += self._rng.normal(
            0.0, self.position_noise_std, proposed.shape
        )
        mask = self.walkable_mask(proposed) & ~self._crosses_wall(
            self.positions, proposed
        )
        self.positions = np.where(mask[:, None], proposed, self.positions)
        self.weights = np.where(mask, self.weights, self.weights * 0.05)
        self.scales += self._rng.normal(0.0, self.scale_noise_std, self.n_particles)
        self.scales = np.clip(self.scales, 0.6, 1.4)
        self._renormalize()

    def _crosses_wall(self, old: np.ndarray, new: np.ndarray) -> np.ndarray:
        """Return a mask of particle moves whose path crosses a wall.

        Endpoint containment alone lets a long step leap a thin wall zone;
        checking the movement segment against the walls near the cloud
        (standard orientation predicates, vectorized particles x walls)
        makes the map constraint robust to step length.
        """
        return self.place.floorplan.compiled().crosses_wall(old, new)

    def reweight(self, factors: np.ndarray) -> None:
        """Multiply particle weights by external likelihood factors.

        Raises:
            ValueError: if ``factors`` has the wrong length.
        """
        factors = np.asarray(factors, dtype=float)
        if factors.shape != (self.n_particles,):
            raise ValueError("factors must have one entry per particle")
        self.weights *= np.maximum(factors, 0.0)
        self._renormalize()

    def recenter(self, anchor: Point, spread: float) -> None:
        """Pull the cloud to a calibration anchor (landmark detection).

        The paper's PDR resets accumulated error at detected landmarks;
        we re-scatter the cloud around the landmark while keeping each
        particle's learned step scale (personalization survives resets).
        """
        self.positions = np.column_stack(
            [
                self._rng.normal(anchor.x, spread, self.n_particles),
                self._rng.normal(anchor.y, spread, self.n_particles),
            ]
        )
        self.weights = np.full(self.n_particles, 1.0 / self.n_particles)

    def effective_sample_size(self) -> float:
        """Return the ESS of the current weights."""
        return float(1.0 / np.sum(self.weights**2))

    def resample_if_needed(self, threshold_frac: float = 0.5) -> bool:
        """Systematic resampling when ESS drops below a fraction of N.

        Returns:
            True if resampling happened.
        """
        if self.effective_sample_size() >= threshold_frac * self.n_particles:
            return False
        cumulative = np.cumsum(self.weights)
        cumulative[-1] = 1.0
        offsets = (
            self._rng.random() + np.arange(self.n_particles)
        ) / self.n_particles
        indices = np.searchsorted(cumulative, offsets)
        self.positions = self.positions[indices]
        self.scales = self.scales[indices]
        self.weights = np.full(self.n_particles, 1.0 / self.n_particles)
        return True

    def estimate(self) -> tuple[Point, float]:
        """Return the weighted-mean position and the cloud's spread."""
        mean = (self.positions * self.weights[:, None]).sum(axis=0)
        centered = self.positions - mean
        var = (self.weights[:, None] * centered**2).sum(axis=0).sum()
        return Point(float(mean[0]), float(mean[1])), float(math.sqrt(max(var, 0.0)))

    def _renormalize(self) -> None:
        """Normalize weights; recover from total degeneracy by resetting."""
        total = self.weights.sum()
        if total <= 0.0 or not np.isfinite(total):
            self.weights = np.full(self.n_particles, 1.0 / self.n_particles)
        else:
            self.weights /= total


# --------------------------------------------------------------------------
# Lane-batched twins (the population core's ``(K, P, 2)`` tensor update)
# --------------------------------------------------------------------------

#: Rows per stacked geometry evaluation in :func:`predict_lanes`; sized so
#: the (rows, walls) mask temporaries stay cache-resident.
_PREDICT_CHUNK_ROWS = 4096


def _batchable(filters: Sequence[ParticleFilter]) -> bool:
    """True when all filters share one map and one parameter set.

    The lane-batched kernels stack clouds into one tensor and evaluate
    the map constraint once over all ``K * P`` rows, which is only valid
    (and only bit-identical) when every lane queries the same geometry
    with the same noise parameters.
    """
    base = filters[0]
    return all(
        f.place is base.place
        and f.n_particles == base.n_particles
        and f.heading_noise_std == base.heading_noise_std
        and f.position_noise_std == base.position_noise_std
        and f.scale_noise_std == base.scale_noise_std
        for f in filters
    )


def predict_lanes(
    filters: Sequence[ParticleFilter],
    step_lengths_m: Sequence[float],
    headings: Sequence[float],
) -> None:
    """Advance ``K`` particle filters by one step each, as one tensor update.

    Bit-identical to calling ``filters[k].predict(step_lengths_m[k],
    headings[k])`` for each lane in order: every random draw comes from
    the lane's own generator in the scalar draw order (heading noise,
    position noise, scale noise), and the batched geometry masks
    (:meth:`ParticleFilter.walkable_mask`, wall crossing) are
    row-independent reductions, so stacking lanes changes no value.
    Lanes with differing maps or parameters fall back to the scalar loop.
    """
    if not filters:
        return
    if not _batchable(filters):
        for f, length, heading in zip(filters, step_lengths_m, headings):
            f.predict(length, heading)
        return
    base = filters[0]
    n = base.n_particles
    # Process lanes in cache-sized groups: the stacked geometry masks are
    # memory-bound, and a (K * P, m) temporary for a 1000-walker city
    # thrashes every cache level.  Lane RNG streams are independent and
    # each lane's draw order is preserved inside its group, so grouping
    # changes no value.
    group = max(1, _PREDICT_CHUNK_ROWS // n)
    if len(filters) > group:
        for lo in range(0, len(filters), group):
            predict_lanes(
                filters[lo : lo + group],
                step_lengths_m[lo : lo + group],
                headings[lo : lo + group],
            )
        return
    # Per-lane RNG draws, in the exact scalar order per generator.
    noisy_headings = np.stack(
        [
            heading + f._rng.normal(0.0, f.heading_noise_std, n)
            for f, heading in zip(filters, headings)
        ]
    )
    positions: Annotated[np.ndarray, Shape("(K, P, 2)")] = np.stack(
        [f.positions for f in filters]
    )
    scales = np.stack([f.scales for f in filters])
    weights = np.stack([f.weights for f in filters])
    lengths = np.asarray(step_lengths_m, dtype=float)[:, None] * scales
    proposed = positions + np.stack(
        [lengths * np.cos(noisy_headings), lengths * np.sin(noisy_headings)],
        axis=2,
    )
    for k, f in enumerate(filters):
        proposed[k] += f._rng.normal(0.0, f.position_noise_std, (n, 2))
    flat_old = positions.reshape(-1, 2)
    flat_new = proposed.reshape(-1, 2)
    mask = (
        base.walkable_mask(flat_new) & ~base._crosses_wall(flat_old, flat_new)
    ).reshape(len(filters), n)
    new_positions = np.where(mask[:, :, None], proposed, positions)
    new_weights = np.where(mask, weights, weights * 0.05)
    for k, f in enumerate(filters):
        scales[k] += f._rng.normal(0.0, f.scale_noise_std, n)
    scales = np.clip(scales, 0.6, 1.4)
    for k, f in enumerate(filters):
        f.positions = new_positions[k]
        f.weights = new_weights[k]
        f.scales = scales[k]
        f._renormalize()


def estimate_lanes(
    filters: Sequence[ParticleFilter],
) -> list[tuple[Point, float]]:
    """Return each filter's ``(mean position, spread)`` via one batched pass.

    Bit-identical to per-lane :meth:`ParticleFilter.estimate`: the
    weighted-mean and variance reductions run over axis 1 of the stacked
    ``(K, P, 2)`` tensor, which numpy evaluates with the same pairwise
    summation order as the scalar per-cloud reduction.
    """
    if not filters:
        return []
    if not all(f.n_particles == filters[0].n_particles for f in filters):
        return [f.estimate() for f in filters]
    positions = np.stack([f.positions for f in filters])
    weights = np.stack([f.weights for f in filters])
    means = (positions * weights[:, :, None]).sum(axis=1)
    centered = positions - means[:, None, :]
    variances = (weights[:, :, None] * centered**2).sum(axis=1).sum(axis=1)
    return [
        (
            Point(float(mean[0]), float(mean[1])),
            float(math.sqrt(max(float(var), 0.0))),
        )
        for mean, var in zip(means, variances)
    ]


def effective_sample_sizes(
    filters: Sequence[ParticleFilter],
) -> Annotated[np.ndarray, Shape("(K,)")]:
    """Return every filter's ESS from one stacked reduction.

    Row sums of the ``(K, P)`` squared-weight tensor are bit-identical
    to the per-lane :meth:`ParticleFilter.effective_sample_size` sums,
    so thresholding this array reproduces the scalar resampling decision
    exactly.
    """
    if not filters:
        return np.empty(0)
    if not all(f.n_particles == filters[0].n_particles for f in filters):
        return np.array([f.effective_sample_size() for f in filters])
    weights = np.stack([f.weights for f in filters])
    return 1.0 / np.sum(weights**2, axis=1)
