"""Compiled place geometry: the map as numpy arrays, built once.

Every hot geometry query of a walk — the environment label at a point,
how many walls each Wi-Fi ray crosses, which particles a map constraint
kills, the corridor width feature — used to walk the object geometry
(``Polygon``/``Segment``/``Corridor`` lists) in Python.  This module
compiles a :class:`~repro.world.floorplan.FloorPlan` and a
:class:`~repro.world.place.Place` into arrays once and answers those
queries from them.  ``FloorPlan.compiled()`` and ``Place.compiled()``
rebuild the arrays whenever a source list changes (a list compare that
short-cuts on element identity), so a replaced wall is never served
from a stale copy.

Every query is **exact**: it returns the same value, bit for bit, as the
scalar object code it replaces.  Lookups that cull elements by bounding
box state, next to the cull, why every dropped element provably adds
``False`` to its ``any``/``all`` reduction.  The margins come from the
tolerances of the formulas themselves (``Polygon.contains``' 1e-9
on-boundary test, the 1e-12 non-parallel threshold of the wall test)
plus :attr:`CompiledFloorPlan.slack`, a bound on coordinate rounding.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Annotated, Sequence

import numpy as np

from repro.geometry import Point, Segment
from repro.shapes import Shape
from repro.world.environment import is_indoor

if TYPE_CHECKING:
    from repro.world.floorplan import Corridor, FloorPlan, Landmark
    from repro.world.place import EnvironmentRegion

#: Unit roundoff of IEEE float64.
_U = 2.0**-53

#: ``Polygon.contains``' on-boundary tolerance.
_BOUNDARY_TOL = 1e-9

#: The wall test's non-parallel threshold on ``|r x s|``.
_PARALLEL_TOL = 1e-12

#: Relative slack of the candidate filters that re-check with the scalar
#: code.  numpy's and ``math``'s ``hypot`` are each within one ulp of the
#: exact value, so a tie or a radius test under one stays within 4 ulps
#: (< 1e-15 relative) under the other.
_RECHECK_REL = 1e-9


def _box_arrays(
    lo: Annotated[np.ndarray, Shape("(M, 2)")],
    hi: Annotated[np.ndarray, Shape("(M, 2)")],
    pad: Annotated[np.ndarray, Shape("(M,)")] | float,
) -> Annotated[np.ndarray, Shape("(M, 4)")]:
    """Return padded boxes as ``[x0, y0, -x1, -y1]`` rows.

    Negating the upper corners makes "the box holds ``(x, y)``" one
    comparison: ``row <= [x, y, -x, -y]`` in every column.
    """
    pad = np.asarray(pad, dtype=float)
    return np.column_stack(
        [lo[:, 0] - pad, lo[:, 1] - pad, -(hi[:, 0] + pad), -(hi[:, 1] + pad)]
    )


def _cloud_box(*clouds: np.ndarray) -> np.ndarray:
    """Return the ``[x0, y0, -x1, -y1]`` box of one or more point arrays.

    ``np.min``/``np.max`` propagate NaN, and every cull below compares
    against this box with ``<``/``>``, which is False on NaN: a NaN
    coordinate culls nothing.
    """
    lo = np.min([c.min(axis=0) for c in clouds], axis=0)
    hi = np.max([c.max(axis=0) for c in clouds], axis=0)
    return np.array([lo[0], lo[1], -hi[0], -hi[1]])


def _separated(
    cloud: Annotated[np.ndarray, Shape("(4,)")],
    boxes: Annotated[np.ndarray, Shape("(M, 4)")],
) -> Annotated[np.ndarray, Shape("(M,)")]:
    """True where a (padded) box and the cloud box are disjoint.

    With both in ``[x0, y0, -x1, -y1]`` form, box A lies wholly past B's
    high side on an axis iff ``A.x0 > B.x1``, i.e. ``A.x0 + B.(-x1) > 0``.
    """
    return (
        (cloud[0] + boxes[:, 2] > 0.0)
        | (cloud[1] + boxes[:, 3] > 0.0)
        | (boxes[:, 0] + cloud[2] > 0.0)
        | (boxes[:, 1] + cloud[3] > 0.0)
    )


def _crossings(
    old: Annotated[np.ndarray, Shape("(N, 2)")],
    r: Annotated[np.ndarray, Shape("(N, 2)")],
    starts: Annotated[np.ndarray, Shape("(M, 2)")],
    s: Annotated[np.ndarray, Shape("(M, 2)")],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(hits, nonparallel, q x r)``, each ``(N, M)``, for moves vs walls.

    The orientation predicate: move ``i`` (``old[i]`` along ``r[i]``)
    hits wall ``j`` (``starts[j]`` along ``s[j]``) when ``|r x s| >
    1e-12`` and both ``t = (q x s) / (r x s)`` and ``u = (q x r) / (r x
    s)`` lie in ``[0, 1]``, with ``q = start - old``.  Componentized per
    coordinate, the same multiplies and subtractions in the same order as
    the stacked ``(N, M, 2)`` form.
    """
    qp_x = starts[None, :, 0] - old[:, None, 0]  # (N, M)
    qp_y = starts[None, :, 1] - old[:, None, 1]
    r_cross_s = r[:, None, 0] * s[None, :, 1] - r[:, None, 1] * s[None, :, 0]
    qp_cross_r = qp_x * r[:, None, 1] - qp_y * r[:, None, 0]
    qp_cross_s = qp_x * s[None, :, 1] - qp_y * s[None, :, 0]
    nonparallel = np.abs(r_cross_s) > _PARALLEL_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(nonparallel, qp_cross_s / r_cross_s, np.nan)
        u = np.where(nonparallel, qp_cross_r / r_cross_s, np.nan)
    hits = nonparallel & (t >= 0.0) & (t <= 1.0) & (u >= 0.0) & (u <= 1.0)
    return hits, nonparallel, qp_cross_r


class CompiledFloorPlan:
    """Walls, corridors and landmarks of one floor plan as arrays.

    Attributes:
        slack: absolute bound, in metres, on the rounding error of any
            coordinate computed from the plan's vertices (64 ulps of the
            largest coordinate magnitude): a computed point on a segment
            lies within ``slack`` of the segment's bounding box.
    """

    def __init__(self, plan: FloorPlan) -> None:
        self.corridors: list[Corridor] = list(plan.corridors)
        self.walls: list[Segment] = list(plan.walls)
        self.landmarks: list[Landmark] = list(plan.landmarks)
        magnitude = 1.0
        # Corridors: centerline arrays, as the particle filter's map test
        # and the nearest-corridor lookup read them.
        self.corridor_starts = np.array(
            [[c.centerline.start.x, c.centerline.start.y] for c in self.corridors]
        ).reshape(-1, 2)
        self.corridor_ends = np.array(
            [[c.centerline.end.x, c.centerline.end.y] for c in self.corridors]
        ).reshape(-1, 2)
        self.corridor_half_widths = np.array([c.width / 2.0 for c in self.corridors])
        # Walls: start/end arrays plus the per-wall direction ``ends -
        # starts``, the same elementwise difference every query took.
        self.wall_starts = np.array(
            [[w.start.x, w.start.y] for w in self.walls]
        ).reshape(-1, 2)
        self.wall_ends = np.array(
            [[w.end.x, w.end.y] for w in self.walls]
        ).reshape(-1, 2)
        self.wall_dirs = self.wall_ends - self.wall_starts
        self.landmark_xy = np.array(
            [[lm.position.x, lm.position.y] for lm in self.landmarks]
        ).reshape(-1, 2)
        self.landmark_radii = np.array([lm.detection_radius for lm in self.landmarks])
        for arr in (
            self.corridor_starts,
            self.corridor_ends,
            self.corridor_half_widths,
            self.wall_starts,
            self.wall_ends,
        ):
            if arr.size:
                magnitude = max(magnitude, float(np.abs(arr).max()))
        self.slack = 64.0 * float(np.spacing(magnitude))
        # Corridor boxes padded by the half width plus slack: see
        # :meth:`in_corridor_mask` for why a disjoint one is all False.
        self._corridor_boxes = _box_arrays(
            np.minimum(self.corridor_starts, self.corridor_ends),
            np.maximum(self.corridor_starts, self.corridor_ends),
            self.corridor_half_widths + self.slack,
        )
        self._wall_lo = np.minimum(self.wall_starts, self.wall_ends)
        self._wall_hi = np.maximum(self.wall_starts, self.wall_ends)
        self._wall_norms = np.hypot(self.wall_dirs[:, 0], self.wall_dirs[:, 1])

    def matches(self, plan: FloorPlan) -> bool:
        """True while ``plan``'s lists still hold exactly what was compiled."""
        return (
            plan.walls == self.walls
            and plan.corridors == self.corridors
            and plan.landmarks == self.landmarks
        )

    # ----- radio: per-scan wall counts ------------------------------------

    def walls_crossed_from(
        self,
        sources: Annotated[np.ndarray, Shape("(K, 2)")],
        target: Point,
    ) -> list[int]:
        """Return how many walls each ray ``sources[k] -> target`` crosses.

        One ``(K, walls)`` pass with the elementwise orientation formula
        of the scalar per-ray test (same operands, same order, so the
        same floats); rays parallel to a wall and collinear with it fall
        back to the exact :meth:`Segment.intersects`, as before.
        """
        if not self.walls:
            return [0] * len(sources)
        r = np.array([target.x, target.y]) - sources  # (K, 2)
        hits, nonparallel, qp_cross_r = _crossings(
            sources, r, self.wall_starts, self.wall_dirs
        )
        counts: list[int] = hits.sum(axis=1).tolist()
        # Parallel walls are almost never collinear with a radio ray, but
        # stay exact for the ones that are.
        collinear = ~nonparallel & (np.abs(qp_cross_r) < 1e-9)
        for i, j in zip(*np.nonzero(collinear)):
            ray = Segment(Point(float(sources[i, 0]), float(sources[i, 1])), target)
            if ray.intersects(self.walls[j]):
                counts[i] += 1
        return counts

    # ----- particle filter: corridors and walls ---------------------------

    def in_corridor_mask(
        self, positions: Annotated[np.ndarray, Shape("(N, 2)")]
    ) -> Annotated[np.ndarray, Shape("(N,)")]:
        """Return a mask of positions within half a width of some corridor.

        Culls corridors whose box, padded by the half width plus
        :attr:`slack`, misses the positions' box.  For such a corridor
        every computed distance exceeds the half width.  The computed
        closest point ``start + t * d`` (``t`` clipped to ``[0, 1]``)
        lies within a few ulps of the centerline's box, because every
        rounding step is monotone; so ``|ex|`` or ``|ey|`` exceeds the
        half width by nearly ``slack``, and ``sqrt(ex**2 + ey**2)`` is at
        least that difference less a relative 2**-52, which the 64-ulp
        slack also covers.  ``dist <= half_width`` is then False for
        every row, and ``any`` over the kept corridors is unchanged.
        """
        n = len(positions)
        if not self.corridors or n == 0:
            return np.zeros(n, dtype=bool)
        cloud = _cloud_box(positions)
        keep = np.flatnonzero(~_separated(cloud, self._corridor_boxes))
        if keep.size == 0:
            return np.zeros(n, dtype=bool)
        starts = self.corridor_starts[keep]
        d = self.corridor_ends[keep] - starts  # (m, 2)
        seg_len2 = np.maximum((d * d).sum(axis=1), 1e-12)  # (m,)
        # Componentized per coordinate: the same multiplies and two-term
        # additions, in the same order, as the stacked (n, m, 2) form,
        # but with only (n, m) temporaries.
        dx = positions[:, None, 0] - starts[None, :, 0]  # (n, m)
        dy = positions[:, None, 1] - starts[None, :, 1]
        t = np.clip((dx * d[None, :, 0] + dy * d[None, :, 1]) / seg_len2, 0.0, 1.0)
        ex = positions[:, None, 0] - (starts[None, :, 0] + t * d[None, :, 0])
        ey = positions[:, None, 1] - (starts[None, :, 1] + t * d[None, :, 1])
        dist = np.sqrt(ex * ex + ey * ey)  # (n, m)
        return (dist <= self.corridor_half_widths[keep][None, :]).any(axis=1)

    def crosses_wall(
        self,
        old: Annotated[np.ndarray, Shape("(N, 2)")],
        new: Annotated[np.ndarray, Shape("(N, 2)")],
    ) -> Annotated[np.ndarray, Shape("(N,)")]:
        """Return a mask of moves ``old -> new`` that cross some wall.

        The test is :func:`_crossings`' orientation predicate.  A wall is
        culled when its box and the moves' box are farther apart than
        its reach (see :meth:`_walls_near`): a bound on how far apart a
        move and the wall can be when the *computed* ``t`` and ``u`` both
        land in ``[0, 1]``.  Rounding perturbs each cross product by at
        most ``8u`` of its magnitude, and ``|r x s| > 1e-12`` caps how far
        that can move the implied intersection point.  A culled wall
        thus adds no hit to any row.
        """
        n = len(old)
        if not self.walls or n == 0:
            return np.zeros(n, dtype=bool)
        r = new - old  # (n, 2)
        keep = self._walls_near(old, new, r)
        if keep.size == 0:
            return np.zeros(n, dtype=bool)
        starts, s = self.wall_starts[keep], self.wall_dirs[keep]
        hits, _, _ = _crossings(old, r, starts, s)
        return hits.any(axis=1)

    def _walls_near(
        self,
        old: Annotated[np.ndarray, Shape("(N, 2)")],
        new: Annotated[np.ndarray, Shape("(N, 2)")],
        r: Annotated[np.ndarray, Shape("(N, 2)")],
    ) -> Annotated[np.ndarray, Shape("(W,)")]:
        """Return the indices of walls a move in ``old -> new`` may hit.

        Derivation of the reach ``E`` of wall ``j``.  With real-number
        cross products ``A*, B*, D*`` of the float vectors, the line
        points ``P = old + t r`` and ``Q = start + u s`` satisfy
        ``(P - Q) x s = t D* - A*`` and ``(P - Q) x r = u D* - B*``.  The
        computed ``t = fl(A / D)`` has ``|t D - A| <= u |A|`` and
        ``|A| <= (1 + u) |D|`` on a hit, and each computed cross product
        is off by at most ``3u`` of ``K = |a_x b_y| + |a_y b_x|`` (the
        ``q`` difference adds one more rounding).  So, with ``e = 8u``
        (twice the sum, which also absorbs the rounding of this bound)::

            |(P - Q) x s| <= e (K_D + K_A)      |(P - Q) x r| <= e (K_D + K_B)
            |P - Q| <= (|(P-Q) x s| |r| + |(P-Q) x r| |s|) / |D*|
            |D*| >= 1e-12 - e K_D

        ``K_A <= Qx |s_y| + Qy |s_x|`` with ``Q`` the largest
        ``|start - old|`` per axis over the moves' box, ``K_B <= Qx R_y
        + Qy R_x`` and ``K_D <= R_x |s_y| + R_y |s_x|`` with ``R`` the
        largest ``|r|`` per axis.  ``P`` lies on the move to within ``e
        (|r| + Qx + Qy)`` (``start - q`` recovers ``old`` up to one
        rounding of ``q``) and ``Q`` on the wall to within ``e |s|``, so
        a hit needs the two boxes to be within ``E = |P - Q| + e (|r| +
        |s| + Qx + Qy) + slack`` of each other; ``slack`` covers the
        rounding of the padded-box comparison.  Walls with ``e K_D >=
        0.5e-12`` (a ~1000 m^2 move-times-wall product) are never culled.
        """
        e = 8.0 * _U
        cloud = _cloud_box(old, new)
        old_lo = old.min(axis=0)
        old_hi = old.max(axis=0)
        starts, s = self.wall_starts, self.wall_dirs
        q_x = np.maximum(
            np.abs(starts[:, 0] - old_lo[0]), np.abs(starts[:, 0] - old_hi[0])
        )
        q_y = np.maximum(
            np.abs(starts[:, 1] - old_lo[1]), np.abs(starts[:, 1] - old_hi[1])
        )
        r_x = float(np.abs(r[:, 0]).max())
        r_y = float(np.abs(r[:, 1]).max())
        r_norm = float(np.hypot(r[:, 0], r[:, 1]).max())
        s_x = np.abs(s[:, 0])
        s_y = np.abs(s[:, 1])
        k_d = r_x * s_y + r_y * s_x
        k_a = q_x * s_y + q_y * s_x
        k_b = q_x * r_y + q_y * r_x
        denom = _PARALLEL_TOL - e * k_d
        with np.errstate(divide="ignore", invalid="ignore"):
            reach = (
                e * ((k_d + k_a) * r_norm + (k_d + k_b) * self._wall_norms) / denom
                + e * (r_norm + self._wall_norms + q_x + q_y)
                + self.slack
            )
        cullable = denom > 0.5 * _PARALLEL_TOL
        boxes = _box_arrays(self._wall_lo, self._wall_hi, reach)
        dropped = cullable & _separated(cloud, boxes)
        return np.flatnonzero(~dropped)

    # ----- features and landmarks ------------------------------------------

    def nearest_corridor(self, point: Point) -> Corridor:
        """Return the corridor nearest ``point``; the first one on a tie.

        Exactly ``min(corridors, key=distance)``: numpy picks every
        corridor within a relative 1e-9 of the smallest distance, and the
        scalar ``Corridor.distance_to`` decides among those in list order.
        """
        x, y = point.x, point.y
        if not (math.isfinite(x) and math.isfinite(y)) or len(self.corridors) == 1:
            return min(self.corridors, key=lambda c: c.distance_to(point))
        starts = self.corridor_starts
        d = self.corridor_ends - starts
        denom = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
        proj = (x - starts[:, 0]) * d[:, 0] + (y - starts[:, 1]) * d[:, 1]
        t = np.clip(proj / np.where(denom == 0.0, 1.0, denom), 0.0, 1.0)
        dist = np.hypot(starts[:, 0] + d[:, 0] * t - x, starts[:, 1] + d[:, 1] * t - y)
        limit = float(dist.min()) * (1.0 + _RECHECK_REL) + 1e-300
        candidates = [self.corridors[j] for j in np.flatnonzero(dist <= limit)]
        return min(candidates or self.corridors, key=lambda c: c.distance_to(point))

    def detectable_landmarks(self, point: Point) -> list[Landmark]:
        """Return landmarks whose detection radius covers ``point``, in order.

        numpy preselects within a relative 1e-9 of each radius; the scalar
        ``distance_to(point) <= detection_radius`` test decides.
        """
        if not self.landmarks:
            return []
        xy = self.landmark_xy
        dist = np.hypot(xy[:, 0] - point.x, xy[:, 1] - point.y)
        near = np.flatnonzero(dist <= self.landmark_radii * (1.0 + _RECHECK_REL))
        found = []
        for j in near:
            landmark = self.landmarks[j]
            if landmark.position.distance_to(point) <= landmark.detection_radius:
                found.append(landmark)
        return found


class CompiledPlace:
    """Environment regions of one place as arrays, plus its floor plan.

    Attributes:
        regions: the compiled region list, in the place's order.
        floorplan: the compiled floor plan this was built against.
    """

    def __init__(
        self, regions: Sequence[EnvironmentRegion], floorplan: CompiledFloorPlan
    ) -> None:
        self.regions: list[EnvironmentRegion] = list(regions)
        self.floorplan = floorplan
        boxes = np.array(
            [r.polygon.bounding_box() for r in self.regions], dtype=float
        ).reshape(-1, 4)
        slack = floorplan.slack
        if boxes.size:
            slack = max(
                slack, 64.0 * float(np.spacing(max(1.0, float(np.abs(boxes).max()))))
            )
        # Padded by the on-boundary tolerance (twice, for the rounding of
        # the distance itself) plus coordinate slack: see
        # :meth:`regions_near`.
        self._region_boxes = _box_arrays(
            boxes[:, :2], boxes[:, 2:], 2.0 * _BOUNDARY_TOL + slack
        )
        # Indoor regions for the particle map constraint: vertices and
        # edge normals per region, plus every edge flattened for the cull.
        self._indoor: list[tuple[np.ndarray, np.ndarray]] = []
        for region in self.regions:
            if not is_indoor(region.env_type):
                continue
            verts = np.array([[v.x, v.y] for v in region.polygon.vertices])
            edges = np.roll(verts, -1, axis=0) - verts
            normals = np.column_stack([-edges[:, 1], edges[:, 0]])
            self._indoor.append((verts, normals))
        if self._indoor:
            self._edge_verts = np.concatenate([v for v, _ in self._indoor])
            self._edge_normals = np.concatenate([nrm for _, nrm in self._indoor])
            sizes = [len(v) for v, _ in self._indoor]
            self._edge_offsets = np.cumsum([0] + sizes[:-1])

    def matches(
        self, regions: Sequence[EnvironmentRegion], floorplan: CompiledFloorPlan
    ) -> bool:
        """True while ``regions`` and ``floorplan`` are what was compiled."""
        return floorplan is self.floorplan and regions == self.regions

    def regions_near(self, point: Point) -> list[EnvironmentRegion]:
        """Return, in order, the regions whose padded box holds ``point``.

        ``Polygon.contains`` is False outside that box.  Its on-boundary
        test needs an edge within 1e-9, and every edge point is inside
        the unpadded box, so a point more than ``2e-9 + slack`` outside
        is farther than 1e-9 from each edge even after rounding.  Its
        even-odd test counts edges straddling the point's ``y``: below or
        above the box there are none; right of the box no crossing lies
        right of the point (a crossing is within ``slack`` of its edge's
        ``x`` range); left of the box every straddling edge toggles, and
        a closed ring has an even number of them.
        """
        query = np.array([point.x, point.y, -point.x, -point.y])
        hit = (self._region_boxes <= query).all(axis=1)
        return [self.regions[i] for i in np.flatnonzero(hit)]

    def walkable_mask(
        self, positions: Annotated[np.ndarray, Shape("(N, 2)")]
    ) -> Annotated[np.ndarray, Shape("(N,)")]:
        """Return a mask of positions the indoor map constraint allows.

        A position is blocked only inside an *indoor* region and outside
        every corridor.  Indoor regions are culled by the exact extreme
        of each edge's side value over the positions' box:
        ``(px - vx) * nx + (py - vy) * ny`` is computed with monotone
        roundings, so no row exceeds its value at the box corner that
        maximises it (``x1`` where ``nx >= 0``, else ``x0``; likewise
        ``y``), nor falls below its value at the opposite corner.  A
        region with one edge whose maximum is ``< -1e-9`` fails ``all(side
        >= -1e-9)`` on every row, and one edge whose minimum is ``> 1e-9``
        fails ``all(side <= 1e-9)``; with both, it adds no ``True`` to
        ``indoor``.
        """
        n = len(positions)
        if n == 0 or not self.floorplan.corridors or not self._indoor:
            return np.ones(n, dtype=bool)
        in_corridor = self.floorplan.in_corridor_mask(positions)
        indoor = np.zeros(n, dtype=bool)
        px = positions[:, None, 0]
        py = positions[:, None, 1]
        for index in self._indoor_near(positions):
            verts, normals = self._indoor[index]
            # Componentized (p - v) . normal: identical additions in the
            # same order as a stacked (n, e, 2) product-and-reduce, but
            # without materializing the 3-D temporaries.
            side = (px - verts[None, :, 0]) * normals[None, :, 0] + (
                py - verts[None, :, 1]
            ) * normals[None, :, 1]  # (n, e)
            inside = (side >= -1e-9).all(axis=1) | (side <= 1e-9).all(axis=1)
            indoor |= inside
        return in_corridor | ~indoor

    def _indoor_near(
        self, positions: Annotated[np.ndarray, Shape("(N, 2)")]
    ) -> Annotated[np.ndarray, Shape("(R,)")]:
        """Return the indoor regions some position may be inside (see above)."""
        lo = positions.min(axis=0)
        hi = positions.max(axis=0)
        v, nrm = self._edge_verts, self._edge_normals
        hi_x = np.where(nrm[:, 0] >= 0.0, hi[0], lo[0])
        hi_y = np.where(nrm[:, 1] >= 0.0, hi[1], lo[1])
        lo_x = np.where(nrm[:, 0] >= 0.0, lo[0], hi[0])
        lo_y = np.where(nrm[:, 1] >= 0.0, lo[1], hi[1])
        side_max = (hi_x - v[:, 0]) * nrm[:, 0] + (hi_y - v[:, 1]) * nrm[:, 1]
        side_min = (lo_x - v[:, 0]) * nrm[:, 0] + (lo_y - v[:, 1]) * nrm[:, 1]
        never_left = np.logical_or.reduceat(side_max < -1e-9, self._edge_offsets)
        never_right = np.logical_or.reduceat(side_min > 1e-9, self._edge_offsets)
        return np.flatnonzero(~(never_left & never_right))
