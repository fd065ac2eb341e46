"""Equivalence: the compiled place answers exactly as the scalar object code.

Each compiled lookup is compared with a reference copy of the scalar
code it replaced, kept here verbatim, on the campus map (93 regions, 148
walls, 74 corridors) and on small synthetic plans built to hit the hard
cases: points on and within 1e-9 of region edges, rays collinear with a
wall, particle clouds straddling walls and region borders, moves nearly
parallel to a wall, and exact distance ties between corridors.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Polygon, Segment
from repro.schemes import ParticleFilter
from repro.world import (
    Corridor,
    EnvironmentRegion,
    EnvironmentType,
    FloorPlan,
    Landmark,
    LandmarkKind,
    Place,
    build_campus_place,
    is_indoor,
)

# -- reference copies of the scalar code ------------------------------------


def ref_environment_at(place: Place, point: Point) -> EnvironmentType:
    for region in place.regions:
        if region.polygon.contains(point):
            return region.env_type
    return place.default_env


def ref_walls_crossed(walls: list[Segment], a: Point, b: Point) -> int:
    if not walls:
        return 0
    starts = np.array([[w.start.x, w.start.y] for w in walls])
    ends = np.array([[w.end.x, w.end.y] for w in walls])
    p = np.array([a.x, a.y])
    r = np.array([b.x - a.x, b.y - a.y])
    s = ends - starts
    qp = starts - p
    r_cross_s = r[0] * s[:, 1] - r[1] * s[:, 0]
    qp_cross_r = qp[:, 0] * r[1] - qp[:, 1] * r[0]
    qp_cross_s = qp[:, 0] * s[:, 1] - qp[:, 1] * s[:, 0]
    nonparallel = np.abs(r_cross_s) > 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(nonparallel, qp_cross_s / r_cross_s, np.nan)
        u = np.where(nonparallel, qp_cross_r / r_cross_s, np.nan)
    hits = nonparallel & (t >= 0.0) & (t <= 1.0) & (u >= 0.0) & (u <= 1.0)
    count = int(hits.sum())
    parallel = ~nonparallel
    if parallel.any() and np.any(np.abs(qp_cross_r[parallel]) < 1e-9):
        ray = Segment(a, b)
        for idx in np.nonzero(parallel)[0]:
            if abs(qp_cross_r[idx]) < 1e-9 and ray.intersects(walls[idx]):
                count += 1
    return count


def ref_walkable_mask(place: Place, positions: np.ndarray) -> np.ndarray:
    corridors = place.floorplan.corridors
    indoor_regions = []
    for region in place.regions:
        if not is_indoor(region.env_type):
            continue
        verts = np.array([[v.x, v.y] for v in region.polygon.vertices])
        edges = np.roll(verts, -1, axis=0) - verts
        normals = np.column_stack([-edges[:, 1], edges[:, 0]])
        indoor_regions.append((verts, normals))
    n = len(positions)
    if not corridors or not indoor_regions:
        return np.ones(n, dtype=bool)
    starts = np.array([[c.centerline.start.x, c.centerline.start.y] for c in corridors])
    ends = np.array([[c.centerline.end.x, c.centerline.end.y] for c in corridors])
    half_widths = np.array([c.width / 2.0 for c in corridors])
    d = ends - starts
    seg_len2 = np.maximum((d * d).sum(axis=1), 1e-12)
    dx = positions[:, None, 0] - starts[None, :, 0]
    dy = positions[:, None, 1] - starts[None, :, 1]
    t = np.clip((dx * d[None, :, 0] + dy * d[None, :, 1]) / seg_len2, 0.0, 1.0)
    ex = positions[:, None, 0] - (starts[None, :, 0] + t * d[None, :, 0])
    ey = positions[:, None, 1] - (starts[None, :, 1] + t * d[None, :, 1])
    in_corridor = (np.sqrt(ex * ex + ey * ey) <= half_widths[None, :]).any(axis=1)
    indoor = np.zeros(n, dtype=bool)
    px = positions[:, None, 0]
    py = positions[:, None, 1]
    for verts, normals in indoor_regions:
        side = (px - verts[None, :, 0]) * normals[None, :, 0] + (
            py - verts[None, :, 1]
        ) * normals[None, :, 1]
        indoor |= (side >= -1e-9).all(axis=1) | (side <= 1e-9).all(axis=1)
    return in_corridor | ~indoor


def ref_crosses_wall(
    walls: list[Segment], old: np.ndarray, new: np.ndarray
) -> np.ndarray:
    if not walls:
        return np.zeros(len(old), dtype=bool)
    wall_starts = np.array([[w.start.x, w.start.y] for w in walls])
    wall_ends = np.array([[w.end.x, w.end.y] for w in walls])
    r = new - old
    s = wall_ends - wall_starts
    qp = wall_starts[None, :, :] - old[:, None, :]
    r_cross_s = r[:, None, 0] * s[None, :, 1] - r[:, None, 1] * s[None, :, 0]
    qp_cross_r = qp[:, :, 0] * r[:, None, 1] - qp[:, :, 1] * r[:, None, 0]
    qp_cross_s = qp[:, :, 0] * s[None, :, 1] - qp[:, :, 1] * s[None, :, 0]
    nonparallel = np.abs(r_cross_s) > 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(nonparallel, qp_cross_s / r_cross_s, np.nan)
        u = np.where(nonparallel, qp_cross_r / r_cross_s, np.nan)
    hits = nonparallel & (t >= 0.0) & (t <= 1.0) & (u >= 0.0) & (u <= 1.0)
    return hits.any(axis=1)


def ref_corridor_width(
    corridors: list[Corridor], point: Point, default: float
) -> float:
    if not corridors:
        return default
    return min(corridors, key=lambda c: c.distance_to(point)).width


def ref_detectable(landmarks: list[Landmark], point: Point) -> list[Landmark]:
    return [
        lm
        for lm in landmarks
        if lm.position.distance_to(point) <= lm.detection_radius
    ]


# -- fixtures and strategies --------------------------------------------------

_CAMPUS: list[Place] = []


def campus() -> Place:
    """The campus place, built once per test session."""
    if not _CAMPUS:
        _CAMPUS.append(build_campus_place())
    return _CAMPUS[0]


fractions = st.floats(min_value=0.0, max_value=1.0)
tiny_offsets = st.sampled_from([0.0, 1e-12, 5e-10, 1e-9, 1.5e-9, 3e-9, 1e-8, 1e-6])
signs = st.sampled_from([-1.0, 1.0])


@st.composite
def campus_points(draw):
    """Points anywhere on campus, on region vertices/edges, or just off an edge."""
    place = campus()
    kind = draw(st.sampled_from(["random", "vertex", "edge", "near-edge"]))
    if kind == "random":
        x0, y0, x1, y1 = place.boundary.bounding_box()
        return Point(
            draw(st.floats(min_value=x0 - 10, max_value=x1 + 10)),
            draw(st.floats(min_value=y0 - 10, max_value=y1 + 10)),
        )
    region = draw(st.sampled_from(place.regions))
    verts = region.polygon.vertices
    i = draw(st.integers(min_value=0, max_value=len(verts) - 1))
    a, b = verts[i], verts[(i + 1) % len(verts)]
    if kind == "vertex":
        return a
    point = a.lerp(b, draw(fractions))
    if kind == "edge":
        return point
    length = a.distance_to(b)
    nx, ny = -(b.y - a.y) / length, (b.x - a.x) / length
    off = draw(tiny_offsets) * draw(signs)
    return Point(point.x + off * nx, point.y + off * ny)


def _cloud(
    rng: np.random.Generator, center: Point, spread: float, n: int
) -> np.ndarray:
    return np.column_stack(
        [rng.normal(center.x, spread, n), rng.normal(center.y, spread, n)]
    )


@st.composite
def straddling_clouds(draw):
    """Particle clouds centred on a campus wall or region vertex, plus moves."""
    place = campus()
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        wall = draw(st.sampled_from(place.floorplan.walls))
        center = wall.start.lerp(wall.end, draw(fractions))
    else:
        region = draw(st.sampled_from(place.regions))
        center = draw(st.sampled_from(region.polygon.vertices))
    spread = draw(st.sampled_from([0.0, 0.05, 0.5, 2.0, 8.0]))
    n = draw(st.integers(min_value=1, max_value=120))
    old = _cloud(rng, center, spread, n)
    step = draw(st.floats(min_value=0.0, max_value=3.0))
    heading = draw(st.floats(min_value=-math.pi, max_value=math.pi))
    headings = heading + rng.normal(0.0, 0.08, n)
    new = old + np.column_stack([step * np.cos(headings), step * np.sin(headings)])
    new += rng.normal(0.0, 0.15, new.shape)
    return old, new


# -- environment lookup -------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(point=campus_points())
def test_environment_at_matches_full_region_scan(point):
    place = campus()
    assert place.environment_at(point) is ref_environment_at(place, point)


@pytest.mark.parametrize(
    "point",
    [
        Point(float("nan"), 0.0),
        Point(float("inf"), 0.0),
        Point(-float("inf"), 0.0),
        Point(0.0, float("inf")),
    ],
)
def test_environment_at_non_finite_points(point):
    place = campus()
    assert place.environment_at(point) is ref_environment_at(place, point)


@st.composite
def polygon_places(draw):
    """Small places with arbitrary (even non-convex or collinear) regions."""
    coords = st.integers(min_value=-6, max_value=6).map(float)
    regions = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        n = draw(st.integers(min_value=3, max_value=6))
        verts = [(draw(coords), draw(coords)) for _ in range(n)]
        env = draw(
            st.sampled_from([EnvironmentType.OFFICE, EnvironmentType.OPEN_SPACE])
        )
        regions.append(EnvironmentRegion(Polygon.from_coords(verts), env))
    def segment():
        return Segment(
            Point(draw(coords), draw(coords)), Point(draw(coords), draw(coords))
        )

    corridors = [
        Corridor(segment(), width=draw(st.sampled_from([0.5, 1.0, 2.0])))
        for _ in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    walls = [segment() for _ in range(draw(st.integers(min_value=0, max_value=5)))]
    return Place(
        name="synthetic",
        boundary=Polygon.rectangle(-10, -10, 10, 10),
        regions=regions,
        default_env=EnvironmentType.STREET,
        floorplan=FloorPlan(corridors=corridors, walls=walls, landmarks=[]),
    )


@settings(max_examples=200, deadline=None)
@given(
    place=polygon_places(),
    px=st.floats(min_value=-8, max_value=8),
    py=st.floats(min_value=-8, max_value=8),
    snap=st.booleans(),
)
def test_environment_at_on_synthetic_polygons(place, px, py, snap):
    point = Point(float(round(px)), float(round(py))) if snap else Point(px, py)
    assert place.environment_at(point) is ref_environment_at(place, point)


# -- per-scan wall counts -----------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    wall_index=st.integers(min_value=0, max_value=147),
    a=st.floats(min_value=-1.5, max_value=2.5),
    b=st.floats(min_value=-1.5, max_value=2.5),
)
def test_per_scan_wall_counts_match_per_ray_test(seed, wall_index, a, b):
    """Random APs plus rays lying along a wall's own line (collinear)."""
    place = campus()
    walls = place.floorplan.walls
    wall = walls[wall_index]
    rng = np.random.default_rng(seed)
    x0, y0, x1, y1 = place.boundary.bounding_box()

    def anywhere():
        return Point(float(rng.uniform(x0, x1)), float(rng.uniform(y0, y1)))

    sources = [anywhere() for _ in range(12)]
    sources += [wall.start.lerp(wall.end, a), wall.start, wall.end]
    for target in (wall.start.lerp(wall.end, b), anywhere()):
        xy = np.array([[p.x, p.y] for p in sources])
        got = place.floorplan.compiled().walls_crossed_from(xy, target)
        want = [ref_walls_crossed(walls, p, target) for p in sources]
        assert got == want
        assert all(type(c) is int for c in got)
        assert [place.floorplan.walls_crossed(p, target) for p in sources] == want


def test_axis_aligned_collinear_rays_use_the_exact_fallback():
    walls = [Segment(Point(0, 0), Point(10, 0)), Segment(Point(0, 5), Point(0, 9))]
    plan = FloorPlan(corridors=[], walls=walls, landmarks=[])
    sources = [Point(-3, 0), Point(12, 0), Point(11, 0), Point(0, 2), Point(0, 10)]
    xy = np.array([[p.x, p.y] for p in sources])
    for target in (Point(5, 0), Point(20, 0), Point(0, 7), Point(0, 4)):
        want = [ref_walls_crossed(walls, p, target) for p in sources]
        assert plan.compiled().walls_crossed_from(xy, target) == want


def test_wifi_mean_rssi_keeps_python_floats():
    from repro.radio import RadioEnvironment

    radio = RadioEnvironment.deploy(campus(), seed=3)
    point = campus().paths["path4"].polyline.point_at_distance(70.0)
    readings = radio.wifi_mean_rssi(point)
    assert readings and all(type(v) is float for v in readings.values())


# -- particle map constraint --------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(clouds=straddling_clouds())
def test_walkable_mask_and_crossings_match_full_scan(clouds):
    old, new = clouds
    place = campus()
    pf = ParticleFilter(place, n_particles=len(old))
    np.testing.assert_array_equal(pf.walkable_mask(new), ref_walkable_mask(place, new))
    np.testing.assert_array_equal(
        pf._crosses_wall(old, new), ref_crosses_wall(place.floorplan.walls, old, new)
    )


@settings(max_examples=150, deadline=None)
@given(
    place=polygon_places(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    spread=st.sampled_from([0.0, 0.3, 2.0, 6.0]),
)
def test_map_constraint_on_synthetic_polygons(place, seed, spread):
    rng = np.random.default_rng(seed)
    center = Point(float(rng.integers(-6, 7)), float(rng.integers(-6, 7)))
    old = _cloud(rng, center, spread, 50)
    old[:5] = np.round(old[:5])  # some rows exactly on vertices / edges
    new = old + rng.normal(0.0, 1.0, old.shape)
    compiled = place.compiled()
    np.testing.assert_array_equal(
        compiled.walkable_mask(new), ref_walkable_mask(place, new)
    )
    np.testing.assert_array_equal(
        compiled.floorplan.crosses_wall(old, new),
        ref_crosses_wall(place.floorplan.walls, old, new),
    )


@settings(max_examples=150, deadline=None)
@given(
    wall_index=st.integers(min_value=0, max_value=147),
    a=st.floats(min_value=-3.0, max_value=4.0),
    length=st.floats(min_value=-3.0, max_value=3.0),
    wobble=st.sampled_from([0.0, 1e-15, 1e-13, 1e-11, 1e-9]),
)
def test_nearly_parallel_moves_beyond_a_wall_end(wall_index, a, length, wobble):
    """Moves along a wall's own line, just past its ends, tilted by ulps."""
    walls = campus().floorplan.walls
    wall = walls[wall_index]
    sx, sy = wall.end.x - wall.start.x, wall.end.y - wall.start.y
    norm = math.hypot(sx, sy)
    starts = np.array([[wall.start.x + a * sx, wall.start.y + a * sy]])
    old = np.repeat(starts, 4, axis=0)
    new = old + np.array([[length * sx / norm, length * sy / norm]])
    new += np.array([[0, 0], [wobble, 0], [0, wobble], [-wobble, wobble]])
    got = campus().floorplan.compiled().crosses_wall(old, new)
    np.testing.assert_array_equal(got, ref_crosses_wall(walls, old, new))


def test_rounding_hit_a_metre_past_a_wall_end_is_kept():
    """A near-parallel move the float test counts as a hit, 0.99 m from the wall.

    ``|r x s|`` is just above 1e-12, so rounding puts ``t`` and ``u`` in
    ``[0, 1]`` although the boxes are disjoint: a cull by box overlap
    alone would change this row, the derived reach keeps the wall.
    """
    wall = Segment(
        Point(-41.42690287142102, 206.15612219011024),
        Point(41.84866748550526, 261.50084629831815),
    )
    old = np.array([[42.8394640362682, 262.1593270690209]])
    new = np.array([[44.25894995990073, 263.10271366466003]])
    plan = FloorPlan(corridors=[], walls=[wall], landmarks=[])
    assert ref_crosses_wall([wall], old, new).tolist() == [True]
    assert plan.compiled().crosses_wall(old, new).tolist() == [True]


def test_map_constraint_with_nan_rows():
    place = campus()
    pf = ParticleFilter(place, n_particles=3)
    old = np.array([[5.0, 0.0], [np.nan, 1.0], [6.0, 0.5]])
    new = old + 0.7
    np.testing.assert_array_equal(pf.walkable_mask(new), ref_walkable_mask(place, new))
    np.testing.assert_array_equal(
        pf._crosses_wall(old, new), ref_crosses_wall(place.floorplan.walls, old, new)
    )


# -- corridor width and landmarks --------------------------------------------


def test_corridor_width_tie_goes_to_the_first_corridor():
    corridors = [
        Corridor(Segment(Point(0, 2), Point(10, 2)), width=1.0),
        Corridor(Segment(Point(0, -2), Point(10, -2)), width=3.0),
        Corridor(Segment(Point(0, 2), Point(10, 2)), width=5.0),
    ]
    for order in (corridors, corridors[::-1], corridors[1:]):
        plan = FloorPlan(corridors=list(order), walls=[], landmarks=[])
        for point in (Point(5, 0), Point(-1, 0), Point(11, 0), Point(5, 2)):
            want = ref_corridor_width(plan.corridors, point, 9.0)
            assert plan.corridor_width_at(point, 9.0) == want


@settings(max_examples=300, deadline=None)
@given(
    ends=st.lists(
        st.tuples(*[st.integers(min_value=-4, max_value=4).map(float)] * 4),
        min_size=1,
        max_size=8,
    ),
    widths=st.lists(st.sampled_from([1.0, 2.0, 3.0, 4.0]), min_size=8, max_size=8),
    px=st.integers(min_value=-6, max_value=6),
    py=st.integers(min_value=-6, max_value=6),
    half=st.booleans(),
)
def test_corridor_width_on_integer_grids_with_ties(ends, widths, px, py, half):
    """Integer geometry makes equal distances (and degenerate corridors) common."""
    corridors = [
        Corridor(Segment(Point(x0, y0), Point(x1, y1)), width=w)
        for (x0, y0, x1, y1), w in zip(ends, widths)
    ]
    plan = FloorPlan(corridors=corridors, walls=[], landmarks=[])
    point = Point(px + 0.5 * half, py + 0.5 * half)
    want = ref_corridor_width(corridors, point, 9.0)
    assert plan.corridor_width_at(point, 9.0) == want


@settings(max_examples=200, deadline=None)
@given(point=campus_points())
def test_campus_corridor_width_and_landmarks(point):
    place = campus()
    plan = place.floorplan
    want = ref_corridor_width(plan.corridors, point, 7.0)
    assert plan.corridor_width_at(point, 7.0) == want
    assert plan.detectable_landmarks(point) == ref_detectable(plan.landmarks, point)


def test_landmark_on_the_detection_radius():
    landmarks = [
        Landmark(Point(0, 0), LandmarkKind.TURN, detection_radius=3.0),
        Landmark(Point(6, 0), LandmarkKind.DOOR, detection_radius=3.0),
        Landmark(Point(3, 4), LandmarkKind.SIGNATURE, detection_radius=5.0),
    ]
    plan = FloorPlan(corridors=[], walls=[], landmarks=landmarks)
    nan = float("nan")
    for point in (Point(3, 0), Point(0, 0), Point(0, 3.0000001), Point(nan, 0)):
        assert plan.detectable_landmarks(point) == ref_detectable(landmarks, point)


# -- recompilation -------------------------------------------------------------


def test_replaced_wall_at_the_same_count_is_recounted():
    """Moving the only wall from x=5 to x=50 must drop the crossing."""
    wall = Segment(Point(5, -1), Point(5, 1))
    plan = FloorPlan(corridors=[], walls=[wall], landmarks=[])
    a, b = Point(0, 0), Point(10, 0)
    assert plan.walls_crossed(a, b) == 1
    plan.walls[0] = Segment(Point(50, -1), Point(50, 1))
    assert plan.walls_crossed(a, b) == 0
    plan.walls = [Segment(Point(7, -1), Point(7, 1))]
    assert plan.walls_crossed(a, b) == 1


def test_place_recompiles_after_region_and_floorplan_changes():
    office = EnvironmentRegion(Polygon.rectangle(0, 0, 10, 10), EnvironmentType.OFFICE)
    basement = EnvironmentRegion(
        Polygon.rectangle(20, 0, 30, 10), EnvironmentType.BASEMENT
    )
    place = Place(
        name="p",
        boundary=Polygon.rectangle(0, 0, 30, 10),
        regions=[office],
        default_env=EnvironmentType.OPEN_SPACE,
        floorplan=FloorPlan(corridors=[], walls=[], landmarks=[]),
    )
    first = place.compiled()
    assert place.compiled() is first
    assert place.environment_at(Point(25, 5)) is EnvironmentType.OPEN_SPACE
    place.regions.append(basement)
    assert place.environment_at(Point(25, 5)) is EnvironmentType.BASEMENT
    mall = EnvironmentRegion(Polygon.rectangle(0, 0, 10, 10), EnvironmentType.MALL)
    place.regions[0] = mall
    assert place.environment_at(Point(5, 5)) is EnvironmentType.MALL
    before = place.compiled()
    place.floorplan.corridors.append(Corridor(Segment(Point(0, 5), Point(30, 5)), 2.0))
    assert place.compiled() is not before
    assert place.corridor_width_at(Point(25, 4)) == 2.0
