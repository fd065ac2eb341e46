"""A place: the unit of experimentation.

A :class:`Place` bundles everything a localization experiment needs to know
about the physical world — its boundary, environment regions, walkable
floor plan, and the named walking paths through it.  Radio infrastructure
(APs, towers, satellites) is deployed *onto* a place by
:mod:`repro.radio.deployment` so that the same geometry can be reused with
different radio conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry import Grid, Point, Polygon, Polyline
from repro.world.compiled import CompiledPlace
from repro.world.environment import EnvironmentType, is_indoor, profile_of
from repro.world.floorplan import FloorPlan


@dataclass(frozen=True)
class EnvironmentRegion:
    """A polygonal region labeled with an environment type."""

    polygon: Polygon
    env_type: EnvironmentType


@dataclass(frozen=True)
class Path:
    """A named ground-truth walking path through a place."""

    name: str
    polyline: Polyline

    def length(self) -> float:
        """Return the path length in meters."""
        return self.polyline.length()


@dataclass
class Place:
    """A named area of the world with labeled environments and paths.

    Attributes:
        name: human-readable identifier ("campus", "mall", ...).
        boundary: outer polygon of the place.
        regions: environment regions; the *first* region containing a point
            wins, so list more specific regions before general ones.
        default_env: label for points not covered by any region.
        floorplan: walkable corridors, walls, and landmarks.
        paths: named ground-truth walking paths.
    """

    name: str
    boundary: Polygon
    regions: list[EnvironmentRegion]
    default_env: EnvironmentType
    floorplan: FloorPlan
    paths: dict[str, Path] = field(default_factory=dict)

    def compiled(self) -> CompiledPlace:
        """Return the place as arrays, recompiled whenever its geometry changes.

        Built against :meth:`FloorPlan.compiled`; a changed region list
        or a recompiled (or replaced) floor plan rebuilds it.
        """
        floorplan = self.floorplan.compiled()
        compiled = self.__dict__.get("_compiled")
        if compiled is None or not compiled.matches(self.regions, floorplan):
            compiled = CompiledPlace(self.regions, floorplan)
            self._compiled = compiled
        return compiled

    def environment_at(self, point: Point) -> EnvironmentType:
        """Return the environment label at ``point``.

        Only regions whose bounding box holds the point are tested; the
        first of them that contains it wins, as in the full region scan.
        """
        for region in self.compiled().regions_near(point):
            if region.polygon.contains(point):
                return region.env_type
        return self.default_env

    def is_indoor_at(self, point: Point) -> bool:
        """Return the paper's roof-based indoor label at ``point``."""
        return is_indoor(self.environment_at(point))

    def corridor_width_at(self, point: Point) -> float:
        """Return the corridor width feature (beta_2 of the PDR model)."""
        default = profile_of(self.environment_at(point)).default_corridor_width_m
        return self.floorplan.corridor_width_at(point, default)

    def grid(self, cell_size: float = 2.0) -> Grid:
        """Return a regular grid over the place for BMA posteriors."""
        min_x, min_y, max_x, max_y = self.boundary.bounding_box()
        return Grid(min_x, min_y, max_x, max_y, cell_size)

    def add_path(self, path: Path) -> None:
        """Register a walking path.

        Raises:
            ValueError: if a path with the same name already exists.
        """
        if path.name in self.paths:
            raise ValueError(f"path {path.name!r} already registered")
        self.paths[path.name] = path

    def environment_segments(self, path: Path, spacing_m: float = 1.0) -> list[tuple[float, EnvironmentType]]:
        """Return ``(arc_length, environment)`` breakpoints along a path.

        Walks the path at ``spacing_m`` resolution and records each point at
        which the environment label changes.  Used by experiment reports to
        annotate error-vs-distance plots the way the paper's Fig. 2 labels
        its office / corridor / basement / car-park / open-space segments.
        """
        breakpoints: list[tuple[float, EnvironmentType]] = []
        s = 0.0
        last_env: EnvironmentType | None = None
        total = path.length()
        while s <= total:
            env = self.environment_at(path.polyline.point_at_distance(s))
            if env != last_env:
                breakpoints.append((s, env))
                last_env = env
            s += spacing_m
        return breakpoints
