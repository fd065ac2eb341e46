"""Walkable corridors, walls, and landmarks.

The motion-based PDR scheme (Li et al. [7]) imposes map constraints on its
particles: a particle that leaves the walkable area is killed.  The
corridor graph here provides that constraint, plus the "width of the
corridor" influence factor (beta_2 in the paper's Table I), and the wall
list feeds the radio propagation model's obstruction count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.geometry import Point, Segment
from repro.world.compiled import CompiledFloorPlan


@dataclass(frozen=True)
class Corridor:
    """A walkable corridor: a centerline segment with a width."""

    centerline: Segment
    width: float

    def __post_init__(self) -> None:
        if self.width <= 0.0:
            raise ValueError("corridor width must be positive")

    def contains(self, point: Point) -> bool:
        """Return True if ``point`` is within half a width of the centerline."""
        return self.centerline.distance_to_point(point) <= self.width / 2.0

    def distance_to(self, point: Point) -> float:
        """Return the distance from ``point`` to the corridor centerline."""
        return self.centerline.distance_to_point(point)


class LandmarkKind(enum.Enum):
    """Calibration landmark types detectable by a walking smartphone.

    The paper's PDR implementation detects turns, doors, and signatures
    (UnLoc [12]-style Wi-Fi / magnetic anomalies) to reset accumulated
    dead-reckoning error.
    """

    TURN = "turn"
    DOOR = "door"
    SIGNATURE = "signature"


@dataclass(frozen=True)
class Landmark:
    """A calibration landmark at a known map position.

    Attributes:
        position: the landmark's surveyed location.
        kind: what physical feature produces the detection.
        detection_radius: a walker passing within this distance triggers a
            detection (the phone senses the turn / door / signature).
    """

    position: Point
    kind: LandmarkKind
    detection_radius: float = 3.0


@dataclass
class FloorPlan:
    """The walkable geometry of a place.

    Attributes:
        corridors: walkable corridor list (may be empty for open spaces,
            in which case everything inside the place boundary is walkable).
        walls: obstruction segments used by radio propagation.
        landmarks: PDR calibration landmarks.
    """

    corridors: list[Corridor]
    walls: list[Segment]
    landmarks: list[Landmark]

    def compiled(self) -> CompiledFloorPlan:
        """Return this plan as arrays, recompiled whenever a list changes.

        The check is a list compare against the compiled copy, which
        short-cuts on element identity, so an unchanged plan costs a few
        pointer compares and a wall replaced in place is never missed.
        """
        compiled = self.__dict__.get("_compiled")
        if compiled is None or not compiled.matches(self):
            compiled = CompiledFloorPlan(self)
            self._compiled = compiled
        return compiled

    def is_walkable(self, point: Point) -> bool:
        """Return True if a pedestrian (or PDR particle) may stand at ``point``.

        With no corridors defined the whole place is walkable — open spaces
        impose effectively no map constraint, which is exactly why the
        paper's motion scheme degrades outdoors.
        """
        if not self.corridors:
            return True
        return any(c.contains(point) for c in self.corridors)

    def corridor_width_at(self, point: Point, default: float) -> float:
        """Return the width of the corridor nearest to ``point``.

        Ties between equidistant corridors go to the first one listed.

        Args:
            point: query location.
            default: width to report when the plan has no corridors
                (taken from the environment profile).
        """
        if not self.corridors:
            return default
        return self.compiled().nearest_corridor(point).width

    def walls_crossed(self, a: Point, b: Point) -> int:
        """Return how many walls the straight ray from ``a`` to ``b`` crosses.

        The propagation model charges a per-wall attenuation for each
        crossing (multi-wall COST-231 style).  The test is vectorized over
        the wall list with the standard orientation predicate; collinear
        touches fall back to the exact segment routine.
        """
        (count,) = self.compiled().walls_crossed_from(np.array([[a.x, a.y]]), b)
        return count

    def nearest_landmark(self, point: Point) -> Landmark | None:
        """Return the landmark closest to ``point``, or None if there are none."""
        if not self.landmarks:
            return None
        return min(self.landmarks, key=lambda lm: lm.position.distance_to(point))

    def detectable_landmarks(self, point: Point) -> list[Landmark]:
        """Return landmarks whose detection radius covers ``point``."""
        return self.compiled().detectable_landmarks(point)
