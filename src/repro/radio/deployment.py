"""RadioEnvironment: a place plus all its radio infrastructure.

This is the single object the sensor layer talks to.  It answers three
questions at any map point:

* what Wi-Fi RSSI vector does a phone measure there,
* what cellular RSSI vector does it measure, and
* which GPS satellites does it see, with what HDOP.

All answers depend on the environment at the point (AP density, wall
obstructions, cellular attenuation, sky view), which is what produces the
scheme diversity UniLoc exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry import Point
from repro.radio.fingerprint import Fingerprint, FingerprintDatabase
from repro.radio.propagation import (
    CELL_SENSITIVITY_DBM,
    CELLULAR_MODEL,
    WIFI_MODEL,
    WIFI_SENSITIVITY_DBM,
    PropagationModel,
)
from repro.radio.satellites import Constellation, Satellite
from repro.radio.transmitters import (
    Transmitter,
    deploy_access_points,
    deploy_cell_towers,
)
from repro.world import Place, profile_of


@dataclass
class RadioEnvironment:
    """All radio infrastructure deployed over one place."""

    place: Place
    access_points: list[Transmitter]
    cell_towers: list[Transmitter]
    constellation: Constellation
    wifi_model: PropagationModel = field(default=WIFI_MODEL)
    cell_model: PropagationModel = field(default=CELLULAR_MODEL)

    @classmethod
    def deploy(cls, place: Place, seed: int = 0) -> "RadioEnvironment":
        """Deploy APs, towers, and a constellation over ``place``."""
        rng = np.random.default_rng(seed)
        return cls(
            place=place,
            access_points=deploy_access_points(place, rng),
            cell_towers=deploy_cell_towers(place, rng),
            constellation=Constellation.default(seed=seed + 7),
        )

    # ----- Wi-Fi ---------------------------------------------------------

    def wifi_mean_rssi(self, point: Point) -> dict[str, float]:
        """Return the noise-free audible Wi-Fi RSSI vector at ``point``.

        The receiver's environment charges a bulk penetration loss on top
        of per-wall attenuation, which is what makes deep basements
        Wi-Fi-dead (the paper's basement segment hears no usable AP).
        Every AP's wall count comes from one (APs x walls) pass over the
        compiled floor plan; the per-AP RSSI math stays scalar.
        """
        attenuation = profile_of(
            self.place.environment_at(point)
        ).wifi_attenuation_db
        sources = np.array(
            [[ap.position.x, ap.position.y] for ap in self.access_points]
        ).reshape(-1, 2)
        wall_counts = self.place.floorplan.compiled().walls_crossed_from(
            sources, point
        )
        readings = {}
        for ap, walls in zip(self.access_points, wall_counts):
            rssi = (
                self.wifi_model.mean_rssi_dbm(
                    ap.position, point, walls=walls, tx_seed=ap.seed
                )
                - attenuation
            )
            if rssi >= WIFI_SENSITIVITY_DBM:
                readings[ap.identifier] = rssi
        return readings

    def wifi_rssi(self, point: Point, rng: np.random.Generator) -> dict[str, float]:
        """Return one noisy Wi-Fi scan at ``point``.

        Temporal noise std-dev comes from the environment profile (higher
        interference in crowded / basement environments), and readings
        pushed below sensitivity by noise drop out of the scan — audible
        AP sets therefore flicker at the coverage edge, as in reality.
        """
        noise_db = profile_of(self.place.environment_at(point)).wifi_noise_db
        scan = {}
        for identifier, mean in self.wifi_mean_rssi(point).items():
            value = mean + rng.normal(0.0, noise_db)
            if value >= WIFI_SENSITIVITY_DBM:
                scan[identifier] = value
        return scan

    # ----- Cellular ------------------------------------------------------

    def cell_mean_rssi(self, point: Point) -> dict[str, float]:
        """Return the noise-free audible cellular RSSI vector at ``point``.

        The environment charges a bulk attenuation (building penetration
        loss) and caps the number of audible towers — basements hear ~2
        towers, reproducing the paper's mall observation.
        """
        profile = profile_of(self.place.environment_at(point))
        readings = {}
        for tower in self.cell_towers:
            rssi = (
                self.cell_model.mean_rssi_dbm(
                    tower.position, point, walls=0, tx_seed=tower.seed
                )
                - profile.cell_attenuation_db
            )
            if rssi >= CELL_SENSITIVITY_DBM:
                readings[tower.identifier] = rssi
        strongest = sorted(readings.items(), key=lambda kv: kv[1], reverse=True)
        return dict(strongest[: profile.audible_towers_cap])

    def cell_rssi(self, point: Point, rng: np.random.Generator) -> dict[str, float]:
        """Return one noisy cellular scan at ``point``."""
        noise_db = 3.5
        scan = {}
        for identifier, mean in self.cell_mean_rssi(point).items():
            value = mean + rng.normal(0.0, noise_db)
            if value >= CELL_SENSITIVITY_DBM:
                scan[identifier] = value
        return scan

    # ----- GPS -----------------------------------------------------------

    def visible_satellites(self, point: Point) -> list[Satellite]:
        """Return the GPS satellites visible at ``point``."""
        sky_view = profile_of(self.place.environment_at(point)).sky_view
        return self.constellation.visible(sky_view)

    def hdop(self, point: Point) -> float:
        """Return the HDOP of the satellite set visible at ``point``."""
        return Constellation.hdop(self.visible_satellites(point))

    # ----- Surveys -------------------------------------------------------

    def survey_wifi(
        self, points: list[Point], rng: np.random.Generator
    ) -> FingerprintDatabase:
        """Collect a Wi-Fi fingerprint database at the given survey points.

        Each offline fingerprint takes one noisy sample per audible AP,
        matching the paper's survey procedure (§III-B).  Survey points
        where no AP is audible are skipped (there is nothing to record).
        """
        entries = []
        for point in points:
            scan = self.wifi_rssi(point, rng)
            if scan:
                entries.append(Fingerprint(point, scan))
        if not entries:
            raise ValueError("survey produced no audible fingerprints")
        return FingerprintDatabase(entries)

    def survey_cellular(
        self, points: list[Point], rng: np.random.Generator
    ) -> FingerprintDatabase:
        """Collect a cellular fingerprint database at the survey points."""
        entries = []
        for point in points:
            scan = self.cell_rssi(point, rng)
            if scan:
                entries.append(Fingerprint(point, scan))
        if not entries:
            raise ValueError("survey produced no audible fingerprints")
        return FingerprintDatabase(entries)

    def survey_wifi_gaussian(
        self,
        points: list[Point],
        rng: np.random.Generator,
        samples_per_point: int = 20,
    ):
        """Collect a Horus-style multi-sample Wi-Fi survey.

        Takes ``samples_per_point`` scans at every survey point — the
        expensive procedure that makes Horus impractical for large areas
        (the paper estimates tens of days per path), but feasible in the
        simulator for the extension scheme.

        Raises:
            ValueError: if ``samples_per_point`` is not positive.
        """
        from repro.radio.gaussian_fingerprint import GaussianFingerprintDatabase

        if samples_per_point <= 0:
            raise ValueError("samples_per_point must be positive")
        surveys = []
        for point in points:
            scans = [
                self.wifi_rssi(point, rng) for _ in range(samples_per_point)
            ]
            surveys.append((point, [s for s in scans if s]))
        return GaussianFingerprintDatabase.from_samples(surveys)
