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
from repro.radio.kernels import ShadowingBank
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
from repro.world import EnvironmentProfile, Place, profile_of


class CompiledTransmitters:
    """One transmitter list and its propagation model, lowered for scans.

    Holds the transmitters' positions as an ``(M, 2)`` array and their
    shadowing fields stacked into one :class:`ShadowingBank`, so a scan
    evaluates every transmitter's shadowing in one call.
    """

    def __init__(
        self, transmitters: list[Transmitter], model: PropagationModel
    ) -> None:
        self.transmitters = list(transmitters)
        self.model = model
        positions = np.array(
            [[tx.position.x, tx.position.y] for tx in self.transmitters]
        ).reshape(-1, 2)
        positions.setflags(write=False)
        self.positions = positions
        self.bank = ShadowingBank.stack(
            model, [tx.seed for tx in self.transmitters]
        )

    def matches(
        self, transmitters: list[Transmitter], model: PropagationModel
    ) -> bool:
        """True while ``transmitters`` and ``model`` are what was compiled.

        A list compare, which short-cuts on element identity, like
        :meth:`repro.world.compiled.CompiledFloorPlan.matches`.
        """
        return model is self.model and transmitters == self.transmitters

    def audible_rssi_dbm(
        self,
        point: Point,
        walls: list[int],
        attenuation_db: float,
        sensitivity_dbm: float,
    ) -> dict[str, float]:
        """Return the noise-free RSSI of each transmitter heard at ``point``.

        Keys follow the transmitter list.  Each value is the scalar
        ``PropagationModel.mean_rssi_dbm`` minus ``attenuation_db``, with
        the same operands in the same order: distance and path loss stay
        Python floats per transmitter, and the bank's shadowing equals
        the per-transmitter field bit for bit.
        """
        model = self.model
        shadowing: list[float] = self.bank.shadowing_db(
            np.array([[point.x, point.y]])
        )[0].tolist()
        readings = {}
        for tx, n_walls, shadow in zip(self.transmitters, walls, shadowing):
            rssi = (
                model.tx_power_dbm
                - model.path_loss_db(tx.position.distance_to(point), n_walls)
                - shadow
                - attenuation_db
            )
            if rssi >= sensitivity_dbm:
                readings[tx.identifier] = rssi
        return readings


def _noisy_scan(
    means: dict[str, float],
    noise_db: float,
    sensitivity_dbm: float,
    rng: np.random.Generator,
) -> dict[str, float]:
    """Add one temporal noise draw per reading; drop those below sensitivity.

    The ``len(means)`` draws come in one call, which yields the same
    stream as one scalar ``rng.normal`` per reading, in reading order.
    """
    noise = rng.normal(0.0, noise_db, size=len(means))
    values: list[float] = (np.fromiter(means.values(), float) + noise).tolist()
    return {
        identifier: value
        for identifier, value in zip(means, values)
        if value >= sensitivity_dbm
    }


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

    def _compiled(self, kind: str) -> CompiledTransmitters:
        """Return the ``"wifi"`` or ``"cell"`` transmitters, compiled.

        Recompiled whenever the transmitter list or its model changes.
        """
        if kind == "wifi":
            transmitters, model = self.access_points, self.wifi_model
        else:
            transmitters, model = self.cell_towers, self.cell_model
        key = f"_compiled_{kind}"
        compiled: CompiledTransmitters | None = self.__dict__.get(key)
        if compiled is None or not compiled.matches(transmitters, model):
            compiled = CompiledTransmitters(transmitters, model)
            self.__dict__[key] = compiled
        return compiled

    # ----- Wi-Fi ---------------------------------------------------------

    def wifi_mean_rssi(self, point: Point) -> dict[str, float]:
        """Return the noise-free audible Wi-Fi RSSI vector at ``point``.

        The receiver's environment charges a bulk penetration loss on top
        of per-wall attenuation, which is what makes deep basements
        Wi-Fi-dead (the paper's basement segment hears no usable AP).
        Every AP's wall count comes from one (APs x walls) pass over the
        compiled floor plan and every AP's shadowing from one bank call;
        distance and path loss stay scalar per AP, so each reading is the
        scalar ``mean_rssi_dbm`` float.
        """
        return self._wifi_mean_rssi(
            point, profile_of(self.place.environment_at(point))
        )

    def _wifi_mean_rssi(
        self, point: Point, profile: EnvironmentProfile
    ) -> dict[str, float]:
        aps = self._compiled("wifi")
        walls = self.place.floorplan.compiled().walls_crossed_from(
            aps.positions, point
        )
        return aps.audible_rssi_dbm(
            point, walls, profile.wifi_attenuation_db, WIFI_SENSITIVITY_DBM
        )

    def wifi_rssi(self, point: Point, rng: np.random.Generator) -> dict[str, float]:
        """Return one noisy Wi-Fi scan at ``point``.

        Temporal noise std-dev comes from the environment profile (higher
        interference in crowded / basement environments), and readings
        pushed below sensitivity by noise drop out of the scan — audible
        AP sets therefore flicker at the coverage edge, as in reality.
        """
        profile = profile_of(self.place.environment_at(point))
        return _noisy_scan(
            self._wifi_mean_rssi(point, profile),
            profile.wifi_noise_db,
            WIFI_SENSITIVITY_DBM,
            rng,
        )

    # ----- Cellular ------------------------------------------------------

    def cell_mean_rssi(self, point: Point) -> dict[str, float]:
        """Return the noise-free audible cellular RSSI vector at ``point``.

        The environment charges a bulk attenuation (building penetration
        loss) and caps the number of audible towers — basements hear ~2
        towers, reproducing the paper's mall observation.
        """
        profile = profile_of(self.place.environment_at(point))
        towers = self._compiled("cell")
        readings = towers.audible_rssi_dbm(
            point,
            [0] * len(towers.transmitters),
            profile.cell_attenuation_db,
            CELL_SENSITIVITY_DBM,
        )
        strongest = sorted(readings.items(), key=lambda kv: kv[1], reverse=True)
        return dict(strongest[: profile.audible_towers_cap])

    def cell_rssi(self, point: Point, rng: np.random.Generator) -> dict[str, float]:
        """Return one noisy cellular scan at ``point``."""
        return _noisy_scan(
            self.cell_mean_rssi(point), 3.5, CELL_SENSITIVITY_DBM, rng
        )

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
