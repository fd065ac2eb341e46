"""Equivalence: compiled per-scan RSSI synthesis matches the per-AP scalar code.

``RadioEnvironment`` evaluates every transmitter's shadowing in one
stacked-bank call and draws a scan's temporal noise in one call.  Each
scan is compared with a reference copy of the per-transmitter scalar code
it replaced, kept here verbatim: equal dicts, in the same key order, with
Python-float values, and the same random draws.  Points cover the campus,
office and daily-path places, including basement points and points lying
on walls.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import Point
from repro.radio import RadioEnvironment
from repro.radio.propagation import CELL_SENSITIVITY_DBM, WIFI_SENSITIVITY_DBM
from repro.radio.transmitters import Transmitter
from repro.world import (
    EnvironmentType,
    build_campus_place,
    build_daily_path_place,
    build_office_place,
    profile_of,
)

# -- reference copies of the per-transmitter scalar code ---------------------


def ref_wifi_mean_rssi(radio: RadioEnvironment, point: Point) -> dict[str, float]:
    attenuation = profile_of(radio.place.environment_at(point)).wifi_attenuation_db
    readings = {}
    for ap in radio.access_points:
        walls = radio.place.floorplan.walls_crossed(ap.position, point)
        rssi = (
            radio.wifi_model.mean_rssi_dbm(
                ap.position, point, walls=walls, tx_seed=ap.seed
            )
            - attenuation
        )
        if rssi >= WIFI_SENSITIVITY_DBM:
            readings[ap.identifier] = rssi
    return readings


def ref_wifi_rssi(
    radio: RadioEnvironment, point: Point, rng: np.random.Generator
) -> dict[str, float]:
    noise_db = profile_of(radio.place.environment_at(point)).wifi_noise_db
    scan = {}
    for identifier, mean in ref_wifi_mean_rssi(radio, point).items():
        value = mean + rng.normal(0.0, noise_db)
        if value >= WIFI_SENSITIVITY_DBM:
            scan[identifier] = value
    return scan


def ref_cell_mean_rssi(radio: RadioEnvironment, point: Point) -> dict[str, float]:
    profile = profile_of(radio.place.environment_at(point))
    readings = {}
    for tower in radio.cell_towers:
        rssi = (
            radio.cell_model.mean_rssi_dbm(
                tower.position, point, walls=0, tx_seed=tower.seed
            )
            - profile.cell_attenuation_db
        )
        if rssi >= CELL_SENSITIVITY_DBM:
            readings[tower.identifier] = rssi
    strongest = sorted(readings.items(), key=lambda kv: kv[1], reverse=True)
    return dict(strongest[: profile.audible_towers_cap])


def ref_cell_rssi(
    radio: RadioEnvironment, point: Point, rng: np.random.Generator
) -> dict[str, float]:
    scan = {}
    for identifier, mean in ref_cell_mean_rssi(radio, point).items():
        value = mean + rng.normal(0.0, 3.5)
        if value >= CELL_SENSITIVITY_DBM:
            scan[identifier] = value
    return scan


# -- fixtures ----------------------------------------------------------------

BUILDERS = {
    "campus": build_campus_place,
    "office": build_office_place,
    "daily": build_daily_path_place,
}


@pytest.fixture(scope="module", params=sorted(BUILDERS))
def radio(request) -> RadioEnvironment:
    return RadioEnvironment.deploy(BUILDERS[request.param](), seed=5)


def _points(radio: RadioEnvironment) -> list[Point]:
    """Path points in every environment, plus wall endpoints and midpoints."""
    place = radio.place
    points = []
    for path in place.paths.values():
        length = path.polyline.length()
        for s in np.linspace(0.0, length, 12):
            points.append(path.polyline.point_at_distance(float(s)))
    for wall in place.floorplan.walls[:: max(1, len(place.floorplan.walls) // 8)]:
        points.extend([wall.start, wall.end, wall.midpoint()])
    return points


def _assert_same_scan(actual: dict, expected: dict) -> None:
    assert actual == expected
    assert list(actual) == list(expected)
    assert all(type(value) is float for value in actual.values())


# -- tests -------------------------------------------------------------------


def test_points_cover_basements_and_walls() -> None:
    radio = RadioEnvironment.deploy(build_daily_path_place(), seed=5)
    envs = {radio.place.environment_at(p) for p in _points(radio)}
    assert EnvironmentType.BASEMENT in envs
    assert radio.place.floorplan.walls


def test_wifi_mean_rssi_matches_reference(radio) -> None:
    for point in _points(radio):
        expected = ref_wifi_mean_rssi(radio, point)
        _assert_same_scan(radio.wifi_mean_rssi(point), expected)


def test_cell_mean_rssi_matches_reference(radio) -> None:
    for point in _points(radio):
        expected = ref_cell_mean_rssi(radio, point)
        _assert_same_scan(radio.cell_mean_rssi(point), expected)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_noisy_scans_match_reference_with_the_same_draws(radio, seed) -> None:
    rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    for point in _points(radio):
        expected = ref_wifi_rssi(radio, point, ref_rng)
        _assert_same_scan(radio.wifi_rssi(point, rng), expected)
        expected = ref_cell_rssi(radio, point, ref_rng)
        _assert_same_scan(radio.cell_rssi(point, rng), expected)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_wifi_scan_looks_up_the_environment_once(monkeypatch) -> None:
    radio = RadioEnvironment.deploy(build_office_place(), seed=5)
    place = radio.place
    calls = []
    lookup = type(place).environment_at
    monkeypatch.setattr(
        type(place),
        "environment_at",
        lambda self, point: calls.append(point) or lookup(self, point),
    )
    point = next(iter(place.paths.values())).polyline.point_at_distance(5.0)
    radio.wifi_rssi(point, np.random.default_rng(0))
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["wifi", "cell"])
def test_readings_follow_edited_transmitter_lists(kind) -> None:
    radio = RadioEnvironment.deploy(build_office_place(), seed=5)
    point = next(iter(radio.place.paths.values())).polyline.point_at_distance(10.0)
    if kind == "wifi":
        transmitters = radio.access_points
        mean, ref = radio.wifi_mean_rssi, ref_wifi_mean_rssi
    else:
        transmitters = radio.cell_towers
        mean, ref = radio.cell_mean_rssi, ref_cell_mean_rssi
    mean(point)  # compile the list as deployed
    nearest = min(transmitters, key=lambda tx: tx.position.distance_to(point))
    # Appended: a strong new transmitter right next to the receiver.
    new = Transmitter(f"{kind}-new", point + Point(1.0, 0.5), seed=99)
    transmitters.append(new)
    assert f"{kind}-new" in mean(point)
    _assert_same_scan(mean(point), ref(radio, point))
    # Replaced in place: the nearest one moves and is reseeded.
    i = transmitters.index(nearest)
    moved = nearest.position + Point(40.0, -30.0)
    transmitters[i] = Transmitter(nearest.identifier, moved, seed=7)
    _assert_same_scan(mean(point), ref(radio, point))
    # Removed.
    del transmitters[0]
    _assert_same_scan(mean(point), ref(radio, point))
