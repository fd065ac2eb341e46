"""Acceptance: the population core changes nothing about walk results.

The api-redesign contract for ``repro.core.population`` is *behavioural
identity* at the byte level:

* the scalar :class:`~repro.core.UniLocFramework` — now a thin front
  over a population of size 1 — still produces the exact
  :class:`WalkResult` pickles pinned before the redesign (the golden
  hashes in ``tests/data/walk_goldens.json``, regenerated only via
  ``tools/make_walk_goldens.py``);
* :func:`~repro.fleet.executor.run_population` (many lanes, one batched
  pre-pass per step index) matches ``run_walks`` byte-for-byte on the
  same jobs, clean and faulted alike;
* a multi-lane :class:`~repro.core.population.PopulationFramework`
  matches the same frameworks each stepped alone, decision-by-decision;
* a scheme that raises inside the batched pre-pass — at any lane, step
  and fault site — decides exactly like the same scheme raising from
  ``estimate`` behind a wrapper the pre-pass does not prepare, whether
  the lanes step together or alone (property-tested);
* a fingerprint index that breaks mid-walk is contained and quarantined
  on the default ``step()`` and in a multi-lane ``run_population``.
"""

import itertools
import json
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.population import PopulationFramework
from repro.eval import build_framework
from repro.eval.experiments import shared_models
from repro.fleet import ArtifactCache, WalkJob, run_population, run_walks
from repro.schemes.base import TimedScheme

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "walk_goldens.json"


def _goldens():
    import sys

    tools = str(Path(__file__).resolve().parents[2] / "tools")
    if tools not in sys.path:
        sys.path.insert(0, tools)
    from make_walk_goldens import golden_jobs, result_hash

    return golden_jobs, result_hash


@pytest.fixture(scope="module")
def warm_cache():
    cache = ArtifactCache()
    cache.put_error_models(shared_models(0), 0)
    cache.place_setup("office", 3)
    cache.place_setup("open-space", 3)
    return cache


@pytest.mark.slow
class TestGoldenScalarHashes:
    """The scalar pipeline still produces the pre-redesign bytes."""

    @pytest.mark.parametrize(
        "name",
        [
            "office-clean",
            "open-space-clean",
            "office-faulted",
            "open-space-faulted",
            "campus-window",
        ],
    )
    def test_walk_pickle_matches_golden(self, name, warm_cache):
        golden_jobs, result_hash = _goldens()
        expected = json.loads(GOLDEN_PATH.read_text())["hashes"]
        job = golden_jobs()[name]
        (result,) = run_walks([job], cache=warm_cache)
        assert len(result.records) == expected[name]["steps"]
        assert result_hash(result) == expected[name]["sha256"]


@pytest.mark.slow
def test_run_population_matches_run_walks_byte_for_byte(warm_cache):
    """The batched engine is a pure throughput choice: identical pickles."""
    golden_jobs, _ = _goldens()
    jobs = list(golden_jobs().values())
    serial = run_walks(jobs, cache=warm_cache)
    batched = run_population(jobs, cache=warm_cache)
    for job, a, b in zip(jobs, serial, batched):
        assert pickle.dumps(a, protocol=5) == pickle.dumps(b, protocol=5), (
            f"population result diverged on {job.place_name}/{job.walk_seed}"
        )


def test_run_population_short_mixed_places(warm_cache):
    """Lanes over different places, lengths, and seeds stay byte-exact."""
    jobs = [
        WalkJob(
            place_name=place,
            path_name="survey",
            walk_seed=40 + idx,
            trace_seed=50 + idx,
            max_length=8.0 + 4.0 * idx,
        )
        for idx, place in enumerate(
            ["office", "open-space", "office", "open-space"]
        )
    ]
    serial = run_walks(jobs, cache=warm_cache)
    batched = run_population(jobs, cache=warm_cache)
    for a, b in zip(serial, batched):
        assert pickle.dumps(a, protocol=5) == pickle.dumps(b, protocol=5)


def _lane(setup, models, walk_seed, start_arc=0.0):
    walk, snaps = setup.record_walk(
        "survey",
        walk_seed=walk_seed,
        trace_seed=walk_seed + 1,
        start_arc=start_arc,
        max_length=14.0,
    )
    framework = build_framework(
        setup, models, walk.moments[0].position, scheme_seed=walk_seed + 11
    )
    framework.reset()
    return framework, snaps


def _assert_same_decisions(want, got, label):
    for step, (a, b) in enumerate(zip(want, got, strict=True)):
        assert pickle.dumps(a, protocol=5) == pickle.dumps(b, protocol=5), (
            f"{label} diverged at step {step}"
        )


def test_population_framework_matches_scalar_lanes(warm_cache):
    """N-lane step_batch == N frameworks each stepped alone, per decision."""
    setup = warm_cache.place_setup("office", 3)
    models = warm_cache.error_models(0)
    seeds = [300, 301, 302, 303]
    alone = [_lane(setup, models, s) for s in seeds]
    lanes = [_lane(setup, models, s) for s in seeds]
    population = PopulationFramework([fw for fw, _ in lanes])
    n_steps = min(len(snaps) for _, snaps in alone)
    for step in range(n_steps):
        want = [fw.step(snaps[step]) for fw, snaps in alone]
        got = population.step_batch([snaps[step] for _, snaps in lanes])
        for lane_idx, (a, b) in enumerate(zip(want, got)):
            assert pickle.dumps(a, protocol=5) == pickle.dumps(b, protocol=5), (
                f"lane {lane_idx} diverged at step {step}"
            )


class _RaisingIndex:
    """A compiled fingerprint index that raises when ``fails(scans)``."""

    def __init__(self, inner, fails):
        self._inner = inner
        self._fails = fails

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def distances(self, scan, rows=None):
        if self._fails([scan]):
            raise RuntimeError("injected fingerprint index fault")
        return self._inner.distances(scan, rows=rows)

    def distances_batch(self, scans, rows=None):
        if self._fails(scans):
            raise RuntimeError("injected fingerprint index fault")
        return self._inner.distances_batch(scans, rows=rows)


def _raising_landmark_step(scheme, snapshots):
    original = scheme._landmark_update

    def landmark_update(snapshot):
        if any(snapshot is bad for bad in snapshots):
            raise RuntimeError("injected landmark fault")
        original(snapshot)

    scheme._landmark_update = landmark_update


#: Fault sites: (scheme, where it raises).
_FAULT_SITES = [
    ("wifi", "index"),
    ("cellular", "index"),
    ("fusion", "index"),
    ("motion", "landmark"),
    ("fusion", "landmark"),
]

_FAULT_LANE_SEEDS = (300, 301, 302)

#: Where the fault lanes start: their landmark detections (steps 9-17)
#: make a skipped or extra landmark recentering visible.
_FAULT_START_ARC_M = 16.0

#: Steps stepped per lane (each of these office walks is longer).
_FAULT_STEPS = 20


def _faulted_lanes(site, faults, *, wrap):
    """Fresh lanes whose ``site`` raises at the ``(lane, step)`` pairs.

    With ``wrap`` the faulting scheme sits behind a pass-through
    :class:`TimedScheme`, which the pre-pass does not prepare, so its
    fault surfaces through the guard's own ``estimate`` call instead.
    """
    cache = _property_cache()
    setup = cache.place_setup("office", 3)
    models = cache.error_models(0)
    lanes = [
        _lane(setup, models, seed, _FAULT_START_ARC_M) for seed in _FAULT_LANE_SEEDS
    ]
    name, where = site
    if where == "index":
        # Faults key on scan identity, so one index shared by every lane
        # raises only for the lanes and steps given, while the stacked
        # ``distances_batch`` over all lanes raises as a whole.
        attr = "_fp_index" if name == "fusion" else "_index"
        scan = "cell_scan" if name == "cellular" else "wifi_scan"
        bad = [getattr(lanes[lane][1][step], scan) for lane, step in faults]
        shared = _RaisingIndex(
            getattr(lanes[0][0].bundles[name].scheme, attr),
            lambda scans: any(s is b for s in scans for b in bad),
        )
    for k, (framework, snaps) in enumerate(lanes):
        scheme = framework.bundles[name].scheme
        if where == "index":
            setattr(scheme, attr, shared)
        else:
            _raising_landmark_step(
                scheme, [snaps[step] for lane, step in faults if lane == k]
            )
        if wrap:
            framework.bundles[name].scheme = TimedScheme(scheme)
    return lanes


@pytest.mark.slow
@settings(max_examples=20, deadline=None)
@given(
    site=st.sampled_from(_FAULT_SITES),
    faults=st.sets(
        st.tuples(
            st.integers(min_value=0, max_value=len(_FAULT_LANE_SEEDS) - 1),
            st.integers(min_value=0, max_value=_FAULT_STEPS - 1),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_prepass_faults_are_contained_like_guarded_estimate(site, faults):
    """Property: a scheme raising in the pre-pass, at any lane and step,
    decides exactly like the same scheme raising from ``estimate``."""
    reference = _faulted_lanes(site, faults, wrap=True)
    batched = _faulted_lanes(site, faults, wrap=False)
    alone = _faulted_lanes(site, faults, wrap=False)
    steps = range(_FAULT_STEPS)
    want = [[fw.step(snaps[t]) for t in steps] for fw, snaps in reference]
    population = PopulationFramework([fw for fw, _ in batched])
    got = list(
        zip(*(population.step_batch([snaps[t] for _, snaps in batched]) for t in steps))
    )
    for k, (fw, snaps) in enumerate(alone):
        lone = [fw.step(snaps[t]) for t in steps]
        _assert_same_decisions(want[k], lone, f"lone lane {k}")
        _assert_same_decisions(want[k], got[k], f"batched lane {k}")
    failed = {
        (k, t)
        for k, lane in enumerate(got)
        for t, decision in enumerate(lane)
        if site[0] in decision.failures
    }
    assert failed and failed <= faults


#: The walk of the fault-containment probe: ``wifi``'s fingerprint index
#: raises from its third call on (step 2), so three failures quarantine it.
PROBE_JOB = WalkJob(
    place_name="office",
    path_name="survey",
    walk_seed=5,
    trace_seed=6,
    max_length=50.0,
)


def _assert_wifi_contained(result):
    decisions = [record.decision for record in result.records]
    failed = [t for t, d in enumerate(decisions) if "wifi" in d.failures]
    assert failed[:3] == [2, 3, 4]
    assert {decisions[t].failures["wifi"] for t in failed} == {"exception"}
    assert "wifi" in decisions[5].quarantined
    assert all(record.uniloc2_error is not None for record in result.records)


@pytest.fixture
def probe_builds(monkeypatch):
    """Build the probe walk's framework with the failing ``wifi`` index."""
    import repro.eval.setup as setup_module

    original = setup_module.build_framework

    def build(setup, models, start, scheme_seed=0, **kwargs):
        framework = original(setup, models, start, scheme_seed=scheme_seed, **kwargs)
        if scheme_seed == PROBE_JOB.walk_seed + 11:
            wifi = framework.bundles["wifi"].scheme
            calls = itertools.count(1)
            wifi._index = _RaisingIndex(wifi._index, lambda _: next(calls) >= 3)
        return framework

    monkeypatch.setattr(setup_module, "build_framework", build)


def test_failing_wifi_index_is_contained_on_the_default_step(warm_cache, probe_builds):
    """Regression: a raising pre-pass used to escape ``step()`` and end the walk."""
    (result,) = run_walks([PROBE_JOB], cache=warm_cache)
    _assert_wifi_contained(result)


def test_failing_wifi_index_is_contained_in_a_population(warm_cache, probe_builds):
    """The same probe as one lane of three; the other lanes are untouched."""
    others = [
        WalkJob(
            place_name="office",
            path_name="survey",
            walk_seed=seed,
            trace_seed=seed + 1,
            max_length=30.0,
        )
        for seed in (40, 41)
    ]
    jobs = [others[0], PROBE_JOB, others[1]]
    batched = run_population(jobs, cache=warm_cache)
    serial = run_walks(jobs, cache=warm_cache)
    for a, b in zip(serial, batched):
        assert pickle.dumps(a, protocol=5) == pickle.dumps(b, protocol=5)
    _assert_wifi_contained(batched[1])
    for result in (batched[0], batched[2]):
        assert not any(r.decision.failures for r in result.records)


_PROPERTY_CACHE = None


def _property_cache():
    """Module-level warm cache for the hypothesis property.

    Hypothesis forbids function-scoped fixtures inside ``@given``, so the
    expensive setups are memoised here instead of through ``warm_cache``.
    """
    global _PROPERTY_CACHE
    if _PROPERTY_CACHE is None:
        _PROPERTY_CACHE = ArtifactCache()
        _PROPERTY_CACHE.put_error_models(shared_models(0), 0)
        _PROPERTY_CACHE.place_setup("office", 3)
        _PROPERTY_CACHE.place_setup("open-space", 3)
    return _PROPERTY_CACHE
