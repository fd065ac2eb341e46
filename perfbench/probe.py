"""Timing and tracing patches installed on the program's own classes.

The benchmark never edits the program.  It replaces functions, on the
class or module that defines them, by wrappers that append to one
per-process buffer, and restores the originals afterwards.

Two modes share the mechanism:

* ``Probe("time")`` is the untraced end-to-end run.  It wraps only the
  two step entry points (``UniLocFramework.step`` and
  ``PopulationFramework.step_batch``) to collect step latencies, and the
  fleet's job entry to carry them back from worker processes.
* ``Probe("trace")`` wraps every layer the benchmark reports: the set-up
  stages, the simulator (walk generation, sensor recording, world and
  radio queries), each scheme at every public entry a step path uses
  (``estimate``, ``estimate_batch``, the particle-filter lane kernels and
  the compiled fingerprint kernels), error prediction, confidence, the
  grid posteriors, the HMM, scoring and the fleet job.  Each wrapped call
  is a span ``(name, start, end, parent, walk, tag)``.

Neither mode touches ``framework.tracer`` or swaps a scheme for a proxy,
so the population pre-pass still primes every lane and ``type(scheme)``
dispatch is unchanged: the traced run steps through the same code as the
untraced one.

Patches are installed before the fleet executor forks its pool, so
workers inherit them.  A forked worker starts with an empty buffer and
writes it to a spool file after every job; the parent reads the spool
when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import pickle
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

@dataclass
class Chunk:
    """One flushed buffer: spans (parent indices local to the chunk) and samples."""

    spans: list[tuple] = field(default_factory=list)
    step_ms: list[float] = field(default_factory=list)
    env_points: set[tuple[float, float]] = field(default_factory=set)
    counts: dict[str, int] = field(default_factory=dict)


class _Buffer:
    """The per-process recording state every wrapper appends to."""

    def __init__(self) -> None:
        self.chunk = Chunk()
        self.stack: list[int] = []
        self.walk: str | None = None
        self.step_depth = 0

    def fresh(self) -> None:
        self.chunk = Chunk()
        self.stack = []
        self.step_depth = 0


_ACTIVE: "Probe | None" = None


def _after_fork_in_child() -> None:
    # A forked worker must not re-flush what the parent had buffered.
    if _ACTIVE is not None:
        _ACTIVE.buffer.fresh()


os.register_at_fork(after_in_child=_after_fork_in_child)


#: ``time``: step latencies only; ``setup``: the set-up stages only;
#: ``trace``: every reported layer (see the module docstring).
MODES = ("time", "setup", "trace")


class Probe:
    """Install the patches of one mode (see :data:`MODES`).

    Use as a context manager; the originals are restored on exit.

    Args:
        mode: ``"time"`` or ``"trace"``.
        spool: directory where forked workers write their buffers.
    """

    def __init__(self, mode: str, spool: Path) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown probe mode {mode!r}")
        self.mode = mode
        self.spool = Path(spool)
        self.buffer = _Buffer()
        self.parent_pid = os.getpid()
        self._restore: list[tuple[Any, str, Any]] = []
        self._seq = 0
        #: ``id(particle filter)`` -> scheme name, and ``id(compiled
        #: fingerprint index)`` -> scheme name, for attributing batched
        #: kernel time to schemes.
        self.filter_owner: dict[int, str] = {}
        self.index_owner: dict[int, str] = {}
        #: Owner of every fingerprint pass while it is set: the fusion
        #: re-weighting shares the Wi-Fi index, so only the call it is
        #: made from tells the two apart.
        self.index_caller: str | None = None
        #: ``id(framework)`` -> walk id, for population lanes.
        self.lane_walk: dict[int, str] = {}

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "Probe":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a probe is already installed")
        self.spool.mkdir(parents=True, exist_ok=True)
        _ACTIVE = self
        try:
            self._install()
        except BaseException:
            self._uninstall()
            _ACTIVE = None
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        global _ACTIVE
        self._uninstall()
        _ACTIVE = None

    def take(self) -> list[Chunk]:
        """Return every chunk recorded so far (spool and own buffer) and clear them."""
        chunks = []
        for path in sorted(self.spool.glob("*.pkl")):
            with path.open("rb") as handle:
                chunks.append(pickle.load(handle))
            path.unlink()
        chunks.append(self.buffer.chunk)
        self.buffer.fresh()
        return chunks

    def flush_worker(self) -> None:
        """Write a forked worker's buffer to the spool and clear it."""
        self._seq += 1
        path = self.spool / f"{os.getpid()}-{self._seq:06d}.pkl"
        tmp = path.with_suffix(".tmp")
        with tmp.open("wb") as handle:
            pickle.dump(self.buffer.chunk, handle, protocol=pickle.HIGHEST_PROTOCOL)
        tmp.rename(path)
        self.buffer.fresh()

    def register_setup(self, setup: Any) -> None:
        """Name the compiled fingerprint indexes of a place setup."""
        from repro.radio.kernels import compile_fingerprints

        self.index_owner[id(compile_fingerprints(setup.wifi_db))] = "wifi"
        self.index_owner[id(compile_fingerprints(setup.cell_db))] = "cellular"

    # -- patching ----------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _method(self, cls: type, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        """Wrap ``cls.attr`` where ``cls`` itself defines it."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            self._set(cls, attr, classmethod(wrap(original.__func__)))
        else:
            self._set(cls, attr, wrap(original))

    def _function(self, module: Any, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        """Wrap a module function at every ``repro`` module binding it."""
        original = getattr(module, attr)
        wrapped = wrap(original)
        for name, mod in list(sys.modules.items()):
            if not name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def _install(self) -> None:
        from repro.core.framework import UniLocFramework
        from repro.core.population import PopulationFramework
        from repro.fleet import executor

        if self.mode == "setup":
            self._install_setup()
            return
        self._function(executor, "execute_job", self._job_wrapper)
        if self.mode == "time":
            self._method(UniLocFramework, "step", lambda fn: self._step_timer(fn, False))
            self._method(
                PopulationFramework, "step_batch", lambda fn: self._step_timer(fn, True)
            )
            return
        self._install_setup()
        self._install_trace()

    def _install_setup(self) -> None:
        from repro.eval import setup as setup_mod

        span = self._span
        self._function(setup_mod, "train_error_models", span("eval.setup.train_error_models"))
        self._method(setup_mod.PlaceSetup, "create", span("eval.setup.place_create"))
        self._function(setup_mod, "build_framework", self._build_wrapper)

    def _install_trace(self) -> None:
        from repro.core.error_model import LinearErrorModel
        from repro.core.features import FeatureExtractor
        from repro.core.framework import UniLocFramework
        from repro.core.hmm import SecondOrderHmm
        from repro.core.population import PopulationFramework
        from repro.eval import runner, setup as setup_mod
        from repro.faults.injectors import FaultyScheme  # noqa: F401 (registers subclass)
        from repro.geometry.grid import Grid
        from repro.motion import walker
        from repro.radio.deployment import RadioEnvironment
        from repro.radio.kernels import CompiledFingerprintDatabase
        from repro.schemes import particle_filter
        from repro.schemes.base import LocalizationScheme
        from repro.sensors.phone import Smartphone
        from repro.world.floorplan import FloorPlan
        from repro.world.place import Place

        # ``repro.core.confidence`` the attribute is the function, not the module.
        confidence_mod = importlib.import_module("repro.core.confidence")
        span = self._span
        # Simulator.
        self._function(walker, "generate_walk", span("motion.generate_walk"))
        self._method(setup_mod.PlaceSetup, "record_walk", self._record_wrapper)
        self._method(Smartphone, "record_walk", span("sensors.record_walk"))
        self._method(Place, "environment_at", self._environment_wrapper)
        self._method(Place, "corridor_width_at", span("world.corridor_width_at"))
        self._method(FloorPlan, "walls_crossed", span("world.walls_crossed"))
        self._method(RadioEnvironment, "wifi_rssi", span("radio.wifi_rssi"))
        self._method(RadioEnvironment, "cell_rssi", span("radio.cell_rssi"))
        self._method(CompiledFingerprintDatabase, "distances", span("radio.kernels.fingerprint"))
        self._method(CompiledFingerprintDatabase, "nearest", span("radio.kernels.fingerprint"))
        self._method(
            CompiledFingerprintDatabase,
            "distances_batch",
            span("radio.kernels.fingerprint", tag=self._index_tag),
        )
        # Schemes, at every public entry a step path uses.
        for cls in _subclasses(LocalizationScheme):
            for attr in ("estimate", "estimate_batch"):
                if attr in cls.__dict__:
                    self._method(cls, attr, span(_scheme_span_name))
        for attr in ("predict_lanes", "estimate_lanes"):
            self._function(
                particle_filter, attr, span(f"kernels.particles.{attr}", tag=self._filters_tag)
            )
        # Framework layers.
        for attr in ("gaussian_posterior", "gaussian_posteriors", "histogram_posterior"):
            self._method(Grid, attr, span("geometry.grid.posterior"))
        for cls in _subclasses(FeatureExtractor):
            if "extract" in cls.__dict__:
                self._method(cls, "extract", span("core.features"))
        for attr in ("predict", "predict_batch"):
            self._method(LinearErrorModel, attr, span("core.error_model.predict"))
        for attr in (
            "confidence",
            "adaptive_threshold",
            "normalized_weights",
            "confidences_batch",
            "adaptive_thresholds",
            "normalized_weights_batch",
        ):
            self._function(confidence_mod, attr, span("core.confidence"))
        for attr in ("observe", "predict", "predictive_posterior"):
            self._method(SecondOrderHmm, attr, span("core.hmm"))
        self._method(UniLocFramework, "step", span("core.framework.step"))
        if "_step_scalar" in UniLocFramework.__dict__:
            self._method(UniLocFramework, "_step_scalar", self._lane_wrapper)
        self._method(
            PopulationFramework,
            "step_batch",
            span("core.population.step_batch", tag=lambda args: len(args[1])),
        )
        # Raises if the population's fusion re-weighting is renamed, rather
        # than silently charging its fingerprint pass to Wi-Fi.
        self._method(PopulationFramework, "_rssi_updates", self._fusion_rssi_wrapper)
        self._function(runner, "score_step", span("eval.score_step"))

    # -- wrappers ----------------------------------------------------------

    def _span(
        self,
        name: str | Callable[[tuple], str],
        tag: Callable[[tuple], Any] | None = None,
    ) -> Callable[[Callable], Callable]:
        """Return a decorator recording one span per call."""
        buffer = self.buffer

        def wrap(fn: Callable) -> Callable:
            def traced(*args: Any, **kwargs: Any) -> Any:
                spans = buffer.chunk.spans
                stack = buffer.stack
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans[index] = (
                        name if isinstance(name, str) else name(args),
                        start,
                        end,
                        parent,
                        buffer.walk,
                        tag(args) if tag is not None else None,
                    )

            traced.__wrapped__ = fn  # type: ignore[attr-defined]
            return traced

        return wrap

    def _step_timer(self, fn: Callable, batch: bool) -> Callable:
        """Time the outermost step call; charge every lane the whole call."""
        buffer = self.buffer

        def timed(*args: Any, **kwargs: Any) -> Any:
            if buffer.step_depth:
                return fn(*args, **kwargs)
            buffer.step_depth = 1
            try:
                start = perf_counter()
                result = fn(*args, **kwargs)
                elapsed_ms = (perf_counter() - start) * 1e3
            finally:
                buffer.step_depth = 0
            lanes = len(args[1]) if batch else 1
            buffer.chunk.step_ms.extend([elapsed_ms] * lanes)
            return result

        return timed

    def _job_wrapper(self, fn: Callable) -> Callable:
        """Label the job's spans with its walk, then flush if in a worker."""
        traced = self._span("fleet.executor.job") if self.mode == "trace" else None
        body = traced(fn) if traced is not None else fn

        def job(job: Any, *args: Any, **kwargs: Any) -> Any:
            self.buffer.walk = walk_id(job.place_name, job.path_name, job.walk_seed)
            try:
                return body(job, *args, **kwargs)
            finally:
                self.buffer.walk = None
                if os.getpid() != self.parent_pid:
                    self.flush_worker()

        return job

    def _record_wrapper(self, fn: Callable) -> Callable:
        """Label a walk recording (population lanes have no job span)."""
        traced = self._span("eval.setup.record_walk")(fn)

        def record(setup: Any, path_name: str, *args: Any, **kwargs: Any) -> Any:
            self.buffer.walk = walk_id(
                setup.place.name, path_name, kwargs.get("walk_seed", 0)
            )
            return traced(setup, path_name, *args, **kwargs)

        return record

    def _build_wrapper(self, fn: Callable) -> Callable:
        """Time framework construction and remember its lane's walk and filters."""
        traced = self._span("eval.setup.build_framework")(fn)

        def build(*args: Any, **kwargs: Any) -> Any:
            framework = traced(*args, **kwargs)
            if self.buffer.walk is not None:
                self.lane_walk[id(framework)] = self.buffer.walk
            for name, bundle in framework.bundles.items():
                particles = getattr(bundle.scheme, "_pf", None)
                if particles is not None:
                    self.filter_owner[id(particles)] = name
            return framework

        return build

    def _lane_wrapper(self, fn: Callable) -> Callable:
        """Span one lane's scalar step, labelled with that lane's walk."""
        traced = self._span("core.framework.lane_step")(fn)
        buffer = self.buffer

        def lane(framework: Any, *args: Any, **kwargs: Any) -> Any:
            previous = buffer.walk
            buffer.walk = self.lane_walk.get(id(framework), previous)
            try:
                return traced(framework, *args, **kwargs)
            finally:
                buffer.walk = previous

        return lane

    def _environment_wrapper(self, fn: Callable) -> Callable:
        """Span ``environment_at`` and keep its distinct query points."""
        traced = self._span("world.environment_at")(fn)
        buffer = self.buffer

        def environment_at(place: Any, point: Any) -> Any:
            buffer.chunk.env_points.add((point.x, point.y))
            return traced(place, point)

        return environment_at

    def _fusion_rssi_wrapper(self, fn: Callable) -> Callable:
        """Charge the fingerprint passes of the fusion re-weighting to fusion."""

        def rssi_updates(*args: Any, **kwargs: Any) -> Any:
            self.index_caller = "fusion"
            try:
                return fn(*args, **kwargs)
            finally:
                self.index_caller = None

        return rssi_updates

    def _index_tag(self, args: tuple) -> str:
        if self.index_caller is not None:
            return self.index_caller
        return self.index_owner.get(id(args[0]), "fingerprint")

    def _filters_tag(self, args: tuple) -> tuple[str, ...]:
        return tuple(self.filter_owner.get(id(f), "particles") for f in args[0])


class CacheCounter:
    """A ``TracerLike`` for :class:`repro.fleet.ArtifactCache` that counts spans.

    The cache reports ``fleet.cache.hit`` / ``fleet.cache.miss`` through
    its tracer; this one adds one to the active probe's counts per span
    name (nothing while no probe is installed).
    """

    enabled = True

    def span(self, name: str, **attrs: Any) -> contextlib.nullcontext:
        if _ACTIVE is not None:
            counts = _ACTIVE.buffer.chunk.counts
            counts[name] = counts.get(name, 0) + 1
        return contextlib.nullcontext()


def walk_id(place: str, path: str, walk_seed: int) -> str:
    """Return the identifier shared by every span of one walk."""
    return f"{place}/{path}/w{walk_seed}"


def _scheme_span_name(args: tuple) -> str:
    return f"schemes.{getattr(args[0], 'name', type(args[0]).__name__)}"


def _subclasses(cls: type) -> list[type]:
    """Return ``cls`` and every subclass, each once."""
    found: list[type] = []
    pending = [cls]
    while pending:
        current = pending.pop()
        if current in found:
            continue
        found.append(current)
        pending.extend(current.__subclasses__())
    return found
