"""The in-process yield query service.

:class:`YieldService` answers vectorized batched queries — arrays of
(width, CNT density, device count) — against precomputed
:class:`~repro.surface.surface.YieldSurface` artifacts:

* interpolated answers come from the error-bounded bilinear layer in
  :mod:`repro.serving.interpolate`, at millions of queries per second;
* surfaces load through an :class:`~repro.serving.cache.LRUCache` keyed
  by content hash, backed by an optional on-disk
  :class:`~repro.surface.surface.SurfaceStore`;
* queries outside the swept grid gracefully fall back to the exact
  closed-form evaluator the surface was built with (or, opt-in, to the
  tilted Monte Carlo estimator for families without closed forms).

Every answer carries guaranteed bounds: the failure probability interval
comes from the surface's per-cell error channel, and the chip-yield
interval is its monotone image through Eq. 2.3 / 3.1.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.core.circuit_yield import yield_from_uniform_failure_probability_array
from repro.resilience.checkpoint import CorruptArtifactError
from repro.resilience.degrade import CircuitBreaker, Deadline
from repro.resilience.guards import check_finite
from repro.serving.cache import LRUCache
from repro.serving.interpolate import interpolate_log_failure
from repro.surface.builder import ExactEvaluator
from repro.surface.surface import SCENARIO_DEVICE, SurfaceStore, YieldSurface


@dataclass(frozen=True)
class QueryResult:
    """One batched query's answers with propagated error bounds.

    ``failure_probability`` is pF (device surfaces) or pRF (row-scenario
    surfaces); ``chip_yield`` is its Eq. 2.3 / 3.1 image at the queried
    device count.  The ``*_lower``/``*_upper`` arrays bound the exact
    value whenever the surface's per-cell error bounds hold (always, for
    closed-form sweeps; at the configured sigma level for MC sweeps).
    ``interpolated`` flags which entries were served from the grid — the
    rest went through the fallback path.

    ``degradation`` records whether (and how) the answer was served in a
    degraded mode: ``"none"`` is the healthy path, ``"stale_cache"``
    means the artifact store failed (corrupt file, open circuit breaker)
    and a previously loaded copy of the surface answered instead, and
    ``"deadline_clamped"`` means the per-query deadline expired before
    the exact fallback could run, so out-of-grid queries were answered
    at the nearest grid point with trivially correct ``[0, 1]`` bounds.
    Degraded answers are still bounded — the flags exist so callers can
    tell guaranteed-tight answers from best-effort ones.
    """

    scenario: str
    failure_probability: np.ndarray
    failure_lower: np.ndarray
    failure_upper: np.ndarray
    chip_yield: np.ndarray
    yield_lower: np.ndarray
    yield_upper: np.ndarray
    interpolated: np.ndarray
    degraded: bool = False
    degradation: Tuple[str, ...] = field(default=("none",))

    @property
    def n_queries(self) -> int:
        """Number of query points answered."""
        return int(self.failure_probability.size)

    @property
    def n_fallback(self) -> int:
        """Number of query points answered by the fallback path."""
        return int(np.size(self.interpolated) - np.count_nonzero(self.interpolated))

    def bounds_contain(self, exact_failure_probability: np.ndarray) -> np.ndarray:
        """Elementwise check that the failure bounds contain exact values."""
        exact = np.asarray(exact_failure_probability, dtype=float)
        return (exact >= self.failure_lower) & (exact <= self.failure_upper)


class YieldService:
    """Serves batched yield queries from cached surfaces with fallbacks.

    Parameters
    ----------
    store:
        Optional on-disk surface store; keys not already registered
        in-memory load through the LRU from here.
    cache_capacity:
        Maximum number of surfaces held in memory.
    n_sigma:
        Sigma multiplier applied to statistical standard errors (both the
        surface nodes' and the fallback estimators') when forming bounds.
    breaker:
        Circuit breaker guarding store loads; after repeated load
        failures the store is skipped for a cooldown and keys are served
        from the stale cache directly.  Defaults to a 3-failure, 30 s
        breaker.
    deadline_s:
        Default per-query wall-clock budget.  ``None`` (the default)
        means unbounded; :meth:`query` can override per call.
    stale_capacity:
        Maximum number of surfaces retained in the stale cache (the
        last-resort rung of the degradation ladder).  Defaults to four
        times ``cache_capacity``.  The stale cache is LRU-ordered, so a
        long-lived server that churns through many surfaces keeps the
        recently served ones available for degraded answers without
        pinning every surface it ever loaded.
    """

    def __init__(
        self,
        store: Optional[Union[SurfaceStore, str, "os.PathLike[str]"]] = None,
        cache_capacity: int = 8,
        n_sigma: float = 4.0,
        breaker: Optional[CircuitBreaker] = None,
        deadline_s: Optional[float] = None,
        stale_capacity: Optional[int] = None,
    ) -> None:
        if isinstance(store, (str, os.PathLike)):
            store = SurfaceStore(store)
        self.store = store
        self.cache: LRUCache[YieldSurface] = LRUCache(capacity=cache_capacity)
        self.n_sigma = float(n_sigma)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.deadline_s = deadline_s
        if stale_capacity is None:
            stale_capacity = 4 * int(cache_capacity)
        if stale_capacity < 1:
            raise ValueError("stale_capacity must be at least 1")
        self.stale_capacity = int(stale_capacity)
        # One lock covers every piece of service-level mutable state the
        # LRU does not already guard: the pinned/stale registries, the
        # evaluator cache, and the query counters.  The network tier
        # serves many concurrent clients through one service instance.
        self._lock = threading.Lock()
        self._evaluators: Dict[str, ExactEvaluator] = {}
        self._pinned: Dict[str, YieldSurface] = {}
        self._stale: "OrderedDict[str, YieldSurface]" = OrderedDict()
        self.queries_served = 0
        self.degraded_queries = 0

    # ------------------------------------------------------------------
    # Surface access
    # ------------------------------------------------------------------

    def register(self, surface: YieldSurface, persist: bool = False) -> str:
        """Adopt a surface into the cache (optionally persisting it).

        The returned key stays queryable for the service's lifetime:
        persisted surfaces reload through the store after an LRU
        eviction, while unpersisted ones are pinned outside the LRU (the
        caller handed us the only copy, so eviction must not orphan the
        key it got back).
        """
        key = surface.key
        self.cache.put(key, surface)
        if persist:
            if self.store is None:
                raise ValueError("cannot persist without a SurfaceStore")
            self.store.save(surface)
        else:
            with self._lock:
                self._pinned[key] = surface
        return key

    def surface(self, key_or_surface: Union[str, YieldSurface]) -> YieldSurface:
        """Resolve a key (or pass a surface through) via the LRU cache.

        Exact keys hit the in-memory cache first (so registered-but-not-
        persisted surfaces stay addressable on a store-backed service);
        anything else resolves through the store, where unambiguous key
        prefixes are accepted.  When the store fails (corrupt artifact,
        open circuit breaker) a previously loaded copy is served from
        the stale cache instead — use :meth:`resolve` to observe which
        path answered.
        """
        return self.resolve(key_or_surface)[0]

    def resolve(
        self, key_or_surface: Union[str, YieldSurface]
    ) -> Tuple[YieldSurface, str]:
        """Resolve a surface plus the degradation tag of the path taken.

        The ladder is: in-memory LRU / pinned registry → on-disk store
        (guarded by the circuit breaker, loads verified and quarantined
        on corruption) → stale cache of previously served copies.  The
        returned tag is ``"none"`` for the first two rungs and
        ``"stale_cache"`` for the last.  Raises ``KeyError`` (unknown
        key) or :class:`CorruptArtifactError` (corrupt artifact, no
        stale copy) when every rung fails.
        """
        if isinstance(key_or_surface, YieldSurface):
            return key_or_surface, "none"
        key = key_or_surface
        if key in self.cache:
            return self.cache.get(key), "none"
        with self._lock:
            pinned = self._pinned.get(key)
        if pinned is not None:
            return pinned, "none"
        failure: Optional[Exception] = None
        if self.store is not None:
            if self.breaker.allow():
                # The breaker may have granted a half-open probe; every
                # path below must settle it exactly once.  Success is
                # recorded only when the store actually performed a load
                # — a prefix query that resolves to a surface already in
                # the LRU says nothing about store health and must not
                # close a breaker that should stay open.
                loaded = False

                def _load() -> YieldSurface:
                    nonlocal loaded
                    loaded = True
                    return self.store.load(resolved)

                try:
                    resolved = self.store.path_for(key).stem
                    surface = self.cache.get(resolved, _load)
                    if loaded:
                        self.breaker.record_success()
                    else:
                        self.breaker.release()
                    self._remember_stale(resolved, surface)
                    return surface, "none"
                except KeyError as exc:
                    # A missing key is not a store fault: don't trip the
                    # breaker, but a quarantined artifact's key goes
                    # missing too, so still consult the stale cache.
                    self.breaker.release()
                    failure = exc
                except (CorruptArtifactError, OSError, ValueError) as exc:
                    self.breaker.record_failure()
                    failure = exc
            stale = self._stale_for(key)
            if stale is not None:
                return stale, "stale_cache"
        if failure is not None:
            raise failure
        raise KeyError(f"surface {key!r} is neither cached nor in a store")

    def _remember_stale(self, key: str, surface: YieldSurface) -> None:
        """Retain a served surface for degraded answers, LRU-bounded.

        The stale cache is the last rung of the degradation ladder; it
        must not grow without bound in a long-lived server, so it keeps
        at most ``stale_capacity`` surfaces in recency order.
        """
        with self._lock:
            if key in self._stale:
                self._stale.move_to_end(key)
            self._stale[key] = surface
            while len(self._stale) > self.stale_capacity:
                self._stale.popitem(last=False)

    def _stale_for(self, key: str) -> Optional[YieldSurface]:
        """Find a stale copy by exact key or unambiguous prefix."""
        with self._lock:
            match: Optional[str] = None
            if key in self._stale:
                match = key
            else:
                matches = [k for k in self._stale if k.startswith(key)]
                if len(matches) == 1:
                    match = matches[0]
            if match is None:
                return None
            self._stale.move_to_end(match)
            return self._stale[match]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(
        self,
        surface: Union[str, YieldSurface],
        width_nm: np.ndarray,
        cnt_density_per_um: Optional[np.ndarray] = None,
        device_count: Union[float, np.ndarray] = 1.0,
        fallback: str = "exact",
        mc_samples: int = 20_000,
        deadline_s: Optional[float] = None,
    ) -> QueryResult:
        """Answer a batched yield query.

        Parameters
        ----------
        surface:
            A surface or a (prefix of a) store key.
        width_nm:
            Device widths, any shape (flattened internally).
        cnt_density_per_um:
            CNT densities per query; defaults to the surface's reference
            density (the pitch family's nominal 1/µS).
        device_count:
            M for device surfaces, Mmin for row-scenario surfaces (the
            row count KR = Mmin / MRmin is derived from the surface's
            correlation metadata); scalar or per-query array.
        fallback:
            ``"exact"`` (default) answers out-of-grid queries with the
            surface's exact evaluator; ``"mc"`` opts into tilted
            Monte Carlo refinement instead; ``"none"`` raises if any
            query leaves the grid.
        deadline_s:
            Wall-clock budget for this query (overrides the service
            default).  When the budget runs out before the exact
            fallback has run, out-of-grid entries are answered at the
            nearest grid point with trivially correct ``[0, 1]`` bounds
            and the result is flagged ``"deadline_clamped"``.
        """
        if fallback not in ("exact", "mc", "none"):
            raise ValueError(f"unknown fallback mode {fallback!r}")
        deadline = Deadline(deadline_s if deadline_s is not None else self.deadline_s)
        degradation = []
        surf, resolution = self.resolve(surface)
        if resolution != "none":
            degradation.append(resolution)
        widths = np.atleast_1d(np.asarray(width_nm, dtype=float)).ravel()
        if cnt_density_per_um is None:
            densities = np.full(widths.shape, surf.reference_density_per_um)
        else:
            densities = np.atleast_1d(
                np.asarray(cnt_density_per_um, dtype=float)
            ).ravel()
            if densities.size == 1 and widths.size > 1:
                densities = np.full(widths.shape, densities[0])
        if densities.shape != widths.shape:
            raise ValueError("width and density query arrays must match in shape")

        log_p, err_log, in_grid = interpolate_log_failure(
            surf, widths, densities, n_sigma=self.n_sigma
        )

        if not in_grid.all():
            if fallback == "none":
                n_out = int(in_grid.size - np.count_nonzero(in_grid))
                raise ValueError(
                    f"{n_out} queries fall outside the surface grid "
                    "and fallback is disabled"
                )
            outside = ~in_grid
            if deadline.expired:
                # Out of time for the exact evaluator: answer at the
                # nearest grid point and widen the bounds to the
                # trivially correct [0, 1] so the contract still holds.
                degradation.append("deadline_clamped")
                w_clip = np.clip(
                    widths[outside], surf.width_nm[0], surf.width_nm[-1]
                )
                d_clip = np.clip(
                    densities[outside],
                    surf.cnt_density_per_um[0],
                    surf.cnt_density_per_um[-1],
                )
                log_near, _, _ = interpolate_log_failure(
                    surf, w_clip, d_clip, n_sigma=self.n_sigma
                )
                log_p[outside] = log_near
                err_log[outside] = np.inf
            else:
                log_exact, err_exact = self._fallback_values(
                    surf, widths[outside], densities[outside], fallback, mc_samples
                )
                log_p[outside] = log_exact
                err_log[outside] = err_exact

        check_finite(log_p, "serving.query.log_failure", allow_inf=True)
        # Rows p, p_upper, p_lower: Eq. 2.3 / 3.1 is decreasing in p, so
        # their yields are the point yield, its lower and its upper bound.
        failure = np.empty((3, widths.size))
        p, p_upper, p_lower = failure
        np.minimum(log_p, 0.0, out=p)
        np.exp(p, out=p)
        np.add(log_p, err_log, out=p_upper)
        np.exp(p_upper, out=p_upper)
        np.minimum(p_upper, 1.0, out=p_upper)
        np.subtract(log_p, err_log, out=p_lower)
        np.minimum(p_lower, 0.0, out=p_lower)
        np.exp(p_lower, out=p_lower)

        # Per-query counts pair with the flattened widths entry by entry.
        counts = np.asarray(device_count, dtype=float).ravel()
        if counts.size not in (1, widths.size):
            raise ValueError(
                f"device_count has {counts.size} entries for {widths.size} queries"
            )
        if surf.scenario != SCENARIO_DEVICE:
            counts = counts / surf.devices_per_row
        chip_yield, yield_lower, yield_upper = (
            yield_from_uniform_failure_probability_array(failure, counts)
        )

        with self._lock:
            # Both counters are per-entry: a degraded batch degrades every
            # answer in it, so the two stay directly comparable
            # (degraded_queries / queries_served is a meaningful ratio).
            self.queries_served += int(widths.size)
            if degradation:
                self.degraded_queries += int(widths.size)
        return QueryResult(
            scenario=surf.scenario,
            failure_probability=p,
            failure_lower=p_lower,
            failure_upper=p_upper,
            chip_yield=chip_yield,
            yield_lower=yield_lower,
            yield_upper=yield_upper,
            interpolated=in_grid,
            degraded=bool(degradation),
            degradation=tuple(degradation) if degradation else ("none",),
        )

    # ------------------------------------------------------------------
    # Refinement and diagnostics
    # ------------------------------------------------------------------

    def refine(
        self,
        surface: Union[str, YieldSurface],
        width_nm: np.ndarray,
        cnt_density_per_um: np.ndarray,
        mc_samples: int = 20_000,
    ) -> int:
        """Warm the Monte Carlo evaluator cache for off-grid points.

        Runs the tilted MC estimator for the given (width, density)
        points and stores the results in the per-surface evaluator's
        coordinate-keyed cache, so later :meth:`query` calls with
        ``fallback="mc"`` at the same points answer without sampling.
        The network tier (:mod:`repro.service`) calls this from a
        bounded background queue so request handling never blocks on
        sampling.  Returns the number of points evaluated.
        """
        surf, _ = self.resolve(surface)
        widths = np.atleast_1d(np.asarray(width_nm, dtype=float)).ravel()
        densities = np.atleast_1d(
            np.asarray(cnt_density_per_um, dtype=float)
        ).ravel()
        if densities.shape != widths.shape:
            raise ValueError("width and density arrays must match in shape")
        self._fallback_values(surf, widths, densities, "mc", int(mc_samples))
        return int(widths.size)

    def pinned_surfaces(self) -> Dict[str, YieldSurface]:
        """Copy of the pinned registry (registered, not persisted).

        These surfaces are addressable for the service's lifetime even
        after LRU eviction; the network tier lists them next to the
        store's artifacts.
        """
        with self._lock:
            return dict(self._pinned)

    def stats(self) -> Dict[str, object]:
        """Snapshot of serving counters and ladder state for operators.

        Combines the per-entry query counters with the LRU cache's
        hit/miss statistics, the circuit breaker's state, and the sizes
        of the pinned and stale registries — everything the network
        tier's metrics endpoint reports about the in-process service.
        """
        with self._lock:
            counters = {
                "queries_served": self.queries_served,
                "degraded_queries": self.degraded_queries,
                "pinned_surfaces": len(self._pinned),
                "stale_surfaces": len(self._stale),
                "stale_capacity": self.stale_capacity,
                "evaluators": len(self._evaluators),
            }
        counters["cache"] = self.cache.stats()
        counters["breaker"] = self.breaker.stats()
        return counters

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _evaluator(
        self, surface: YieldSurface, method: str, mc_samples: int
    ) -> ExactEvaluator:
        # MC evaluators are cached per sample count: their internal
        # per-(W, ρ) result cache must never hand a 200-sample estimate to
        # a caller who explicitly paid for more.
        cache_key = (
            f"{surface.key}:{method}:{mc_samples if method == 'mc' else ''}"
        )
        with self._lock:
            evaluator = self._evaluators.get(cache_key)
            if evaluator is None:
                evaluator = ExactEvaluator.from_surface(surface)
                if method == "mc":
                    evaluator.method = "tilted"
                    evaluator.mc_samples = int(mc_samples)
                self._evaluators[cache_key] = evaluator
        return evaluator

    def _fallback_values(
        self,
        surface: YieldSurface,
        widths: np.ndarray,
        densities: np.ndarray,
        fallback: str,
        mc_samples: int,
    ) -> "tuple[np.ndarray, np.ndarray]":
        evaluator = self._evaluator(surface, fallback, int(mc_samples))
        log_exact, se_log = evaluator.points(widths, densities)
        return log_exact, self.n_sigma * se_log
