"""The ASGI application of the network-facing yield service.

:class:`YieldApp` is a framework-free ASGI 3 callable over one shared
:class:`~repro.serving.service.YieldService`.  Routes:

========================  ====================================================
``GET  /healthz``         liveness probe
``POST /v1/query``        batched yield query (widths, densities, device
                          counts → failure/yield bounds + degradation flags)
``GET  /v1/surfaces``     list known surface artifacts
``POST /v1/surfaces``     upload a ``.npz`` surface artifact (hot-reload)
``GET  /v1/surfaces/{k}`` describe one surface (key or unambiguous prefix)
``GET  /v1/metrics``      per-route counters/latency + ladder/queue stats
========================  ====================================================

Design rules of the tier:

* the request path never blocks on Monte Carlo sampling —
  ``fallback="mc"`` queries are answered from the exact evaluator and
  their off-grid points go to the bounded background
  :class:`~repro.service.queue.RefinementQueue`; once refinement lands,
  the same query answers from refined values;
* every response body is strict RFC-8259 JSON (non-finite floats become
  ``null``), shaped by :mod:`repro.service.schemas`, and query bounds
  are bit-identical to the in-process :meth:`YieldService.query`;
* uploads are content-addressed: the artifact's content hash is its
  version, so re-uploading an identical surface is a no-op and a
  changed surface gets a fresh key (hot-reload without cache
  invalidation races).

The app is plain ASGI, so it runs under the bundled
:mod:`repro.service.http` server, or any standard ASGI server when one
is available.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.resilience.checkpoint import CorruptArtifactError
from repro.resilience.guards import NumericalGuardError
from repro.serving.service import YieldService
from repro.service.metrics import MetricsRegistry
from repro.service.queue import RefinementJob, RefinementQueue
from repro.service.schemas import (
    QueryRequest,
    SchemaError,
    error_body,
    json_safe,
    query_response,
    surface_entry,
)
from repro.surface.surface import YieldSurface

__all__ = ["YieldApp"]

#: Upload size cap (bytes) for ``POST /v1/surfaces``; a surface artifact
#: is a few grids of float64 — far below this.
MAX_UPLOAD_BYTES = 64 * 1024 * 1024

#: Request body cap for JSON endpoints.
MAX_JSON_BYTES = 8 * 1024 * 1024


class _HTTPError(Exception):
    """Internal control flow: abort the request with a status + message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = int(status)
        self.message = str(message)


class YieldApp:
    """ASGI 3 application serving batched yield queries over HTTP.

    Parameters
    ----------
    service:
        The in-process :class:`YieldService` answering queries.  One
        instance is shared by every concurrent request — the PR-7
        thread-safety work on the breaker, stale cache, and counters is
        what makes that sound.
    refine_capacity:
        Bound on the background MC refinement queue (pending jobs).
    refine_workers:
        Background refinement worker threads.
    """

    def __init__(
        self,
        service: YieldService,
        refine_capacity: int = 64,
        refine_workers: int = 1,
    ) -> None:
        self.service = service
        self.metrics = MetricsRegistry()
        self.refinement = RefinementQueue(
            self._refine_job,
            capacity=refine_capacity,
            workers=refine_workers,
        )
        self.started_at = time.time()

    def _refine_job(self, surface_key, width_nm, cnt_density_per_um,
                    mc_samples) -> None:
        """Queue worker entry point: warm the MC evaluator cache."""
        self.service.refine(
            surface_key,
            np.asarray(width_nm, dtype=float),
            np.asarray(cnt_density_per_um, dtype=float),
            mc_samples=mc_samples,
        )

    # ------------------------------------------------------------------
    # ASGI plumbing
    # ------------------------------------------------------------------

    async def __call__(self, scope, receive, send) -> None:
        """The ASGI entry point (``http`` and ``lifespan`` scopes)."""
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":  # pragma: no cover - ws etc.
            raise RuntimeError(f"unsupported ASGI scope {scope['type']!r}")
        method = scope["method"].upper()
        path = scope["path"]
        started = time.perf_counter()
        route, handler = self._route(method, path)
        try:
            body = await self._read_body(receive)
            status, payload = handler(method, path, body)
        except _HTTPError as exc:
            status, payload = exc.status, error_body(exc.status, exc.message)
        except SchemaError as exc:
            status, payload = 400, error_body(400, str(exc))
        except KeyError as exc:
            status, payload = 404, error_body(404, str(exc.args[0]) if exc.args else "not found")
        except (CorruptArtifactError, NumericalGuardError) as exc:
            # The ladder exhausted every rung (or an answer failed its
            # numerical guard): the service is up but cannot serve this
            # surface right now.
            status, payload = 503, error_body(503, str(exc))
        except ValueError as exc:
            status, payload = 400, error_body(400, str(exc))
        except Exception as exc:  # noqa: BLE001 — the HTTP boundary
            status, payload = 500, error_body(500, f"internal error: {exc}")
        raw = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        await send({
            "type": "http.response.start",
            "status": status,
            "headers": [
                (b"content-type", b"application/json"),
                (b"content-length", str(len(raw)).encode("ascii")),
            ],
        })
        await send({"type": "http.response.body", "body": raw})
        self.metrics.record(route, status, time.perf_counter() - started)

    async def _lifespan(self, receive, send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                self.refinement.close()
                await send({"type": "lifespan.shutdown.complete"})
                return

    async def _read_body(self, receive) -> bytes:
        chunks = []
        total = 0
        while True:
            message = await receive()
            if message["type"] != "http.request":  # pragma: no cover
                raise _HTTPError(400, "unexpected ASGI message")
            chunk = message.get("body", b"")
            total += len(chunk)
            if total > MAX_UPLOAD_BYTES:
                raise _HTTPError(413, "request body too large")
            if chunk:
                chunks.append(chunk)
            if not message.get("more_body", False):
                break
        return b"".join(chunks)

    def _route(self, method: str, path: str):
        """Map (method, path) to a (label, handler) pair."""
        if path == "/healthz" and method == "GET":
            return "GET /healthz", self._handle_health
        if path == "/v1/query" and method == "POST":
            return "POST /v1/query", self._handle_query
        if path == "/v1/surfaces" and method == "GET":
            return "GET /v1/surfaces", self._handle_list_surfaces
        if path == "/v1/surfaces" and method == "POST":
            return "POST /v1/surfaces", self._handle_upload_surface
        if path.startswith("/v1/surfaces/") and method == "GET":
            return "GET /v1/surfaces/{key}", self._handle_get_surface
        if path == "/v1/metrics" and method == "GET":
            return "GET /v1/metrics", self._handle_metrics
        return "other", self._handle_not_found

    # ------------------------------------------------------------------
    # Handlers (sync — the hot path is vectorized NumPy, microseconds)
    # ------------------------------------------------------------------

    def _handle_not_found(self, method: str, path: str, body: bytes):
        raise _HTTPError(404, f"no route for {method} {path}")

    def _handle_health(self, method: str, path: str, body: bytes):
        return 200, {"status": "ok", "uptime_s": time.time() - self.started_at}

    def _json_body(self, body: bytes) -> object:
        if len(body) > MAX_JSON_BYTES:
            raise _HTTPError(413, "JSON body too large")
        if not body:
            raise SchemaError("request body must be a JSON object")
        try:
            return json.loads(body)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON body: {exc}") from None

    def _handle_query(self, method: str, path: str, body: bytes):
        request = QueryRequest.from_payload(self._json_body(body))
        refinement: Optional[Dict[str, object]] = None
        fallback = request.fallback
        if fallback == "mc":
            fallback, refinement = self._schedule_refinement(request)
        result = self.service.query(
            request.surface,
            request.width_nm,
            cnt_density_per_um=request.cnt_density_per_um,
            device_count=request.device_count,
            fallback=fallback,
            mc_samples=request.mc_samples,
            deadline_s=request.deadline_s,
        )
        return 200, query_response(result, refinement=refinement)

    def _schedule_refinement(
        self, request: QueryRequest
    ) -> Tuple[str, Dict[str, object]]:
        """Route an ``"mc"`` query through the background queue.

        Returns the fallback mode to answer *this* request with and the
        refinement block for the response body.  The request path never
        samples: off-grid points answer from the exact evaluator until
        the queue has refined them, after which the same query is
        answered from the warmed MC cache without sampling.
        """
        surf, _ = self.service.resolve(request.surface)
        widths = request.width_nm
        if request.cnt_density_per_um is None:
            densities = np.full(widths.shape, surf.reference_density_per_um)
        elif request.cnt_density_per_um.size == 1:
            densities = np.full(widths.shape, request.cnt_density_per_um[0])
        else:
            densities = request.cnt_density_per_um
        outside = ~surf.covers(widths, densities)
        if not outside.any():
            # Nothing off-grid: "mc" degenerates to the interpolated
            # path, no sampling involved.
            return "mc", {"status": "not_needed", "pending_points": 0}
        job = RefinementJob(
            surf.key,
            widths[outside],
            densities[outside],
            request.mc_samples,
        )
        if self.refinement.is_done(job.key):
            # The evaluator cache is warm: answering with "mc" replays
            # cached point estimates without sampling.
            return "mc", {
                "status": "refined",
                "job": job.key,
                "pending_points": 0,
            }
        outcome = self.refinement.submit(job)
        return "exact", {
            "status": outcome,
            "job": job.key,
            "pending_points": int(np.count_nonzero(outside)),
        }

    def _handle_list_surfaces(self, method: str, path: str, body: bytes):
        entries = []
        seen = set()
        store = self.service.store
        store_keys = store.keys() if store is not None else []
        for key in store_keys:
            seen.add(key)
            loaded = key in self.service.cache
            description = (
                self.service.cache.get(key).describe() if loaded else None
            )
            entries.append(surface_entry(key, loaded, description))
        for key, surface in sorted(self.service.pinned_surfaces().items()):
            if key not in seen:
                entries.append(surface_entry(key, True, surface.describe()))
        return 200, {"surfaces": entries, "count": len(entries)}

    def _handle_upload_surface(self, method: str, path: str, body: bytes):
        if not body:
            raise _HTTPError(400, "upload body must be a .npz surface artifact")
        with tempfile.NamedTemporaryFile(suffix=".npz", delete=False) as handle:
            handle.write(body)
            temp_path = Path(handle.name)
        try:
            try:
                surface = YieldSurface.load(temp_path)
            except Exception as exc:  # noqa: BLE001 — decode boundary
                raise _HTTPError(
                    400, f"body is not a valid surface artifact: {exc}"
                ) from None
        finally:
            temp_path.unlink(missing_ok=True)
        persisted = self.service.store is not None
        key = self.service.register(surface, persist=persisted)
        return 201, {
            "key": key,
            "persisted": persisted,
            "surface": json_safe(surface.describe()),
        }

    def _handle_get_surface(self, method: str, path: str, body: bytes):
        key = path[len("/v1/surfaces/"):]
        if not key:
            raise _HTTPError(404, "missing surface key")
        surface, degradation = self.service.resolve(key)
        return 200, {
            "key": surface.key,
            "degradation": degradation,
            "surface": json_safe(surface.describe()),
        }

    def _handle_metrics(self, method: str, path: str, body: bytes):
        return 200, json_safe({
            "uptime_s": time.time() - self.started_at,
            "routes": self.metrics.snapshot(),
            "service": self.service.stats(),
            "refinement": self.refinement.stats(),
        })
