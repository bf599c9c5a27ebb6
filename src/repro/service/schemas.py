"""Wire schemas for the yield service: validation and JSON shaping.

The HTTP tier speaks strict RFC-8259 JSON.  This module owns both
directions of the boundary:

* :class:`QueryRequest` parses and validates a ``POST /v1/query`` body
  into typed arrays, rejecting malformed payloads with a
  :class:`SchemaError` (mapped to a 400 by the app) before any yield
  machinery runs;
* :func:`query_response` shapes a
  :class:`~repro.serving.service.QueryResult` — the same object the
  in-process API returns — into the response body, carrying the bounds
  unchanged plus the ``degraded``/``degradation`` flags on the wire.

Non-finite floats (the trivially correct ``[0, 1]`` clamp can produce
none, but MC standard errors could) are mapped to ``null`` so strict
parsers downstream never see a bare ``NaN`` literal.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

__all__ = ["SchemaError", "QueryRequest", "query_response", "json_safe"]

#: Hard cap on points per query batch; a request past this is a client
#: error, not a capacity problem (split the batch).
MAX_BATCH = 65_536

_FALLBACKS = ("exact", "mc", "none")

#: The arrays of a :class:`QueryResult`, in response-body order.
_ARRAY_FIELDS = (
    "failure_probability", "failure_lower", "failure_upper",
    "chip_yield", "yield_lower", "yield_upper", "interpolated",
)


class SchemaError(ValueError):
    """A malformed or invalid request body (mapped to HTTP 400)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _positive_array(value: object, name: str) -> np.ndarray:
    """A number or list of numbers as a 1-d array of finite positive floats."""
    _require(isinstance(value, (list, tuple, int, float)), f"{name} must be a number or list of numbers")
    try:
        array = np.asarray(value, dtype=float).ravel()
    except (TypeError, ValueError):
        raise SchemaError(f"{name} must contain only numbers") from None
    _require(array.size >= 1, f"{name} must not be empty")
    _require(array.size <= MAX_BATCH, f"{name} exceeds the {MAX_BATCH}-point batch cap")
    # One check for both rules: a NaN extreme fails either comparison.
    _require(
        bool(array.min() > 0.0 and array.max() < math.inf),
        f"{name} must contain only finite positive numbers",
    )
    return array


class QueryRequest:
    """A validated ``POST /v1/query`` body.

    Fields mirror :meth:`repro.serving.service.YieldService.query`:
    ``surface`` (a store key or unambiguous prefix), ``width_nm``,
    optional ``cnt_density_per_um`` (scalar broadcasts), optional
    ``device_count`` (scalar or per-query), ``fallback``
    (``"exact"``/``"mc"``/``"none"``), ``mc_samples``, ``deadline_s``.
    """

    def __init__(
        self,
        surface: str,
        width_nm: np.ndarray,
        cnt_density_per_um: Optional[np.ndarray],
        device_count: Union[float, np.ndarray],
        fallback: str,
        mc_samples: int,
        deadline_s: Optional[float],
    ) -> None:
        self.surface = surface
        self.width_nm = width_nm
        self.cnt_density_per_um = cnt_density_per_um
        self.device_count = device_count
        self.fallback = fallback
        self.mc_samples = mc_samples
        self.deadline_s = deadline_s

    @classmethod
    def from_payload(cls, payload: object) -> "QueryRequest":
        """Parse and validate a decoded JSON body.

        Raises :class:`SchemaError` naming the offending field on any
        type, shape, or range violation.
        """
        _require(isinstance(payload, dict), "request body must be a JSON object")
        known = {
            "surface", "width_nm", "cnt_density_per_um", "device_count",
            "fallback", "mc_samples", "deadline_s",
        }
        unknown = sorted(set(payload) - known)
        _require(not unknown, f"unknown fields: {', '.join(unknown)}")

        surface = payload.get("surface")
        _require(isinstance(surface, str) and surface,
                 "surface must be a non-empty string key")

        _require("width_nm" in payload, "width_nm is required")
        widths = _positive_array(payload["width_nm"], "width_nm")

        densities: Optional[np.ndarray] = None
        if payload.get("cnt_density_per_um") is not None:
            densities = _positive_array(
                payload["cnt_density_per_um"], "cnt_density_per_um"
            )
            _require(
                densities.size in (1, widths.size),
                "cnt_density_per_um must be a scalar or match width_nm "
                f"({densities.size} vs {widths.size})",
            )

        device_count: Union[float, np.ndarray] = 1.0
        if payload.get("device_count") is not None:
            counts = _positive_array(payload["device_count"], "device_count")
            _require(
                counts.size in (1, widths.size),
                "device_count must be a scalar or match width_nm",
            )
            device_count = float(counts[0]) if counts.size == 1 else counts

        fallback = payload.get("fallback", "exact")
        _require(fallback in _FALLBACKS,
                 f"fallback must be one of {', '.join(_FALLBACKS)}")

        mc_samples = payload.get("mc_samples", 20_000)
        _require(
            isinstance(mc_samples, int) and not isinstance(mc_samples, bool)
            and mc_samples >= 1,
            "mc_samples must be a positive integer",
        )

        deadline_s = payload.get("deadline_s")
        if deadline_s is not None:
            _require(
                isinstance(deadline_s, (int, float))
                and not isinstance(deadline_s, bool)
                and math.isfinite(float(deadline_s)) and float(deadline_s) >= 0.0,
                "deadline_s must be a non-negative finite number",
            )
            deadline_s = float(deadline_s)

        return cls(
            surface=surface,
            width_nm=widths,
            cnt_density_per_um=densities,
            device_count=device_count,
            fallback=str(fallback),
            mc_samples=int(mc_samples),
            deadline_s=deadline_s,
        )


def json_safe(value: object) -> object:
    """Recursively convert arrays/NumPy scalars to RFC-8259-safe values.

    NumPy arrays become lists, NumPy scalars become Python scalars, and
    non-finite floats become ``None`` — strict parsers downstream must
    never see a bare ``NaN``/``Infinity`` literal.
    """
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            # Hot path: the six bounds arrays of every query response.
            # One vectorized finiteness check beats per-element recursion.
            if np.isfinite(value).all():
                return value.tolist()
            safe = value.astype(object)
            safe[~np.isfinite(value.astype(float))] = None
            return safe.tolist()
        if value.dtype.kind in "iub":
            return value.tolist()
        return [json_safe(item) for item in value.tolist()]
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    return value


def query_response(
    result: "object",
    refinement: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Shape a :class:`QueryResult` into the ``/v1/query`` body.

    The bounds arrays are passed through bit-for-bit (JSON float
    round-trip) from the in-process result, so the network tier serves
    exactly the contract :meth:`YieldService.query` guarantees.  The
    optional ``refinement`` block reports what the background MC queue
    did with this request's off-grid points.
    """
    body: Dict[str, object] = {
        "scenario": result.scenario,
        "n_queries": result.n_queries,
    }
    for name in _ARRAY_FIELDS:
        body[name] = json_safe(getattr(result, name))
    body["degraded"] = bool(result.degraded)
    body["degradation"] = list(result.degradation)
    if refinement is not None:
        body["refinement"] = json_safe(refinement)
    return body


def surface_entry(
    key: str, loaded: bool, description: Optional[Dict[str, object]] = None
) -> Dict[str, object]:
    """One row of the ``GET /v1/surfaces`` listing."""
    entry: Dict[str, object] = {"key": key, "loaded": bool(loaded)}
    if description is not None:
        entry.update(json_safe(description))
    return entry


def error_body(status: int, message: str) -> Dict[str, object]:
    """The uniform error payload every non-2xx response carries."""
    return {"error": {"status": int(status), "message": str(message)}}
