"""The :class:`YieldSurface` artifact — a persisted, error-bounded sweep.

A surface tabulates the natural log of a failure probability over a
rectilinear (width, CNT density) mesh:

* scenario ``"device"`` stores log pF(W, ρ) — Eq. 2.2 evaluated on the
  grid — and answers Eq. 2.3 chip-yield queries;
* the three Table 1 scenarios store log pRF and answer Eq. 3.1 queries.

Every cell carries two error channels: ``stat_se_log`` (the delta-method
standard error of log p inherited from the Monte Carlo estimators — zero
for closed-form sweeps) lives on the grid nodes, and ``interp_error_log``
(a probed bound on the bilinear interpolation residual, in log space)
lives on the cells.  The serving layer combines both into a query-time
error bound that must contain the exact closed-form value.

Artifacts are versioned and disk-persisted as a single ``.npz`` holding
the arrays plus a canonical-JSON metadata blob; the content hash (sha256
over metadata and array bytes) doubles as the cache key of the serving
layer's LRU.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from repro.core.correlation import CorrelationParameters
from repro.growth.pitch import (
    DeterministicPitch,
    ExponentialPitch,
    GammaPitch,
    PitchDistribution,
    TruncatedNormalPitch,
)
from repro.resilience.atomic import atomic_write_bytes
from repro.resilience.checkpoint import CorruptArtifactError

#: On-disk format version; bumped on any incompatible layout change.
SURFACE_FORMAT_VERSION = 1

#: Scenario tag for the device-level pF surface (Eq. 2.2 / 2.3 path).
SCENARIO_DEVICE = "device"

#: log-space floor: probabilities below exp(-690) ≈ 1e-300 are clamped so
#: the grids never hold -inf (bilinear arithmetic would poison neighbours).
LOG_FLOOR = -690.0

_ARRAY_FIELDS = ("width_nm", "cnt_density_per_um", "log_failure",
                 "stat_se_log", "interp_error_log")

_PITCH_FAMILIES = {
    cls.__name__: cls
    for cls in (DeterministicPitch, ExponentialPitch, GammaPitch, TruncatedNormalPitch)
}


def pitch_descriptor(pitch: PitchDistribution) -> Dict[str, object]:
    """JSON-serialisable identity of a pitch family (for surface metadata)."""
    try:
        params = dataclasses.asdict(pitch)
    except TypeError as exc:
        raise TypeError(
            f"{type(pitch).__name__} is not a dataclass pitch family and "
            "cannot be persisted in surface metadata"
        ) from exc
    return {"family": type(pitch).__name__, "params": params}


def pitch_from_descriptor(descriptor: Dict[str, object]) -> PitchDistribution:
    """Rebuild the pitch family recorded by :func:`pitch_descriptor`."""
    family = descriptor.get("family")
    cls = _PITCH_FAMILIES.get(str(family))
    if cls is None:
        raise ValueError(f"unknown pitch family {family!r}")
    return cls(**descriptor["params"])


@dataclass(frozen=True)
class YieldSurface:
    """A precomputed, error-bounded yield surface over (W, CNT density).

    Attributes
    ----------
    scenario:
        ``"device"`` or a :class:`~repro.core.correlation.LayoutScenario`
        value string.
    width_nm:
        Width axis, strictly increasing, shape ``(n_w,)``.
    cnt_density_per_um:
        CNT density axis ρ = 1000 / µS, strictly increasing, ``(n_d,)``.
    log_failure:
        Natural log of pF (device) or pRF (row scenarios), ``(n_w, n_d)``.
    stat_se_log:
        Standard error of ``log_failure`` per node, ``(n_w, n_d)``.
    interp_error_log:
        Probed bilinear-residual bound per cell, ``(n_w - 1, n_d - 1)``.
    metadata:
        Everything needed to rebuild the exact evaluator: pitch family and
        parameters, per-CNT failure, correlation parameters, build method,
        tolerance and refinement history.

    A surface is never modified after construction, so what every query
    would otherwise recompute — the content hash behind :attr:`key`,
    :attr:`max_stat_se_log`, :attr:`reference_density_per_um` and
    :attr:`devices_per_row` — is computed once, on first use.
    """

    scenario: str
    width_nm: np.ndarray
    cnt_density_per_um: np.ndarray
    log_failure: np.ndarray
    stat_se_log: np.ndarray
    interp_error_log: np.ndarray
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        w = np.ascontiguousarray(np.asarray(self.width_nm, dtype=float))
        d = np.ascontiguousarray(np.asarray(self.cnt_density_per_um, dtype=float))
        v = np.ascontiguousarray(np.asarray(self.log_failure, dtype=float))
        se = np.ascontiguousarray(np.asarray(self.stat_se_log, dtype=float))
        ie = np.ascontiguousarray(np.asarray(self.interp_error_log, dtype=float))
        for axis, label in ((w, "width_nm"), (d, "cnt_density_per_um")):
            if axis.ndim != 1 or axis.size < 2:
                raise ValueError(f"{label} needs at least two points")
            if np.any(np.diff(axis) <= 0):
                raise ValueError(f"{label} must be strictly increasing")
        if v.shape != (w.size, d.size):
            raise ValueError(
                f"log_failure shape {v.shape} does not match axes "
                f"({w.size}, {d.size})"
            )
        if se.shape != v.shape:
            raise ValueError("stat_se_log must match log_failure in shape")
        if ie.shape != (w.size - 1, d.size - 1):
            raise ValueError(
                f"interp_error_log shape {ie.shape} does not match cells "
                f"({w.size - 1}, {d.size - 1})"
            )
        if np.any(v > 0.0):
            raise ValueError("log_failure must be non-positive (probabilities)")
        if np.any(se < 0.0) or np.any(ie < 0.0):
            raise ValueError("error channels must be non-negative")
        object.__setattr__(self, "width_nm", w)
        object.__setattr__(self, "cnt_density_per_um", d)
        object.__setattr__(self, "log_failure", v)
        object.__setattr__(self, "stat_se_log", se)
        object.__setattr__(self, "interp_error_log", ie)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    @cached_property
    def content_hash(self) -> str:
        """sha256 over canonical metadata JSON and raw array bytes."""
        digest = hashlib.sha256()
        digest.update(self._canonical_metadata().encode("utf-8"))
        for name in _ARRAY_FIELDS:
            array = getattr(self, name)
            digest.update(name.encode("utf-8"))
            digest.update(str(array.shape).encode("utf-8"))
            digest.update(array.tobytes())
        return digest.hexdigest()

    @cached_property
    def key(self) -> str:
        """Short identity used in filenames and cache keys."""
        return f"{self.scenario}-{self.content_hash[:12]}"

    def _canonical_metadata(self) -> str:
        payload = {
            "format_version": SURFACE_FORMAT_VERSION,
            "scenario": self.scenario,
            "metadata": self.metadata,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def covers(
        self, width_nm: np.ndarray, cnt_density_per_um: np.ndarray
    ) -> np.ndarray:
        """Boolean mask of query points inside the swept grid.

        The single home of the range-containment rule: the serving layer
        routes anything outside this mask to its fallback path.
        """
        w = np.asarray(width_nm, dtype=float)
        d = np.asarray(cnt_density_per_um, dtype=float)
        return (
            (w >= self.width_nm[0])
            & (w <= self.width_nm[-1])
            & (d >= self.cnt_density_per_um[0])
            & (d <= self.cnt_density_per_um[-1])
        )

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------

    @property
    def max_interp_error_log(self) -> float:
        """Largest per-cell bilinear-residual bound of ``log_failure``."""
        return float(np.max(self.interp_error_log))

    @cached_property
    def max_stat_se_log(self) -> float:
        """Largest per-node standard error of ``log_failure``."""
        return float(np.max(self.stat_se_log))

    @cached_property
    def reference_density_per_um(self) -> float:
        """The pitch family's nominal density 1000 / µS (default query density)."""
        return 1000.0 / pitch_from_descriptor(self.metadata["pitch"]).mean_nm

    @cached_property
    def devices_per_row(self) -> float:
        """Eq. 3.2 MRmin, which turns Mmin into the row count of Eq. 3.1."""
        return CorrelationParameters(**self.metadata["correlation"]).devices_per_row

    def describe(self) -> Dict[str, object]:
        """Flat summary row (reporting / CLI / JSON friendly)."""
        return {
            "scenario": self.scenario,
            "key": self.key,
            "n_width": int(self.width_nm.size),
            "n_density": int(self.cnt_density_per_um.size),
            "width_nm_range": [float(self.width_nm[0]), float(self.width_nm[-1])],
            "cnt_density_per_um_range": [
                float(self.cnt_density_per_um[0]),
                float(self.cnt_density_per_um[-1]),
            ],
            "max_interp_error_log": self.max_interp_error_log,
            "max_stat_se_log": self.max_stat_se_log,
            "method": self.metadata.get("method"),
            "refinement_rounds": self.metadata.get("refinement_rounds"),
        }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> Path:
        """Write the artifact as one ``.npz`` (arrays + metadata JSON).

        The write is atomic (temp file + rename), so a crash mid-save
        never leaves a truncated artifact at the destination.
        """
        path = Path(path)
        buffer = io.BytesIO()
        np.savez(
            buffer,
            __metadata__=np.frombuffer(
                self._canonical_metadata().encode("utf-8"), dtype=np.uint8
            ),
            **{name: getattr(self, name) for name in _ARRAY_FIELDS},
        )
        atomic_write_bytes(path, buffer.getvalue())
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "YieldSurface":
        """Load an artifact, verifying the format version."""
        with np.load(Path(path)) as archive:
            try:
                raw_meta = bytes(archive["__metadata__"]).decode("utf-8")
                arrays = {name: archive[name] for name in _ARRAY_FIELDS}
            except KeyError as exc:
                raise ValueError(f"{path} is not a yield-surface artifact") from exc
        payload = json.loads(raw_meta)
        version = payload.get("format_version")
        if version != SURFACE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported surface format version {version!r} "
                f"(this build reads {SURFACE_FORMAT_VERSION})"
            )
        return cls(
            scenario=payload["scenario"], metadata=payload["metadata"], **arrays
        )


class SurfaceStore:
    """A directory of persisted surfaces addressed by their content keys.

    Filenames are ``<scenario>-<hash12>.npz`` so the listing alone
    identifies artifacts without opening them; re-saving an identical
    surface is a no-op (content-addressed storage is naturally
    idempotent).

    Loads are verified by default: the loaded surface's recomputed
    content hash must match the hash embedded in the filename.  A
    mismatch — or an artifact that fails to decode at all — moves the
    file into ``<root>/quarantine/`` and raises
    :class:`~repro.resilience.checkpoint.CorruptArtifactError`, so a
    corrupt artifact is never served and never poisons a later load.
    """

    def __init__(self, root: Union[str, Path], verify: bool = True) -> None:
        self.root = Path(root)
        self.verify = bool(verify)
        self.quarantined: List[Path] = []

    def save(self, surface: YieldSurface) -> Path:
        """Persist a surface under its content key (idempotent)."""
        path = self.root / f"{surface.key}.npz"
        if not path.exists():
            surface.save(path)
        return path

    def keys(self) -> List[str]:
        """Sorted keys of every artifact currently in the store."""
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*.npz"))

    def path_for(self, key: str) -> Path:
        """Resolve a key — or an unambiguous prefix of one — to a path."""
        matches = [k for k in self.keys() if k == key or k.startswith(key)]
        if not matches:
            raise KeyError(f"no surface matching {key!r} under {self.root}")
        if len(matches) > 1:
            raise KeyError(f"ambiguous surface key {key!r}: {matches}")
        return self.root / f"{matches[0]}.npz"

    def _quarantine(self, path: Path) -> Path:
        """Move a corrupt artifact out of the served namespace."""
        quarantine = self.root / "quarantine"
        quarantine.mkdir(parents=True, exist_ok=True)
        target = quarantine / path.name
        path.replace(target)
        self.quarantined.append(target)
        return target

    def load(self, key: str) -> YieldSurface:
        """Load a surface, quarantining it if it fails verification."""
        path = self.path_for(key)
        try:
            surface = YieldSurface.load(path)
        except Exception as exc:
            target = self._quarantine(path)
            raise CorruptArtifactError(
                f"surface artifact {path.name} failed to decode "
                f"({exc}); quarantined to {target}"
            ) from exc
        if self.verify:
            expected = path.stem.rsplit("-", 1)[-1]
            actual = surface.content_hash[: len(expected)]
            if actual != expected:
                target = self._quarantine(path)
                raise CorruptArtifactError(
                    f"surface artifact {path.name} content hash {actual} "
                    f"does not match its filename ({expected}); "
                    f"quarantined to {target}"
                )
        return surface
