"""Content-hashed campaign checkpoints with quarantine-on-corruption.

A *campaign* is any chunked computation whose units of work are
independently derivable — engine trial chunks, wafer dies, surface
refinement rounds.  Each completed unit persists as a single ``.npz``
(arrays plus a canonical-JSON meta blob) under the campaign directory,
and a ``manifest.json`` records the campaign fingerprint and the sha256
of every unit file.  All writes are atomic (:mod:`repro.resilience.atomic`),
so an interrupted campaign leaves only complete units behind.

On resume the manifest is re-read and every unit hash is re-verified;
units that fail verification are moved to ``quarantine/`` and silently
re-run — a checkpoint can *lose* work to corruption but can never poison
a resumed campaign with it.  Because the Monte Carlo tier derives unit
streams from stateless spawn keys, re-running a unit reproduces its
original result bit-for-bit, so resumed campaigns are bitwise identical
to uninterrupted ones.

Checkpoint directory layout::

    <root>/<campaign>/manifest.json     fingerprint + per-unit sha256
    <root>/<campaign>/units/unit-00007.npz
    <root>/<campaign>/quarantine/       corrupt units, moved aside
"""

from __future__ import annotations

import dataclasses
import io
import json
import types
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.resilience.atomic import (
    atomic_write_bytes,
    atomic_write_json,
    sha256_bytes,
    sha256_file,
)

__all__ = [
    "CheckpointError",
    "CorruptArtifactError",
    "fingerprint_parts",
    "CheckpointStore",
    "CampaignCheckpoint",
]

#: On-disk manifest format version; bumped on incompatible layout changes.
CHECKPOINT_FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint directory cannot be used for the requested campaign."""


class CorruptArtifactError(CheckpointError):
    """A persisted artifact failed content-hash verification on load."""


def _fingerprint_encode(part: object, memo: Dict[int, object]) -> object:
    """Convert one fingerprint part into a canonically-JSONable value.

    ``memo`` holds, by ``id``, the encoding of every array and dataclass
    already met in this fingerprint, so a payload shared by many tasks
    is hashed once.
    """
    if id(part) in memo:
        return memo[id(part)]
    if isinstance(part, np.ndarray):
        memo[id(part)] = {
            "__ndarray__": sha256_bytes(part.tobytes()),
            "shape": list(part.shape),
            "dtype": str(part.dtype),
        }
        return memo[id(part)]
    if dataclasses.is_dataclass(part) and not isinstance(part, type):
        memo[id(part)] = _fingerprint_fields(part, {
            f.name: getattr(part, f.name) for f in dataclasses.fields(part)
        }, memo)
        return memo[id(part)]
    if isinstance(part, np.generic):
        return part.item()
    if isinstance(part, Mapping):
        return {str(k): _fingerprint_encode(v, memo) for k, v in part.items()}
    if isinstance(part, (list, tuple)):
        return [_fingerprint_encode(v, memo) for v in part]
    if isinstance(part, (str, int, float, bool)) or part is None:
        return part
    if isinstance(part, (type, types.FunctionType, types.BuiltinFunctionType)):
        # A function's repr embeds its address: name it instead.
        return {"__callable__": f"{part.__module__}:{part.__qualname__}"}
    if type(part).__repr__ is object.__repr__ and hasattr(part, "__dict__"):
        # The default repr embeds a memory address, which would make the
        # fingerprint differ between processes: use the attributes.
        return _fingerprint_fields(part, vars(part), memo)
    return repr(part)


def _fingerprint_fields(
    part: object, fields: Mapping[str, object], memo: Dict[int, object]
) -> object:
    """Encode an object as its type name plus its encoded fields."""
    return {"__type__": type(part).__name__, **_fingerprint_encode(fields, memo)}


def fingerprint_parts(*parts: object) -> str:
    """Hex sha256 identity of a campaign configuration.

    Accepts any mix of scalars, strings, mappings, sequences, numpy
    arrays (hashed by raw bytes, shape and dtype), dataclasses (their
    type name plus every field, encoded recursively) and functions or
    classes (their ``module:qualname``); a plain object without its own
    ``repr`` is encoded like a dataclass from its attributes, and
    everything else falls back to ``repr``.  Two
    campaigns share a checkpoint only when their fingerprints match,
    which is what makes resuming into the wrong checkpoint directory an
    error rather than silent corruption.
    """
    payload = json.dumps(
        _fingerprint_encode(list(parts), {}),
        sort_keys=True,
        separators=(",", ":"),
    )
    return sha256_bytes(payload.encode("utf-8"))


class CheckpointStore:
    """A root directory holding one subdirectory per named campaign."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def campaign(
        self,
        name: str,
        fingerprint: str,
        total_units: int,
        resume: bool = True,
    ) -> "CampaignCheckpoint":
        """Open (or create) the checkpoint for one campaign.

        Parameters
        ----------
        name:
            Campaign directory name under the store root.
        fingerprint:
            Configuration identity from :func:`fingerprint_parts`; a
            mismatch against an existing manifest raises
            :class:`CheckpointError` when resuming.
        total_units:
            Number of units the campaign will produce (recorded in the
            manifest for debris inspection).
        resume:
            When ``False``, any existing units are discarded and the
            campaign starts from scratch.
        """
        return CampaignCheckpoint(
            self.root / name, fingerprint, total_units, resume=resume
        )


class CampaignCheckpoint:
    """Per-campaign persistence of completed units, verified on load.

    Instances are created through :meth:`CheckpointStore.campaign`.  The
    ``quarantined`` attribute lists unit files moved aside after failing
    hash verification during this process's lifetime.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        fingerprint: str,
        total_units: int,
        resume: bool = True,
    ) -> None:
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self.total_units = int(total_units)
        self.quarantined: List[Path] = []
        self._units_dir = self.directory / "units"
        self._quarantine_dir = self.directory / "quarantine"
        self._manifest_path = self.directory / "manifest.json"
        self._units: Dict[int, Dict[str, str]] = {}
        self._units_dir.mkdir(parents=True, exist_ok=True)
        if resume:
            self._load_manifest()
        else:
            for stale in sorted(self._units_dir.glob("*.npz")):
                stale.unlink()
            if self._manifest_path.exists():
                self._manifest_path.unlink()
        self._write_manifest()

    @property
    def units_dir(self) -> Path:
        """Directory holding the persisted unit files."""
        return self._units_dir

    @property
    def quarantine_dir(self) -> Path:
        """Directory corrupt units are moved into."""
        return self._quarantine_dir

    @property
    def manifest_path(self) -> Path:
        """Path of the campaign manifest JSON."""
        return self._manifest_path

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------

    def _load_manifest(self) -> None:
        if not self._manifest_path.exists():
            return
        try:
            payload = json.loads(self._manifest_path.read_text(encoding="utf-8"))
            version = payload["format_version"]
            fingerprint = payload["fingerprint"]
            units = {int(k): dict(v) for k, v in payload["units"].items()}
        except (ValueError, KeyError, TypeError):
            # A torn manifest cannot happen through the atomic writer, but
            # a foreign or hand-edited file can: move it aside and start
            # from the unit files' own hashes (none trusted).
            self._quarantine(self._manifest_path)
            return
        if version != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint manifest {self._manifest_path} has format "
                f"version {version!r}; this build reads "
                f"{CHECKPOINT_FORMAT_VERSION}"
            )
        if fingerprint != self.fingerprint:
            raise CheckpointError(
                f"checkpoint at {self.directory} belongs to a different "
                f"campaign (fingerprint {fingerprint[:12]}… != "
                f"{self.fingerprint[:12]}…); pass resume=False or use a "
                "fresh --checkpoint-dir to discard it"
            )
        self._units = units

    def _write_manifest(self) -> None:
        atomic_write_json(
            self._manifest_path,
            {
                "format_version": CHECKPOINT_FORMAT_VERSION,
                "fingerprint": self.fingerprint,
                "total_units": self.total_units,
                "units": {
                    str(k): self._units[k] for k in sorted(self._units)
                },
            },
            sort_keys=True,
        )

    def _quarantine(self, path: Path) -> None:
        self._quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = self._quarantine_dir / path.name
        path.replace(target)
        self.quarantined.append(target)

    # ------------------------------------------------------------------
    # Units
    # ------------------------------------------------------------------

    def _unit_path(self, unit: int) -> Path:
        return self._units_dir / f"unit-{unit:05d}.npz"

    def completed_units(self) -> List[int]:
        """Unit indices recorded in the manifest (not yet re-verified)."""
        return sorted(self._units)

    def save_unit(
        self,
        unit: int,
        arrays: Optional[Mapping[str, np.ndarray]] = None,
        meta: object = None,
    ) -> Path:
        """Persist one completed unit atomically and record its hash.

        Parameters
        ----------
        unit:
            Zero-based unit index within the campaign.
        arrays:
            Named numpy arrays (the bulk payload), stored verbatim.
        meta:
            Any JSON-serialisable sidecar (scalar results, dataclass
            dicts); round-trips exactly for floats via ``repr`` grisu.
        """
        buffer = io.BytesIO()
        blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        np.savez(
            buffer,
            __meta__=np.frombuffer(blob, dtype=np.uint8),
            **dict(arrays or {}),
        )
        data = buffer.getvalue()
        path = atomic_write_bytes(self._unit_path(unit), data)
        self._units[int(unit)] = {
            "file": path.name,
            "sha256": sha256_bytes(data),
        }
        self._write_manifest()
        return path

    def load_unit(
        self, unit: int
    ) -> Optional[Tuple[Dict[str, np.ndarray], object]]:
        """Load one unit, verifying its content hash.

        Returns ``None`` when the unit was never saved.  A unit whose
        file is missing or fails verification is quarantined, dropped
        from the manifest, and reported as ``None`` so the caller simply
        recomputes it.
        """
        record = self._units.get(int(unit))
        if record is None:
            return None
        path = self._units_dir / record["file"]
        if not path.exists() or sha256_file(path) != record["sha256"]:
            if path.exists():
                self._quarantine(path)
            del self._units[int(unit)]
            self._write_manifest()
            return None
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["__meta__"]).decode("utf-8"))
            arrays = {
                name: archive[name]
                for name in archive.files
                if name != "__meta__"
            }
        return arrays, meta

    def verified_units(
        self,
    ) -> Dict[int, Tuple[Dict[str, np.ndarray], object]]:
        """Load and hash-verify every recorded unit.

        Corrupt or missing units are quarantined and omitted — the
        resuming campaign recomputes exactly those.
        """
        results: Dict[int, Tuple[Dict[str, np.ndarray], object]] = {}
        for unit in self.completed_units():
            loaded = self.load_unit(unit)
            if loaded is not None:
                results[unit] = loaded
        return results
