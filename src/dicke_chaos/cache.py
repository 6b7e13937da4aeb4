"""Binary on-disk cache of computed spectra, keyed by a parameter hash.

File layout (all integers little-endian):

    8 bytes   magic  b"DKCHSPC1"
    uint32    format version (currently 1)
    uint32    byte length of the key document
    ...       key document, canonical JSON (parameters, payload kind, solver)
    uint64    element count
    ...       float64 array, little-endian

A point has one eigenvalue entry (``KIND_ENERGIES``), which every command reads
and writes; a point with vectors adds its mid-window coefficients and tail
weights.  Each entry is written whole to a temporary file and moved into place
by an atomic rename, so concurrent sweep workers can share one directory and a
reader never sees a partial write.  A malformed entry (truncated, or with a
mangled key, say) raises CacheFormatError on load; the sweep treats it as a
miss, solves the point again and the rewrite replaces it.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import CacheFormatError
from .model import ModelParams, Parity
from .spectrum import SOLVER

MAGIC = b"DKCHSPC1"
VERSION = 1

#: Payload kinds stored per parameter point.
KIND_ENERGIES = "energies"          # full-spectrum eigenvalues, ascending
KIND_MID_COEFFS = "mid_coeffs"      # pooled mid-window eigenvector components
KIND_TAIL_WEIGHTS = "tail_weights"  # per-windowed-state Fock-tail weights


def cache_key(params: ModelParams, sector: Parity | None, kind: str,
              tail_width: int | None = None) -> dict:
    """Canonical key document for one payload.

    Only the fields the payload actually depends on are included, so e.g.
    energies are reused across window changes.  The solver that made the
    payload is one of them.
    """
    doc = {
        "kind": kind,
        "solver": SOLVER,
        "omega": float(params.omega),
        "omega0": float(params.omega0),
        "lambda": float(params.lambda_),
        "kappa": float(params.kappa),
        "j": float(params.j),
        "n_cutoff": int(params.n_cutoff),
        "sector": sector.value if sector is not None else "full",
    }
    if kind == KIND_MID_COEFFS:
        doc["mid_window"] = [float(x) for x in params.mid_window]
        doc["energy_window"] = [float(x) for x in params.energy_window]
    elif kind == KIND_TAIL_WEIGHTS:
        if tail_width is None:
            raise ValueError("tail_width is part of the tail-weight cache key")
        doc["energy_window"] = [float(x) for x in params.energy_window]
        doc["tail_width"] = int(tail_width)
    return doc


class SpectrumCache:
    """Directory of float64 payloads keyed by parameter hash."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key_json: str) -> Path:
        digest = hashlib.sha256(key_json.encode("utf-8")).hexdigest()
        return self.root / f"{digest}.spec"

    @staticmethod
    def _key_json(params: ModelParams, sector: Parity | None, kind: str,
                  tail_width: int | None = None) -> str:
        return json.dumps(cache_key(params, sector, kind, tail_width),
                          sort_keys=True, separators=(",", ":"))

    def load(self, params: ModelParams, sector: Parity | None, kind: str,
             tail_width: int | None = None) -> np.ndarray | None:
        """Return the cached array, or None on a miss.

        Raises
        ------
        CacheFormatError
            If an existing file has the wrong magic, version, key or length.
        """
        key_json = self._key_json(params, sector, kind, tail_width)
        path = self._path(key_json)
        if not path.exists():
            return None
        blob = path.read_bytes()
        if len(blob) < len(MAGIC) + 8 or blob[: len(MAGIC)] != MAGIC:
            raise CacheFormatError(f"{path}: bad magic")
        off = len(MAGIC)
        version, keylen = struct.unpack_from("<II", blob, off)
        off += 8
        if version != VERSION:
            raise CacheFormatError(f"{path}: unsupported version {version}")
        stored_key = blob[off : off + keylen]
        off += keylen
        if stored_key != key_json.encode("utf-8"):
            raise CacheFormatError(f"{path}: key mismatch")
        # A file cut inside the count field is shorter than off + 8: it fails the check too.
        count = int.from_bytes(blob[off : off + 8], "little")
        off += 8
        if len(blob) != off + 8 * count:
            raise CacheFormatError(
                f"{path}: truncated or over-long ({len(blob)} bytes, expected {off + 8 * count})"
            )
        data = np.frombuffer(blob, dtype="<f8", count=count, offset=off)
        return data.astype(np.float64, copy=True)

    def store(self, params: ModelParams, sector: Parity | None, kind: str,
              values: np.ndarray, tail_width: int | None = None) -> None:
        """Write one payload through an atomic rename, replacing any entry already there
        (it is only called after a miss, so that entry was malformed).  If the write
        or the rename fails, the temporary file is removed and the error re-raised."""
        key_json = self._key_json(params, sector, kind, tail_width)
        path = self._path(key_json)
        key_bytes = key_json.encode("utf-8")
        arr = np.ascontiguousarray(values, dtype="<f8")
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                fh.write(MAGIC)
                fh.write(struct.pack("<II", VERSION, len(key_bytes)))
                fh.write(key_bytes)
                fh.write(struct.pack("<Q", arr.size))
                fh.write(arr.tobytes())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
