"""Binary on-disk cache of computed spectra, keyed by a parameter hash.

File layout (all integers little-endian):

    8 bytes   magic  b"DKCHSPC1"
    uint32    format version (currently 1)
    uint32    byte length of the key document
    ...       key document, canonical JSON (parameters, payload kind, solver)
    uint64    element count
    ...       float64 array, little-endian

A point has one eigenvalue entry (``KIND_ENERGIES``), which every command reads
and writes; a point with vectors adds its tail weights, its pooled mid-window
coefficients and, per bin count, those coefficients' histogram
(``[n_states, c_min, c_max, counts...]``), which is all a warm D_KL reads of them.
One rule governs every entry: a run reads each payload it needs, and only when the
entry is unusable (missing, unreadable, or failing its magic, version, key or length
check: ``load`` returns None for each) makes the payload and stores it, replacing
the entry.  So the coefficients are read only to make a missing histogram, and
deleting their entries costs a vector solve only when one is made.  Each entry is
written whole to a per-thread temporary file and moved into place by an atomic
rename, so threads and processes can share one directory and a reader never sees a
partial write.  The first write makes the directory.  A write that fails with an OSError
(a directory that cannot be made, or one in the entry's place; a full disk) skips only
that entry, and every other store is still attempted; a cache object logs one warning
for all its failed writes, so no cache fault changes an output byte.  Only a failed
write imports ``logging``, so a process whose writes all succeed never loads it.

An entry's file name is the SHA-256 hex digest of its key document, computed by the
interpreter's built-in hash (``_sha2`` from Python 3.12, ``_sha256`` before), which
gives the same digest as ``hashlib.sha256`` without loading ``hashlib``'s OpenSSL
(about 3.5 MB of RSS and a few ms per process); ``hashlib`` is the fallback for an
interpreter built without them.
"""

from __future__ import annotations

import json
import os
import struct
import threading
from pathlib import Path

import numpy as np

from .model import ModelParams, Parity
from .spectrum import SOLVER

try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

MAGIC = b"DKCHSPC1"
VERSION = 1

#: Payload kinds stored per parameter point.
KIND_ENERGIES = "energies"          # full-spectrum eigenvalues, ascending
KIND_MID_COEFFS = "mid_coeffs"      # pooled mid-window eigenvector components
KIND_TAIL_WEIGHTS = "tail_weights"  # per-windowed-state Fock-tail weights
KIND_MID_HISTOGRAM = "mid_histogram"  # bin counts of the mid-window coefficients


def cache_key(params: ModelParams, sector: Parity, kind: str,
              tail_width: int | None = None, bins: int | None = None) -> dict:
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
        "sector": sector.value,
    }
    if kind in (KIND_MID_COEFFS, KIND_MID_HISTOGRAM):
        doc["mid_window"] = [float(x) for x in params.mid_window]
        doc["energy_window"] = [float(x) for x in params.energy_window]
    if kind == KIND_MID_HISTOGRAM:
        if bins is None:
            raise ValueError("bins is part of the mid-histogram cache key")
        doc["bins"] = int(bins)
    elif kind == KIND_TAIL_WEIGHTS:
        if tail_width is None:
            raise ValueError("tail_width is part of the tail-weight cache key")
        doc["energy_window"] = [float(x) for x in params.energy_window]
        doc["tail_width"] = int(tail_width)
    return doc


class SpectrumCache:
    """Directory of float64 payloads keyed by parameter hash.  The first store makes the
    directory; where it cannot be made (a regular file at or above it), a store fails."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._entries: dict[tuple, tuple[bytes, Path]] = {}  # _entry's memo
        self._lock = threading.Lock()
        self._warned = False  # set by the first failed store; later failures log nothing

    def path(self, params: ModelParams, sector: Parity, kind: str,
             tail_width: int | None = None, bins: int | None = None) -> Path:
        """The file the payload of this key lives in, whether or not it exists."""
        return self._entry(params, sector, kind, tail_width, bins)[1]

    def _entry(self, params: ModelParams, sector: Parity, kind: str,
               tail_width: int | None, bins: int | None) -> tuple[bytes, Path]:
        """The key document as canonical UTF-8 JSON, and the file named by its hash; made once per
        cache object, memoized on ``repr(params)``, which tells -0.0 from 0.0 as == does not."""
        memo = (repr(params), sector, kind, tail_width, bins)
        if (entry := self._entries.get(memo)) is None:
            key = json.dumps(cache_key(params, sector, kind, tail_width, bins),
                             sort_keys=True, separators=(",", ":")).encode("utf-8")
            entry = self._entries[memo] = key, self.root / f"{_sha256(key).hexdigest()}.spec"
        return entry

    def load(self, params: ModelParams, sector: Parity, kind: str,
             tail_width: int | None = None, bins: int | None = None) -> np.ndarray | None:
        """Return the cached array, or None if the entry is missing, cannot be read, or
        fails its magic, version, key or length check: the caller makes the payload."""
        key, path = self._entry(params, sector, kind, tail_width, bins)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        head = len(MAGIC) + 8
        if len(blob) < head or blob[: len(MAGIC)] != MAGIC:
            return None
        version, keylen = struct.unpack_from("<II", blob, len(MAGIC))
        off = head + keylen + 8  # the payload's offset, after the key and the count
        if version != VERSION or blob[head: head + keylen] != key:
            return None
        if len(blob) != off + 8 * int.from_bytes(blob[off - 8: off], "little"):
            return None  # truncated (inside the count, too) or over-long
        return np.frombuffer(blob, dtype="<f8", offset=off).astype(np.float64)

    def store(self, params: ModelParams, sector: Parity, kind: str,
              values: np.ndarray, tail_width: int | None = None,
              bins: int | None = None) -> None:
        """Make the cache directory if it is missing, then write one payload through an
        atomic rename, replacing any entry already there (only a miss calls it, so that
        entry was unusable).  If a step fails, any temporary file is removed; an OSError
        (a directory that cannot be made, say) skips this entry alone, the first of this
        cache logged as one warning naming the directory and later ones silently, and
        every later store is still attempted.  Any other exception propagates."""
        key, path = self._entry(params, sector, kind, tail_width, bins)
        arr = np.ascontiguousarray(values, dtype="<f8")
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as fh:
                fh.write(MAGIC)
                fh.write(struct.pack("<II", VERSION, len(key)))
                fh.write(key)
                fh.write(struct.pack("<Q", arr.size))
                fh.write(arr.tobytes())
            os.replace(tmp, path)
        except OSError as exc:
            with self._lock:
                first, self._warned = not self._warned, True
            if first:
                import logging  # only a failed write loads it

                logging.getLogger(__name__).warning("spectrum cache %s not written: %s",
                                                    self.root, exc)
        finally:
            if tmp.parent.is_dir():  # not when the root is, or is below, a regular file
                tmp.unlink(missing_ok=True)  # a no-op after the rename
