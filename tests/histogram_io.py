"""Reading back the JSON files the package writes, histograms among them, as strict JSON."""

import json
from pathlib import Path
from typing import NamedTuple

import numpy as np


class HistogramFile(NamedTuple):
    """The arrays a histogram file holds, as written: nothing is derived from them."""

    edges: np.ndarray
    densities: np.ndarray
    counts: np.ndarray


def _reject(token: str):
    raise ValueError(f"non-standard JSON token {token}")


def read_strict_json(path: str | Path):
    """The JSON document in the file, read by a parser that rejects NaN and Infinity."""
    return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_reject)


def read_histogram(path: str | Path) -> tuple[HistogramFile, dict]:
    """The file's arrays and meta, read by :func:`read_strict_json`."""
    doc = read_strict_json(path)
    hist = HistogramFile(
        edges=np.array(doc["edges"], dtype=float),
        densities=np.array(doc["densities"], dtype=float),
        counts=np.array(doc["counts"], dtype=np.int64),
    )
    return hist, doc["meta"]
