"""Reading back the histogram JSON files that ``write_histogram`` writes."""

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


def read_histogram(path: str | Path) -> tuple[HistogramFile, dict]:
    """The file's arrays and meta, read by a parser that rejects NaN and Infinity."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_reject)
    hist = HistogramFile(
        edges=np.array(doc["edges"], dtype=float),
        densities=np.array(doc["densities"], dtype=float),
        counts=np.array(doc["counts"], dtype=np.int64),
    )
    return hist, doc["meta"]
