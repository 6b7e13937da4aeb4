"""Reading back the histogram JSON files that ``write_histogram`` writes."""

import json
from pathlib import Path

import numpy as np

from dicke_chaos import Histogram


def read_histogram(path: str | Path) -> tuple[Histogram, dict]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    hist = Histogram(
        edges=np.array(doc["edges"], dtype=float),
        densities=np.array(doc["densities"], dtype=float),
        counts=np.array(doc["counts"], dtype=np.int64),
    )
    return hist, doc["meta"]
