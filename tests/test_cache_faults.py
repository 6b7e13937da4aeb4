"""Cache faults never change an output byte.  An entry a run cannot read is a miss and is
solved again; a write the cache cannot make is skipped, with one warning naming the cache
directory, and the run goes on with what it made.  Tests may run as root, where ``chmod``
blocks nothing, so every fault is injected by patching."""

import errno
import json
import os
import pathlib
from dataclasses import replace

import pytest

import dicke_chaos.cache
from dicke_chaos import SpectrumCache
from dicke_chaos.cache import KIND_ENERGIES, KIND_MID_COEFFS
from dicke_chaos.cli import main
from dicke_chaos.model import Parity
from dicke_chaos.sweep import CACHE_ENV_VAR, read_config

#: A 2 x 2 grid in which no point fails, so a sweep writes no errors sidecar; the point
#: commands run at kappa = 0.7, lambda = 0.9, the grid's last point.
CONFIG = {"j": 6, "n_cutoff": 80, "kappa": 0.7, "lambda": 0.9,
          "kappa_grid": [0, 0.7], "lambda_grid": [0.2, 0.9]}
#: Every command runs in this order; ``boundary`` reads the sweep's csv and no cache.
COMMANDS = ("sweep", "boundary", "eigstats", "spacing")


def files(directory) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def run_all(config, out, cache_dir=None, workers=1, caplog=None):
    """Run COMMANDS into ``out`` on ``cache_dir`` (no cache if None); return the files
    written and, with ``caplog``, the lines each command logged."""
    args = ["--config", str(config), "--out", str(out)]
    if cache_dir is not None:
        args += ["--set", f"cache_dir={cache_dir}"]
    logged = {}
    for command in COMMANDS:
        if caplog is not None:
            caplog.clear()
        assert main([command, *args, *(["--workers", str(workers)] * (command == "sweep"))]) == 0
        if caplog is not None:
            logged[command] = caplog.messages
    return files(out), logged


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The config file, a no-cache run's outputs, and the entries a clean cold run leaves."""
    root = tmp_path_factory.mktemp("reference")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    with pytest.MonkeyPatch.context() as env:
        env.delenv(CACHE_ENV_VAR, raising=False)
        outputs, _ = run_all(config, root / "no_cache")
        assert run_all(config, root / "clean", root / "cache")[0] == outputs
    assert "sweep_errors.json" not in outputs and len(files(root / "cache")) == 16
    return config, outputs, files(root / "cache")


def oserror(code):
    return OSError(code, os.strerror(code))


# Each fault takes the cache and the grid's points (the last is the point commands' point),
# installs itself, and returns the text of the error a failed write logs (None if no write
# fails) and a list of the paths it failed, which a patched call appends to.

def every_store_enospc(monkeypatch, cache, points):
    injected = []

    def refuse(src, dst):
        injected.append(dst)
        raise oserror(errno.ENOSPC)

    monkeypatch.setattr(os, "replace", refuse)
    return str(oserror(errno.ENOSPC)), injected


def mid_coeffs_stores_enospc(monkeypatch, cache, points):
    refused = {cache.path(params, Parity.EVEN, KIND_MID_COEFFS) for params in points}
    real, injected = os.replace, []

    def refuse(src, dst):
        if pathlib.Path(dst) in refused:
            injected.append(dst)
            raise oserror(errno.ENOSPC)
        return real(src, dst)

    monkeypatch.setattr(os, "replace", refuse)
    return str(oserror(errno.ENOSPC)), injected


def store_permission_error(monkeypatch, cache, points):
    injected = []

    def refuse(path, mode="r", *args, **kwargs):
        if "w" in mode:
            injected.append(path)
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(dicke_chaos.cache, "open", refuse, raising=False)
    return f"[Errno {errno.EACCES}] {os.strerror(errno.EACCES)}", injected


def directory_at_an_entry(monkeypatch, cache, points):
    entry = cache.path(points[-1], Parity.EVEN, KIND_ENERGIES)
    entry.mkdir()
    return f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}", [entry]


def eio_on_opening_entries(monkeypatch, cache, points):
    """Every entry of a warm cache fails to open for reading; its stores succeed."""
    real, injected = pathlib.Path.open, []

    def refuse(self, mode="r", *args, **kwargs):
        if self.suffix == ".spec" and "r" in mode:
            injected.append(self)
            raise oserror(errno.EIO)
        return real(self, mode, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "open", refuse)
    return None, injected


FAULTS = [every_store_enospc, mid_coeffs_stores_enospc, store_permission_error,
          directory_at_an_entry, eio_on_opening_entries]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fault", FAULTS, ids=[fault.__name__ for fault in FAULTS])
def test_a_cache_fault_changes_no_output_byte(tmp_path, monkeypatch, caplog, reference,
                                              fault, workers):
    """Every command writes a no-cache run's bytes and exits 0; a command whose write fails
    logs one line naming the cache directory and the error; no temporary file is left;
    and a later run on the healed cache leaves a clean run's entries."""
    config, outputs, clean_entries = reference
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    cache_dir = tmp_path / "cache"
    if fault is eio_on_opening_entries:  # a read fault needs entries to read
        run_all(config, tmp_path / "warm", cache_dir)
    grid = read_config(config)
    points = [replace(grid.base, kappa=kappa, lambda_=lam)
              for kappa in grid.kappa_grid for lam in grid.lambda_grid]
    error, injected = fault(monkeypatch, SpectrumCache(cache_dir), points)
    faulty, logged = run_all(config, tmp_path / "faulty", cache_dir, workers, caplog)
    assert injected
    assert faulty == outputs
    assert list(cache_dir.glob("*.tmp.*")) == []
    if error is None:  # every entry was read, failed, and was made again
        assert not any(logged.values()) and {path.name for path in injected} == set(clean_entries)
    else:  # a sweep on a cold cache fails a store; a point command may find its entries
        assert len(logged["sweep"]) == 1 and all(len(lines) <= 1 for lines in logged.values())
        assert all(line.startswith(f"spectrum cache {cache_dir} not written: {error}")
                   for lines in logged.values() for line in lines)

    monkeypatch.undo()
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    for path in cache_dir.iterdir():
        if path.is_dir():
            path.rmdir()
    assert run_all(config, tmp_path / "healthy", cache_dir, workers)[0] == outputs
    assert files(cache_dir) == clean_entries
