"""Command-line interface: subcommands, overrides, exit codes, determinism."""

import collections
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import dicke_chaos.cli as cli
import dicke_chaos.spectral_stats
import dicke_chaos.sweep
from dicke_chaos.cli import main
from dicke_chaos.eigenstate_stats import DEFAULT_BINS, build_histogram
from dicke_chaos.errors import TooFewSpacings
from dicke_chaos.spectral_stats import eta_indicator, fit_brody, split_degenerate, unfold
from dicke_chaos.sweep import (
    SweepResultRow,
    compute_point_data,
    read_config,
    read_csv,
    write_csv,
    write_histogram,
)

from child_process import child_env
from histogram_io import read_histogram


@pytest.fixture()
def config_path(tmp_path):
    doc = {
        "omega": 1.0,
        "omega0": 1.0,
        "j": 6.0,
        "n_cutoff": 80,
        "energy_window": [0.4, 4.0],
        "mid_window": [1.75, 2.25],
        "kappa_grid": [0.0, 0.5],
        "lambda_grid": [0.3, 0.8],
        "workers": 1,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def tree_digest(root):
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_import_leaves_out_scipy_stats_and_optimize():
    """Every CLI call pays the package's import time."""
    probe = ("import sys, dicke_chaos.cli; "
             "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_calls_that_solve_nothing_load_no_lapack(config_path, tmp_path):
    """boundary and a cached spectrum start without scipy.linalg or scipy.special."""
    cache = tmp_path / "cache"
    assert main(["sweep", "--config", str(config_path), "--set", f"cache_dir={cache}"]) == 0
    env = child_env()
    env.pop("DICKE_CHAOS_CACHE_DIR", None)
    probe = f"""
import json, sys
import dicke_chaos, dicke_chaos.cli as cli
def loaded():
    return sorted(m for m in ("scipy.linalg", "scipy.special") if m in sys.modules)
seen = [loaded()]
assert cli.main(["boundary", "--config", {str(config_path)!r}]) == 0
seen.append(loaded())
assert cli.main(["spectrum", "--config", {str(config_path)!r}, "--set", "kappa=0",
                 "--set", "lambda=0.3", "--set", "cache_dir={cache}"]) == 0
seen.append(loaded())
print(json.dumps(seen))
"""
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert json.loads(out.stdout.splitlines()[-1]) == [[], [], []]
    assert (tmp_path / "out" / "spectrum_0_0.3.csv").exists()
    assert len(list(cache.iterdir())) == 16  # the sweep's 4 points x 4 entries: a cache hit


def test_calls_that_solve_no_vector_load_no_openssl(config_path, tmp_path):
    """A warm sweep, boundary and a cold eigenvalue-only spectrum name their cache entries
    with the interpreter's built-in SHA-256, so the process never imports hashlib."""
    cache = tmp_path / "cache"
    assert main(["sweep", "--config", str(config_path), "--set", f"cache_dir={cache}"]) == 0
    env = child_env()
    env.pop("DICKE_CHAOS_CACHE_DIR", None)
    config, out = str(config_path), str(tmp_path / "child")
    probe = f"""
import json, sys
import dicke_chaos.cli as cli
assert cli.main(["sweep", "--config", {config!r}, "--out", {out!r},
                 "--set", "cache_dir={cache}"]) == 0
assert cli.main(["boundary", "--config", {config!r}, "--out", {out!r}]) == 0
assert cli.main(["spectrum", "--config", {config!r}, "--out", {out!r}, "--set", "kappa=0.25",
                 "--set", "lambda=0.9", "--set", "cache_dir={cache}"]) == 0
print(json.dumps(sorted(m for m in ("hashlib", "_hashlib") if m in sys.modules)))
"""
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    assert (tmp_path / "child" / "sweep.csv").read_bytes() == (
        tmp_path / "out" / "sweep.csv").read_bytes()
    assert (tmp_path / "child" / "spectrum_0.25_0.9.csv").exists()
    assert len(list(cache.iterdir())) == 17  # the sweep's 16 entries and the cold energies


def test_solves_and_fits_load_only_scipys_compiled_modules(config_path, tmp_path):
    """A cold eigstats (band solve, inverse iteration, D_KL) and then a warm sweep (Brody
    fits, D_KL) write their usual bytes in a fresh process that loads SciPy's compiled
    cython_lapack and _special_ufuncs but never the scipy.linalg or scipy.special package;
    importing the CLI loads no SciPy module at all."""
    cache, point = tmp_path / "cache", ["--set", "kappa=0.25", "--set", "lambda=0.9"]
    assert main(["sweep", "--config", str(config_path), "--set", f"cache_dir={cache}"]) == 0
    assert main(["eigstats", "--config", str(config_path), "--out", str(tmp_path / "ref"),
                 *point]) == 0
    entries = len(list(cache.iterdir()))
    env = child_env()
    env.pop("DICKE_CHAOS_CACHE_DIR", None)
    args = ["--config", str(config_path), "--out", str(tmp_path / "child"),
            "--set", f"cache_dir={cache}"]
    probe = f"""
import json, os, sys
import dicke_chaos.cli as cli
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
seen = [loaded()]
assert cli.main(["eigstats", *{args!r}, *{point!r}]) == 0
seen.append(loaded())
entries = len(os.listdir({str(cache)!r}))
assert cli.main(["sweep", *{args!r}]) == 0
seen.append(loaded())
print(json.dumps([seen, entries]))
"""
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    seen, after_eigstats = json.loads(out.stdout.splitlines()[-1])
    assert seen[0] == []
    for modules in seen[1:]:
        assert {"scipy.linalg.cython_lapack", "scipy.special._special_ufuncs"} <= set(modules)
        assert not {"scipy.linalg", "scipy.special"} & set(modules)
    assert after_eigstats > entries == 16  # eigstats solved its point cold ...
    assert len(list(cache.iterdir())) == after_eigstats  # ... and the sweep hit every entry
    for name in ("hist_coeff_0.25_0.9.json", "sweep.csv"):
        ref = tmp_path / ("ref" if name.startswith("hist") else "out") / name
        assert (tmp_path / "child" / name).read_bytes() == ref.read_bytes()


def test_a_clean_sweep_removes_an_earlier_runs_errors(config_path, tmp_path):
    """A j=2 grid has too few levels for eta and beta, so every row fails; a clean rerun
    into the same directory leaves its sweep.csv and no errors file."""
    args = ["sweep", "--config", str(config_path), "--set", f"cache_dir={tmp_path / 'cache'}"]
    assert main([*args, "--set", "j=2", "--set", "n_cutoff=11"]) == 0
    errors = tmp_path / "out" / "sweep_errors.json"
    assert len(json.loads(errors.read_text())) == 4
    assert main(args) == 0
    assert not errors.exists()
    assert all(math.isfinite(row.eta) for row in read_csv(tmp_path / "out" / "sweep.csv"))


def configured(monkeypatch, *args):
    """The SweepConfig and cache that ``main`` hands a subcommand for these arguments."""
    seen = []

    def capture(config, cache):
        seen.append((config, cache))
        return []

    monkeypatch.setitem(cli._COMMANDS, "spectrum", (capture, "capture"))
    assert main(["spectrum", *args]) == 0
    return seen[0]


class TestOverrides:
    def test_set_wins_over_file(self, config_path, monkeypatch):
        config, _ = configured(monkeypatch, "--config", str(config_path),
                               "--set", "j=4", "--set", "lambda=0.9")
        assert config.base.j == 4 and config.base.lambda_ == 0.9

    def test_dotted_threshold_key(self, config_path, monkeypatch):
        config, _ = configured(monkeypatch, "--config", str(config_path),
                               "--set", "thresholds.mean_r_min=0.5")
        assert config.thresholds.mean_r_min == 0.5

    def test_json_lists_parse(self, config_path, monkeypatch):
        config, _ = configured(monkeypatch, "--config", str(config_path),
                               "--set", "kappa_grid=[0.0,1.0]")
        assert config.kappa_grid == (0.0, 1.0)

    def test_unknown_key_rejected(self, config_path, capsys):
        assert main(["spectrum", "--config", str(config_path), "--set", "jj=4"]) == 1
        assert "unknown config key: jj" in capsys.readouterr().err

    def test_missing_equals_rejected(self, config_path, capsys):
        assert main(["spectrum", "--config", str(config_path), "--set", "j"]) == 1
        assert "--set expects KEY=VALUE" in capsys.readouterr().err


class TestOneParserPerProcess:
    """``main`` builds its parser once per process; no call leaves state in it for the next."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_share_the_parser_but_not_their_settings(self, config_path, monkeypatch,
                                                           capsys):
        config, _ = configured(monkeypatch, "--config", str(config_path),
                               "--set", "bins=57", "--workers", "2")
        assert (config.bins, config.workers) == (57, 2)
        config, _ = configured(monkeypatch, "--config", str(config_path))
        assert (config.bins, config.workers, config.base.j) == (DEFAULT_BINS, 1, 6.0)
        assert main(["spectrum", "--config", str(config_path), "--no-such-flag"]) == 1
        assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
        config, _ = configured(monkeypatch, "--config", str(config_path), "--set", "j=4")
        assert (config.bins, config.workers, config.base.j) == (DEFAULT_BINS, 1, 4.0)


class TestPrecedence:
    """Flags over --set over the file; an explicit cache_dir over the environment."""

    def test_out_beats_set_beats_file(self, config_path, tmp_path, monkeypatch):
        args = ["--config", str(config_path)]
        assert configured(monkeypatch, *args)[0].output_dir == tmp_path / "out"
        args += ["--set", f"output_dir={tmp_path / 'set'}"]
        assert configured(monkeypatch, *args)[0].output_dir == tmp_path / "set"
        args += ["--out", str(tmp_path / "flag")]
        assert configured(monkeypatch, *args)[0].output_dir == tmp_path / "flag"

    def test_out_flag_is_not_json(self, config_path, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert configured(monkeypatch, "--config", str(config_path),
                          "--out", "123")[0].output_dir == Path("123")

    @pytest.mark.parametrize("key", ["output_dir", "cache_dir"])
    def test_set_path_is_not_json(self, config_path, tmp_path, monkeypatch, key):
        monkeypatch.chdir(tmp_path)
        config, _ = configured(monkeypatch, "--config", str(config_path), "--set", f"{key}=2024")
        assert getattr(config, key) == Path("2024")
        assert (tmp_path / "2024").is_dir()

    def test_workers_beats_set_beats_file(self, config_path, monkeypatch):
        args = ["--config", str(config_path)]
        assert configured(monkeypatch, *args)[0].workers == 1
        args += ["--set", "workers=2"]
        assert configured(monkeypatch, *args)[0].workers == 2
        args += ["--workers", "3"]
        assert configured(monkeypatch, *args)[0].workers == 3

    @pytest.mark.parametrize("where", ["file", "set"])
    def test_cache_dir_beats_environment(self, config_path, tmp_path, monkeypatch, where):
        monkeypatch.setenv("DICKE_CHAOS_CACHE_DIR", str(tmp_path / "env"))
        args = ["--config", str(config_path)]
        if where == "file":
            doc = json.loads(config_path.read_text())
            config_path.write_text(json.dumps({**doc, "cache_dir": str(tmp_path / "own")}))
        else:
            args += ["--set", f"cache_dir={tmp_path / 'own'}"]
        config, cache = configured(monkeypatch, *args)
        assert config.cache_dir == tmp_path / "own" and cache.root == tmp_path / "own"
        assert not (tmp_path / "env").exists()

    def test_empty_cache_dir_falls_back_to_environment(self, config_path, tmp_path, monkeypatch):
        monkeypatch.setenv("DICKE_CHAOS_CACHE_DIR", str(tmp_path / "env"))
        doc = json.loads(config_path.read_text())
        config_path.write_text(json.dumps({**doc, "cache_dir": ""}))
        config, cache = configured(monkeypatch, "--config", str(config_path))
        assert config.cache_dir == tmp_path / "env" and cache.root == tmp_path / "env"


class TestExitCodes:
    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        code = main(["sweep", "--config", str(tmp_path / "missing.json")])
        assert code == 1
        assert "missing.json" in capsys.readouterr().err

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"j": 6, "output_dir": "\xff"}')
        assert main(["spectrum", "--config", str(path)]) == 1
        assert f"config {path} is not UTF-8 text: " in capsys.readouterr().err

    def test_unknown_set_key_is_usage_error(self, config_path, capsys):
        code = main(["spacing", "--config", str(config_path), "--set", "nope=1"])
        assert code == 1
        assert "nope" in capsys.readouterr().err

    def test_bad_flag_is_usage_error(self, config_path, capsys):
        code = main(["spacing", "--config", str(config_path), "--bogus"])
        assert code == 1
        assert "--bogus" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, config_path, capsys):
        assert main(["frobnicate", "--config", str(config_path)]) == 1

    def test_runtime_error_exits_two(self, config_path, capsys):
        # an unreachable energy window aborts a single-point command
        code = main([
            "spectrum", "--config", str(config_path),
            "--set", "energy_window=[50.0,60.0]",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_boundary_threshold_is_usage_error(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        write_csv([SweepResultRow(kappa=0.0, lambda_=0.3)], out / "sweep.csv")
        code = main(["boundary", "--config", str(config_path),
                     "--set", "thresholds.eta_max=1.5"])
        assert code == 1
        assert "eta_max" in capsys.readouterr().err

    @pytest.mark.parametrize("row", [
        "0,0.3,527",                              # short row
        "0,0.3,527,300,abc,0.5,0.5,0.1,1,0",      # non-numeric field
    ])
    def test_malformed_sweep_row_is_usage_error(self, config_path, tmp_path, capsys, row):
        out = tmp_path / "out"
        out.mkdir()
        write_csv([SweepResultRow(kappa=0.0, lambda_=0.3)], out / "sweep.csv")
        with open(out / "sweep.csv", "a") as fh:
            fh.write(row + "\n")
        code = main(["boundary", "--config", str(config_path)])
        assert code == 1
        assert "sweep.csv, line 3" in capsys.readouterr().err
        assert not list(out.glob("boundary_*.csv"))

    @pytest.mark.parametrize("rows, tail", [
        ([(0.0, 0.3), (0.0, 0.8), (0.5, 0.3)], b""),                          # 3 of 4 grid rows
        ([(0.0, 0.3), (0.0, 0.8), (0.5, 0.3), (0.5, 0.8), (0.5, 0.8)], b""),  # a row duplicated
        ([(0.0, 0.3), (0.0, 0.8), (0.5, 0.3), (0.5, 0.8)], b"\xff\xfe"),     # not UTF-8
    ], ids=["missing-row", "duplicate-row", "not-utf8"])
    def test_malformed_sweep_file_is_usage_error(self, config_path, tmp_path, capsys,
                                                 rows, tail):
        out = tmp_path / "out"
        out.mkdir()
        write_csv([SweepResultRow(kappa=k, lambda_=lam) for k, lam in rows], out / "sweep.csv")
        with open(out / "sweep.csv", "ab") as fh:
            fh.write(tail)
        code = main(["boundary", "--config", str(config_path)])
        assert code == 1
        assert "sweep.csv" in capsys.readouterr().err
        assert not list(out.glob("boundary_*.csv"))

    def test_unwritable_spectrum_is_runtime_error(self, config_path, tmp_path, capsys):
        (tmp_path / "out" / "spectrum_0_0.9.csv").mkdir(parents=True)
        code = main(["spectrum", "--config", str(config_path),
                     "--set", "lambda=0.9", "--set", "kappa=0"])
        assert code == 2
        assert "OutputUnwritable: cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["bins=5", "fit_degree=-1"])
    def test_invalid_sweep_setting_is_usage_error(self, config_path, tmp_path, override):
        code = main(["sweep", "--config", str(config_path), "--set", override])
        assert code == 1
        assert not (tmp_path / "out" / "sweep.csv").exists()

    @pytest.mark.parametrize("command, override", [
        ("spacing", "fit_degree=-1"),
        ("ratio", "bins=0"),
        ("eigstats", "bins=5"),
        ("spacing", "bins=5"),
        ("spacing", "fit_degree=abc"),
        ("spectrum", "j=abc"),
        ("spectrum", "lambda=null"),
        ("spectrum", "energy_window=5"),
        ("spectrum", "n_cutoff=2.5"),
        ("spectrum", "n_cutoff=true"),
        ("sweep", "n_cutoff=30.7"),
        ("sweep", "fit_degree=2.5"),
        ("sweep", "workers=1.9"),
        ("sweep", "kappa_grid=[-0.5,0]"),
        ("sweep", "lambda_grid=[-1,0.5]"),
    ])
    def test_malformed_setting_is_usage_error(self, config_path, tmp_path, capsys,
                                              command, override):
        code = main([command, "--config", str(config_path), "--set", override])
        assert code == 1
        assert override.partition("=")[0] in capsys.readouterr().err
        out = tmp_path / "out"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("key", ["output_dir", "cache_dir"])
    def test_numeric_path_in_config_file_is_usage_error(self, config_path, tmp_path, capsys,
                                                        key):
        doc = json.loads(config_path.read_text())
        config_path.write_text(json.dumps({**doc, key: 5}))
        assert main(["spectrum", "--config", str(config_path)]) == 1
        assert f"config key {key}: expected a path string, got 5" in capsys.readouterr().err
        out = tmp_path / "out"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("spelling", [["--out", ""], ["--set", "output_dir="]],
                             ids=["out flag", "set"])
    def test_empty_output_dir_is_usage_error(self, config_path, tmp_path, monkeypatch, capsys,
                                             spelling):
        """An empty output directory (``--out "$OUT"`` with OUT unset, say) is refused, not
        read as the config's output_dir or as the working directory."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("DICKE_CHAOS_CACHE_DIR", raising=False)
        assert main(["spacing", "--config", str(config_path), *spelling]) == 1
        assert "config key output_dir: expected a path string, got ''" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("where", ["file", "set"])
    @pytest.mark.parametrize("key", ["n_cutoff", "lambda"])
    def test_number_beyond_float_range_is_usage_error(self, config_path, tmp_path, capsys,
                                                      key, where):
        """An int too large for a float (1 followed by 400 zeros) is out of range, not a
        runtime OverflowError: it exits 1 and names its key."""
        huge = 10**400
        if where == "file":
            config_path.write_text(json.dumps({**json.loads(config_path.read_text()), key: huge}))
            extra = []
        else:
            extra = ["--set", f"{key}={huge}"]
        assert main(["spectrum", "--config", str(config_path), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key {key}: expected a finite number, got 1000")
        assert "OverflowError" not in err
        out = tmp_path / "out"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("where", ["file", "set"])
    def test_integer_past_the_digit_limit_is_usage_error(self, config_path, tmp_path, capsys,
                                                         where):
        """json.loads refuses an int literal of over 4300 digits with a plain ValueError,
        which exits 1 like any malformed config, not 2."""
        digits = "1" + "0" * 5000
        if where == "file":
            config_path.write_text(config_path.read_text()[:-1] + f', "n_cutoff": {digits}}}')
            extra = []
        else:
            extra = ["--set", f"n_cutoff={digits}"]
        assert main(["spectrum", "--config", str(config_path), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config") and "ValueError" not in err
        limited = hasattr(sys, "get_int_max_str_digits")  # Pythons before the limit parse it
        assert ("not valid JSON" if where == "file" and limited else "config key n_cutoff") in err

    def test_unusable_cache_dir_is_usage_error(self, config_path, tmp_path, capsys):
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        code = main(["sweep", "--config", str(config_path), "--set", f"cache_dir={blocker}"])
        assert code == 1
        assert f"cannot create cache directory {blocker}" in capsys.readouterr().err
        out = tmp_path / "out"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("creatable", [False, True], ids=["uncreatable", "creatable"])
    def test_boundary_opens_no_cache(self, config_path, tmp_path, monkeypatch, creatable):
        """boundary reads only sweep.csv: it neither needs nor makes a cache directory."""
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        cache_dir = tmp_path / "cache" if creatable else blocker / "cache"
        monkeypatch.setenv("DICKE_CHAOS_CACHE_DIR", str(cache_dir))
        out = tmp_path / "out"
        out.mkdir()
        write_csv([SweepResultRow(kappa=kappa, lambda_=lam)
                   for kappa in (0.0, 0.5) for lam in (0.3, 0.8)], out / "sweep.csv")
        assert main(["boundary", "--config", str(config_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a_file", "config.json", "out"]
        assert sorted(p.name for p in out.iterdir()) == [
            "boundary_beta.csv", "boundary_eta.csv", "boundary_mean_r.csv", "sweep.csv"]

    def test_interrupt_exits_130_without_traceback(self, config_path, capsys, monkeypatch):
        def interrupted(config, cache):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "spectrum", (interrupted, "interrupted"))
        try:
            code = main(["spectrum", "--config", str(config_path)])
        except KeyboardInterrupt:  # escaping, it would end the whole test session
            pytest.fail("the interrupt escaped main")
        assert code == 130
        assert capsys.readouterr().err == "error: interrupted\n"


class TestPointCommands:
    def test_spectrum_writes_windowed_energies(self, config_path, tmp_path, capsys):
        code = main(["spectrum", "--config", str(config_path),
                     "--set", "lambda=0.8", "--set", "kappa=0.5"])
        assert code == 0
        path = tmp_path / "out" / "spectrum_0.5_0.8.csv"
        assert path.exists()
        lines = path.read_text().splitlines()
        assert lines[0] == "index,energy"
        energies = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert all(4.8 <= e <= 48.0 for e in energies)  # E/N in [0.4, 4], N = 12

    def test_warm_spectrum_reproduces_cold(self, config_path, tmp_path):
        args = ["spectrum", "--config", str(config_path), "--set", "lambda=0.8",
                "--set", "kappa=0.5", "--set", f"cache_dir={tmp_path / 'cache'}"]
        path = tmp_path / "out" / "spectrum_0.5_0.8.csv"
        outputs = []
        for _ in ("cold", "warm"):
            assert main(args) == 0
            outputs.append(path.read_bytes())
            path.unlink()
        assert outputs[0] == outputs[1]
        assert len(list((tmp_path / "cache").iterdir())) == 1  # the warm run stored nothing new

    def test_spacing_reports_eta_and_beta(self, config_path, tmp_path):
        code = main(["spacing", "--config", str(config_path),
                     "--set", "lambda=0.9", "--set", "kappa=0"])
        assert code == 0
        hist, meta = read_histogram(tmp_path / "out" / "hist_spacing_0_0.9.json")
        assert 0.0 <= meta["eta"] <= 1.0
        assert 0.0 <= meta["beta"] <= 1.0
        assert meta["n_levels"] > 200
        assert sum(hist.counts) > 0

    @pytest.mark.parametrize("overrides", [
        [("lambda", 0.9)],                              # eta and beta fitted
        [("lambda", 0.0)],                              # 264 unfolded spacings degenerate
        [("lambda", 0.9), ("energy_window", [1.0, 1.5])],  # 38 spacings: too few to fit
    ], ids=["chaotic", "degenerate", "too-few"])
    def test_spacing_splits_its_unfolded_spacings_once(self, config_path, tmp_path,
                                                       monkeypatch, overrides):
        """One spacing call splits the degenerate spacings from the raw and then from the
        unfolded spacings, once each, and writes the bytes of unfold, split_degenerate,
        eta_indicator and fit_brody, even where too few spacings leave eta and beta null."""
        overrides = [("kappa", 0.0), *overrides]
        config = read_config(config_path, overrides)
        windowed = compute_point_data(config.base, want_vectors=False).windowed
        spacings = unfold(windowed, config.fit_degree).spacings
        clean, n_dropped = split_degenerate(spacings)
        try:
            eta, beta = eta_indicator(spacings), fit_brody(spacings)[0]
        except TooFewSpacings:
            eta = beta = math.nan
        hist = build_histogram(clean, config.bins,
                               value_range=(0.0, float(clean.max()) if clean.size else 1.0))
        name = f"hist_spacing_0_{format(config.base.lambda_, 'g')}.json"
        write_histogram(hist, tmp_path / name, {
            "kappa": 0.0, "lambda": config.base.lambda_, "eta": eta, "beta": beta,
            "n_levels": int(windowed.size), "n_degenerate_dropped": n_dropped,
            "fit_degree": config.fit_degree})
        calls = collections.Counter()
        for module in (dicke_chaos.spectral_stats, dicke_chaos.sweep, cli):
            if hasattr(module, "split_degenerate"):
                inner = module.split_degenerate
                monkeypatch.setattr(module, "split_degenerate", lambda s, inner=inner: (
                    calls.update(["split_degenerate"]) or inner(s)))
        sets = [arg for key, value in overrides for arg in ("--set", f"{key}={json.dumps(value)}")]
        assert main(["spacing", "--config", str(config_path), *sets]) == 0
        assert calls == {"split_degenerate": 2}
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / name).read_bytes()
        assert math.isnan(eta) == (overrides[-1][0] == "energy_window")

    def test_ratio_on_integer_spectrum_reports_degeneracies(self, config_path, tmp_path):
        # lambda = kappa = 0: the {n+m} spectrum is massively degenerate
        code = main(["ratio", "--config", str(config_path),
                     "--set", "lambda=0", "--set", "kappa=0"])
        assert code == 0
        hist, meta = read_histogram(tmp_path / "out" / "hist_ratio_0_0.json")
        assert meta["n_degenerate_dropped"] > 200
        assert meta["mean_r"] is None  # every ratio pair touched a zero spacing

    def test_ratio_chaotic_point(self, config_path, tmp_path):
        code = main(["ratio", "--config", str(config_path),
                     "--set", "lambda=0.9", "--set", "kappa=0"])
        assert code == 0
        _, meta = read_histogram(tmp_path / "out" / "hist_ratio_0_0.9.json")
        assert 0.3 < meta["mean_r"] < 0.6

    def test_eigstats_writes_kl(self, config_path, tmp_path):
        code = main(["eigstats", "--config", str(config_path),
                     "--set", "lambda=0.9", "--set", "kappa=0"])
        assert code == 0
        hist, meta = read_histogram(tmp_path / "out" / "hist_coeff_0_0.9.json")
        assert meta["d_kl"] >= 0.0
        assert meta["dim"] == 527
        assert meta["n_states"] > 10
        assert sum(hist.counts) == meta["n_states"] * meta["dim"]


class TestSweepAndBoundary:
    def test_sweep_then_boundary(self, config_path, tmp_path):
        assert main(["sweep", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 4
        assert main(["boundary", "--config", str(config_path)]) == 0
        for indicator in ("eta", "beta", "mean_r"):
            lines = (out / f"boundary_{indicator}.csv").read_text().splitlines()
            assert lines[0] == "kappa,lambda_star,crossed"
            assert len(lines) == 3  # two kappa values

    def test_boundary_without_sweep_is_usage_error(self, config_path, capsys):
        assert main(["boundary", "--config", str(config_path)]) == 1

    def test_out_flag_overrides_config(self, config_path, tmp_path):
        alt = tmp_path / "alt"
        assert main(["sweep", "--config", str(config_path), "--out", str(alt)]) == 0
        assert (alt / "sweep.csv").exists()

    def test_identical_invocations_identical_files(self, config_path, tmp_path):
        digests = []
        for run in ("a", "b"):
            out = tmp_path / run
            args = ["sweep", "--config", str(config_path), "--out", str(out),
                    "--set", "lambda_grid=[0.3]", "--set", "kappa_grid=[0.0]"]
            assert main(args) == 0
            digests.append(tree_digest(out))
        assert digests[0] == digests[1]

    def test_workers_flag_does_not_change_output(self, config_path, tmp_path):
        digests = []
        for workers in ("1", "3"):
            out = tmp_path / f"w{workers}"
            assert main(["sweep", "--config", str(config_path), "--out", str(out),
                         "--workers", workers]) == 0
            digests.append(tree_digest(out))
        assert digests[0] == digests[1]

    def test_cache_env_var_enables_cache(self, config_path, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("DICKE_CHAOS_CACHE_DIR", str(cache_dir))
        assert main(["spectrum", "--config", str(config_path),
                     "--set", "lambda=0.3", "--set", "kappa=0"]) == 0
        assert any(cache_dir.glob("*.spec"))
