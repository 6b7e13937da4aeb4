"""Running this checkout's package in a fresh Python process."""

import os
import subprocess
import sys
from pathlib import Path

import dicke_chaos

#: The directory the package was imported from, put first on a child's PYTHONPATH.
SRC = str(Path(dicke_chaos.__file__).resolve().parent.parent)


def child_env(**variables: str) -> dict[str, str]:
    """This process's environment with ``variables`` set, and with the package's source
    directory ahead of the inherited PYTHONPATH."""
    return {**os.environ, **variables,
            "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}


def run_cli(*args, timeout: float = 120, **kwargs) -> subprocess.CompletedProcess:
    """``python -m dicke_chaos.cli ARGS`` in a fresh process, which must exit 0 within
    ``timeout`` seconds; ``kwargs`` go to :func:`subprocess.run`."""
    proc = subprocess.run([sys.executable, "-m", "dicke_chaos.cli", *map(str, args)],
                          env=child_env(), capture_output=True, text=True, timeout=timeout,
                          **kwargs)
    assert proc.returncode == 0, proc.stderr
    return proc
