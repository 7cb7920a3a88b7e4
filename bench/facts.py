"""Where the benchmark runs: checkout layout and the machine and code facts.

The facts are recorded with every result set and never gated: the `src/` line
count in particular is not an end-to-end metric, so a change that adds code is
not counted as a slowdown.
"""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "agebranch"
CONFIGS = ROOT / "configs"
OUT = ROOT / ".bench_out"


def missing_program() -> str | None:
    """Why the program cannot be run from this checkout, or None if it can."""
    for path in (PACKAGE / "cli.py", CONFIGS):
        if not path.exists():
            return f"{path.relative_to(ROOT)} is missing: run from a checkout of the repository"
    return None


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports the package from `src/`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _src_files() -> list[Path]:
    return sorted(p for p in SRC.rglob("*.py") if "__pycache__" not in p.parts)


def src_digest() -> str:
    """SHA-256 over every source file of the package, paths included."""
    h = hashlib.sha256()
    for p in _src_files():
        h.update(str(p.relative_to(SRC)).encode())
        h.update(b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    # Read .git directly: the benchmark may run in a checkout that is not a
    # repository, and must not look outside it.
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_and_code() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "src_sha256": src_digest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in _src_files()),
    }
