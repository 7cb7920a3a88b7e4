"""Byte-identity manifest: every command on every shipped config, digested.

Runs each of the six config commands (simulate, solve-u, solve-pi, validate,
ergodic, stationary) on each config in ``configs/`` at ``--replicates 200
--seed 3``, one fresh interpreter per run, importing the package from this
checkout's ``src/``.  Each run works in a scratch directory holding a copy of
``configs/``, so every path it sees is relative and the same in any checkout.
The manifest records the exit code and the sha256 of stdout, stderr and
every output file.  Two checkouts that compute the same bytes write equal
manifests:

    python3 tools/command_digests.py manifest.json
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("simulate", "solve-u", "solve-pi", "validate", "ergodic", "stationary")
FLAGS = ("--replicates", "200", "--seed", "3")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(work: Path, config: str, command: str, env: dict) -> dict:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, "-m", "agebranch.cli", command, "--config", f"configs/{config}",
         *FLAGS, "--out", "out"],
        cwd=work, env=env, capture_output=True,
    )
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
    return {
        "exit": proc.returncode,
        "stdout": _sha(proc.stdout),
        "stderr": _sha(proc.stderr),
        "files": {str(p.relative_to(out)): _sha(p.read_bytes()) for p in files},
    }


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    configs = sorted(p.name for p in (ROOT / "configs").glob("*.json"))
    manifest = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "configs", work / "configs")
        for config in configs:
            for command in COMMANDS:
                key = f"{Path(config).stem} {command}"
                manifest[key] = _run(work, config, command, env)
                print(f"{key}: exit {manifest[key]['exit']}", flush=True)
    Path(sys.argv[1]).write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
