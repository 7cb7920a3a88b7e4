"""Byte-identity manifest: every command on every shipped config, digested.

Runs each of the six config commands (simulate, solve-u, solve-pi, validate,
ergodic, stationary) on each config in ``configs/`` at ``--replicates 200
--seed 3``, and ``identity-check`` once with no config, one fresh interpreter
per run, importing the package from this checkout's ``src/``.  Each run works
in a scratch directory holding a copy of ``configs/``, so every path it sees is
relative and the same in any checkout.
The manifest records the exit code and the sha256 of stdout, stderr and
every output file.  Two checkouts that compute the same bytes write equal
manifests.  With ``--compare`` the new manifest is checked against an older
one: each config/command whose exit code, stdout, stderr or output file
moved is listed, one line each, and the exit status is 1 if any moved:

    python3 tools/command_digests.py manifest.json
    python3 tools/command_digests.py new.json --compare old.json
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


def _run(work: Path, argv: list[str], env: dict) -> dict:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, "-m", "agebranch.cli", *argv, "--out", "out"],
        cwd=work, env=env, capture_output=True,
    )
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
    return {
        "exit": proc.returncode,
        "stdout": _sha(proc.stdout),
        "stderr": _sha(proc.stderr),
        "files": {str(p.relative_to(out)): _sha(p.read_bytes()) for p in files},
    }


def moved(new: dict, old: dict) -> list[str]:
    """``config command part`` for every digest that differs between two manifests."""
    lines = []
    for key in sorted(new.keys() | old.keys()):
        a, b = new.get(key), old.get(key)
        if a is None or b is None:
            lines.append(f"{key}: {'added' if b is None else 'removed'}")
            continue
        for part in ("exit", "stdout", "stderr"):
            if a[part] != b[part]:
                lines.append(f"{key} {part}")
        for name in sorted(a["files"].keys() | b["files"].keys()):
            if a["files"].get(name) != b["files"].get(name):
                lines.append(f"{key} {name}")
    return lines


def runs() -> dict[str, list[str]]:
    """Every run of the manifest, ``config command`` or ``identity-check``, to its argv."""
    configs = sorted(p.name for p in (ROOT / "configs").glob("*.json"))
    argvs = {f"{Path(config).stem} {command}": [command, "--config", f"configs/{config}", *FLAGS]
             for config in configs for command in COMMANDS}
    argvs["identity-check"] = ["identity-check"]
    return argvs


def digest(keys) -> dict:
    """The manifest entries of the named runs, each in a fresh interpreter."""
    argvs = runs()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    manifest = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "configs", work / "configs")
        for key in keys:
            manifest[key] = _run(work, argvs[key], env)
            print(f"{key}: exit {manifest[key]['exit']}", flush=True)
    return manifest


def main() -> int:
    args = sys.argv[1:]
    if len(args) not in (1, 3) or (len(args) == 3 and args[1] != "--compare"):
        print("\n".join(line.strip() for line in __doc__.strip().splitlines()[-2:]), file=sys.stderr)
        return 2
    old = json.loads(Path(args[2]).read_text()) if len(args) == 3 else None
    manifest = digest(runs())
    Path(args[0]).write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    if old is None:
        return 0
    lines = moved(manifest, old)
    print(f"{len(lines)} digests moved against {args[2]}")
    print("\n".join(lines))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
