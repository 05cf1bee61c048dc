"""Scene bytes do not depend on the interpreter.

`pyproject.toml` accepts Python 3.10 and later.  Each `python3.10` to
`python3.13` on PATH, other than the running interpreter's version, that
starts and reports its own version builds every config at stage 3 through
`python -m planarpi.cli`.  A pyenv shim of a version that is installed but
not selected does not start as it is; it is run with `PYENV_VERSION` set to
the newest `3.N.*` that `pyenv versions --bare` lists.  Its Scenes must
equal the running interpreter's byte for byte.  The test skips when no
such interpreter starts.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from planarpi.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def _output(argv: list[str], env: dict | None = None) -> str | None:
    """The stdout of a command that exits 0 within 10 s, else None."""
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def pyenv_version(minor: int) -> str | None:
    """The newest 3.N.* that `pyenv versions --bare` lists, if pyenv is on PATH."""
    pyenv = shutil.which("pyenv")
    listed = _output([pyenv, "versions", "--bare"]) if pyenv else None
    found = [
        tuple(map(int, version.split(".")))
        for version in (listed or "").split()
        if re.fullmatch(rf"3\.{minor}\.\d+", version)
    ]
    return ".".join(map(str, max(found))) if found else None


def other_interpreters() -> list[tuple[str, dict]]:
    """The path of each other `python3.N` on PATH that starts as 3.N, with
    the environment it starts in."""
    found = []
    for minor in range(10, 14):
        exe = shutil.which(f"python3.{minor}")
        if minor == sys.version_info.minor or exe is None:
            continue
        probe = [exe, "-c", "import sys; print(*sys.version_info[:2])"]
        env = dict(os.environ)
        starts = (_output(probe, env) or "").split() == ["3", str(minor)]
        if not starts and (version := pyenv_version(minor)):
            env["PYENV_VERSION"] = version
            starts = (_output(probe, env) or "").split() == ["3", str(minor)]
        if starts:
            found.append((exe, env))
    return found


def test_other_interpreters_build_the_same_scenes(tmp_path):
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other python3.10 to python3.13 starts")
    want = {}
    for config in CONFIGS:
        out = tmp_path / f"{config.stem}.json"
        assert main(["build", "--config", str(config), "--stage", "3", "--out", str(out)]) == 0
        want[config.stem] = out.read_bytes()
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    for exe, exe_env in interpreters:
        env = dict(exe_env, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
        for config in CONFIGS:
            out = tmp_path / f"{config.stem}-{Path(exe).name}.json"
            subprocess.run([exe, "-m", "planarpi.cli", "build", "--config", str(config),
                            "--stage", "3", "--out", str(out)], env=env, check=True)
            assert out.read_bytes() == want[config.stem], (exe, config.stem)
