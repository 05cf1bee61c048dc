"""Scene bytes do not depend on the interpreter.

`pyproject.toml` accepts Python 3.10 and later.  Each `python3.10` to
`python3.13` on PATH, other than the running interpreter's version, that
starts and reports its own version builds every config at stage 3 through
`python -m planarpi.cli`.  Its Scenes must equal the running interpreter's
byte for byte.  The test skips when no such interpreter starts.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from planarpi.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def other_interpreters() -> list[str]:
    """The path of each other `python3.N` on PATH that starts as 3.N."""
    found = []
    for minor in range(10, 14):
        exe = shutil.which(f"python3.{minor}")
        if minor == sys.version_info.minor or exe is None:
            continue
        try:
            proc = subprocess.run([exe, "-c", "import sys; print(*sys.version_info[:2])"],
                                  capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if proc.returncode == 0 and proc.stdout.split() == ["3", str(minor)]:
            found.append(exe)
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
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    for exe in interpreters:
        for config in CONFIGS:
            out = tmp_path / f"{config.stem}-{Path(exe).name}.json"
            subprocess.run([exe, "-m", "planarpi.cli", "build", "--config", str(config),
                            "--stage", "3", "--out", str(out)], env=env, check=True)
            assert out.read_bytes() == want[config.stem], (exe, config.stem)
