"""Every script in demos/ runs to completion against the package as it
stands, with warnings as errors, and prints its recorded output
(tests/demo_output/<demo>.txt) under two hash seeds, so neither an API
change, a new warning nor a changed result can pass a demo unseen."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    expected = (ROOT / "tests" / "demo_output" / f"{demo.stem}.txt").read_text(encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    for hash_seed in ("0", "1"):
        env["PYTHONHASHSEED"] = hash_seed
        proc = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected, f"{demo.name} output differs (PYTHONHASHSEED={hash_seed})"
