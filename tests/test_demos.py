"""Every demo script and the README quick start run to completion against
the package in src/."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def run_script(script, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(script)], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # run a copy: 04_anomalous_wave.py writes a CSV next to its own file
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    proc = run_script(script, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    [block] = re.findall(r"## Library quick start.*?```python\n(.*?)```", readme, re.S)
    script = tmp_path / "quick_start.py"
    script.write_text(block)
    proc = run_script(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 2
