"""The demo scripts and README's library quick start run as published.

Each runs in a fresh interpreter with the package on its path; the demos
write only to the git-ignored ``demos/output/``.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=300)


def test_three_demos():
    assert [d.name[:3] for d in DEMOS] == ["01_", "02_", "03_"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo):
    proc = run_python([str(demo)])
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    proc = run_python(["-c", blocks[0]])
    assert proc.returncode == 0, proc.stderr
    lower, main, upper = (float(x) for x in proc.stdout.split())
    assert lower <= main <= upper
