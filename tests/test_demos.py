import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    res = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         cwd=tmp_path, timeout=120)
    assert res.returncode == 0, res.stderr
