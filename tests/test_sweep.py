"""Smoke test of tools/sweep.py: the functions panel, every solve printed."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "sweep.py"


def test_functions_panel():
    argv = [sys.executable, str(TOOL), "--panel", "functions", "--each", "--threads", "1"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert lines[0].startswith("# panel functions:") and "BLAS threads 1" in lines[0]
    solves = lines[1:-1]
    assert len(solves) == 16
    for line in solves:
        assert re.fullmatch(r"\w+ t=1/2 n=2 (real|complex) seed=0 trial=0: optimal (\w+:\d+ )+y=[0-9a-f]{16}",
                            line), line
    assert re.fullmatch(r"solves 16 non-optimal 0 iterations \d+", lines[-1])
    assert "wall" not in out.stdout and "wall" in out.stderr
