"""Tests of tools/sweep.py: a smoke test of two panels, every line printed,
and a check that the committed ledger holds every panel."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "sweep.py"
LEDGER = TOOL.with_name("ledger.txt")
SOLVE = r"\w+ t=1/2 n=2 (real|complex) seed=0 trial=0: optimal (\w+:\d+ )+y=[0-9a-f]{16}"
MODEL = r"[^:]+: sdpa ([0-9a-f]{16}) \1"
SOLVES = r"solves \d+ non-optimal \d+ iterations \d+"
FILES = r"files \d+ sha256 [0-9a-f]{64}"


@pytest.mark.parametrize("panel, count, line, summary", [
    ("functions", 16, SOLVE, r"solves 16 non-optimal 0 iterations \d+"),
    ("sdpa", 260, MODEL, r"files 520 sha256 [0-9a-f]{64}"),
], ids=["functions", "sdpa"])
def test_panel(panel, count, line, summary):
    argv = [sys.executable, str(TOOL), "--panel", panel, "--threads", "1"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert lines[0].startswith(f"# panel {panel}:") and "BLAS threads 1" in lines[0]
    assert len(lines) == count + 2
    for text in lines[1:-1]:
        assert re.fullmatch(line, text), text
    assert re.fullmatch(summary, lines[-1])
    assert "wall" not in out.stdout and "wall" in out.stderr


def test_ledger_holds_every_panel():
    # the module imports numpy and tracelift only inside main
    spec = importlib.util.spec_from_file_location("sweep", TOOL)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    lines = LEDGER.read_text().splitlines()
    assert lines[0].startswith("# panel ")
    sections = {}
    for text in lines:
        if text.startswith("# panel "):
            name = text.removeprefix("# panel ").partition(":")[0]
            assert name not in sections, name
            sections[name] = []
        else:
            sections[name].append(text)
    assert list(sections) == list(sweep.PANELS)
    for name, section in sections.items():
        summary = FILES if sweep.PANELS[name] is None else SOLVES
        closing = [text for text in section if re.fullmatch(f"{SOLVES}|{FILES}", text)]
        assert closing == section[-1:] and re.fullmatch(summary, section[-1]), name
