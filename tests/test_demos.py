"""Every demo script runs to completion against the source tree, and demo
05's seam table reads a timeline as its docstring says."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    # TMPDIR keeps the demos' scratch directories inside the test's tmp_path.
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), TMPDIR=str(tmp_path))
    result = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert not list(tmp_path.glob("mhi_demo_*"))


def _seam_table():
    path = REPO / "demos" / "05_six_activities.py"
    spec = importlib.util.spec_from_file_location("six_activities", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its ``__main__`` guard keeps the demo from running
    return module.seam_table


def test_seam_table_on_a_hand_built_timeline():
    # Three 10-frame segments a, b, c; 5-frame windows at stride 1, so the
    # window starting at s ends at s + 4. Labels by end frame: a up to 11,
    # then b, with one stray "a" ending at 16 inside segment b, and never c.
    # Warnings on the windows ending at 10, 12 and 21.
    def label(end):
        return "a" if end <= 11 or end == 16 else "b"

    timeline = [{"start_frame": s, "end_frame": s + 4, "label": label(s + 4), "score": 0.5,
                 "diagnostic": {"component_count": 1, "warning": s + 4 in (10, 12, 21)}}
                for s in range(26)]
    segments = [("a", 0, 9), ("b", 10, 19), ("c", 20, 29)]
    rows, accuracy = _seam_table()(timeline, segments)
    assert rows == [
        # Windows starting at 6..9 straddle frame 10; the first "b" ends at 12.
        {"seam": 10, "old": "a", "new": "b", "lag": 2, "straddling": 4, "warned": 2},
        # Windows starting at 16..19 straddle frame 20; none is ever "c".
        {"seam": 20, "old": "b", "new": "c", "lag": None, "straddling": 4, "warned": 1},
    ]
    # Inside: starts 0-5 (all "a", right), 10-15 (the one ending at 16 is
    # wrong) and 20-25 (all "b", wrong): 11 of 18.
    assert accuracy == 11 / 18
    assert _seam_table()([], segments) == (
        [{"seam": 10, "old": "a", "new": "b", "lag": None, "straddling": 0, "warned": 0},
         {"seam": 20, "old": "b", "new": "c", "lag": None, "straddling": 0, "warned": 0}],
        None,
    )
