"""``--timeout`` on an inline run is a usage error in every campaign CLI.

An inline job (one worker) runs in the CLI's own process, where nothing
can preempt it, so the four CLIs that take ``--timeout`` refuse it with
one worker and exit with status 2 before running anything.
"""

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
ENV = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}

#: (script, arguments selecting one inline worker)
INLINE_RUNS = [
    ("run_campaign.py", ["--jobs", "1", "--only", "table1"]),
    ("run_suite.py", [str(REPO / "suites" / "ci_smoke.json"), "--jobs", "1"]),
    ("run_tune.py", [str(REPO / "tunespecs" / "fpga_knob.json"), "--jobs", "1"]),
    ("run_service.py", ["--schedule", str(REPO / "schedules" / "diurnal.json"),
                        "--shards", "1"]),
]


@pytest.mark.parametrize("script,args", INLINE_RUNS, ids=[s for s, _ in INLINE_RUNS])
def test_inline_timeout_exits_2(script, args, tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args,
         "--timeout", "5", "--out", str(out)],
        capture_output=True, text=True, env=ENV, cwd=tmp_path,
    )
    assert proc.returncode == 2, proc.stderr
    assert "--timeout needs" in proc.stderr
    assert not out.exists()  # refused before running anything
