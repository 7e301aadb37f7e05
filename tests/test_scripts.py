"""The scripts under scripts/ run end to end against the package."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_survey_catalog_centralizers():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "survey_catalog.py"),
            "--centralizers",
            "toric_code",
            "ising",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # entry, rank, dim, subcats, grading order, transparent objects
    row = re.compile(r"^(\w+)\s+(\d+)\s+.*?\s(\d+)\s+(\d+)\s+\{", re.M)
    counts = {m[1]: int(m[3]) for m in row.finditer(proc.stdout)}
    assert counts == {"toric_code": 5, "ising": 3}
    # one D -> D' line per subcategory
    assert proc.stdout.count(" -> ") == 5 + 3
