import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_landau_scan_finds_staggered_sign_change(tmp_path):
    out = tmp_path / "scan.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "landau_scan.py"),
         "--direction", "staggered-z", "--step", "0.1", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        u2 = {round(float(row["lambda"]), 9): float(row["u2"])
              for row in csv.DictReader(fh)}
    assert sorted(u2) == [1.4, 1.5, 1.6]
    # the staggered transition lambda_c2 = 3/2 is where u2 turns negative
    assert u2[1.5] > 0 > u2[1.6]
