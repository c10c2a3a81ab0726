"""Every demo script runs to completion and prints its recorded output.

Each demo's stdout is compared byte for byte with
``tests/golden/demos/<stem>.txt``.  The demos are deterministic, so a
difference is a change in what the package computes or reports.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"


def test_demos_exit_zero():
    assert DEMOS
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [d.stem for d in DEMOS]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # the demos are independent, so they run side by side
    procs = [
        (demo, subprocess.Popen(
            [sys.executable, str(demo)], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ))
        for demo in DEMOS
    ]
    failures = []
    try:
        for demo, proc in procs:
            out, err = proc.communicate(timeout=120)
            if proc.returncode != 0:
                failures.append(f"{demo.name} exited {proc.returncode}:\n{err.decode()}")
            elif out != (GOLDEN / f"{demo.stem}.txt").read_bytes():
                failures.append(f"{demo.name}: stdout differs from its golden file")
    finally:
        for _, proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    assert not failures, "\n".join(failures)
