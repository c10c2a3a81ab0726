"""Every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exit_zero():
    assert DEMOS
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # the demos are independent, so they run side by side
    procs = [
        (demo.name, subprocess.Popen(
            [sys.executable, str(demo)], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        ))
        for demo in DEMOS
    ]
    failures = []
    try:
        for name, proc in procs:
            _, err = proc.communicate(timeout=120)
            if proc.returncode != 0:
                failures.append(f"{name} exited {proc.returncode}:\n{err.decode()}")
    finally:
        for _, proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    assert not failures, "\n".join(failures)
