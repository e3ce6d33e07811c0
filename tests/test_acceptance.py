"""Acceptance harness: one test -- and one printed PASS/FAIL line -- per
criterion.  Each criterion runs its full randomized suite under a fixed seed
and fails if either an invariant breaks or the time budget is exceeded."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import exactla
from exactla.selftest import CRITERIA, run_criterion

SEED = 7


@pytest.mark.parametrize("number,name,budget",
                         [(num, name, budget) for num, name, _, budget in CRITERIA],
                         ids=[f"criterion_{num:02d}" for num, _, _, _ in CRITERIA])
def test_criterion(number, name, budget, capsys):
    ok, elapsed, budget, note = run_criterion(number, seed=SEED)
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n{status} criterion {number} ({name}): {note} "
              f"[{elapsed:.1f}s/{budget:.0f}s]")
    assert ok, f"criterion {number} ({name}): {note}"


def test_criterion_fails_under_optimize():
    code = ("from exactla import selftest\n"
            "selftest.det = lambda A: A.field.one()  # wrong on every singular matrix\n"
            "print(__debug__, selftest.run_criterion(2)[0])\n")
    src = str(Path(exactla.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout == "False False\n"


def test_selftest_sample_under_optimize():
    # solver contracts and kernel/image duality with every assert stripped
    src = str(Path(exactla.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-O", "-m", "exactla.cli", "selftest",
                          "--only", "4,5"],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 2 and all(line.startswith("PASS") for line in lines)
