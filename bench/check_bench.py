"""Self-tests of the benchmark.  Run explicitly, from the repository root:

    python3 -m pytest -q bench/check_bench.py

(the file name keeps them out of the default test collection: the traced
runs take a few minutes).
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _bench(workload, seed, trace):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    digests = [ln for ln in lines if "digest" in ln]
    return json.loads(lines[-1]), digests


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_runs_repeat_and_exercise_their_layers(workload):
    first, first_digests = _bench(workload, 5, 1)
    second, second_digests = _bench(workload, 5, 1)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(run.PER_LAYER)
    calls = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
    assert calls == {k: second["metrics"][k]["value"] for k in calls}
    assert first_digests == second_digests
    for name, (_, exercised_on) in run.PER_LAYER.items():
        if exercised_on in (workload, None):
            assert first["metrics"][name]["value"] > 0, name


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (unit, _) in run.PER_LAYER.items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    def inputs(seed, r, sub):
        workdir = tmp_path / sub
        workdir.mkdir(exist_ok=True)
        return [q.inputs for q in workloads.make_round(workload, seed, r, workdir)]

    assert inputs(7, 0, "a") == inputs(7, 0, "b")
    assert inputs(7, 0, "a") != inputs(8, 0, "a")
    assert inputs(7, 0, "a") != inputs(7, 1, "a")


def _rejects(q, answer):
    """Whether the oracle rejects an answer; run.check_answers counts an
    oracle that cannot read the answer as a rejection too."""
    try:
        return not q.check(answer)
    except (ValueError, IndexError):
        return True


def test_checks_reject_wrong_answers(tmp_path):
    queries = workloads.make_round("dense_ladder", 3, 0, tmp_path)
    by_kind = {q.kind: q for q in queries if q.name.endswith(("8x8", "12x12"))}

    class Wrong:  # a charpoly answer with its constant coefficient changed
        def __init__(self, coeffs):
            self.coeffs = coeffs[:-1] + (coeffs[-1] + 1,)

    for kind, q in by_kind.items():
        answer = q.call()
        assert q.check(answer), q.name
        if kind == "rank":
            wrong = answer + 1
        elif kind == "solve":
            wrong = [answer[0] + 1] + answer[1:]
        elif kind == "charpoly":
            wrong = Wrong(answer.coeffs)
        else:
            wrong = answer + 1
        assert _rejects(q, wrong), q.name

    for q in workloads.make_round("small_select", 3, 0, tmp_path):
        rc, out = q.call()
        assert q.check((rc, out)), q.name
        i = next(i for i, c in enumerate(out) if c.isdigit())
        bumped = out[:i] + str((int(out[i]) + 1) % 10) + out[i + 1:]
        assert _rejects(q, (rc, bumped)), q.name
        assert _rejects(q, (1, out)), q.name

    A = workloads.ex.Matrix.from_ints(workloads.ex.QQ, [[1, 2], [2, 4]])
    assert checks.det(A, Fraction(0)) and not checks.det(A, Fraction(1))
