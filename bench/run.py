"""Benchmark of exactla: three workloads, each driven by one client in a
closed loop (one process, no worker threads).

Run from the root of a checkout:

    python3 bench/run.py --workload dense_ladder --seed 1 --seconds 25 --trace 0

The run times whole rounds of queries (see workloads.py) until --seconds of
query time have passed and at least 100 queries are done, checks every
answer against the oracles (checks.py) outside the timed region, prints one
line per metric and, last, one JSON object with the fields `correct`,
`attempted`, `failed` and `metrics`.  Query times are scaled to a reference
machine speed (see calibrate).

--trace 0 reports the end-to-end metrics.  --trace 1 reports the per-layer
metrics instead: after the timed pass it reruns the first round untraced and
then under the outside-in tracer (tracer.py), and reports span counts, self
times, the import breakdown from `python -X importtime` and the tracing
overhead.  All spans are written to .bench_out/.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy import convolve  # bound before the tracer patches numpy.convolve

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("dense_ladder", "small_select", "generic_fx")
MIN_QUERIES = 100      # latency_p90_ms needs at least 10 samples beyond it
TRACE_ROUNDS = 1       # rounds rerun under the tracer; fixed so call counts repeat
SETUP_LAUNCHES = 7     # setup_s is the median over this many fresh interpreters
IMPORT_LAUNCHES = 5
CAL_REF_S = 0.002      # calibration kernel time at the reference speed (see calibrate)

END_TO_END = {
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, workload on which it must be nonzero).  Which
# end-to-end metric each should move is tabled in README.md.
PER_LAYER = {
    "rank.np_convolve.calls": ("count", "dense_ladder"),
    "rank.np_convolve.ms": ("ms", "dense_ladder"),
    "rank.mulmuley_rank.ms": ("ms", "dense_ladder"),
    "rank.solve.ms": ("ms", "dense_ladder"),
    "rank.solvable.calls": ("count", "small_select"),
    "rank.greedy_basis.ms": ("ms", "small_select"),
    "rank.kernel_basis.ms": ("ms", "small_select"),
    "rank.max_nonsingular_minor.ms": ("ms", "small_select"),
    "rank.solvable_per_select": ("ratio", "small_select"),
    "charpoly.charpoly.calls": ("count", "dense_ladder"),
    "charpoly.charpoly.ms": ("ms", "dense_ladder"),
    "charpoly.inverse.ms": ("ms", "small_select"),
    "field.mul.calls": ("count", "dense_ladder"),
    "poly.poly_mul.calls": ("count", "generic_fx"),
    "poly.poly_mul.ms": ("ms", "generic_fx"),
    "poly.conv_matrix.calls": ("count", "generic_fx"),
    "ratfunc.poly_gcd.calls": ("count", "generic_fx"),
    "ratfunc.poly_gcd.ms": ("ms", "generic_fx"),
    "ratfunc.field_ops.calls": ("count", "generic_fx"),
    "matrix.mat_vec.ms": ("ms", "generic_fx"),
    "matrix.matmul.ms": ("ms", "generic_fx"),
    "cli.build_parser.ms": ("ms", "small_select"),
    "cli.parse_input.ms": ("ms", "small_select"),
    "cli.format.ms": ("ms", "small_select"),
    "combinatorics.grolmusz_graph.ms": ("ms", "small_select"),
    "combinatorics.ramsey_check.ms": ("ms", "small_select"),
    "setup.import_numpy_ms": ("ms", "generic_fx"),
    "setup.import_exactla_ms": ("ms", "generic_fx"),
    "trace.overhead_ratio": ("ratio", None),
}

# per-layer metrics that sum the self time of several spans
SPAN_GROUPS = {
    "cli.parse_input": ("cli.parse_field", "cli.parse_entry", "cli.parse_matrix",
                        "cli.parse_vector", "cli.parse_set_family"),
    "cli.format": ("cli.format_entry", "cli.format_matrix"),
}

# the first answer of a 1x1 query of each workload's kind, in a fresh interpreter
PROBES = {
    "dense_ladder": "import exactla as ex\n"
                    "print(ex.rank(ex.Matrix.from_ints(ex.PrimeField(1000003), [[2]])))",
    "small_select": "import sys\nimport exactla.cli\n"
                    "exactla.cli.run(['rank', '--field', 'GF1000003', sys.argv[1]])",
    "generic_fx": "import exactla as ex\nF = ex.RationalFunctionField(ex.QQ)\n"
                  "print(F.format(ex.det(ex.Matrix(F, [[F.parse('1,2')]]))))",
}


_CAL_I64 = np.arange(1, 41, dtype=np.int64)
_CAL_OBJ = np.arange(1, 21, dtype=object) * 2 ** 40


def calibrate():
    """Seconds taken by a fixed kernel that mixes what the workloads spend
    their time on: Python ints, Fractions and small numpy convolutions, with
    no exactla code.  On a shared host the speed of the same work drifts by up
    to 2x within a minute, and this kernel drifts with it.  So every query
    time the benchmark reports is scaled by CAL_REF_S over the mean of the
    kernel's times measured just before and just after the query."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(10000):
        acc = (acc * 31 + i) % 1000003
    s = Fraction(0)
    for i in range(300):
        s += Fraction(1, i % 7 + 1)
    for _ in range(20):
        convolve(_CAL_OBJ, _CAL_OBJ)
    for _ in range(100):
        convolve(_CAL_I64, _CAL_I64)
    return time.perf_counter() - t0


def _scaled(seconds, cal_before, cal_after):
    return seconds * 2 * CAL_REF_S / (cal_before + cal_after)


def _child_env():
    """Children import exactla from SRC and cache its bytecode, as an
    installed package would, whatever the caller's environment says."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def setup_seconds(workload, workdir):
    """Median time from launching an interpreter to its first answer (s),
    unscaled: the calibration kernel is erratic right around a child launch,
    so the caller scales it by the run's median kernel time."""
    one = workdir / "one.txt"
    one.write_text("1 1\n2\n", encoding="utf-8")

    def launch():
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBES[workload], str(one)],
                              cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                              text=True) as proc:
            answer = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if proc.returncode != 0 or not answer.strip():
            raise RuntimeError(f"setup probe for {workload} failed")
        return elapsed

    launch()  # compiles bytecode and fills the file cache
    return statistics.median(launch() for _ in range(SETUP_LAUNCHES))


def import_ms():
    """Median cumulative import time of numpy and exactla, from -X importtime."""
    samples = {"numpy": [], "exactla": []}
    for i in range(IMPORT_LAUNCHES + 1):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import exactla"],
                              cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=60, check=True)
        if i == 0:
            continue  # warm launch
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in samples:
                samples[fields[2].strip()].append(int(fields[1]) / 1000)
    return {name: statistics.median(v) for name, v in samples.items()}


class Pass:
    """What run_pass measured: scaled per-query latencies and per-round query
    times (s), (query, answer, error) triples, the calibration times (s) and
    the unscaled query time (s)."""

    def __init__(self):
        self.latencies, self.round_secs, self.results, self.cals = [], [], [], []
        self.wall = 0.0


def run_pass(get_round, seconds, min_queries, min_rounds, tracer=None):
    """Whole rounds, one query at a time, until at least min_rounds rounds,
    `seconds` of unscaled query time and min_queries queries are done."""
    done = Pass()
    r = 0
    while r < min_rounds or done.wall < seconds or len(done.latencies) < min_queries:
        raw, cal = [], [calibrate()]
        for q in get_round(r):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    answer = q.call()
                else:
                    answer = tracer.run_query(len(done.results), q.call)
                error = None
            except Exception as exc:  # a query that raises is a failed query
                answer, error = None, exc
            raw.append(time.perf_counter() - t0)
            cal.append(calibrate())
            done.results.append((q, answer, error))
        scaled = [_scaled(t, c0, c1) for t, c0, c1 in zip(raw, cal, cal[1:])]
        done.latencies += scaled
        done.round_secs.append(sum(scaled))
        done.cals += cal
        done.wall += sum(raw)
        r += 1
    return done


def check_answers(results):
    """Oracle-check every answer.  Returns (failures, answer texts)."""
    failed, texts = 0, []
    for q, answer, error in results:
        ok = False
        if error is None:
            try:
                ok = q.check(answer)
            except Exception:  # an answer the oracle cannot even read is wrong
                traceback.print_exc()
        text = f"error {type(error).__name__}: {error}" if error else q.text(answer)
        texts.append(f"{q.name}\n{text}")
        if not ok:
            failed += 1
            print(f"FAILED {q.name}: {text}", file=sys.stderr)
    return failed, texts


def digest(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode() + b"\n")
    return h.hexdigest()


def per_layer(spans, counters, n_select, imports, overhead):
    values = {
        "rank.solvable_per_select":
            spans.get("rank.solvable", (0, 0.0))[0] / n_select if n_select else 0.0,
        "setup.import_numpy_ms": imports["numpy"],
        "setup.import_exactla_ms": imports["exactla"],
        "trace.overhead_ratio": overhead,
    }
    for metric in PER_LAYER:
        if metric in values:
            continue
        base, stat = metric.rsplit(".", 1)
        if base in counters:
            values[metric] = counters[base]
        elif stat == "calls":
            values[metric] = spans.get(base, (0, 0.0))[0]
        else:
            values[metric] = sum(spans.get(s, (0, 0.0))[1] for s in SPAN_GROUPS.get(base, (base,)))
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "exactla" / "__init__.py").is_file():
        print(f"error: no exactla sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import exactla
    if Path(exactla.__file__).resolve().parent != SRC / "exactla":
        print(f"error: exactla imported from {exactla.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        return _measure(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workloads, workdir):
    rounds = []

    def get_round(r):
        while len(rounds) <= r:
            rounds.append(workloads.make_round(args.workload, args.seed, len(rounds), workdir))
        return rounds[r]

    setup = None if args.trace else setup_seconds(args.workload, workdir)
    get_round(0)[0].call()  # warm-up, untimed
    # latency percentiles, and so MIN_QUERIES, belong to the untraced mode only
    timed = run_pass(get_round, args.seconds, 0 if args.trace else MIN_QUERIES, TRACE_ROUNDS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, texts = check_answers(timed.results)
    attempted = len(timed.results)
    n, elapsed = len(timed.latencies), sum(timed.round_secs)
    print(f"{args.workload} seed {args.seed}: {n} queries in {len(timed.round_secs)} rounds "
          f"of {len(rounds[0])}, {elapsed:.3f} s of scaled query time, closed loop, 1 client")
    print("scaled round seconds: " + " ".join(f"{s:.3f}" for s in timed.round_secs))
    cals = timed.cals
    print(f"calibration kernel: median {statistics.median(cals) * 1000:.3f} ms, "
          f"range {min(cals) * 1000:.3f}-{max(cals) * 1000:.3f} ms over {len(cals)} runs; "
          f"query times are scaled to {CAL_REF_S * 1000:g} ms")
    print(f"unscaled: {timed.wall:.3f} s of query time, {n / timed.wall} queries per s")
    print(f"answers digest {digest(texts)} over {n} queries")

    if args.trace:
        import tracer as tracing
        # the same rounds again, untraced and then traced, back to back; both
        # must reproduce the checked answers of the timed pass
        reference = run_pass(get_round, 0, 0, TRACE_ROUNDS)
        with tracing.Tracer() as tr:
            traced = run_pass(get_round, 0, 0, TRACE_ROUNDS, tracer=tr)
        for rerun in (reference, traced):
            rerun_texts = [f"{q.name}\n{q.text(a)}" if e is None else ""
                           for q, a, e in rerun.results]
            mismatched = sum(t != u for t, u in zip(rerun_texts, texts))
            failed += mismatched
            attempted += len(rerun.results)
        print(f"traced answers digest {digest(rerun_texts)} over {len(rerun_texts)} queries; "
              f"{mismatched} differ from the timed pass")
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tr.save(out / f"spans-{args.workload}-seed{args.seed}.npz")
        spans, counters = tr.summary()
        n_select = sum(q.kind in workloads.SELECT_KINDS for q, _, _ in traced.results)
        overhead = sum(traced.round_secs) / sum(reference.round_secs)
        values = per_layer(spans, counters, n_select, import_ms(), overhead)
        metrics = {name: (values[name], unit) for name, (unit, _) in PER_LAYER.items()}
    else:
        values = {
            "queries_per_s": n / elapsed,
            "latency_p50_ms": statistics.median(timed.latencies) * 1000,
            "latency_p90_ms": statistics.quantiles(timed.latencies, n=10)[8] * 1000,
            "setup_s": setup * CAL_REF_S / statistics.median(cals),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        print(f"latency percentiles over {n} samples; setup_s unscaled = {setup} s")

    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(f"fail_ratio = {failed}/{attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
