"""Seeded inputs for the three benchmark workloads.

A workload is a fixed list of cells (query kind, field, shape).  Round r of
a run holds one query per cell, so any whole number of rounds has the same
mix and the latency percentiles do not drift with the run length.  The seed
only chooses entries, through the benchmark's own random.Random, never
exactla.rng, so a change to the package cannot change its inputs.  Inputs
are built (and, for the CLI workload, written to files) before the round is
timed.
"""

import contextlib
import io
import random

import exactla as ex
import exactla.cli  # noqa: F401  (binds ex.cli)

import checks

# Latency is close to a step function of the cell, so with n cells per round
# the p-quantile of a run falls near cell position p*n of the sorted cells.
# Every workload has n = 5 (mod 10) cells, which puts the median and the 90th
# percentile in the middle of one cell's samples, never on the boundary
# between two cells, where they would jump from run to run.

# (kind, field, (m, n)) per round.  rank/solve run the fast rank kernel,
# charpoly/det the base-field Berkowitz.  25 cells: the median falls among
# ten cells of 50-65 ms and the 90th percentile among the five of 250-330 ms.
DENSE_CELLS = (
    [("rank", "GF1000003", s) for s in ((8, 8), (12, 12), (16, 16), (8, 12), (15, 16))]
    + [("solve", "GF1000003", s) for s in ((8, 8), (12, 12), (16, 16), (12, 8), (10, 14))]
    + [("rank", "Q", s) for s in ((6, 6), (8, 8), (10, 10), (7, 9))]
    + [("solve", "Q", s) for s in ((6, 6), (8, 8), (10, 10), (9, 7))]
    + [("charpoly", "GF1000003", (32, 32))]
    + [("det", "GF1000003", (n, n)) for n in (20, 32)]
    + [("charpoly", "Q", (n, n)) for n in (12, 20)]
    + [("det", "Q", (n, n)) for n in (14, 20)]
)

# (command, field, (m, n), rank of the generated matrix or None for uniform
# entries).  Deficient ranks give basis/kernel/minor something to select.
# The selections over Q, the slowest cells, get a second shape for basis and
# kernel, so the 90th percentile falls among them.  25 cells.
SMALL_CELLS = [
    (cmd, f, shape, r)
    for f in ("Q", "GF2", "GF3", "GF1000003")
    for cmd, shape, r in (("rank", (7, 7), 5), ("solve", (6, 7), None),
                          ("basis", (5, 7), 4), ("kernel", (6, 7), 4),
                          ("minor", (7, 6), 4))
] + [("basis", "Q", (6, 7), 4), ("kernel", "Q", (7, 7), 4),
     ("oddtown", None, None, None), ("fisher", None, None, None),
     ("ramsey", None, None, None)]

# rank/solve take polynomial entries of degree 1; det divides each diagonal
# entry by some X + c, so gcds do real work.  45 cells.
FX_CELLS = [
    (kind, f, shape)
    for f in ("Q(X)", "GF7(X)", "GF1000003(X)")
    for kind, shape in (
        [("rank", s) for s in ((1, 2), (2, 1), (1, 3), (2, 2))]
        + [("solve", s) for s in ((1, 2), (2, 1), (1, 3), (2, 2))]
        + [("charpoly", (n, n)) for n in (4, 5, 6)]
        + [("det", (n, n)) for n in (3, 4, 5, 6)])
]

SELECT_KINDS = ("basis", "kernel", "minor")


class Query:
    """One query.  `inputs` describes what it was given; `call` is the timed
    part; `text` turns its answer into the canonical string hashed into the
    run's digest; `check` is the oracle, run after the timed region."""

    __slots__ = ("name", "kind", "inputs", "call", "text", "check")

    def __init__(self, name, kind, inputs, call, text, check):
        self.name = name
        self.kind = kind
        self.inputs = inputs
        self.call = call
        self.text = text
        self.check = check


def field_of(label):
    """exactla field for a selector such as Q, GF7 or GF1000003(X)."""
    return ex.cli.parse_field(label)


def _residue_range(label):
    return (-3, 3) if label == "Q" else (0, int(label[2:]) - 1)


def _int_matrix(rng, m, n, lo, hi):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def _int_matvec(rows, x, mod):
    out = [sum(a * v for a, v in zip(r, x)) for r in rows]
    return [v % mod for v in out] if mod else out


# ---------------------------------------------------------------------------
# library queries (dense_ladder, generic_fx)

def _library_query(kind, label, A, b=None):
    F = A.field
    name = f"{kind} {label} {A.m}x{A.n}"
    inputs = repr(A) if b is None else f"{A!r} b={b!r}"
    if kind == "rank":
        return Query(name, kind, inputs, lambda: ex.rank(A), str,
                     lambda ans: checks.rank(A, ans))
    if kind == "solve":
        return Query(name, kind, inputs, lambda: ex.solve(A, b),
                     lambda x: " ; ".join(F.format(v) for v in x),
                     lambda x: checks.solve(A, b, x))
    if kind == "charpoly":
        return Query(name, kind, inputs, lambda: ex.charpoly(A),
                     lambda ch: " ; ".join(F.format(c) for c in ch.coeffs),
                     lambda ch: checks.charpoly(A, ch.coeffs))
    return Query(name, kind, inputs, lambda: ex.det(A), F.format,
                 lambda d: checks.det(A, d))


def dense_ladder(rng):
    out = []
    for kind, label, (m, n) in DENSE_CELLS:
        F = field_of(label)
        lo, hi = _residue_range(label)
        rows = _int_matrix(rng, m, n, lo, hi)
        A = ex.Matrix.from_ints(F, rows)
        b = None
        if kind == "solve":
            x0 = [rng.randint(lo, hi) for _ in range(n)]
            mod = F.p if label.startswith("GF") else None
            b = [F.from_int(v) for v in _int_matvec(rows, x0, mod)]
        out.append(_library_query(kind, label, A, b))
    return out


def _int_poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, c in enumerate(g):
            out[i + j] += a * c
    return out


def _linear(rng):
    """Coefficients of c0 + c1 X with c1 != 0: entries of one degree keep the
    cost of a cell from depending much on the seed."""
    return [rng.randint(-2, 2), rng.choice((-2, -1, 1, 2))]


def generic_fx(rng):
    out = []
    for kind, label, (m, n) in FX_CELLS:
        fx = field_of(label)
        base = fx.base

        def poly(coeffs):
            return ex.Polynomial(base, [base.from_int(c) for c in coeffs])

        entries = [[_linear(rng) for _ in range(n)] for _ in range(m)]
        rows = [[fx.from_poly(poly(e)) for e in row] for row in entries]
        b = None
        if kind == "det":
            for i in range(m):
                den = poly([rng.randint(1, 3), 1])
                rows[i][i] = fx.make(poly(entries[i][i]), den)
        elif kind == "solve":
            x0 = [_linear(rng) for _ in range(n)]
            b = []
            for row in entries:
                acc = [0, 0, 0]
                for e, x in zip(row, x0):
                    acc = [u + v for u, v in zip(acc, _int_poly_mul(e, x))]
                b.append(fx.from_poly(poly(acc)))
        out.append(_library_query(kind, label, ex.Matrix(fx, rows), b))
    return out


# ---------------------------------------------------------------------------
# CLI queries (small_select)

def run_cli(argv):
    """exactla.cli.run in-process with stdout captured: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = ex.cli.run(argv)
    return rc, buf.getvalue()


def _cli_text(answer):
    rc, out = answer
    return f"exit {rc}\n{out}"


def _matrix_lines(rows):
    return [f"{len(rows)} {len(rows[0])}"] + [" ".join(map(str, r)) for r in rows]


def _ranked_matrix(rng, m, n, r, lo, hi, mod):
    """m x n product of random m x r and r x n factors, never the zero matrix."""
    while True:
        L = _int_matrix(rng, m, r, lo, hi)
        R = _int_matrix(rng, r, n, lo, hi)
        rows = [_int_matvec([list(c) for c in zip(*R)], row, mod) for row in L]
        if any(any(row) for row in rows):
            return rows


def _oddtown_family(rng, n):
    """Random subsets of [n] of odd size with pairwise even intersections."""
    family = []
    for _ in range(64):
        S = frozenset(e for e in range(1, n + 1) if rng.random() < 0.5)
        if len(S) % 2 and S not in family and all(len(S & T) % 2 == 0 for T in family):
            family.append(S)
    return family


FANO = ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6))


def _bit_lines(n, family):
    return [f"{n} {len(family)}"] + ["".join("1" if e in S else "0"
                                             for e in range(1, n + 1)) for S in family]


def small_select(rng, workdir, tag):
    """Queries of one round; their input files go to workdir, named by tag."""
    out = []
    for i, (cmd, label, shape, r) in enumerate(SMALL_CELLS):
        files = []  # text of each input file, in argv order
        if cmd == "oddtown":
            family = _oddtown_family(rng, 7)
            files.append(_bit_lines(7, family))
            opts = [cmd]
            check = lambda ans, family=family: checks.oddtown(7, family, ans)
        elif cmd == "fisher":
            perm = list(range(1, 8))
            rng.shuffle(perm)
            family = [frozenset(perm[e - 1] for e in line) for line in FANO]
            rng.shuffle(family)
            files.append(_bit_lines(7, family))
            opts = [cmd, "--lam", "1"]
            check = lambda ans, family=family: checks.fisher(7, family, 1, ans)
        elif cmd == "ramsey":
            opts = [cmd, "--k", "3"]
            check = lambda ans: checks.ramsey(3, ans)
        else:
            F = field_of(label)
            mod = None if label == "Q" else F.p
            lo, hi = (-1, 1) if label == "Q" else (0, mod - 1)
            m, n = shape
            if r is None:
                lo, hi = _residue_range(label)
                rows = _int_matrix(rng, m, n, lo, hi)
            else:
                rows = _ranked_matrix(rng, m, n, r, lo, hi, mod)
            files.append(_matrix_lines(rows))
            opts = [cmd, "--field", label]
            A = ex.Matrix.from_ints(F, rows)
            b = None
            if cmd == "solve":
                x0 = [rng.randint(lo, hi) for _ in range(n)]
                b = _int_matvec(rows, x0, mod)
                files.append([str(m), " ".join(map(str, b))])
                b = [F.from_int(v) for v in b]
            check = lambda ans, cmd=cmd, A=A, b=b: checks.cli_matrix(cmd, A, b, ans)
        texts = ["\n".join(lines) + "\n" for lines in files]
        paths = [str(workdir / f"{tag}-{i}-{k}.txt") for k in range(len(texts))]
        for path, text in zip(paths, texts):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        name = " ".join([cmd] + ([label, f"{shape[0]}x{shape[1]}"] if label else []))
        out.append(Query(name, cmd, " ".join(opts) + "\n" + "".join(texts),
                         lambda argv=opts + paths: run_cli(argv), _cli_text, check))
    return out


def make_round(workload, seed, r, workdir):
    """The queries of round r: the same (workload, seed, r) gives the same
    inputs."""
    rng = random.Random(f"{workload}/{seed}/{r}")
    if workload == "dense_ladder":
        return dense_ladder(rng)
    if workload == "generic_fx":
        return generic_fx(rng)
    return small_select(rng, workdir, f"s{seed}-r{r}")
