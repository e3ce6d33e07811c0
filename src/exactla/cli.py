"""Command-line front end: deterministic text/JSON reports over files.

File formats
------------
matrix      line 1: `m n`; then m lines of n whitespace-separated entries
vector      line 1: `n`; then n entries (any whitespace layout)
set family  line 1: `n m`; then m lines of n bits
bicliques   line 1: `n k`; then k lines `a b ... | c d ...` (1-based vertices)
circuit     one s-expression, e.g. `(add (div (var x) (var y)) (const 1))`

Entry literals depend on the field: `Q` takes integers, fractions and
decimals without exponents (`-3`, `1/2`, `0.25`), `GF<p>` (p a prime below
3.3e24) takes integers, and `Q(X)` / `GF<p>(X)` take
comma-separated constant-first coefficient lists with an optional
`;`-separated denominator (`1,0,-1` is 1-X^2; `1;0,1` is 1/X).  Exit
status: 0 on success, 1 on a checked failure (unsolvable system, violated
precondition, ...) or a closed stdout, 2 on malformed input.
"""

import argparse
import functools
import json
import os
import sys

from . import circuit as cc
from . import combinatorics as cb
from .charpoly import charpoly, det
from .errors import ExactLAError, InvalidInput, MalformedInput, SizeExceeded
from .field import GF2, GF3, QQ, PrimeField
from .matrix import Matrix
from .rank import (count_nonzero, greedy_basis, iota, kernel_basis,
                   max_nonsingular_minor, mulmuley_rank, solve)
from .ratfunc import RationalFunctionField
from .selftest import CRITERIA, run_all


def parse_field(selector):
    """Field from a selector string: Q, GF<p>, Q(X), GF<p>(X)."""
    text = selector.strip()
    over_x = text.endswith("(X)")
    if over_x:
        text = text[:-3]
    if text == "Q":
        base = QQ
    elif text.startswith("GF"):
        try:
            p = int(text[2:], 10)
        except ValueError:
            raise InvalidInput(f"bad field selector {selector!r}") from None
        base = GF2 if p == 2 else GF3 if p == 3 else PrimeField(p)
    else:
        raise InvalidInput(f"bad field selector {selector!r}")
    return RationalFunctionField(base) if over_x else base


def parse_entry(field, token):
    """One matrix/vector entry; tokens never contain whitespace."""
    if isinstance(field, RationalFunctionField):
        parts = token.split(";")
        if len(parts) > 2 or not all(c for part in parts for c in part.split(",")):
            raise InvalidInput(f"bad rational-function entry {token!r}")
        return field.parse(" / ".join(parts))
    return field.parse(token)


def format_entry(field, a):
    try:
        text = field.format(a)
    except ValueError as exc:  # str(int) refuses past sys.get_int_max_str_digits()
        raise SizeExceeded(f"an answer entry has more than "
                           f"{sys.get_int_max_str_digits()} digits") from exc
    if isinstance(field, RationalFunctionField):
        return text.replace(" / ", ";").replace(" ", ",")
    return text


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"cannot read {path}: not UTF-8 text "
                             f"(byte {exc.start})") from exc


def _header_ints(line, count, lineno=1):
    parts = line.split()
    if len(parts) == count and all(p.lstrip("-").isdigit() for p in parts):
        try:
            return [int(p) for p in parts]
        except ValueError:  # "--1", "²", or past int's digit limit
            pass
    raise MalformedInput(f"expected {count} integers in the header", line=lineno)


def parse_matrix(text, field):
    lines = text.splitlines()
    if not lines or not lines[0].split():
        raise MalformedInput("missing matrix header", line=1)
    m, n = _header_ints(lines[0], 2)
    if m < 1 or n < 1:
        raise MalformedInput("matrix dimensions must be positive", line=1)
    rows = []
    body = [ln for ln in lines[1:] if ln.split()]
    if len(body) != m:
        raise MalformedInput(f"expected {m} rows, found {len(body)}",
                             line=len(lines))
    for i, line in enumerate(body):
        tokens = line.split()
        if len(tokens) != n:
            raise MalformedInput(f"expected {n} entries, found {len(tokens)}",
                                 line=i + 2, column=len(tokens) + 1)
        row = []
        for j, tok in enumerate(tokens):
            try:
                row.append(parse_entry(field, tok))
            except InvalidInput as exc:
                raise MalformedInput(str(exc), line=i + 2, column=j + 1) from exc
        rows.append(row)
    return Matrix(field, rows)


def format_matrix(field, A):
    lines = [f"{A.m} {A.n}"]
    for row in A.rows:
        lines.append(" ".join(format_entry(field, x) for x in row))
    return "\n".join(lines)


def parse_vector(text, field):
    lines = text.splitlines()
    if not lines or not lines[0].split():
        raise MalformedInput("missing vector header", line=1)
    (n,) = _header_ints(lines[0], 1)
    tokens = " ".join(lines[1:]).split()
    if len(tokens) != n:
        raise MalformedInput(f"expected {n} entries, found {len(tokens)}",
                             line=len(lines))
    out = []
    for j, tok in enumerate(tokens):
        try:
            out.append(parse_entry(field, tok))
        except InvalidInput as exc:
            raise MalformedInput(str(exc), column=j + 1) from exc
    return out


def parse_set_family(text):
    lines = [ln for ln in text.splitlines() if ln.split()]
    if not lines:
        raise MalformedInput("missing set-family header", line=1)
    n, m = _header_ints(lines[0], 2)
    if len(lines) - 1 != m:
        raise MalformedInput(f"expected {m} bit rows, found {len(lines) - 1}",
                             line=len(lines))
    rows = []
    for i, line in enumerate(lines[1:]):
        bits = line.split()
        if len(bits) == 1 and len(bits[0]) == n:
            bits = list(bits[0])
        if len(bits) != n or any(b not in ("0", "1") for b in bits):
            raise MalformedInput(f"expected {n} bits", line=i + 2)
        rows.append([int(b) for b in bits])
    return cb.SetFamily.from_bit_rows(n, rows)


def parse_bicliques(text):
    lines = [ln for ln in text.splitlines() if ln.split()]
    if not lines:
        raise MalformedInput("missing biclique header", line=1)
    n, k = _header_ints(lines[0], 2)
    if len(lines) - 1 != k:
        raise MalformedInput(f"expected {k} biclique lines, found {len(lines) - 1}",
                             line=len(lines))
    bicliques = []
    for i, line in enumerate(lines[1:]):
        if line.count("|") != 1:
            raise MalformedInput("biclique line needs one '|'", line=i + 2)
        left, right = line.split("|")
        try:
            bicliques.append(({int(t) for t in left.split()},
                              {int(t) for t in right.split()}))
        except ValueError:
            raise MalformedInput("biclique vertices must be integers",
                                 line=i + 2) from None
    return n, bicliques


def _emit(args, report, text_lines):
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for line in text_lines:
            print(line)


def _str_vals(report):
    out = {}
    for k, v in report.items():
        if isinstance(v, bool):
            out[k] = v
        elif isinstance(v, (int, str)):
            out[k] = str(v)
        elif isinstance(v, (list, tuple)):
            out[k] = [str(x) for x in v]
        else:
            out[k] = str(v)
    return out


# --- subcommand bodies ------------------------------------------------------

def _cmd_det(args):
    field = parse_field(args.field)
    value = det(parse_matrix(_read(args.matrix), field))
    _emit(args, {"det": format_entry(field, value)}, [format_entry(field, value)])
    return 0


def _cmd_charpoly(args):
    field = parse_field(args.field)
    ch = charpoly(parse_matrix(_read(args.matrix), field))
    coeffs = [format_entry(field, c) for c in ch.coeffs]
    _emit(args, {"leading_first": coeffs}, [" ".join(coeffs)])
    return 0


def _cmd_rank(args):
    field = parse_field(args.field)
    r = mulmuley_rank(parse_matrix(_read(args.matrix), field)).rank
    _emit(args, {"rank": str(r)}, [str(r)])
    return 0


def _cmd_solve(args):
    field = parse_field(args.field)
    A = parse_matrix(_read(args.matrix), field)
    b = parse_vector(_read(args.rhs), field)
    x = solve(A, b)  # raises Unsolvable -> exit 1
    out = [format_entry(field, v) for v in x]
    _emit(args, {"solution": out}, [" ".join(out)])
    return 0


def _cmd_kernel(args):
    field = parse_field(args.field)
    A = parse_matrix(_read(args.matrix), field)
    cols = kernel_basis(A)
    lines = [f"{A.n} {len(cols)}"]
    for i in range(A.n):
        lines.append(" ".join(format_entry(field, w[i]) for w in cols))
    if not cols:
        lines = lines[:1]
    _emit(args, {"n": str(A.n), "columns": [[format_entry(field, x) for x in w]
                                            for w in cols]}, lines)
    return 0


def _cmd_basis(args):
    field = parse_field(args.field)
    A = parse_matrix(_read(args.matrix), field)
    sel = greedy_basis(A)
    idx = [str(i) for i in sel.indices()]
    lines = ["selected: " + " ".join(idx),
             format_matrix(field, sel.basis),
             format_matrix(field, sel.coeffs)]
    _emit(args, {"selected": idx,
                 "basis": format_matrix(field, sel.basis).splitlines(),
                 "coeffs": format_matrix(field, sel.coeffs).splitlines()}, lines)
    return 0


def _cmd_minor(args):
    field = parse_field(args.field)
    sel = max_nonsingular_minor(parse_matrix(_read(args.matrix), field))
    lines = ["U: " + " ".join(str(i) for i in sel.U),
             "V: " + " ".join(str(j) for j in sel.V)]
    _emit(args, {"U": [str(i) for i in sel.U],
                 "V": [str(j) for j in sel.V]}, lines)
    return 0


def _cmd_ct(args):
    field = parse_field(args.field)
    v = parse_vector(_read(args.vector), field)
    k = args.k if args.k is not None else len(v)
    if not 0 <= k <= len(v):
        raise InvalidInput(f"k = {k} outside 0..{len(v)}")
    count = iota(field, count_nonzero(field, v, k)) - 1
    _emit(args, {"count": str(count)}, [str(count)])
    return 0


def _cmd_circuit_eval(args):
    field = parse_field(args.field)
    root = cc.parse_sexpr(_read(args.circuit))
    assignment = {}
    for item in args.assign:
        if "=" not in item:
            raise MalformedInput(f"assignment {item!r} needs name=value")
        name, _, literal = item.partition("=")
        try:
            assignment[name] = parse_entry(field, literal)
        except InvalidInput as exc:
            raise MalformedInput(str(exc)) from exc
    value = cc.evaluate(root, field, assignment)
    _emit(args, {"value": format_entry(field, value)},
          [format_entry(field, value)])
    return 0


def _cmd_oddtown(args):
    report = cb.oddtown_check(parse_set_family(_read(args.family)))
    _emit(args, _str_vals(report),
          [f"m = {report['m']}, n = {report['n']}, "
           f"gf2 rank = {report['gf2_rank']}, bound holds"])
    return 0


def _cmd_fisher(args):
    report = cb.fisher_check(parse_set_family(_read(args.family)), args.lam)
    _emit(args, _str_vals(report),
          [f"m = {report['m']}, n = {report['n']}, "
           f"gram det = {report['gram_det']}, bound holds"])
    return 0


def _cmd_graham_pollak(args):
    n, bicliques = parse_bicliques(_read(args.partition))
    report = cb.graham_pollak_check(n, bicliques)
    _emit(args, _str_vals(report),
          [f"n = {report['n']}, bicliques = {report['count']}, bound holds"])
    return 0


def _cmd_rcw(args):
    try:
        L = sorted({int(t) for t in args.intersections.split(",")})
    except ValueError:
        raise MalformedInput(f"bad intersection list {args.intersections!r}") from None
    report = cb.rcw_verify(parse_set_family(_read(args.family)), L)
    _emit(args, _str_vals(report),
          [f"m = {report['m']}, n = {report['n']}, s = {report['s']}, "
           f"bound = {report['bound']}, bound holds"])
    return 0


def _cmd_or_poly(args):
    spec = cb.or_poly_mod_pe(args.k, args.p, args.e)
    coeffs = [str(c) for c in spec.coeffs]
    window = [str(spec.eval_count(j)) for j in range(spec.modulus)]
    _emit(args, {"p": str(spec.p), "e": str(spec.e),
                 "coeffs": coeffs, "window": window},
          [f"mod {spec.p}^{spec.e}: coefficients " + " ".join(coeffs),
           "values on 0.." + str(spec.modulus - 1) + ": " + " ".join(window)])
    return 0


def _cmd_ramsey(args):
    built = cb.grolmusz_graph(args.k, args.cap)
    check = cb.ramsey_check(built["graph"], built["rank2"], built["rank3"])
    lines = [f"k = {built['k']}, vertices = {built['n']}, edge rule: entry {built['edge_rule']}",
             f"rank2 = {built['rank2']}, rank3 = {built['rank3']}",
             f"clique = {check['clique']} <= {check['clique_bound']}",
             f"independence = {check['independence']} <= {check['independence_bound']}"]
    adjacency = ["".join(str(b) for b in row) for row in built["graph"].rows]
    lines.extend(adjacency)
    _emit(args, {"k": str(built["k"]), "n": str(built["n"]),
                 "edge_rule": built["edge_rule"],
                 "rank2": str(built["rank2"]), "rank3": str(built["rank3"]),
                 **_str_vals(check), "adjacency": adjacency}, lines)
    return 0


def _cmd_selftest(args):
    only = None
    if args.only:
        try:
            only = {int(t) for t in args.only.split(",")}
        except ValueError:
            raise InvalidInput(f"bad criterion list {args.only!r}") from None
        unknown = only - {num for num, *_ in CRITERIA}
        if unknown:
            raise InvalidInput(f"unknown criterion {min(unknown)} (1 to {len(CRITERIA)})")
    ok = run_all(seed=args.seed, only=only)
    return 0 if ok else 1


# --- driver -----------------------------------------------------------------

@functools.cache
def build_parser():
    """The argparse parser of every command, built once per process and
    shared by every run() call: parse_args makes a new Namespace each time,
    and --assign's append action copies its default before appending."""
    top = argparse.ArgumentParser(
        prog="exactla",
        description="Exact linear algebra over pluggable computable fields.")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--field", default="Q",
                       help="Q, GF<p>, Q(X), or GF<p>(X) (default Q)")
        p.add_argument("--json", action="store_true",
                       help="JSON report (numbers as strings)")
        p.add_argument("--seed", type=int, default=7,
                       help="seed for randomized suites")
        p.add_argument("--threads", type=int, default=1,
                       help="worker cap; never changes any output")
        return p

    p = command("det", _cmd_det, help="determinant of a square matrix")
    p.add_argument("matrix")
    p = command("charpoly", _cmd_charpoly,
                help="characteristic polynomial, leading-first")
    p.add_argument("matrix")
    p = command("rank", _cmd_rank, help="rank by the division-free algorithm")
    p.add_argument("matrix")
    p = command("solve", _cmd_solve, help="one exact solution of Ax = b")
    p.add_argument("matrix")
    p.add_argument("rhs")
    p = command("kernel", _cmd_kernel, help="kernel basis columns")
    p.add_argument("matrix")
    p = command("basis", _cmd_basis, help="greedy image basis and coefficients")
    p.add_argument("matrix")
    p = command("minor", _cmd_minor, help="row/column indices of a maximal nonsingular minor")
    p.add_argument("matrix")
    p = command("ct", _cmd_ct, help="count nonzero entries among the first k")
    p.add_argument("vector")
    p.add_argument("--k", type=int, default=None,
                   help="prefix length (default: whole vector)")
    p = command("circuit-eval", _cmd_circuit_eval,
                help="evaluate a circuit file under an assignment")
    p.add_argument("circuit")
    p.add_argument("--assign", action="append", default=[],
                   metavar="NAME=VALUE")
    p = command("oddtown", _cmd_oddtown, help="odd-size/even-intersection bound")
    p.add_argument("family")
    p = command("fisher", _cmd_fisher, help="constant-intersection bound")
    p.add_argument("family")
    p.add_argument("--lam", type=int, required=True,
                   help="common pairwise intersection size")
    p = command("graham-pollak", _cmd_graham_pollak,
                help="biclique partition lower bound")
    p.add_argument("partition")
    p = command("rcw", _cmd_rcw, help="L-intersecting family bound")
    p.add_argument("family")
    p.add_argument("--intersections", required=True, metavar="L1,L2,...",
                   help="allowed pairwise intersection sizes")
    p = command("or-poly", _cmd_or_poly,
                help="symmetric OR-polynomial coefficients mod p^e")
    p.add_argument("--k", type=int, required=True, help="number of variables")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p = command("ramsey", _cmd_ramsey,
                help="mod-6 Ramsey graph with verified rank bounds")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cap", type=int, default=None,
                   help="vertex cap for larger k")
    p = command("selftest", _cmd_selftest, help="run the acceptance suites")
    p.add_argument("--only", default=None, metavar="N1,N2,...",
                   help="criterion numbers to run")
    return top


def run(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"--threads must be positive, got {args.threads}")
    try:
        return args.fn(args)
    except (MalformedInput, InvalidInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExactLAError as exc:
        print(f"failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (exactla ... | head): exit 1 quietly, and send the
        # interpreter's last flush to devnull instead of the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
