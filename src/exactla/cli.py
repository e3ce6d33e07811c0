"""Command-line front end: deterministic text/JSON reports over files.

File formats
------------
matrix      line 1: `m n`; then m lines of n whitespace-separated entries
vector      line 1: `n`; then n entries (any whitespace layout)
set family  header `n m`; then m lines of n bits
bicliques   header `n k`; then k lines `a b ... | c d ...` (1-based vertices)
circuit     one s-expression, e.g. `(add (div (var x) (var y)) (const 1))`

Blank lines are skipped everywhere except before a matrix or vector header,
which must be on line 1; set-family and biclique files may start with blank
lines.  An error names the physical line of the file, counting blank lines,
and for a matrix or vector entry its column, the entry's place in its line.

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


def _text(show, a):
    """show(a), or SizeExceeded where str(int) refuses past its digit limit."""
    try:
        return show(a)
    except ValueError as exc:
        raise SizeExceeded(f"an answer entry has more than "
                           f"{sys.get_int_max_str_digits()} digits") from exc


def format_entry(field, a):
    text = _text(field.format, a)
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


def _numbered(text, what, count, header_on_line_1=True):
    """The `count` header integers of a file, its nonblank lines after the
    header as (line number, line), and the number of its last line.  Line
    numbers are physical and 1-based.  The header is the first nonblank
    line, which with header_on_line_1 must be line 1."""
    lines = text.splitlines()
    body = [(i, line) for i, line in enumerate(lines, 1) if line.split()]
    if not body or header_on_line_1 and body[0][0] != 1:
        raise MalformedInput(f"missing {what} header", line=1)
    (at, header), *body = body
    parts = header.split()
    if len(parts) == count and all(p.lstrip("-").isdigit() for p in parts):
        try:
            sizes = [int(p) for p in parts]
        except ValueError:  # "--1", "²", or past int's digit limit
            pass
        else:
            if min(sizes) < 0:
                raise MalformedInput(f"{what} header sizes must be non-negative", line=at)
            return sizes, body, len(lines)
    raise MalformedInput(f"expected {count} integers in the header", line=at)


def _entry(field, token, line=None, column=None):
    try:
        return parse_entry(field, token)
    except InvalidInput as exc:
        raise MalformedInput(str(exc), line=line, column=column) from exc


def parse_matrix(text, field):
    (m, n), body, last = _numbered(text, "matrix", 2)
    if m < 1 or n < 1:
        raise MalformedInput("matrix dimensions must be positive", line=1)
    if len(body) != m:
        raise MalformedInput(f"expected {m} rows, found {len(body)}", line=last)
    rows = []
    for at, line in body:
        tokens = line.split()
        if len(tokens) != n:
            raise MalformedInput(f"expected {n} entries, found {len(tokens)}",
                                 line=at, column=len(tokens) + 1)
        rows.append([_entry(field, tok, at, j) for j, tok in enumerate(tokens, 1)])
    return Matrix(field, rows)


def format_matrix(field, A):
    lines = [f"{A.m} {A.n}"]
    for row in A.rows:
        lines.append(" ".join(format_entry(field, x) for x in row))
    return "\n".join(lines)


def parse_vector(text, field):
    (n,), body, last = _numbered(text, "vector", 1)
    cells = [(at, j, tok) for at, line in body for j, tok in enumerate(line.split(), 1)]
    if len(cells) != n:
        raise MalformedInput(f"expected {n} entries, found {len(cells)}", line=last)
    return [_entry(field, tok, at, j) for at, j, tok in cells]


def parse_set_family(text):
    (n, m), body, last = _numbered(text, "set-family", 2, header_on_line_1=False)
    if len(body) != m:
        raise MalformedInput(f"expected {m} bit rows, found {len(body)}", line=last)
    rows = []
    for at, line in body:
        bits = line.split()
        if len(bits) == 1 and len(bits[0]) == n:
            bits = list(bits[0])
        if len(bits) != n or any(b not in ("0", "1") for b in bits):
            raise MalformedInput(f"expected {n} bits", line=at)
        rows.append([int(b) for b in bits])
    return cb.SetFamily.from_bit_rows(n, rows)


def parse_bicliques(text):
    (n, k), body, last = _numbered(text, "biclique", 2, header_on_line_1=False)
    if len(body) != k:
        raise MalformedInput(f"expected {k} biclique lines, found {len(body)}",
                             line=last)
    bicliques = []
    for at, line in body:
        if line.count("|") != 1:
            raise MalformedInput("biclique line needs one '|'", line=at)
        left, right = line.split("|")
        try:
            bicliques.append(({int(t) for t in left.split()},
                              {int(t) for t in right.split()}))
        except ValueError:
            raise MalformedInput("biclique vertices must be integers",
                                 line=at) from None
    return n, bicliques


def _int_set(text, what):
    """The integers of a comma-separated option value."""
    try:
        return {int(t) for t in text.split(",")}
    except ValueError:
        raise InvalidInput(f"bad {what} list {text!r}") from None


def _str_vals(report):
    return {k: v if isinstance(v, bool) else _text(str, v) for k, v in report.items()}


# --- subcommand bodies ------------------------------------------------------
# Each takes the parsed inputs that run() read for it and returns
# (JSON report, text lines), every entry formatted once.

def _cmd_det(args, field, A):
    value = format_entry(field, det(A))
    return {"det": value}, [value]


def _cmd_charpoly(args, field, A):
    coeffs = [format_entry(field, c) for c in charpoly(A).coeffs]
    return {"leading_first": coeffs}, [" ".join(coeffs)]


def _cmd_rank(args, field, A):
    r = str(mulmuley_rank(A).rank)
    return {"rank": r}, [r]


def _cmd_solve(args, field, A, b):
    x = [format_entry(field, v) for v in solve(A, b)]  # raises Unsolvable -> exit 1
    return {"solution": x}, [" ".join(x)]


def _cmd_kernel(args, field, A):
    cols = [[format_entry(field, x) for x in w] for w in kernel_basis(A)]
    return ({"n": str(A.n), "columns": cols},
            [f"{A.n} {len(cols)}"] + [" ".join(row) for row in zip(*cols)])


def _cmd_basis(args, field, A):
    sel = greedy_basis(A)
    idx = [str(i) for i in sel.indices()]
    basis, coeffs = format_matrix(field, sel.basis), format_matrix(field, sel.coeffs)
    return ({"selected": idx, "basis": basis.splitlines(), "coeffs": coeffs.splitlines()},
            ["selected: " + " ".join(idx), basis, coeffs])


def _cmd_minor(args, field, A):
    sel = max_nonsingular_minor(A)
    U, V = [str(i) for i in sel.U], [str(j) for j in sel.V]
    return {"U": U, "V": V}, ["U: " + " ".join(U), "V: " + " ".join(V)]


def _cmd_ct(args, field, v):
    k = args.k if args.k is not None else len(v)
    if not 0 <= k <= len(v):
        raise InvalidInput(f"k = {k} outside 0..{len(v)}")
    count = str(iota(field, count_nonzero(field, v, k)) - 1)
    return {"count": count}, [count]


def _cmd_circuit_eval(args, field, root):
    assignment = {}
    for item in args.assign:
        if "=" not in item:
            raise MalformedInput(f"assignment {item!r} needs name=value")
        name, _, literal = item.partition("=")
        assignment[name] = _entry(field, literal)
    value = format_entry(field, cc.evaluate(root, field, assignment))
    return {"value": value}, [value]


def _cmd_oddtown(args, family):
    r = _str_vals(cb.oddtown_check(family))
    return r, [f"m = {r['m']}, n = {r['n']}, gf2 rank = {r['gf2_rank']}, bound holds"]


def _cmd_fisher(args, family):
    r = _str_vals(cb.fisher_check(family, args.lam))
    return r, [f"m = {r['m']}, n = {r['n']}, gram det = {r['gram_det']}, bound holds"]


def _cmd_graham_pollak(args, partition):
    r = _str_vals(cb.graham_pollak_check(*partition))
    return r, [f"n = {r['n']}, bicliques = {r['count']}, bound holds"]


def _cmd_rcw(args, L, family):
    r = _str_vals(cb.rcw_verify(family, L))
    return r, [f"m = {r['m']}, n = {r['n']}, s = {r['s']}, "
               f"bound = {r['bound']}, bound holds"]


def _cmd_or_poly(args):
    spec = cb.or_poly_mod_pe(args.k, args.p, args.e)
    coeffs = [str(c) for c in spec.coeffs]
    window = [str(spec.eval_count(j)) for j in range(spec.modulus)]
    return ({"p": str(spec.p), "e": str(spec.e), "coeffs": coeffs, "window": window},
            [f"mod {spec.p}^{spec.e}: coefficients " + " ".join(coeffs),
             f"values on 0..{spec.modulus - 1}: " + " ".join(window)])


def _cmd_ramsey(args):
    built = cb.grolmusz_graph(args.k, args.cap)
    check = _str_vals(cb.ramsey_check(built["graph"], built["rank2"], built["rank3"]))
    r = _str_vals({key: built[key] for key in ("k", "n", "edge_rule", "rank2", "rank3")})
    adjacency = ["".join(str(b) for b in row) for row in built["graph"].rows]
    return ({**r, **check, "adjacency": adjacency},
            [f"k = {r['k']}, vertices = {r['n']}, edge rule: entry {r['edge_rule']}",
             f"rank2 = {r['rank2']}, rank3 = {r['rank3']}",
             f"clique = {check['clique']} <= {check['clique_bound']}",
             f"independence = {check['independence']} <= {check['independence_bound']}",
             *adjacency])


def _cmd_selftest(args):
    """The exit code; run_all prints the PASS/FAIL lines as criteria finish."""
    only = None
    if args.only:
        only = _int_set(args.only, "criterion")
        unknown = only - {num for num, *_ in CRITERIA}
        if unknown:
            raise InvalidInput(f"unknown criterion {min(unknown)} (1 to {len(CRITERIA)})")
    return 0 if run_all(seed=args.seed, only=only) else 1


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
                   help=f"vertex cap for larger k, at most {cb.MAX_VERTICES}")
    p = command("selftest", _cmd_selftest, help="run the acceptance suites")
    p.add_argument("--only", default=None, metavar="N1,N2,...",
                   help="criterion numbers to run")
    return top


# Where each input is read: each of these arguments that a command has becomes,
# in this order (--intersections before its family, rhs after the matrix), one
# parsed value for its _cmd_*.  The lambdas look each reader up when called,
# so a patched module global is the one that runs.
_READERS = {
    "intersections": lambda field, text: _int_set(text, "intersection"),
    "matrix": lambda field, path: parse_matrix(_read(path), field),
    "rhs": lambda field, path: parse_vector(_read(path), field),
    "vector": lambda field, path: parse_vector(_read(path), field),
    "family": lambda field, path: parse_set_family(_read(path)),
    "partition": lambda field, path: parse_bicliques(_read(path)),
    "circuit": lambda field, path: cc.parse_sexpr(_read(path)),
}


def run(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"--threads must be positive, got {args.threads}")
    try:
        # --field first, and only for the commands that compute over it
        over_field = any(hasattr(args, name) for name in ("matrix", "vector", "circuit"))
        field = parse_field(args.field) if over_field else None
        inputs = [read(field, getattr(args, name))
                  for name, read in _READERS.items() if hasattr(args, name)]
        result = args.fn(args, *([field] if over_field else []), *inputs)
    except (MalformedInput, InvalidInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExactLAError as exc:
        print(f"failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if isinstance(result, int):  # selftest, which printed its own lines
        return result
    report, lines = result
    print(json.dumps(report, indent=2) if args.json else "\n".join(lines))
    return 0


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
