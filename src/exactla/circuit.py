"""Arithmetic circuits with division and the Num/Den elimination transform.

Gates are hash-consed: building the same expression twice yields the same
gate object, so the Num/Den recursion shares subcircuits instead of copying
them (without sharing the transform blows up exponentially on alternating
sums of quotients).

Evaluation semantics follow the transform, not operational division: a
circuit has a value under an assignment whenever its top-level denominator
circuit evaluates to a nonzero field element, even if naive gate-by-gate
evaluation would divide by zero somewhere inside.
"""

import weakref

from .errors import InvalidInput, MalformedInput, SizeExceeded, ZeroDenominator

CONST, VAR, ADD, MUL, DIV = "const", "var", "add", "mul", "div"

# the s-expression writes a shared DAG out as a tree, whose size can be
# exponential in the gate count: format_sexpr refuses trees above this
MAX_SEXPR_NODES = 10 ** 6

# weak: a dropped circuit leaves the table; the argument ids in a key stay
# valid because a live gate holds its arguments
_INTERN = weakref.WeakValueDictionary()


class Gate:
    """One interned circuit node; the output gate stands for its whole DAG."""

    __slots__ = ("kind", "payload", "args", "__weakref__")

    def __init__(self, kind, payload, args):
        self.kind = kind
        self.payload = payload
        self.args = args

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __repr__(self):
        try:
            return f"Gate<{format_sexpr(self)}>"
        except SizeExceeded:
            return f"Gate<{self.kind}, {gate_count(self)} gates>"


def _intern(kind, payload, args):
    key = (kind, payload, tuple(id(a) for a in args))
    g = _INTERN.get(key)
    if g is None:
        g = Gate(kind, payload, args)
        _INTERN[key] = g
    return g


def const(c):
    return _intern(CONST, int(c), ())


def var(name):
    if not name or any(ch.isspace() or ch in "()" for ch in name):
        raise InvalidInput(f"bad variable name {name!r}")
    return _intern(VAR, name, ())


def add(f, g):
    return _intern(ADD, None, (f, g))


def mul(f, g):
    return _intern(MUL, None, (f, g))


def div(f, g):
    return _intern(DIV, None, (f, g))


def _postorder(root):
    """Gates of the DAG, children before parents, each exactly once."""
    out, seen, stack = [], set(), [(root, False)]
    while stack:
        g, expanded = stack.pop()
        if id(g) in seen:
            continue
        if expanded:
            seen.add(id(g))
            out.append(g)
        else:
            stack.append((g, True))
            for a in g.args:
                if id(a) not in seen:
                    stack.append((a, False))
    return out


def gate_count(root):
    return len(_postorder(root))


def variables(root):
    return sorted({g.payload for g in _postorder(root) if g.kind == VAR})


def is_division_free(root):
    return all(g.kind != DIV for g in _postorder(root))


def num_den(root):
    """Division elimination: a pair (Num, Den) of division-free circuits with
    Num/Den equal to the input wherever the input is defined.

    const c -> (c, 1); var x -> (x, 1);
    F+G -> (N_F D_G + N_G D_F, D_F D_G); F*G -> (N_F N_G, D_F D_G);
    F/G -> (N_F D_G, D_F N_G).
    Hash-consing keeps shared subcircuits shared in the outputs.
    """
    one = const(1)
    pairs = {}
    for g in _postorder(root):
        if g.kind in (CONST, VAR):
            pairs[id(g)] = (g, one)
        else:
            nf, df = pairs[id(g.args[0])]
            ng, dg = pairs[id(g.args[1])]
            if g.kind == ADD:
                pairs[id(g)] = (add(mul(nf, dg), mul(ng, df)), mul(df, dg))
            elif g.kind == MUL:
                pairs[id(g)] = (mul(nf, ng), mul(df, dg))
            else:
                pairs[id(g)] = (mul(nf, dg), mul(df, ng))
    return pairs[id(root)]


def eval_alg(root, field, assignment):
    """Plain evaluation of a division-free circuit."""
    values = {}
    for g in _postorder(root):
        if g.kind == CONST:
            values[id(g)] = field.from_int(g.payload)
        elif g.kind == VAR:
            if g.payload not in assignment:
                raise InvalidInput(f"unassigned variable {g.payload!r}")
            values[id(g)] = assignment[g.payload]
        elif g.kind == ADD:
            values[id(g)] = field.add(values[id(g.args[0])], values[id(g.args[1])])
        elif g.kind == MUL:
            values[id(g)] = field.mul(values[id(g.args[0])], values[id(g.args[1])])
        else:
            raise InvalidInput("eval_alg applied to a circuit with division")
    return values[id(root)]


def evaluate(root, field, assignment):
    """Num/Den evaluation: defined iff the top-level denominator is nonzero."""
    num, den = num_den(root)
    dv = eval_alg(den, field, assignment)
    if field.is_zero(dv):
        raise ZeroDenominator("denominator circuit evaluates to zero")
    return field.div(eval_alg(num, field, assignment), dv)


def eval_direct(root, field, assignment):
    """Naive gate-by-gate evaluation, dividing as it goes (test reference)."""
    values = {}
    for g in _postorder(root):
        if g.kind == CONST:
            values[id(g)] = field.from_int(g.payload)
        elif g.kind == VAR:
            values[id(g)] = assignment[g.payload]
        else:
            a, b = values[id(g.args[0])], values[id(g.args[1])]
            if g.kind == ADD:
                values[id(g)] = field.add(a, b)
            elif g.kind == MUL:
                values[id(g)] = field.mul(a, b)
            else:
                if field.is_zero(b):
                    raise ZeroDenominator("division by zero during naive evaluation")
                values[id(g)] = field.div(a, b)
    return values[id(root)]


# ---------------------------------------------------------------------------
# s-expression text form: (add (div (var x) (var y)) (const 1))

def _tree_size(root):
    """Node count of root's DAG written out as a tree, counted on the DAG."""
    size = {}
    for g in _postorder(root):
        size[id(g)] = 1 + sum(size[id(a)] for a in g.args)
    return size[id(root)]


def format_sexpr(root):
    """The s-expression of root, written out as a tree, without recursion:
    the text still to write after a gate's left argument waits on a stack.
    Raises SizeExceeded if that tree has more than MAX_SEXPR_NODES nodes."""
    nodes = _tree_size(root)
    if nodes > MAX_SEXPR_NODES:
        raise SizeExceeded(f"s-expression of {nodes} nodes exceeds {MAX_SEXPR_NODES}")
    parts, stack = [], [root]
    while stack:
        g = stack.pop()
        if isinstance(g, str):
            parts.append(g)
        elif g.kind in (CONST, VAR):
            parts.append(f"({g.kind} {g.payload})")
        else:
            a, b = g.args
            parts.append(f"({g.kind} ")
            stack += [")", b, " ", a]
    return "".join(parts)


def _tokenize(text):
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_sexpr(text):
    """Parse one s-expression without recursion, so nesting depth is bounded
    only by memory: binary forms wait on a stack for their arguments."""
    tokens = _tokenize(text)
    if not tokens:
        raise MalformedInput("empty circuit expression")
    pos = 0
    pending = []  # [head, left argument or None] of the open binary forms

    def close(head):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != ")":
            raise MalformedInput(f"missing ')' in {head} form")
        pos += 1

    while True:
        if pos >= len(tokens):
            raise MalformedInput("unexpected end of circuit expression")
        if tokens[pos] != "(":
            raise MalformedInput(f"expected '(' but found {tokens[pos]!r}")
        pos += 1
        if pos >= len(tokens):
            raise MalformedInput("unexpected end after '('")
        head = tokens[pos]
        pos += 1
        if head in (ADD, MUL, DIV):
            pending.append([head, None])
            continue
        if head == CONST:
            if pos >= len(tokens):
                raise MalformedInput("missing constant value")
            try:
                value = int(tokens[pos])
            except ValueError:
                raise MalformedInput(f"bad integer constant {tokens[pos]!r}") from None
            pos += 1
            node = const(value)
        elif head == VAR:
            if pos >= len(tokens):
                raise MalformedInput("missing variable name")
            node = var(tokens[pos])
            pos += 1
        else:
            raise MalformedInput(f"unknown gate kind {head!r}")
        close(head)
        # a finished node is the right argument of every form it completes
        while pending and pending[-1][1] is not None:
            head, left = pending.pop()
            node = _intern(head, None, (left, node))
            close(head)
        if not pending:
            break
        pending[-1][1] = node
    if pos != len(tokens):
        raise MalformedInput(f"trailing input after circuit: {tokens[pos]!r}")
    return node
