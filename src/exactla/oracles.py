"""Independent brute-force references for validating the main algorithms.

Everything here is deliberately written the straightforward way: Gaussian
elimination, recursive cofactor expansion, direct counting.  None of it
shares code with the division-free implementations it checks.
"""

from functools import cache

from .errors import NonSquare
from .matrix import Matrix


def gauss_rref(A):
    """Reduced row echelon form: (rows, pivot column indices 0-based)."""
    F = A.field
    rows = [list(r) for r in A.rows]
    m, n = A.m, A.n
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if not F.is_zero(rows[i][c])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        # rows r.. are zero left of column c, so updates start at c
        inv = F.inv(rows[r][c])
        rows[r][c:] = [F.mul(inv, x) for x in rows[r][c:]]
        for i in range(m):
            if i != r and not F.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i][c:] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i][c:], rows[r][c:])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def gauss_rank(A):
    return len(gauss_rref(A)[1])


def gauss_solve(A, b):
    """A particular solution of Ax = b, or None if there is none."""
    F = A.field
    aug = Matrix(F, [list(r) + [bv] for r, bv in zip(A.rows, b)])
    rows, pivots = gauss_rref(aug)
    if A.n in pivots:
        return None  # pivot in the augmented column: inconsistent
    x = [F.zero()] * A.n
    for r, c in enumerate(pivots):
        x[c] = rows[r][A.n]
    return x


def gauss_kernel(A):
    """Basis of the nullspace as a list of vectors."""
    F = A.field
    rows, pivots = gauss_rref(A)
    free = [c for c in range(A.n) if c not in pivots]
    basis = []
    for fc in free:
        v = [F.zero()] * A.n
        v[fc] = F.one()
        for r, c in enumerate(pivots):
            v[c] = F.neg(rows[r][fc])
        basis.append(v)
    return basis


def in_span(vectors, target, field):
    """Whether target is a linear combination of the given vectors."""
    if not vectors:
        return all(field.is_zero(x) for x in target)
    A = Matrix(field, [[vec[i] for vec in vectors] for i in range(len(target))])
    return gauss_solve(A, target) is not None


def cofactor_det(A):
    """Recursive first-row cofactor expansion, each minor once: the minor on
    the last k rows is keyed by the k columns it keeps (2^n minors, not n!)."""
    if not A.is_square():
        raise NonSquare("determinant of a nonsquare matrix")
    F = A.field
    n = A.n

    @cache
    def rec(cols):
        top = A.rows[n - len(cols)]
        if len(cols) == 1:
            return top[cols[0]]
        acc = F.zero()
        for j, c in enumerate(cols):
            term = F.mul(top[c], rec(cols[:j] + cols[j + 1:]))
            acc = F.add(acc, term if j % 2 == 0 else F.neg(term))
        return acc

    return rec(tuple(range(n)))


def direct_count(field, v, k):
    """Host-level counter for the ct gadget."""
    return sum(1 for x in v[:k] if not field.is_zero(x))
