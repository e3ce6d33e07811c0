"""Dense matrices over an arbitrary ring/field instance.

Entries are stored row-major as tuples, immutable after construction.
User-facing indexing is 1-based (``at``/``extract``); internal code uses the
0-based ``rows`` tuples directly.  Addition and multiplication are strict
about dimensions.
"""

from .errors import DimensionMismatch, IndexOutOfRange, NonSquare


class Matrix:
    __slots__ = ("field", "m", "n", "rows")

    def __init__(self, field, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise DimensionMismatch("matrices must have positive dimensions")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("ragged rows")
        self.field = field
        self.m = len(rows)
        self.n = n
        self.rows = rows

    # construction

    @classmethod
    def zeros(cls, field, m, n):
        z = field.zero()
        return cls(field, [[z] * n for _ in range(m)])

    @classmethod
    def identity(cls, field, k):
        z, o = field.zero(), field.one()
        return cls(field, [[o if i == j else z for j in range(k)] for i in range(k)])

    @classmethod
    def from_ints(cls, field, rows):
        # equal integers share one (immutable) field element: a small-entry
        # matrix over Q then holds a handful of Fractions, not one per entry
        elems = {x: field.from_int(x) for r in rows for x in r}
        return cls(field, [[elems[x] for x in r] for r in rows])

    # shape / access

    @property
    def shape(self):
        return (self.m, self.n)

    def is_square(self):
        return self.m == self.n

    def at(self, i, j):
        """1-based entry access, bounds-checked."""
        if not (1 <= i <= self.m and 1 <= j <= self.n):
            raise IndexOutOfRange(f"entry ({i},{j}) of a {self.m}x{self.n} matrix")
        return self.rows[i - 1][j - 1]

    def extract(self, i, j):
        """1-based total entry access: 0 outside the matrix."""
        if 1 <= i <= self.m and 1 <= j <= self.n:
            return self.rows[i - 1][j - 1]
        return self.field.zero()

    def col_vec(self, j):
        return [r[j - 1] for r in self.rows]

    def column_list(self):
        return [self.col_vec(j) for j in range(1, self.n + 1)]

    # arithmetic

    def add(self, other):
        self._same_field(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"add {self.shape} vs {other.shape}")
        F = self.field
        return Matrix(F, [[F.add(a, b) for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.rows, other.rows)])

    def __add__(self, other):
        return self.add(other)

    def __neg__(self):
        F = self.field
        return Matrix(F, [[F.neg(a) for a in r] for r in self.rows])

    def scale(self, c):
        F = self.field
        return Matrix(F, [[F.mul(c, a) for a in r] for r in self.rows])

    def mul(self, other):
        self._same_field(other)
        if self.n != other.m:
            raise DimensionMismatch(f"mul {self.shape} vs {other.shape}")
        F = self.field
        zero = F.zero()
        bt = list(zip(*other.rows))  # columns of other
        out = []
        for ra in self.rows:
            row = []
            for cb in bt:
                acc = zero
                for a, b in zip(ra, cb):
                    acc = F.add(acc, F.mul(a, b))
                row.append(acc)
            out.append(row)
        return Matrix(F, out)

    def __matmul__(self, other):
        return self.mul(other)

    def power(self, k):
        if not self.is_square():
            raise NonSquare("matrix power needs a square matrix")
        acc = Matrix.identity(self.field, self.m)
        for _ in range(k):
            acc = acc @ self
        return acc

    def transpose(self):
        return Matrix(self.field, list(zip(*self.rows)))

    def map(self, fn, field=None):
        """Apply fn to every entry; optionally move to another ring instance."""
        return Matrix(field or self.field, [[fn(a) for a in r] for r in self.rows])

    def submatrix(self, row_idx, col_idx):
        """1-based row/column index lists."""
        return Matrix(self.field,
                      [[self.at(i, j) for j in col_idx] for i in row_idx])

    def hstack(self, other):
        self._same_field(other)
        if self.m != other.m:
            raise DimensionMismatch("hstack row mismatch")
        return Matrix(self.field, [ra + rb for ra, rb in zip(self.rows, other.rows)])

    def vstack(self, other):
        self._same_field(other)
        if self.n != other.n:
            raise DimensionMismatch("vstack column mismatch")
        return Matrix(self.field, self.rows + other.rows)

    def is_zero(self):
        F = self.field
        return all(F.is_zero(a) for r in self.rows for a in r)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        F = self.field
        return all(F.eq(a, b) for ra, rb in zip(self.rows, other.rows)
                   for a, b in zip(ra, rb))

    def __hash__(self):
        raise TypeError("matrices are not hashable (field-mediated equality)")

    def __repr__(self):
        body = "; ".join(" ".join(self.field.format(a) for a in r) for r in self.rows)
        return f"Matrix({self.field.name}, {self.m}x{self.n}: {body})"

    def _same_field(self, other):
        if self.field != other.field:
            raise DimensionMismatch(
                f"mixed coefficient domains: {self.field.name} vs {other.field.name}")


def mat_vec(A, v):
    """A @ v for a plain list vector; returns a list."""
    if A.n != len(v):
        raise DimensionMismatch(f"matvec {A.shape} vs length {len(v)}")
    F = A.field
    out = []
    for r in A.rows:
        acc = F.zero()
        for a, x in zip(r, v):
            acc = F.add(acc, F.mul(a, x))
        out.append(acc)
    return out
