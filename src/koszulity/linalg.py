"""Exact linear algebra over the rationals on one sparse elimination core.

Entries are exact: an `int` when integral, a `fractions.Fraction` otherwise.
`exact` normalises each entry that comes from outside and refuses floats,
and `div` is the package's one division, so rank, kernels and solutions are
exact; there is no tolerance anywhere in the package. All elimination runs
through `EchelonBasis`, which keeps sparse rows ({column: value}) in reduced
echelon form, normalised, as vectors are added one at a time, in the manner
of structured Gaussian elimination. `Matrix` is the dense container the rest
of the package builds, multiplies and solves with; matrices are treated as
immutable once constructed (no method mutates `self`).

The randomized isomorphism searches all draw their candidates from one
lazy stream, `candidate_combinations`: the basis, its sum, then random
integer combinations. It is the only place that draws random numbers.
"""

from __future__ import annotations

import random
from fractions import Fraction


def exact(x):
    """x as an exact rational: an int when integral, else a Fraction.

    Takes ints, Fractions and numeric strings such as "2" or "-2/3". A
    float has already been rounded, so it raises InternalCheckError.
    """
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise _inexact(x)
    q = x if type(x) is Fraction else Fraction(x)
    return q.numerator if q.denominator == 1 else q


def _inexact(value):
    from .algebra import InternalCheckError

    return InternalCheckError(f"inexact entry in {value!r}: floats are not allowed")


def div(a, b):
    """a / b as an exact rational: the package's one division."""
    return exact(Fraction(a, b))


class Matrix:
    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[0] * cols for _ in range(rows)]
        else:
            if len(data) != rows:
                raise ValueError("row count mismatch")
            self.data = [[x if type(x) is int else exact(x) for x in row]
                         for row in data]
            for row in self.data:
                if len(row) != cols:
                    raise ValueError("column count mismatch")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        m = Matrix(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @staticmethod
    def from_rows(rows) -> "Matrix":
        rows = [list(r) for r in rows]
        if not rows:
            return Matrix(0, 0)
        return Matrix(len(rows), len(rows[0]), rows)

    # -- basics --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.data!r})"

    def is_zero(self) -> bool:
        return not any(map(any, self.data))

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        m = Matrix(self.rows, self.cols)
        m.data = [
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)
        ]
        return m

    def scale(self, c) -> "Matrix":
        c = exact(c)
        m = Matrix(self.rows, self.cols)
        m.data = [[c * a for a in row] for row in self.data]
        return m

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in mul")
        out = Matrix(self.rows, other.cols)
        odata = out.data
        bdata = other.data
        for i, arow in enumerate(self.data):
            orow = odata[i]
            for k, a in enumerate(arow):
                if a:
                    brow = bdata[k]
                    for j, b in enumerate(brow):
                        if b:
                            orow[j] += a * b
        return out

    def apply(self, vec):
        """Matrix times column vector (vector given and returned as a list).

        Module elements act through here; a float in vec raises.
        """
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        if float in map(type, vec):
            raise _inexact(vec)
        nz = [(j, v) for j, v in enumerate(vec) if v]
        out = []
        for row in self.data:
            s = 0
            for j, v in nz:
                a = row[j]
                if a:
                    s += a * v
            out.append(s)
        return out

    def transpose(self) -> "Matrix":
        m = Matrix(self.cols, self.rows)
        if self.rows == 0:
            m.data = [[] for _ in range(self.cols)]
        else:
            m.data = [list(col) for col in zip(*self.data)]
        return m

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        m = Matrix(self.rows, self.cols + other.cols)
        m.data = [ra + rb for ra, rb in zip(self.data, other.data)]
        return m

    # -- elimination ----------------------------------------------------

    def rref(self):
        """Reduced row-echelon form.

        Returns (R, pivots) where R is the RREF and pivots the strictly
        increasing list of pivot columns. Row space is preserved.
        """
        basis = EchelonBasis()
        for row in self.data:
            if basis.rank == self.cols:
                break
            basis.add(row)
        pivots = sorted(basis.rows)
        out = Matrix(self.rows, self.cols)
        for r, pc in enumerate(pivots):
            dense = out.data[r]
            for c, x in basis.rows[pc].items():
                dense[c] = x
        return out, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self):
        """Basis of the right kernel {x : self @ x = 0}, as lists."""
        R, pivots = self.rref()
        rows = {pc: _sparse(R.data[r]) for r, pc in enumerate(pivots)}
        out = []
        for vec in kernel_vectors(rows, self.cols):
            v = [0] * self.cols
            for c, x in vec.items():
                v[c] = x
            out.append(v)
        return out

    def solve(self, b):
        """Solve self @ x = b exactly; returns a list or None if inconsistent."""
        if len(b) != self.rows:
            raise ValueError("rhs length mismatch")
        return solve_combination([self.column(j) for j in range(self.cols)], b)

    def solve_matrix(self, B: "Matrix"):
        """Solve self @ X = B columnwise; returns Matrix or None."""
        if B.rows != self.rows:
            raise ValueError("shape mismatch")
        aug = self.hstack(B)
        R, pivots = aug.rref()
        if any(p >= self.cols for p in pivots):
            return None
        X = Matrix(self.cols, B.cols)
        for r, pc in enumerate(pivots):
            X.data[pc] = R.data[r][self.cols :]
        return X

    def inverse(self):
        """Exact inverse, or None when not square or singular."""
        if self.rows != self.cols:
            return None
        aug = self.hstack(Matrix.identity(self.rows))
        R, pivots = aug.rref()
        if pivots != list(range(self.rows)):
            return None
        inv = Matrix(self.rows, self.cols)
        inv.data = [row[self.cols :] for row in R.data]
        return inv

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


def _sparse(vec) -> dict:
    """{column: entry} of the nonzero entries of a dense list or a dict."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    return {c: x if type(x) is int else exact(x) for c, x in items if x}


def _axpy(v: dict, f, row: dict) -> None:
    """v -= f * row, in place, normalised, dropping the entries that cancel."""
    for c, x in row.items():
        y = v.get(c, 0) - f * x
        if y:
            v[c] = y if type(y) is int else exact(y)
        else:
            del v[c]


def _scaled(vec: dict, lead) -> dict:
    """vec / lead, normalised: -1 keeps ints and non-integral Fractions so."""
    if lead == -1:
        return {c: -x for c, x in vec.items()}
    inv = div(1, lead)
    return {c: exact(inv * x) for c, x in vec.items()}


class EchelonBasis:
    """A row space kept in reduced echelon form while vectors are added.

    Rows are sparse dicts {column: entry}, keyed by their pivot column:
    the row holds 1 there and every other row holds 0 there. Each row also
    records itself as a combination {k: coefficient} of the accepted
    vectors, the k-th accepted vector being the k-th one `add` kept, so
    `coords` reads coordinates off without solving. Vectors are given as
    dense lists or as sparse dicts.
    """

    __slots__ = ("rows", "combos")

    def __init__(self, vectors=()):
        self.rows = {}
        self.combos = {}
        for vec in vectors:
            self.add(vec)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec):
        """(remainder, [(pivot, coefficient)]) of vec against the rows.

        The rows are zero in each other's pivot columns, so one pass over
        the pivot entries of vec clears them all.
        """
        v = _sparse(vec)
        taken = [(p, x) for p, x in v.items() if p in self.rows]
        for p, x in taken:
            _axpy(v, x, self.rows[p])
        return v, taken

    def add(self, vec) -> bool:
        """Add vec to the span; True exactly when the rank grows."""
        v, taken = self._reduce(vec)
        if not v:
            return False
        combo = {self.rank: 1}
        for p, x in taken:
            _axpy(combo, x, self.combos[p])
        pivot = min(v)
        lead = v[pivot]
        if lead != 1:
            v = _scaled(v, lead)
            combo = _scaled(combo, lead)
        for p, row in self.rows.items():
            f = row.get(pivot)
            if f is not None:
                _axpy(row, f, v)
                _axpy(self.combos[p], f, combo)
        self.rows[pivot] = v
        self.combos[pivot] = combo
        return True

    def contains(self, vec) -> bool:
        return not self._reduce(vec)[0]

    def coords(self, vec):
        """Coordinates of vec in the accepted vectors, or None outside the span."""
        v, taken = self._reduce(vec)
        if v:
            return None
        out = {}
        for p, x in taken:
            _axpy(out, -x, self.combos[p])
        return [out.get(k, 0) for k in range(self.rank)]


def kernel_vectors(rows: dict, cols: int):
    """Sparse basis of {x in Q^cols : row . x = 0 for every row of rows}.

    rows maps pivot columns to sparse rows in reduced echelon form, as
    `EchelonBasis.rows` does. One vector per free (non-pivot) column fc, in
    increasing order: 1 at fc and -row[fc] at the pivot of each row. The
    rows are zero in each other's pivot columns, so their other entries
    all sit in free columns.
    """
    vecs = {c: {c: 1} for c in range(cols) if c not in rows}
    for pc, row in rows.items():
        for c, x in row.items():
            if c != pc:
                vecs[c][pc] = -x
    return list(vecs.values())


def solve_combination(vectors, target):
    """Coefficients c with sum_k c[k] vectors[k] = target, or None.

    A vector that depends on earlier ones gets coefficient 0. This is the
    solution of the column system that sets every non-pivot unknown to 0.
    Vectors and target are dense lists or sparse dicts.
    """
    basis = EchelonBasis()
    kept = [basis.add(vec) for vec in vectors]
    coords = basis.coords(target)
    if coords is None:
        return None
    found = iter(coords)
    return [next(found) if k else 0 for k in kept]


def complement_basis(sub_rows, amb_dim: int):
    """Extend the span of sub_rows to all of Q^amb_dim by standard basis vectors.

    Returns indices of standard basis vectors whose addition completes the
    span; deterministic (smallest indices first).
    """
    basis = EchelonBasis(sub_rows)
    chosen = []
    for j in range(amb_dim):
        if basis.rank == amb_dim:
            break
        if basis.add({j: 1}):
            chosen.append(j)
    return chosen


def candidate_combinations(vectors, rng, samples: int):
    """Lazy stream of candidates in the span of vectors, for sampled searches.

    Yields each vector, then their sum, then `samples` random integer
    combinations, each drawing one coefficient from [-5, 5] per vector, in
    order. A polynomial of degree deg on the span, such as a determinant,
    that is not identically zero vanishes at such a sample with probability
    at most deg/11 (Schwartz-Zippel), so a found candidate is a certificate
    and a miss is only probable evidence. Vectors are dense lists or sparse
    dicts; candidates are sparse dicts. rng=None means random.Random(0);
    nothing is drawn before the first sample is asked for.
    """
    vectors = [_sparse(vec) for vec in vectors]
    yield from vectors
    yield _combine(vectors, [1] * len(vectors))
    if rng is None:
        rng = random.Random(0)
    for _ in range(samples):
        yield _combine(vectors, [rng.randint(-5, 5) for _ in vectors])


def _combine(vectors, coeffs) -> dict:
    """sum_k coeffs[k] * vectors[k] of sparse vectors, as a sparse dict."""
    out = {}
    for c, vec in zip(coeffs, vectors):
        if c:
            _axpy(out, -c, vec)
    return out
