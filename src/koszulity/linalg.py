"""Exact linear algebra over the rationals on one sparse elimination core.

Entries are exact: an `int` when integral, a `fractions.Fraction` otherwise.
`exact` normalises each entry that comes from outside and refuses floats,
and `div` is the package's one division, so rank, kernels and solutions are
exact; there is no tolerance anywhere in the package. All elimination runs
through `EchelonBasis`, which keeps sparse rows ({column: value}) in reduced
echelon form, normalised, as vectors are added one at a time, in the manner
of structured Gaussian elimination. `Matrix` is the container the rest of
the package builds and multiplies with. It holds the same sparse rows, its
nonzero ones only, so a product reads nonzero entries only and
`EchelonBasis` takes the rows as they are. Matrices are treated as
immutable once constructed (no method mutates `self`).

Every linear solve is `solve_columns`: it eliminates the columns of a
system once and reads each of a batch of right-hand sides off that basis,
with 0 for the unknown of each column that depends on earlier ones.
`Matrix.solve_matrix`, `Matrix.inverse` and the module solves (preimages
under a map, maps into injectives) are built on it.

A sparse vector, for `EchelonBasis`, `Matrix.apply` and the functions
below, is a dict {index: entry} of nonzero entries, each normalised by
`exact`. A module element is one such vector per (vertex, degree) block,
{(v, d): {index: entry}}, with no empty block, and acts through
`Matrix.apply`.

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
    """A rows x cols matrix kept sparse: `srows` maps the index of each
    nonzero row to a dict {column: entry} of its nonzero entries, each
    normalised as `exact` gives it. Operations read only these entries.

    A matrix is not changed once built, so operations may share row dicts
    between matrices: a caller fills in only a matrix it has just made.
    """

    __slots__ = ("rows", "cols", "srows")

    def __init__(self, rows: int, cols: int, data=None):
        """data: one entry per row, a dense list or a dict {column: entry}."""
        self.rows = rows
        self.cols = cols
        self.srows = {}
        if data is None:
            return
        if len(data) != rows:
            raise ValueError("row count mismatch")
        for i, row in enumerate(data):
            if isinstance(row, dict):
                items = row.items()
            elif len(row) != cols:
                raise ValueError("column count mismatch")
            else:
                items = enumerate(row)
            row = {c: x if type(x) is int else exact(x) for c, x in items}
            row = {c: x for c, x in row.items() if x}
            if row:
                self.srows[i] = row

    # -- constructors -------------------------------------------------

    @staticmethod
    def sparse(rows: int, cols: int, srows: dict) -> "Matrix":
        """The matrix with the nonzero rows srows, taken as they are."""
        m = Matrix.__new__(Matrix)
        m.rows, m.cols, m.srows = rows, cols, srows
        return m

    @staticmethod
    def from_entries(rows: int, cols: int, entries: dict) -> "Matrix":
        """The matrix with the cells {(row, column): entry}, 0 elsewhere."""
        srows = {}
        for (i, j), x in entries.items():
            if x:
                srows.setdefault(i, {})[j] = x if type(x) is int else exact(x)
        return Matrix.sparse(rows, cols, srows)

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix.sparse(rows, cols, {})

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.sparse(n, n, {i: {i: 1} for i in range(n)})

    # -- basics --------------------------------------------------------

    @property
    def data(self):
        """The rows as fresh dense lists, for display and for tests."""
        return [[row.get(j, 0) for j in range(self.cols)]
                for row in (self.srows.get(i, {}) for i in range(self.rows))]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.srows == other.srows
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.srows!r})"

    def is_zero(self) -> bool:
        return not self.srows

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        srows = dict(self.srows)
        for i, row in other.srows.items():
            if i in srows:
                row = dict(srows[i])
                _axpy(row, -1, other.srows[i])
            if row:
                srows[i] = row
            else:
                del srows[i]
        return Matrix.sparse(self.rows, self.cols, srows)

    def scale(self, c) -> "Matrix":
        c = exact(c)
        if c == 1:
            return self
        srows = {}
        if c:
            for i, row in self.srows.items():
                srows[i] = {j: y if type(y) is int else exact(y)
                            for j, y in ((j, c * x) for j, x in row.items())}
        return Matrix.sparse(self.rows, self.cols, srows)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in mul")
        bsrows = other.srows
        srows = {}
        for i, arow in self.srows.items():
            acc = {}
            for k, a in arow.items():
                brow = bsrows.get(k)
                if brow is not None:
                    for j, b in brow.items():
                        acc[j] = acc.get(j, 0) + a * b
            row = {j: y if type(y) is int else exact(y)
                   for j, y in acc.items() if y}
            if row:
                srows[i] = row
        return Matrix.sparse(self.rows, other.cols, srows)

    def apply(self, vec: dict) -> dict:
        """Matrix times a sparse column vector, returned sparse.

        Module elements act through here; a float in vec raises, and so
        does an index at or past cols (ValueError).
        """
        if float in map(type, vec.values()):
            raise _inexact(vec)
        if vec and max(vec) >= self.cols:
            raise ValueError("vector index out of range")
        out = {}
        for i, row in self.srows.items():
            s = 0
            for j, a in row.items():
                v = vec.get(j)
                if v is not None:
                    s += a * v
            if s:
                out[i] = s if type(s) is int else exact(s)
        return out

    def transpose(self) -> "Matrix":
        srows = {}
        for i, row in self.srows.items():
            for j, x in row.items():
                col = srows.get(j)
                if col is None:
                    srows[j] = {i: x}
                else:
                    col[i] = x
        return Matrix.sparse(self.cols, self.rows, srows)

    # -- elimination ----------------------------------------------------

    def rref(self):
        """Reduced row-echelon form.

        Returns (R, pivots) where R is the RREF and pivots the strictly
        increasing list of pivot columns. Row space is preserved.
        """
        basis = EchelonBasis()
        for row in self.srows.values():
            if basis.rank == self.cols:
                break
            basis.add(row)
        pivots = sorted(basis.rows)
        srows = {r: basis.rows[pc] for r, pc in enumerate(pivots)}
        return Matrix.sparse(self.rows, self.cols, srows), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self):
        """Basis of the right kernel {x : self @ x = 0}, as sparse dicts:
        one per free column, as `kernel_vectors` gives them."""
        R, pivots = self.rref()
        return kernel_vectors({pc: R.srows[r] for r, pc in enumerate(pivots)},
                              self.cols)

    def solve_matrix(self, B: "Matrix"):
        """X with self @ X = B, or None when a column of B is outside the
        column space: `solve_columns` on the columns of self and of B."""
        if B.rows != self.rows:
            raise ValueError("shape mismatch")
        cols = self.transpose().srows
        rhs = B.transpose().srows
        xs = solve_columns([cols.get(j, {}) for j in range(self.cols)], rhs.values())
        if xs is None:
            return None
        return Matrix.sparse(B.cols, self.cols, dict(zip(rhs, xs))).transpose()

    def inverse(self):
        """Exact inverse, or None when not square or singular."""
        if self.rows != self.cols:
            return None
        return self.solve_matrix(Matrix.identity(self.rows))

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


def assemble(rows: int, cols: int, pieces) -> Matrix:
    """The rows x cols matrix made of pieces = [(sub, r0, c0), ...], each
    sub written with its corner at (r0, c0); pieces must not overlap."""
    srows = {}
    for sub, r0, c0 in pieces:
        for i, row in sub.srows.items():
            srows.setdefault(r0 + i, {}).update(
                {c0 + j: x for j, x in row.items()} if c0 else row)
    return Matrix.sparse(rows, cols, srows)


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
    `coords` reads coordinates off without solving. Vectors are sparse.
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
        the pivot entries of vec clears them all. A float in vec raises.
        """
        v = dict(vec)
        if float in map(type, v.values()):
            raise _inexact(vec)
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
        """Coordinates of vec in the accepted vectors, sparse ({k: c} with
        k the index of an accepted vector), or None outside the span."""
        v, taken = self._reduce(vec)
        if v:
            return None
        out = {}
        for p, x in taken:
            _axpy(out, -x, self.combos[p])
        return out


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


def solve_columns(columns, targets):
    """Coefficients x with sum_k x[k] columns[k] = t, one for each t of
    targets, or None when some target is outside the span of the columns.

    The package's one solve. The columns are eliminated once, and each
    target is read off that basis with `EchelonBasis.coords`. A column that
    depends on earlier ones gets coefficient 0, so x is the solution of the
    column system that sets every non-pivot unknown to 0. Columns, targets
    and the solutions x are sparse.
    """
    basis = EchelonBasis()
    kept = [k for k, col in enumerate(columns) if basis.add(col)]
    out = []
    for target in targets:
        coords = basis.coords(target)
        if coords is None:
            return None
        out.append({kept[i]: c for i, c in coords.items()})
    return out


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
    and a miss is only probable evidence. Vectors and candidates are
    sparse; the vectors are yielded as given. rng=None means random.Random(0);
    nothing is drawn before the first sample is asked for.
    """
    vectors = list(vectors)
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
