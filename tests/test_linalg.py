import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, given, settings, strategies as st

from koszulity.linalg import (EchelonBasis, Matrix, candidate_combinations,
                              kernel_vectors, solve_columns)

from conftest import DenseMatrix, sparse


def M(rows):
    return Matrix(len(rows), len(rows[0]), rows)


def dense_rref(m):
    """Column-by-column dense Gauss-Jordan: the reference for Matrix.rref."""
    R, pivots = DenseMatrix.of(m).rref()
    return R.data, pivots


def dense_rank(rows, cols):
    return len(dense_rref(Matrix(len(rows), cols, rows))[1])


def test_rref_identity():
    R, piv = Matrix.identity(2).rref()
    assert R == Matrix.identity(2)
    assert piv == [0, 1]


def test_rref_rank_one():
    R, piv = M([[1, 2], [2, 4]]).rref()
    assert R.data[0] == [Fraction(1), Fraction(2)]
    assert R.data[1] == [Fraction(0), Fraction(0)]
    assert piv == [0]


def test_rref_permutation():
    R, piv = M([[0, 1], [1, 0]]).rref()
    assert R == Matrix.identity(2)
    assert piv == [0, 1]


def test_kernel_identity_empty():
    assert Matrix.identity(3).kernel_basis() == []


def test_kernel_zero_matrix():
    assert len(Matrix.zero(2, 3).kernel_basis()) == 3


def test_kernel_rank_one_row():
    (v,) = M([[1, 1]]).kernel_basis()
    assert v[0] == -v[1] != 0


def test_solve_identity():
    assert Matrix.identity(2).solve_matrix(M([[3], [5]])) == M([[3], [5]])


def test_solve_consistent_rank_one():
    x = M([[1, 2], [2, 4]]).solve_matrix(M([[1], [2]]))
    assert x is not None and x.data[0][0] + 2 * x.data[1][0] == 1


def test_solve_inconsistent():
    assert M([[1, 2], [2, 4]]).solve_matrix(M([[1], [0]])) is None


def test_inverse():
    a = M([[1, 2], [3, 5]])
    assert a * a.inverse() == Matrix.identity(2)
    assert M([[1, 2], [2, 4]]).inverse() is None


small_entries = st.integers(min_value=-6, max_value=6)


@st.composite
def matrices(draw, max_dim=5):
    r = draw(st.integers(min_value=1, max_value=max_dim))
    c = draw(st.integers(min_value=1, max_value=max_dim))
    data = draw(st.lists(st.lists(small_entries, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    return Matrix(r, c, data)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    assert m.rank() + len(m.kernel_basis()) == m.cols


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate(m):
    for v in m.kernel_basis():
        assert m.apply(v) == {}


@given(matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_exact(m, data):
    x = data.draw(st.lists(small_entries, min_size=m.cols, max_size=m.cols))
    b = Matrix(m.rows, 1, [{0: y} for y in DenseMatrix.of(m).apply(x)])
    sol = m.solve_matrix(b)
    assert sol is not None
    assert m * sol == b


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_rref_preserves_row_space(m):
    R, piv = m.rref()
    assert R.rank() == m.rank() == len(piv)
    # every original row is in the row space of the reduced matrix
    for row in m.data:
        assert EchelonBasis(R.srows.values()).contains(sparse(row))


# Rationals with many zeros, so that zero rows and columns, dependent rows
# and non-integer pivots all occur.
rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=5))


@st.composite
def rational_matrices(draw, max_dim=6):
    r = draw(st.integers(min_value=0, max_value=max_dim))
    c = draw(st.integers(min_value=0, max_value=max_dim))
    data = draw(st.lists(st.lists(rationals, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    return Matrix(r, c, data)


@given(rational_matrices())
@settings(max_examples=200, deadline=None)
def test_rref_matches_dense_gauss_jordan(m):
    R, piv = m.rref()
    ref, ref_piv = dense_rref(m)
    assert (R.rows, R.cols) == (m.rows, m.cols)
    assert R.data == ref
    assert piv == ref_piv
    assert all(type(x) is int or type(x) is Fraction and x.denominator != 1
               for row in R.data for x in row)


def test_rref_degenerate_shapes():
    for rows, cols in ((0, 0), (0, 3), (3, 0)):
        R, piv = Matrix.zero(rows, cols).rref()
        assert (R.rows, R.cols, R.data, piv) == (rows, cols, [[]] * rows, [])


@given(rational_matrices())
@settings(max_examples=100, deadline=None)
def test_kernel_vectors_match_dense_rref(m):
    # one vector per free column of the dense reduced echelon form, with
    # -R[r][fc] at the pivot of row r: the kernel basis read densely
    ref, piv = dense_rref(m)
    free = [c for c in range(m.cols) if c not in piv]
    expected = []
    for fc in free:
        v = {fc: Fraction(1)}
        for r, pc in enumerate(piv):
            if ref[r][fc]:
                v[pc] = -ref[r][fc]
        expected.append(v)
    assert kernel_vectors(EchelonBasis(m.srows.values()).rows, m.cols) == expected
    assert m.kernel_basis() == expected


@given(rational_matrices())
@settings(max_examples=100, deadline=None)
def test_echelon_add_is_true_exactly_when_rank_grows(m):
    basis = EchelonBasis()
    kept = []
    for k, row in enumerate(m.data):
        grows = dense_rank(m.data[:k + 1], m.cols) > dense_rank(m.data[:k], m.cols)
        assert basis.add(sparse(row)) is grows
        if grows:
            kept.append(row)
    assert basis.rank == len(kept) == m.rank()
    # every row lies in the span, with coordinates in the kept rows
    for row in m.data:
        assert basis.contains(sparse(row))
        coords = basis.coords(sparse(row))
        assert [sum((c * kept[k][j] for k, c in coords.items()), Fraction(0))
                for j in range(m.cols)] == row


@given(rational_matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_echelon_coords_none_outside_span(m, data):
    vec = data.draw(st.lists(rationals, min_size=m.cols, max_size=m.cols))
    basis = EchelonBasis(m.srows.values())
    inside = dense_rank(m.data + [vec], m.cols) == dense_rank(m.data, m.cols)
    assert basis.contains(sparse(vec)) is inside
    assert (basis.coords(sparse(vec)) is not None) is inside


def dense_solve(m, b):
    """Solve m @ x = b by dense Gauss-Jordan on the augmented matrix, with
    every non-pivot unknown set to 0; None when inconsistent."""
    aug = Matrix(m.rows, m.cols + 1, [row + [x] for row, x in zip(m.data, b)])
    reduced, piv = dense_rref(aug)
    if m.cols in piv:
        return None
    x = [Fraction(0)] * m.cols
    for r, pc in enumerate(piv):
        x[pc] = reduced[r][m.cols]
    return x


@given(rational_matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_solve_combination_matches_dense_solve(m, data):
    cols = [[row[j] for row in m.data] for j in range(m.cols)]
    # dependent columns: combinations of columns drawn before them
    for coeffs in data.draw(st.lists(st.lists(rationals, max_size=len(cols)),
                                     max_size=3)):
        cols.append([sum((c * col[i] for c, col in zip(coeffs, cols)), Fraction(0))
                     for i in range(m.rows)])
    a = Matrix(m.rows, len(cols), [[col[i] for col in cols] for i in range(m.rows)])
    # right-hand sides in the column span, or arbitrary (often inconsistent) ones
    rhs = []
    for inside in data.draw(st.lists(st.booleans(), min_size=1, max_size=4)):
        if inside:
            x = data.draw(st.lists(rationals, min_size=a.cols, max_size=a.cols))
            rhs.append(DenseMatrix.of(a).apply(x))
        else:
            rhs.append(data.draw(st.lists(rationals, min_size=a.rows, max_size=a.rows)))
    expected = [dense_solve(a, b) for b in rhs]
    consistent = None not in expected
    columns = list(map(sparse, cols))
    for b, x in zip(rhs, expected):
        assert solve_columns(columns, [sparse(b)]) == (None if x is None else [sparse(x)])
    assert solve_columns(columns, map(sparse, rhs)) == (
        [sparse(x) for x in expected] if consistent else None)
    # the same batch as one matrix equation, a @ X = B
    X = a.solve_matrix(Matrix(a.rows, len(rhs), [list(row) for row in zip(*rhs)]))
    assert (None if X is None else X.data) == (
        [list(row) for row in zip(*expected)] if consistent else None)


def test_echelon_accepts_sparse_dicts():
    basis = EchelonBasis([{0: 1, 2: 2}, {1: 1}])
    assert not basis.add({0: 2, 1: 3, 2: 4})
    assert basis.coords({0: 1, 1: 1, 2: 2}) == {0: 1, 1: 1}
    assert basis.add({2: 1})
    assert basis.rank == 3


def random_int_combination(vectors, rng, lo=-5, hi=5):
    """Dense random integer combination: the reference for the draws of
    candidate_combinations."""
    if not vectors:
        return None
    n = len(vectors[0])
    coeffs = [Fraction(rng.randint(lo, hi)) for _ in vectors]
    out = [Fraction(0)] * n
    for c, v in zip(coeffs, vectors):
        if c:
            for i, x in enumerate(v):
                if x:
                    out[i] += c * x
    return out


@given(rational_matrices(), st.integers(min_value=0, max_value=2**32),
       st.integers(min_value=0, max_value=4))
@settings(max_examples=100, deadline=None)
def test_candidate_combinations_match_reference_draws(m, seed, samples):
    assume(m.rows)
    vectors = [sparse(row) for row in m.data]
    rng = random.Random(seed)
    state = rng.getstate()
    stream = candidate_combinations(vectors, rng, samples)
    head = list(islice(stream, m.rows + 1))
    # the inputs, then their sum, and nothing drawn yet
    assert head[:-1] == vectors
    assert head[-1] == sparse([sum(col) for col in zip(*m.data)])
    assert rng.getstate() == state
    ref = random.Random(seed)
    rest = list(stream)
    assert rest == [sparse(random_int_combination(m.data, ref))
                    for _ in range(samples)]
    assert rng.getstate() == ref.getstate()
    basis = EchelonBasis(vectors)
    assert all(basis.contains(vec) for vec in head + rest)
    assert (list(candidate_combinations(vectors, None, samples))
            == list(candidate_combinations(vectors, random.Random(0), samples)))


def test_ext_group_reps_match_dense_greedy_selection(delta_a4, t_summands):
    from koszulity import modules as mo
    from koszulity import resolution as rs

    T = mo.DirectSum(delta_a4, t_summands)
    res = rs.MinimalResolution(T)
    for i in range(5):
        for j in rs.hom_window(res, T, i):
            eg = rs.ext_group(res, T, i, j)
            if eg.total == 0:
                assert eg.reps == []
                continue
            d_out = rs.delta_matrix(res, T, i, j)
            cocycles = [[v.get(t, 0) for t in range(eg.total)]
                        for v in d_out.kernel_basis()] if d_out.rows else [
                [Fraction(int(t == s)) for t in range(eg.total)]
                for s in range(eg.total)]
            span = []
            if i >= 1:
                span = rs.delta_matrix(res, T, i - 1, j).transpose().data
            reps = []
            for z in cocycles:
                if dense_rank(span + [z], eg.total) > dense_rank(span, eg.total):
                    reps.append(z)
                    span.append(z)
            assert eg.reps == [sparse(z) for z in reps]
            assert eg.dim == len(reps)
            for k, z in enumerate(reps):
                assert eg.reduce(sparse(z)) == [Fraction(int(c == k))
                                        for c in range(len(reps))]


@st.composite
def sparse_products(draw, max_dim=6):
    """Matrices A (r x k), B (k x c) and C (r x c), with a dense vector v of
    length k, all with many zero entries."""
    r, k, c = (draw(st.integers(min_value=0, max_value=max_dim)) for _ in range(3))

    def mat(rows, cols):
        return Matrix(rows, cols, draw(st.lists(
            st.lists(rationals, min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))

    return mat(r, k), mat(k, c), mat(r, c), draw(st.lists(rationals, min_size=k,
                                                          max_size=k))


def same(m, ref):
    """Whether sparse m and dense ref hold the same matrix, or are both None."""
    if m is None or ref is None:
        return m is ref
    return (m.rows, m.cols, m.data) == (ref.rows, ref.cols, ref.data)


@given(sparse_products())
@settings(max_examples=200, deadline=None)
def test_sparse_matrix_matches_dense_reference(mats):
    a, b, c, v = mats
    da, db, dc = map(DenseMatrix.of, (a, b, c))
    assert same(a * b, da * db)
    assert a.apply(sparse(v)) == sparse(da.apply(v))
    with pytest.raises(ValueError):
        a.apply({**sparse(v), a.cols: 1})
    assert same(a.transpose(), da.transpose())
    R, piv = a.rref()
    dR, dpiv = da.rref()
    assert same(R, dR) and piv == dpiv
    assert same(a.solve_matrix(c), da.solve_matrix(dc))
    assert [[x.get(j, 0) for j in range(a.cols)] for x in a.kernel_basis()] \
        == da.kernel_basis()
    for m, dm in ((a, da), (a * a.transpose(), da * da.transpose())):
        assert same(m.inverse(), dm.inverse())
    # every stored entry is a normalised nonzero, in a nonzero row
    for m in (a * b, R, a.transpose()):
        assert all(row and all(x and (type(x) is int or x.denominator != 1)
                               for x in row.values()) for row in m.srows.values())
