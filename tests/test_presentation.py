from fractions import Fraction

import pytest

from koszulity.algebra import InputError
from koszulity.presentation import (
    Arrow, Quiver, Relation, build_algebra, parse_algebra_file,
    parse_algebra_source, path_count,
)
from conftest import data_path, rel


def test_a4_dimensions(a4):
    assert a4.dim == 8
    assert a4.dims_by_degree() == {0: 8}
    assert a4.labels[:4] == ["e1", "e2", "e3", "e4"]


def test_path_count_a4():
    q = Quiver(4, (Arrow("a1", 1, 2, 0), Arrow("a2", 1, 3, 0),
                   Arrow("a3", 2, 4, 0), Arrow("a4", 3, 4, 0)))
    assert path_count(q, 2) == 10


def test_path_count_small():
    assert path_count(Quiver(2, (Arrow("al", 1, 2, 0),)), 4) == 3
    assert path_count(Quiver(2, (Arrow("a", 1, 2, 0), Arrow("b", 1, 2, 0))), 4) == 4


def test_point_algebra(point):
    assert point.dim == 1


def test_dual_numbers(dualnum):
    assert dualnum.dims_by_degree() == {0: 1, 1: 1}


def test_rad_square_sum_formula(a4, kron):
    # with all length-2 paths zero, dim = vertices + arrows
    assert a4.dim == 4 + 4
    q = Quiver(3, (Arrow("a", 1, 2, 0), Arrow("b", 2, 3, 0)))
    alg = build_algebra(q, [rel("a*b")], 2, name="t")
    assert alg.dim == 3 + 2


def test_inhomogeneous_relation_rejected():
    q = Quiver(1, (Arrow("x", 1, 1, 1), Arrow("y", 1, 1, 2)))
    with pytest.raises(InputError):
        build_algebra(q, [Relation(((1, ("x",)), (1, ("y",))))], 4)


def test_mixed_length_relation_rejected():
    q = Quiver(1, (Arrow("x", 1, 1, 0),))
    with pytest.raises(InputError):
        build_algebra(q, [Relation(((1, ("x", "x")), (-1, ("x",))))], 4)


def test_not_finite_dimensional_within_bound():
    q = Quiver(1, (Arrow("x", 1, 1, 1),))
    with pytest.raises(InputError):
        build_algebra(q, [], 5)


def test_noncomposable_path_rejected():
    q = Quiver(2, (Arrow("a", 1, 2, 0),))
    with pytest.raises(InputError):
        build_algebra(q, [Relation(((1, ("a", "a")),))], 3)


def test_parse_file_roundtrip():
    alg, q = parse_algebra_file(data_path("a4.alg"), 3)
    assert alg.dim == 8
    assert {a.name for a in q.arrows} == {"a1", "a2", "a3", "a4"}


def test_parse_delta_presentation():
    alg, _ = parse_algebra_file(data_path("delta_a4.alg"), 4)
    assert alg.dim == 16
    assert alg.dims_by_degree() == {0: 8, 1: 8}


def test_parse_fraction_coefficients():
    src = """
algebra frac
vertices 1
arrow x 1 1 1
arrow y 1 1 1
relation 2/3*x*y - 1/3*y*x
relation x*x
relation y*y
relation x*y*x
relation y*x*y
relation x*y*y
relation x*x*y
end
"""
    alg, _ = parse_algebra_source(src, 3)
    assert alg.dims_by_degree()[1] == 2
    # 2/3 xy = 1/3 yx makes xy = 1/2 yx: the one non-integral constant stays
    # a Fraction, every other one is an int
    x, y, yx = (alg.index_of[name] for name in ("x", "y", "y*x"))
    assert alg.mult_basis(x, y) == {yx: Fraction(1, 2)}
    assert [type(c) for prod in alg.table.values() for c in prod.values()
            if type(c) is not int] == [Fraction]


def test_parse_errors_reported():
    with pytest.raises(InputError):
        parse_algebra_source("algebra a\nvertices 1\n")  # missing end
    with pytest.raises(InputError):
        parse_algebra_source("vertices 1\nend\n")  # missing name


def test_rebuild_is_idempotent(a4):
    # rebuilding from the same presentation gives identical dim tables
    q = Quiver(4, (Arrow("a1", 1, 2, 0), Arrow("a2", 1, 3, 0),
                   Arrow("a3", 2, 4, 0), Arrow("a4", 3, 4, 0)))
    again = build_algebra(q, [rel("a1*a3"), rel("a2*a4")], 3, name="a4")
    key = lambda alg: sorted(
        (alg.source[i], alg.target[i], alg.degree[i]) for i in range(alg.dim)
    )
    assert key(again) == key(a4)
    assert again.table == a4.table


def test_dump_round_trip_trivial_extension(delta_a4):
    from koszulity.presentation import dump_algebra

    text = dump_algebra(delta_a4)
    rebuilt, _ = parse_algebra_source(text, 6)

    def key(alg):
        out = {}
        for i in range(alg.dim):
            k = (alg.source[i], alg.target[i], alg.degree[i])
            out[k] = out.get(k, 0) + 1
        return out

    assert key(rebuilt) == key(delta_a4)
    # the recovered presentation is the doubled quiver with minimal relations
    assert text.count("arrow") == 8
    assert text.count("relation") == 12


def test_dump_round_trip_small(x3, dualnum, nak2, a4):
    from koszulity.presentation import dump_algebra

    for alg in (x3, dualnum, nak2, a4):
        rebuilt, _ = parse_algebra_source(dump_algebra(alg), 8)
        assert rebuilt.dim == alg.dim
        assert rebuilt.dims_by_degree() == alg.dims_by_degree()
