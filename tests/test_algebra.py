from fractions import Fraction

import pytest

from koszulity.algebra import InputError, trivial_extension
from koszulity.frobenius import frobenius_analysis, socle_degrees, verify_form_identity
from koszulity.presentation import parse_algebra_file
from koszulity import modules as mo
from conftest import data_path


def test_trivial_extension_shape(a4, delta_a4):
    assert delta_a4.dim == 16
    assert delta_a4.dims_by_degree() == {0: 8, 1: 8}
    for v in delta_a4.vertices:
        assert mo.projective_module(delta_a4, v).dim == 4


def test_equality_ignores_memoized_data():
    # Derived data built on first use must not change the algebra's value.
    a, b = (parse_algebra_file(data_path("a4.alg"))[0] for _ in range(2))
    assert a == b
    a.arrows()
    a.radical_degree_zero()
    assert a == b and b == a
    with pytest.raises(TypeError):
        hash(a)
    # one changed structure constant is a different algebra
    c = parse_algebra_file(data_path("a4.alg"))[0]
    key = next(iter(c.table))
    c.table[key] = {k: 2 * x for k, x in c.table[key].items()}
    assert c != b and b != c


def test_trivial_extension_of_field(point):
    d = trivial_extension(point)
    assert d.dims_by_degree() == {0: 1, 1: 1}


def test_trivial_extension_a2(a2, delta_a2):
    assert delta_a2.dim == 6
    assert delta_a2.dims_by_degree() == {0: 3, 1: 3}


def test_trivial_extension_rejects_graded(dualnum):
    with pytest.raises(InputError):
        trivial_extension(dualnum)


def test_opposite_involution(a4, delta_a4):
    for alg in (a4, delta_a4):
        opop = alg.opposite().opposite()
        assert opop.table == alg.table
        assert opop.source == alg.source


def test_opposite_of_a2(a2):
    op = a2.opposite()
    op.validate()
    x = op.index_of["al"]
    assert op.source[x] == 2 and op.target[x] == 1


def test_opposite_commutative_equal(x3):
    assert x3.opposite().table == x3.table


def test_regrade(dualnum, delta_a4):
    assert dualnum.regrade(1).degree == dualnum.degree
    r3 = dualnum.regrade(3)
    assert sorted(r3.degree) == [0, 3]
    r2 = delta_a4.regrade(2)
    dims = r2.dims_by_degree()
    assert dims == {0: 8, 2: 8}


def test_frobenius_trivial_extensions(delta_a4, delta_a2, delta_kron):
    for alg in (delta_a4, delta_a2, delta_kron):
        rep = frobenius_analysis(alg)
        assert rep.is_frobenius and rep.a == 1 and rep.symmetric
        assert rep.mu.is_identity()


def test_frobenius_x3(x3):
    rep = frobenius_analysis(x3)
    assert rep.is_frobenius and rep.a == 2 and rep.symmetric


def test_frobenius_negative(a2):
    rep = frobenius_analysis(a2)
    assert not rep.is_frobenius
    assert not rep.probabilistic  # certified by block dimensions


def test_frobenius_nakayama_swap(nak2):
    rep = frobenius_analysis(nak2)
    assert rep.is_frobenius and rep.a == 1 and not rep.symmetric
    assert rep.mu_vertex_permutation == {1: 2, 2: 1}
    assert verify_form_identity(nak2, rep.functional, rep.mu)


def test_socle_in_top_degree(delta_a4, x3, nak2, dualnum):
    for alg in (delta_a4, x3, nak2, dualnum):
        a = alg.highest_degree()
        assert set(socle_degrees(alg)) == {a}


def arrow_labels(alg):
    return [" + ".join(f"{c}*{alg.labels[k]}" if c != 1 else alg.labels[k]
                       for k, c in a.items()) for a in alg.arrows()]


def test_exact_arrows(a4, delta_a4):
    beil2 = parse_algebra_file(data_path("beil2.alg"))[0]
    assert arrow_labels(a4) == ["a1", "a2", "a3", "a4"]
    assert arrow_labels(beil2) == ["x0", "x1", "x2", "y0", "y1", "y2"]
    assert len(delta_a4.arrows()) == 8
    assert len(trivial_extension(beil2).arrows()) == 12
    # with the idempotents they generate: every arrow lies in one block
    for alg in (a4, beil2, delta_a4):
        for a in alg.arrows():
            assert len({(alg.source[k], alg.target[k], alg.degree[k])
                        for k in a}) == 1


def test_radical_degree_zero(a4, point):
    assert len(a4.radical_degree_zero()) == 4  # the four arrows
    assert point.radical_degree_zero() == []


def test_validate_catches_bad_table(a4):
    import copy

    broken = copy.deepcopy(a4)
    broken.table[(4, 4)] = {0: Fraction(1)}  # a1 * a1 is not composable
    from koszulity.algebra import InternalCheckError

    with pytest.raises(InternalCheckError):
        broken.validate()
