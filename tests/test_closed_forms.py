"""Submodule actions and maps out of projectives are read off, not solved.

`mo.submodule` keeps each block's basis as the reduced echelon rows of its
span, so the coordinates of a vector of the span sit at the pivot columns;
`mo.solve_hom_factorization` sends each generator of a projective domain to
a preimage of its value. These tests compare both with the solves they
replace (`conftest.submodule_by_solve` and
`conftest.hom_factorization_by_system`; `test_arrows` compares the cycle
modules of orbit complexes), cover the traps the closed forms keep, and
check that a simple module is the top of its projective.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (hom_factorization_by_system, kernel_spans, linear_combination,
                      submodule_by_solve)
from koszulity import modules as mo
from koszulity import resolution as rs
from koszulity.algebra import InternalCheckError
from test_arrows import algebras, beil2, draw_algebra, draw_module, rebase  # noqa: F401


def assert_same_submodule(got, want):
    assert got.dims == want.dims
    assert got.action == want.action
    for per_deg in got.action.values():
        for mat in per_deg.values():
            assert all(type(x) is int or x.denominator != 1
                       for row in mat.data for x in row)


def random_hom(m, n, data):
    basis = mo.hom_space(m, n)
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(basis),
                                max_size=len(basis)))
    return linear_combination(m, n, basis, coeffs)


def random_map_from(P, n, data):
    """A hom from the FormalProjective P to n: each generator goes to a
    random element of n in its block."""
    pieces = []
    for (key, part, off) in zip(P.gens, P.parts, P.offsets):
        vec = data.draw(st.lists(st.integers(-2, 2), min_size=n.block_dim(*key),
                                 max_size=n.block_dim(*key)))
        pieces.append((mo.map_from_projective(part, n, {key: vec} if vec else {}), off, {}))
    return mo.place(P, n, pieces)


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_kernel_submodule_matches_per_block_solve(algebras, data):
    alg = draw_algebra(algebras, data)
    m, n = draw_module(alg, data), draw_module(alg, data)
    f = random_hom(m, n, data)
    K, incl = mo.kernel_submodule(f)
    assert_same_submodule(K, submodule_by_solve(m, kernel_spans(f)))
    assert f.compose(incl).is_zero() and incl.check_commutes()


def assert_factors(p, v, u):
    assert u is not None and u.check_commutes()
    assert p.compose(u).blocks == v.blocks


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_lift_through_covers_matches_hom_system(algebras, data):
    # Omega's lift: v = f o epi_M out of M's cover, through N's cover
    alg = draw_algebra(algebras, data)
    m, n = draw_module(alg, data), draw_module(alg, data)
    src, tgt = mo.cover_data(m), mo.cover_data(n)
    v = random_hom(m, n, data).compose(src.epi)
    assert_factors(tgt.epi, v, mo.solve_hom_factorization(tgt.epi, v))
    assert_factors(tgt.epi, v, hom_factorization_by_system(tgt.epi, v))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_lift_of_resolution_terms_matches_hom_system(algebras, data):
    # the lift of `koszul.stable_to_ext`: a map out of a resolution term
    # through the projection of an injective envelope onto its cokernel, or
    # through a cover (envelopes need a path basis)
    alg = draw_algebra(algebras, data)
    path_basis = any(alg is a for a in algebras.values())
    m, n = draw_module(alg, data), draw_module(alg, data)
    res = rs.MinimalResolution(m).extend(2)
    P = res.terms[data.draw(st.integers(0, len(res.terms) - 1))]
    if not path_basis or data.draw(st.booleans()):
        p = mo.cover_data(n).epi
    else:
        p = mo.envelope_data(n).proj
    v = random_map_from(P, p.codomain, data)
    assert_factors(p, v, mo.solve_hom_factorization(p, v))
    assert_factors(p, v, hom_factorization_by_system(p, v))


def test_no_factorization_through_a_non_epi(a4):
    # the identity of P_1 does not factor through rad P_1 -> P_1
    cd = mo.cover_data(mo.simple_module(a4, 1))
    v = mo.identity_hom(cd.cover)
    assert mo.solve_hom_factorization(cd.incl, v) is None
    assert hom_factorization_by_system(cd.incl, v) is None


def test_submodule_traps_a_span_that_is_not_closed(kron):
    # P_1 = e_1 kron: the generator at (1, 0) and, at (2, 0), only the
    # first of the two arrows' images; the other arrow leaves that span
    p = mo.projective_module(kron, 1)
    spans = {key: [[1] + [0] * (k - 1)] for key, k in p.dims.items()}
    assert p.dims == {(1, 0): 1, (2, 0): 2}
    with pytest.raises(InternalCheckError, match="span not action-closed"):
        mo.submodule(p, spans)
    # nothing at all at (2, 0)
    with pytest.raises(InternalCheckError, match="span not action-closed"):
        mo.submodule(p, {(1, 0): [[1]]})


def test_simple_module_is_the_top_of_its_projective(a4, delta_kron, x3):
    # k[x]/x^3 over the basis e, e + 2/3 x, e + 2/3 x^2: e + 2/3 x lies
    # outside the radical and acts on S_1 by 1, not by 0
    alg = rebase(x3.forget_grading(), [Fraction(2, 3)])
    s = mo.simple_module(alg, 1)
    assert s.dims == {(1, 0): 1} and s.name == "S1<0>"
    assert {x: per[0].data for x, per in s.action.items()} == {1: [[1]], 2: [[1]]}
    assert not any(map(any, mo.radical_span(s).values()))
    assert mo.syzygy(s)[0].dim == 2
    # over path bases only the radical acts, by 0
    for a in (a4, delta_kron, x3, beil2()):
        for v in a.vertices:
            for d in (-1, 0, 2):
                s = mo.simple_module(a, v, d)
                assert (s.dims, s.action, s.name) == ({(v, d): 1}, {}, f"S{v}<{d}>")
