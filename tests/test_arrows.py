"""The arrows of an algebra give its radical, socle and Hom equations.

`GradedAlgebra.arrows` lifts a basis of rad/rad^2; with the idempotents the
arrows generate the algebra, because rad is nilpotent. So M.rad is the sum
of the M.a, soc M is the common kernel of the a, and a linear map is a
module map iff it commutes with the a. These tests compare each route with
its reference in `conftest`, which uses every element of `radical_basis()`
or the greedy `generating_set` closure, and compare `complex_cohomology`,
which solves one system per block, with the per-vector preimages of
`cohomology_by_vectors`; its cycle modules, whose actions `mo.submodule`
reads at pivot columns, with the per-block solves of `submodule_by_solve`.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (cohomology_by_vectors, data_path,
                      hom_kernel_by_generating_set, kernel_spans,
                      radical_span_by_radical_basis, socle_degrees_by_radical_basis,
                      socle_spans_by_radical_basis, submodule_by_solve)
from koszulity import hereditary as hd
from koszulity import modules as mo
from koszulity.algebra import GradedAlgebra, InputError
from koszulity.frobenius import socle_degrees
from koszulity.linalg import EchelonBasis, exact
from koszulity.presentation import parse_algebra_file
from test_exactness import SCALES, rescale


def beil2():
    return parse_algebra_file(data_path("beil2.alg"))[0]


def rebase(alg, scales):
    """alg over a new basis: the k-th non-idempotent basis element x becomes
    scales[k] x, plus e_v when x is a degree-0 loop at v.

    Such a loop is then no longer in the radical, so the arrows it gives in
    degree 0 are combinations with the idempotent.
    """
    nv = alg.num_vertices
    new = [{i: 1} for i in range(nv)]   # new basis in old coordinates
    old = [{i: 1} for i in range(nv)]   # old basis in new coordinates
    for k, x in enumerate(range(nv, alg.dim)):
        s = scales[k % len(scales)]
        e = alg.idempotent_index(alg.source[x])
        loop = alg.degree[x] == 0 and alg.source[x] == alg.target[x]
        new.append({x: s, e: 1} if loop else {x: s})
        old.append({x: 1 / s, e: -1 / s} if loop else {x: 1 / s})
    table = {}
    for i in range(alg.dim):
        for j in range(alg.dim):
            prod = {}
            for k, c in alg.mult(new[i], new[j]).items():
                for y, cy in old[k].items():
                    prod[y] = prod.get(y, 0) + c * cy
            prod = {y: exact(c) for y, c in prod.items() if c}
            if prod:
                table[(i, j)] = prod
    out = GradedAlgebra(f"{alg.name}'", nv, list(alg.labels), list(alg.source),
                        list(alg.target), list(alg.degree), table,
                        vertices=list(alg.vertices))
    out.validate()
    return out


@pytest.fixture(scope="module")
def algebras(delta_a4, delta_kron, x3):
    return {"Delta(a4)": delta_a4, "Delta(kron)": delta_kron, "x3": x3,
            "beil2": beil2(), "k[x]/x^3": x3.forget_grading()}


def draw_algebra(algebras, data):
    """One of algebras, over a rebased basis or not."""
    alg = algebras[data.draw(st.sampled_from(sorted(algebras)))]
    if data.draw(st.booleans()):
        return rebase(alg, data.draw(st.lists(SCALES, min_size=1, max_size=4)))
    return alg


def draw_module(alg, data):
    v = data.draw(st.sampled_from(alg.vertices))
    kind = data.draw(st.sampled_from(["projective", "injective", "simple",
                                      "regular", "syzygy", "sum"]))
    if kind == "projective":
        m = mo.projective_module(alg, v, data.draw(st.integers(-1, 1)))
    elif kind == "injective":
        m = mo.dual_of_left_projective(alg, v)
    elif kind == "simple":
        m = mo.simple_module(alg, v)
    elif kind == "regular":
        m = mo.regular_module(alg)
    elif kind == "syzygy":
        m = mo.syzygy(mo.dual_of_left_projective(alg, v))[0]
    else:
        m = mo.DirectSum(alg, [mo.projective_module(alg, v),
                               mo.dual_of_left_projective(alg, v)])
    if m.is_zero() or not data.draw(st.booleans()):
        return m
    return rescale(m, {key: data.draw(st.lists(SCALES, min_size=k, max_size=k))
                       for key, k in sorted(m.dims.items(), key=str)})


def row_spans(spans):
    return {key: EchelonBasis(vecs).rows for key, vecs in spans.items()}


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_arrow_routes_match_radical_basis_routes(algebras, data):
    alg = draw_algebra(algebras, data)
    m, n = draw_module(alg, data), draw_module(alg, data)
    assert row_spans(mo.radical_span(m)) == row_spans(radical_span_by_radical_basis(m))
    assert mo.socle_spans(m) == socle_spans_by_radical_basis(m)
    assert mo._hom_kernel(m, n)[1] == hom_kernel_by_generating_set(m, n)[1]
    assert socle_degrees(alg) == socle_degrees_by_radical_basis(alg)


def test_rebased_loop_needs_a_combination_lift(x3):
    # k[x]/x^3 over the basis e, e + 2/3 x, e - 1/2 x^2: no basis element
    # lies in the radical, so the one arrow is a combination with e
    alg = rebase(x3.forget_grading(), [Fraction(2, 3), Fraction(-1, 2)])
    [arrow] = alg.arrows()
    assert len(arrow) > 1 and 0 in arrow
    m = mo.regular_module(alg)
    assert row_spans(mo.radical_span(m)) == row_spans(radical_span_by_radical_basis(m))
    assert mo.socle_spans(m) == socle_spans_by_radical_basis(m)
    assert mo._hom_kernel(m, m)[1] == hom_kernel_by_generating_set(m, m)[1]


@pytest.mark.parametrize("name, n, steps", [("kron", 1, 3), ("beil2", 2, 2)])
def test_cohomology_matches_per_vector_solve(kron, name, n, steps):
    a = kron if name == "kron" else beil2()
    pieces = [hd.Piece(mo.projective_module(a, v), 0) for v in a.vertices]
    compared = 0
    for _ in range(steps):
        nxt = []
        for piece in pieces:
            outs, _dims = hd.nu_inverse_step(a, piece, n)
            nxt.extend(outs)
            if piece.step_data is None:
                continue
            got = {d: data.module for d, data in piece.step_data.cohomology.items()}
            want = cohomology_by_vectors(piece.step_data.complex)
            assert {d: (h.dims, h.action) for d, h in got.items()} \
                == {d: (h.dims, h.action) for d, h in want.items()}
            for d, data in piece.step_data.cohomology.items():
                dout = piece.step_data.complex.diffs.get(d)
                if dout is not None:
                    want = submodule_by_solve(dout.domain, kernel_spans(dout))
                    assert (data.cycles.dims, data.cycles.action) == (want.dims, want.action)
                    compared += 1
        pieces = nxt
    assert compared


def test_hom_space_needs_a_split_basic_algebra():
    # k x k on one vertex: f = f^2 is a second idempotent of degree 0
    alg = GradedAlgebra("kxk", 1, ["e", "f"], [1, 1], [1, 1], [0, 0],
                        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                         (1, 1): {1: 1}})
    alg.validate()
    p = mo.projective_module(alg, 1)
    with pytest.raises(InputError, match="split basic"):
        mo.hom_space(p, p)
