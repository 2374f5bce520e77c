import hashlib
import random
from fractions import Fraction

import pytest

from koszulity import modules as mo
from koszulity import truncated as tr
from koszulity.algebra import InputError, InternalCheckError
from conftest import graded_iso_space_dense


def poly_ring_truncation(dualnum, cutoff=7):
    """dims (1,1,1,...): the dual of the dual numbers."""
    k = mo.simple_module(dualnum, 1, 0)
    return tr.koszul_dual(dualnum, [k], 1, cutoff).algebra


def test_koszul_dual_dual_numbers(dualnum):
    G = poly_ring_truncation(dualnum)
    assert G.dims() == {d: 1 for d in range(8)}
    # all products of basis elements are nonzero (polynomial ring)
    for d1 in range(4):
        for d2 in range(4):
            assert G.mult(d1, {0: Fraction(1)}, d2, {0: Fraction(1)})


def test_dual_degree_zero_is_end(delta_a4, t_summands):
    G = tr.koszul_dual(delta_a4, t_summands, 2, 1).algebra
    assert G.dim(0) == 10


def test_quasi_veronese_identity(dualnum):
    G = poly_ring_truncation(dualnum)
    GV = tr.quasi_veronese(G, 1)
    assert GV.dims() == G.dims()
    assert GV.products == G.products


def test_quasi_veronese_poly_dims(dualnum):
    G = poly_ring_truncation(dualnum)
    GV = tr.quasi_veronese(G, 2)
    assert GV.dim(0) == 3
    for i in range(1, GV.cutoff + 1):
        assert GV.dim(i) == 4
    GV.check()


def test_quasi_veronese_dim_formula(delta_a4, t_summands):
    G = tr.koszul_dual(delta_a4, t_summands, 2, 5).algebra
    for r in (2, 3):
        GV = tr.quasi_veronese(G, r)
        for i in range(GV.cutoff + 1):
            expected = sum(G.dim(r * i + k - j)
                           for j in range(r) for k in range(r))
            assert GV.dim(i) == expected


# Dual dumps as computed when the product loop lifted the classes g once
# per (d1, d2) pair and kept every lift to the end; lifting each class of
# degree d2 once, with d2 outermost, reproduces them exactly
PINNED_DUAL_SHA256 = {
    "kron-trivext": "4c08860b2e856cd0dc9ea97fc9f77ad5d8fc5084cc49770546e2b629435ce527",
    "a4-T1-T4": "c7b209935e0b93f85276f5e9e62014824fe6c4078ae3f130f172e82fca554eb2",
    "dualnum": "48662fdcf782c87f138f321b884ef44258f44ef9bb61332c92d4b8fb6f18c01e",
}


def test_dual_tables_are_pinned(delta_kron, kron_summands, delta_a4, t_summands,
                                dualnum):
    for name, args in (("kron-trivext", (delta_kron, kron_summands, 2, 4)),
                       ("a4-T1-T4", (delta_a4, t_summands, 2, 5)),
                       ("dualnum", (dualnum, [mo.simple_module(dualnum, 1, 0)], 1, 6))):
        dump = tr.koszul_dual(*args).algebra.dump()
        assert hashlib.sha256(dump.encode()).hexdigest() == PINNED_DUAL_SHA256[name], name


def test_quasi_veronese_cutoff_guard(dualnum):
    G = tr.truncate_algebra(dualnum, 0)
    with pytest.raises(InputError):
        tr.quasi_veronese(G, 2)


def test_twist_by_identity(dualnum):
    G = poly_ring_truncation(dualnum, cutoff=4)
    tw = tr.twist_algebra(G, tr.identity_truncated_morphism(G))
    assert tw.products == G.products
    assert tw.basis == G.basis


def test_double_twist_restores(nak2):
    from koszulity.frobenius import frobenius_analysis

    # dual of the cyclic Nakayama algebra carries the swap automorphism
    s = [mo.simple_module(nak2, v, 0) for v in nak2.vertices]
    dual = tr.koszul_dual(nak2, s, 1, 3)
    from koszulity import koszul as ko

    fr = frobenius_analysis(nak2)
    md = ko.mu_permutation(s, fr.mu, rng=random.Random(0))
    phi = ko.build_mu_bar(nak2, dual, fr.mu, md, rng=random.Random(0))
    tw = tr.twist_algebra(dual.algebra, phi)
    back = tr.twist_algebra(tw, phi.inverse())
    assert back.products == dual.algebra.products
    tw.check()


def test_swap_twist_changes_products(nak2):
    from koszulity.frobenius import frobenius_analysis
    from koszulity import koszul as ko

    s = [mo.simple_module(nak2, v, 0) for v in nak2.vertices]
    dual = tr.koszul_dual(nak2, s, 1, 3)
    fr = frobenius_analysis(nak2)
    md = ko.mu_permutation(s, fr.mu, rng=random.Random(0))
    phi = ko.build_mu_bar(nak2, dual, fr.mu, md, rng=random.Random(0))
    assert not phi.is_identity()
    tw = tr.twist_algebra(dual.algebra, phi)
    tw.check()
    # tags of degree-1 elements change under the vertex permutation
    assert tw.tags(1) != dual.algebra.tags(1)


def test_induced_veronese_automorphism_identity(dualnum):
    G = poly_ring_truncation(dualnum, cutoff=5)
    ident = tr.identity_truncated_morphism(G)
    GV = tr.quasi_veronese(G, 2)
    lifted = tr.induced_veronese_automorphism(G, ident, 2, GV=GV)
    assert lifted.is_identity()


def test_induced_veronese_compatible_with_composition(nak2):
    from koszulity.frobenius import frobenius_analysis
    from koszulity import koszul as ko

    s = [mo.simple_module(nak2, v, 0) for v in nak2.vertices]
    dual = tr.koszul_dual(nak2, s, 1, 5)
    fr = frobenius_analysis(nak2)
    md = ko.mu_permutation(s, fr.mu, rng=random.Random(0))
    phi = ko.build_mu_bar(nak2, dual, fr.mu, md, rng=random.Random(0))
    G = dual.algebra
    GV = tr.quasi_veronese(G, 2)
    square = tr.compose_truncated(phi, phi)
    lift_each = tr.compose_truncated(
        tr.induced_veronese_automorphism(G, phi, 2, GV=GV),
        tr.induced_veronese_automorphism(G, phi, 2, GV=GV),
    )
    lift_square = tr.induced_veronese_automorphism(G, square, 2, GV=GV)
    for d in range(GV.cutoff + 1):
        assert lift_each.mat(d) == lift_square.mat(d)


def test_dump_deterministic(dualnum):
    G = poly_ring_truncation(dualnum, cutoff=3)
    assert G.dump() == G.dump()
    assert "basis 0 0 0" in G.dump()
    assert G.dump().endswith("end")


def full_check(G):
    """The structural checks with associativity tested on every triple of
    basis elements, composable or not, by multiplying basis vectors: the
    reference for TruncatedGradedAlgebra.check."""
    for ((d1, i), (d2, j)), prod in G.products.items():
        s1, t1, _ = G.basis[d1][i]
        s2, t2, _ = G.basis[d2][j]
        if t1 != s2 and prod:
            raise InternalCheckError("non-composable product stored")
        for k in prod:
            s3, t3, _ = G.basis[d1 + d2][k]
            if (s3, t3) != (s1, t2):
                raise InternalCheckError("product tags wrong")
    for d in range(G.cutoff + 1):
        for i in range(G.dim(d)):
            v = {i: Fraction(1)}
            if G.mult(0, G.unit, d, v) != v or G.mult(d, v, 0, G.unit) != v:
                raise InternalCheckError("unit law fails in truncated algebra")
    one = Fraction(1)
    for da in range(G.cutoff + 1):
        for db in range(G.cutoff + 1 - da):
            for dc in range(G.cutoff + 1 - da - db):
                for i in range(G.dim(da)):
                    for j in range(G.dim(db)):
                        for k in range(G.dim(dc)):
                            ab = G.mult(da, {i: one}, db, {j: one})
                            lhs = G.mult(da + db, ab, dc, {k: one})
                            bc = G.mult(db, {j: one}, dc, {k: one})
                            rhs = G.mult(da, {i: one}, db + dc, bc)
                            if lhs != rhs:
                                raise InternalCheckError(
                                    "associativity fails in truncated algebra")
    return True


def outcome(check, G):
    try:
        return check(G)
    except InternalCheckError as exc:
        return str(exc)


def with_products(G, products):
    return tr.TruncatedGradedAlgebra(G.name, G.cutoff, G.vertices, G.basis,
                                     products, G.unit)


@pytest.fixture(scope="module")
def checked_algebras(delta_a4, delta_kron, kron_summands):
    return [tr.truncate_algebra(delta_a4, 1),
            tr.koszul_dual(delta_kron, kron_summands, 2, 2).algebra]


def test_check_agrees_with_full_triple_loop_on_perturbations(checked_algebras):
    # add 1 to one structure constant of a composable pair, at a basis
    # element with the right tags: the pruned check must fail exactly when,
    # and with the message that, the full triple loop does. On Delta(a4)
    # every such change to a product of two non-units stays associative, so
    # there the unit law is what fails; on the dual of kron associativity
    # fails.
    rng = random.Random(0)
    seen = []
    for G in checked_algebras:
        assert G.check() is True and full_check(G) is True
        options = []
        for d1 in range(G.cutoff + 1):
            for d2 in range(G.cutoff + 1 - d1):
                for i, (s1, t1, _) in enumerate(G.basis.get(d1, [])):
                    for j, (s2, t2, _) in enumerate(G.basis.get(d2, [])):
                        if t1 == s2:
                            options += [((d1, i), (d2, j), k) for k, tags
                                        in enumerate(G.tags(d1 + d2))
                                        if tags == (s1, t2)]
        messages = set()
        for a, b, k in rng.sample(options, min(30, len(options))):
            products = dict(G.products)
            entry = dict(products.get((a, b), {}))
            entry[k] = entry.get(k, 0) + 1
            products[(a, b)] = entry
            bad = with_products(G, products)
            expected = outcome(full_check, bad)
            assert outcome(tr.TruncatedGradedAlgebra.check, bad) == expected
            messages.add(expected)
        seen.append(messages)
    assert "unit law fails in truncated algebra" in seen[0]
    assert "associativity fails in truncated algebra" in seen[1]


def test_check_rejects_non_composable_product(checked_algebras):
    for G in checked_algebras:
        (d1, i, t1), (d2, j) = next(
            ((d1, i, t1), (d2, j))
            for d1 in range(G.cutoff + 1) for d2 in range(G.cutoff + 1 - d1)
            for i, (_s1, t1, _) in enumerate(G.basis.get(d1, []))
            for j, (s2, _t2, _) in enumerate(G.basis.get(d2, []))
            if t1 != s2 and G.dim(d1 + d2))
        bad = with_products(G, {**G.products, ((d1, i), (d2, j)): {0: Fraction(1)}})
        for check in (full_check, tr.TruncatedGradedAlgebra.check):
            with pytest.raises(InternalCheckError, match="non-composable product stored"):
                check(bad)


def test_check_multiplies_twice_per_composable_triple(checked_algebras):
    # two products per basis element for the unit law, then ab.c and a.bc
    # for every triple whose tags compose, and for no other triple
    for G in checked_algebras:
        composable = sum(
            1
            for da in range(G.cutoff + 1)
            for db in range(G.cutoff + 1 - da)
            for dc in range(G.cutoff + 1 - da - db)
            for (_sa, ta, _) in G.basis.get(da, [])
            for (sb, tb, _) in G.basis.get(db, [])
            for (sc, _tc, _) in G.basis.get(dc, [])
            if ta == sb and tb == sc)
        calls = []
        mult = G.mult
        G.mult = lambda *args: calls.append(args) or mult(*args)
        try:
            G.check()
        finally:
            del G.mult
        assert composable
        assert len(calls) == 2 * sum(G.dims().values()) + 2 * composable


def trivext_dual_pair(a0, n, d_max):
    """Pi_{n+1}(A), the Koszul dual of Delta A, the degree-0 map between
    them and the vertex map, as `verify trivext-dual` builds them."""
    from koszulity import hereditary as hd, verify as vf
    from koszulity.algebra import trivial_extension

    delta = trivial_extension(a0)
    summands = vf.inflated_regular_summands(a0, delta)
    pp = hd.preprojective_algebra(a0, n, d_max)
    dual = tr.koszul_dual(delta, summands, n + 1, d_max)
    return (pp.algebra, dual.algebra, vf.dual_phi0_from_pp(pp, a0, dual, summands),
            {v: i for i, v in enumerate(a0.vertices)})


@pytest.mark.parametrize("name, d_max", [("kron", 2), ("kron", 3), ("kron", 4),
                                         ("kron", 5), ("a2", 2), ("a2", 3)])
def test_degree_one_space_matches_dense_rows(request, name, d_max):
    G1, G2, phi0, vertex_map = trivext_dual_pair(request.getfixturevalue(name),
                                                 1, d_max)
    space = tr._degree_one_space(G1, G2, phi0)
    assert space and space == graded_iso_space_dense(G1, G2, phi0)
    assert tr.find_graded_iso(G1, G2, phi0, vertex_map,
                              rng=random.Random(0)).found


def test_degree_one_space_matches_dense_rows_on_automorphisms(delta_a4, t_summands):
    from koszulity.linalg import Matrix
    from koszulity.presentation import Arrow, Quiver, build_algebra

    # the Kronecker quiver with its arrows in degree 1: every invertible
    # 2 x 2 matrix on ka + kb extends, so the space is 4-dimensional
    kron1 = build_algebra(Quiver(2, (Arrow("a", 1, 2, 1), Arrow("b", 1, 2, 1))),
                          [], 2, name="kron1")
    for G, dim in ((tr.truncate_algebra(kron1, 1), 4),
                   (tr.koszul_dual(delta_a4, t_summands, 2, 2).algebra, 1)):
        one = Matrix.identity(G.dim(0))
        space = tr._degree_one_space(G, G, one)
        assert len(space) == dim and space == graded_iso_space_dense(G, G, one)
