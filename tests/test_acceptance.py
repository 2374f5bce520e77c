"""Acceptance suite.

Every criterion is checked in exact arithmetic (tolerance = exact equality)
over the windows stated inline; each test prints one pass line. Run with

    pytest tests/test_acceptance.py -v -s
"""

import random

from koszulity.algebra import trivial_extension
from koszulity.frobenius import frobenius_analysis
from koszulity.presentation import (Arrow, Quiver, build_algebra,
                                    parse_algebra_file, path_count)
from koszulity import modules as mo
from koszulity import resolution as rs
from koszulity import truncated as tr
from koszulity import koszul as ko
from koszulity import hereditary as hd
from koszulity import verify as vf
from conftest import data_path, rel
from test_hereditary import knitting_expected_dims


def _report(num, text):
    print(f"[criterion {num}] {text}: pass")


# ---------------------------------------------------------------------------
# 1. worked-example reproduction
# ---------------------------------------------------------------------------

def test_criterion_1_worked_example():
    alg, quiver = parse_algebra_file(data_path("a4.alg"), 3)
    assert alg.dim == 8
    assert path_count(quiver, 2) == 10
    delta = trivial_extension(alg)
    assert delta.dim == 16
    for v in delta.vertices:
        assert mo.projective_module(delta, v).dim == 4
    fr = frobenius_analysis(delta)
    assert fr.is_frobenius and fr.a == 1 and fr.symmetric

    t_files = ["T1.mod", "T2.mod", "T3.mod", "T4.mod"]
    base_parts = [mo.parse_module_file(data_path(f), alg) for f in t_files]
    assert [m.dim for m in base_parts] == [3, 1, 1, 3]
    tilt = rs.tilting_module_check(alg, base_parts)
    assert tilt.is_tilting

    parts = [mo.inflate_module(m, delta) for m in base_parts]
    # `ko.omega` raises if a cosyzygy has a projective summand
    chain = rs.MinimalCoresolution(parts[0])
    c1 = ko.omega(chain, 1)
    assert c1.dim == 5
    assert c1.dims_by_degree() == {-1: 4, 0: 1}
    c2 = ko.omega(chain, 2)
    assert c2.dim == 7

    tilde = ko.build_t_tilde(delta, parts, 2, 1)
    dual = tr.koszul_dual(delta, parts, 2, 1)
    bdata = ko.stable_endomorphism_algebra(delta, tilde, dual=dual)
    B = bdata.algebra
    assert B.dim == 10

    # quiver of B equals the quiver of A: compare arrow counts via rad/rad^2
    radb = B.radical_degree_zero()
    rad_sq = set()
    arrows_b = {}
    rad_elements = radb
    for r1 in rad_elements:
        for r2 in rad_elements:
            prod = B.mult(r1, r2)
            for k, c in prod.items():
                if c:
                    rad_sq.add(k)
    for r in rad_elements:
        for k in r:
            if k not in rad_sq:
                tag_s, tag_t = B.source[k], B.target[k]
                arrows_b[(tag_s[0] + 1, tag_t[0] + 1)] = arrows_b.get(
                    (tag_s[0] + 1, tag_t[0] + 1), 0) + 1
    arrows_a = {}
    for a in quiver.arrows:
        arrows_a[(a.source, a.target)] = arrows_a.get((a.source, a.target), 0) + 1
    assert arrows_b == arrows_a

    rep = ko.check_n_T_koszul(delta, parts, 2, 6)
    assert rep.passed
    ri = hd.is_n_rep_infinite_upto(B, 1, 6)
    assert ri.verdict is True
    _report(1, "worked-example reproduction (dims, tilting, cosyzygies, "
               "End = 10, quiver match, 2-T-Koszul, B rep-infinite)")


# ---------------------------------------------------------------------------
# 2. characterization, both directions
# ---------------------------------------------------------------------------

def test_criterion_2_characterization_suite(a4, delta_a4, t_summands,
                                            delta_kron, kron_summands,
                                            delta_a2, a2_summands):
    cases = [
        ("diamond", delta_a4, t_summands, 2, True),
        ("kronecker", delta_kron, kron_summands, 2, True),
        ("a2-negative", delta_a2, a2_summands, 2, False),
    ]
    for name, alg, summands, n, expect_pass in cases:
        rep = vf.verify_characterization(alg, summands, n, i_max=6, depth=6)
        assert rep.agree is True, (name, rep.left, rep.right)
        left_passed = rep.left.endswith("pass") or ": pass" in rep.left
        assert left_passed == expect_pass, (name, rep.left)
    _report(2, "characterization equivalences agree on all three suite "
               "members, including the negative case")


# ---------------------------------------------------------------------------
# 3. trivial extension corollary with a = 1
# ---------------------------------------------------------------------------

def test_criterion_3_trivext_corollary(kron, a2, point):
    expectations = [("kronecker", kron, True), ("a2", a2, False),
                    ("point", point, False)]
    for name, base, rep_infinite in expectations:
        rep = vf.verify_trivext_koszul(base, 1, i_max=6, depth=6)
        assert rep.agree is True, (name, rep.left, rep.right)
        assert (("pass" in rep.left) == rep_infinite), (name, rep.left)
    _report(3, "(n+1)-Koszulity of the trivial extension matches "
               "n-representation infiniteness for all three bases")


# ---------------------------------------------------------------------------
# 4. preprojective vs dual of the trivial extension
# ---------------------------------------------------------------------------

def test_criterion_4_preprojective_equals_dual(kron, a2):
    # independent oracle: Coxeter-matrix knitting for the Kronecker dims
    expected = knitting_expected_dims(kron, 5)
    assert expected == {0: 4, 1: 12, 2: 20, 3: 28, 4: 36, 5: 44}
    pp = hd.preprojective_algebra(kron, 1, 5)
    assert pp.algebra.dims() == expected

    rep = vf.verify_trivext_dual(kron, 1, d_max=5)
    assert rep.agree is True and rep.details["iso_found"]

    # independent oracle: the doubled quiver with both length-2 relations
    dq = Quiver(2, (Arrow("al", 1, 2, 0), Arrow("als", 2, 1, 1)))
    doubled = build_algebra(dq, [rel("al*als"), rel("als*al")], 2,
                            name="doubled")
    assert doubled.dims_by_degree() == {0: 3, 1: 1}

    pp2 = hd.preprojective_algebra(a2, 1, 4)
    assert pp2.algebra.dims() == {0: 3, 1: 1, 2: 0, 3: 0, 4: 0}
    rep2 = vf.verify_trivext_dual(a2, 1, d_max=4)
    assert rep2.agree is True and rep2.details["iso_found"]
    _report(4, "preprojective algebras match the duals with explicit "
               "degree-1-generated isomorphisms (knitting and doubled-quiver "
               "oracles agree)")


# ---------------------------------------------------------------------------
# 5. full almost-Koszul chain over the trivial extension of a2
# ---------------------------------------------------------------------------

def test_criterion_5_almost_chain(delta_a2, a2_summands):
    params, almost, tilt = ko.check_n_m_sigma_koszul(delta_a2, a2_summands, 2)
    assert params is not None
    assert params.m == [0, 1]
    assert params.sigma == [0, 0]
    assert params.l == [1, 3]
    assert params.g == [1, 2]
    assert params.pi == [1, 0]
    params.check_invariants()

    tilde = ko.build_t_tilde(delta_a2, a2_summands, 2, 1)
    dual = tr.koszul_dual(delta_a2, a2_summands, 2, 1)
    bdata = ko.stable_endomorphism_algebra(delta_a2, tilde, dual=dual)
    B = bdata.algebra
    assert B.dim == 3
    rf = hd.is_n_rep_finite(B, 1)
    assert rf.verdict is True
    assert sorted(o.m for o in rf.orbits) == [0, 1]

    rep = vf.verify_param_consistency(delta_a2, a2_summands, 2)
    assert rep.agree is True
    _report(5, "almost chain on the trivial extension of a2: m = (0,1), "
               "sigma = (0,0), l = (1,3), g = (1,2), transposition, orbit "
               "data consistent")


# ---------------------------------------------------------------------------
# 6. full chain on k[x]/x^3
# ---------------------------------------------------------------------------

def test_criterion_6_x3_chain(x3):
    k = mo.simple_module(x3, 1, 0)
    classic = ko.check_classic_almost_koszul(x3)
    assert classic.verdict == "almost" and (classic.g, classic.l) == (2, 1)

    params, almost, tilt = ko.check_n_m_sigma_koszul(x3, [k], 1)
    assert params is not None and params.m == [1] and params.sigma == [1]

    tilde = ko.build_t_tilde(x3, [k], 1, 2)
    assert [p.dim for p in tilde.parts] == [1, 2]
    assert tilde.parts[1].dims_by_degree() == {-1: 1, 0: 1}

    dual = tr.koszul_dual(x3, [k], 1, 1)
    bdata = ko.stable_endomorphism_algebra(x3, tilde, dual=dual)
    B = bdata.algebra
    assert B.dim == 3
    # 2x2 upper triangular with one-dimensional diagonal and corner blocks
    diag = [i for i in range(B.dim) if B.source[i] == B.target[i]]
    corner = [i for i in range(B.dim) if B.source[i] != B.target[i]]
    assert len(diag) == 2 and len(corner) == 1
    assert dual.groups[(0, 0, 0)].dim == 1 and dual.groups[(0, 0, 1)].dim == 1

    rf = hd.is_n_rep_finite(B, 1)
    assert rf.verdict is True

    table, ok = ko.serre_dimension_identity(x3, tilde, B, i_max=3,
                                            l_min=-2, l_max=2)
    assert ok
    _report(6, "x^3 chain: classic (2,1), m = 1, sigma = 1, T-tilde dims, "
               "B upper triangular, rep-finite, Serre window exact")


# ---------------------------------------------------------------------------
# 7. property suites over the corpus
# ---------------------------------------------------------------------------

def test_criterion_7_property_suites(a4, a2, kron, point, delta_a4, delta_a2,
                                     delta_kron, dualnum, x3, nak2,
                                     a2_summands, kron_summands):
    from koszulity.frobenius import socle_degrees
    from test_properties import random_module

    corpus = [delta_a4, delta_a2, delta_kron, dualnum, x3, nak2]
    # socle in the top degree, trivial extensions symmetric with a = 1
    for alg in corpus:
        assert set(socle_degrees(alg)) == {alg.highest_degree()}
    for base in (a4, a2, kron, point):
        fr = frobenius_analysis(trivial_extension(base))
        assert fr.is_frobenius and fr.a == 1 and fr.symmetric

    # seven-part degree bookkeeping on representative modules
    for alg in corpus:
        a = alg.highest_degree()
        m = mo.simple_module(alg, alg.vertices[0], 0)
        chain = rs.MinimalCoresolution(m)
        for i in (1, 2):
            c = ko.omega(chain, i)
            if not c.is_zero():
                assert c.highest_degree() <= 0
                for j in (-1, -2):
                    assert mo.hom_space(m, mo.shift_module(c, j)) == []
        s = ko.omega(rs.MinimalResolution(m), 1)
        if not s.is_zero():
            assert s.highest_degree() >= a
            for j in range(1 - a, 2):
                assert mo.hom_space(m, mo.shift_module(s, j)) == []
        qdim, _, _ = mo.stable_hom(m, m)
        assert qdim == len(mo.hom_space(m, m))

    # graded/ungraded Ext row sums on at least 20 randomized triples
    rng = random.Random(23)
    triples = 0
    for alg in (delta_a2, dualnum, nak2, x3):
        for _ in range(6):
            m = random_module(alg, rng)
            n = random_module(alg, rng)
            rs.ungraded_ext_dim(m, n, rng.randint(0, 4))
            triples += 1
    assert triples >= 20

    # quasi-Veronese dimension formula
    G = tr.koszul_dual(dualnum, [mo.simple_module(dualnum, 1, 0)], 1, 7).algebra
    for r in (2, 3):
        GV = tr.quasi_veronese(G, r)
        for i in range(GV.cutoff + 1):
            assert GV.dim(i) == sum(G.dim(r * i + kk - j)
                                    for j in range(r) for kk in range(r))

    # twist identities
    ident = tr.identity_truncated_morphism(G)
    assert tr.twist_algebra(G, ident).products == G.products
    s_mods = [mo.simple_module(nak2, v, 0) for v in nak2.vertices]
    frn = frobenius_analysis(nak2)
    md = ko.mu_permutation(s_mods, frn.mu, rng=random.Random(0))
    dualn = tr.koszul_dual(nak2, s_mods, 1, 3)
    phi = ko.build_mu_bar(nak2, dualn, frn.mu, md, rng=random.Random(0))
    tw = tr.twist_algebra(dualn.algebra, phi)
    assert tr.twist_algebra(tw, phi.inverse()).products == dualn.algebra.products

    # the triangular block assertion never fires on the corpus
    for alg, summands, n, a in [(delta_a2, a2_summands, 2, 1),
                                (delta_kron, kron_summands, 2, 1),
                                (x3, [mo.simple_module(x3, 1, 0)], 1, 2)]:
        tilde = ko.build_t_tilde(alg, summands, n, a)
        dualx = tr.koszul_dual(alg, summands, n, max(a - 1, 1))
        ko.stable_endomorphism_algebra(alg, tilde, dual=dualx)
    _report(7, "property suites: degree bookkeeping, socle location, "
               "symmetric trivial extensions, 24 randomized Ext row-sum "
               "checks, Veronese dims, twist identities, block bug trap")


# ---------------------------------------------------------------------------
# 8. quasi-Veronese / twist identity
# ---------------------------------------------------------------------------

def test_criterion_8_veronese_twist_identity(delta_a4, t_summands, x3):
    rep = vf.verify_preproj_veronese(delta_a4, t_summands, 2, d_max=4)
    assert rep.agree is True
    assert rep.details["dims_equal"] and rep.details["iso_found"]
    assert rep.details["untwisted_dims_equal"]
    assert rep.details["untwisted_iso_found"]

    k = mo.simple_module(x3, 1, 0)
    rep2 = vf.verify_preproj_veronese(x3, [k], 1, d_max=4)
    assert rep2.agree is True
    assert rep2.details["dims_equal"] and rep2.details["iso_found"]
    assert rep2.details["untwisted_dims_equal"]
    _report(8, "preprojective of B matches the twisted quasi-Veronese of the "
               "dual to degree 4 (both examples, twisted and untwisted)")
