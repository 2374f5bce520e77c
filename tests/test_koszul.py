import random

import pytest

from koszulity import modules as mo
from koszulity import koszul as ko
from koszulity import resolution as rs
from koszulity import truncated as tr
from koszulity.algebra import InputError, degree_zero_part
from koszulity.frobenius import frobenius_analysis


def simple(alg, v=1):
    return mo.simple_module(alg, v, 0)


def test_self_orthogonal_dual_numbers(dualnum):
    rep = ko.check_self_orthogonal(dualnum, [simple(dualnum)], 1, 8)
    assert rep.passed


def test_self_orthogonal_positive_section6(delta_a4, t_summands):
    rep = ko.check_self_orthogonal(delta_a4, t_summands, 2, 6)
    assert rep.passed


def test_self_orthogonal_wrong_n_fails(delta_a4, t_summands):
    rep = ko.check_self_orthogonal(delta_a4, t_summands, 1, 4)
    assert rep.verdict == "fail"
    i, j, dim = rep.counterexample
    assert i != j and dim > 0


def test_n_T_koszul_section6(delta_a4, t_summands):
    rep = ko.check_n_T_koszul(delta_a4, t_summands, 2, 6)
    assert rep.passed


def test_n_T_koszul_kron(delta_kron, kron_summands):
    rep = ko.check_n_T_koszul(delta_kron, kron_summands, 2, 6)
    assert rep.passed


def test_n_T_koszul_a2_fails(delta_a2, a2_summands):
    rep = ko.check_n_T_koszul(delta_a2, a2_summands, 2, 6)
    assert rep.verdict == "fail"


def test_t_tilde_trivial_for_a_equal_one(delta_a4, t_summands):
    tilde = ko.build_t_tilde(delta_a4, t_summands, 2, 1)
    assert len(tilde.parts) == 4
    assert [p.dim for p in tilde.parts] == [3, 1, 1, 3]


def test_t_tilde_x3(x3):
    tilde = ko.build_t_tilde(x3, [simple(x3)], 1, 2)
    assert [p.dim for p in tilde.parts] == [1, 2]
    assert tilde.parts[1].dims_by_degree() == {-1: 1, 0: 1}


def test_rigidity_section6(delta_a4, t_summands):
    tilde = ko.build_t_tilde(delta_a4, t_summands, 2, 1)
    rep = ko.rigidity_check(delta_a4, tilde, l_bound=4)
    assert rep.passed


def test_rigidity_failure_detected(dualnum):
    # k + k<1> with the wrong twist parameters is not rigid
    k = simple(dualnum)
    tilde = ko.TTilde([k, mo.shift_module(k, 1)], [(0, 0), (0, 1)],
                      [rs.MinimalCoresolution(k), rs.MinimalCoresolution(k)], 2, 2)
    rep = ko.rigidity_check(dualnum, tilde, l_bound=4)
    assert rep.verdict == "fail"


def test_stable_endomorphism_block_structure_x3(x3):
    k = simple(x3)
    tilde = ko.build_t_tilde(x3, [k], 1, 2)
    dual = tr.koszul_dual(x3, [k], 1, 1)
    bdata = ko.stable_endomorphism_algebra(x3, tilde, dual=dual)
    B = bdata.algebra
    assert B.dim == 3
    # upper triangular: map from level-0 part to level-1 part only
    off = [(B.source[i], B.target[i]) for i in range(B.dim)
           if B.source[i] != B.target[i]]
    assert off == [((0, 1), (0, 0))]


def test_stable_endomorphism_section6(delta_a4, t_summands):
    tilde = ko.build_t_tilde(delta_a4, t_summands, 2, 1)
    dual = tr.koszul_dual(delta_a4, t_summands, 2, 1)
    bdata = ko.stable_endomorphism_algebra(delta_a4, tilde, dual=dual)
    assert bdata.algebra.dim == 10


def test_gamma_block_map_x3(x3):
    k = simple(x3)
    tilde = ko.build_t_tilde(x3, [k], 1, 2)
    dual = tr.koszul_dual(x3, [k], 1, 2)
    bdata = ko.stable_endomorphism_algebra(x3, tilde, dual=dual)
    gamma = ko.gamma_block_map(bdata, dual)
    # every basis element receives nonzero coordinates
    for idx, ((d, s, s2), coords) in gamma.items():
        assert any(coords)


def test_mu_permutation_identity(delta_a4, t_summands):
    fr = frobenius_analysis(delta_a4)
    md = ko.mu_permutation(t_summands, fr.mu)
    assert md.identity and md.perm == [0, 1, 2, 3]


def test_mu_permutation_swap(nak2):
    fr = frobenius_analysis(nak2)
    s = [simple(nak2, 1), simple(nak2, 2)]
    md = ko.mu_permutation(s, fr.mu, rng=random.Random(0))
    assert md.perm == [1, 0]


def test_classic_almost_koszul(x3, dualnum, delta_a4):
    rep = ko.check_classic_almost_koszul(x3)
    assert rep.verdict == "almost" and (rep.g, rep.l) == (2, 1)
    assert ko.check_classic_almost_koszul(dualnum).verdict == "koszul"
    assert ko.check_classic_almost_koszul(delta_a4).verdict == "inapplicable"


def test_classic_almost_koszul_nak2(nak2):
    # radical-square-zero cyclic algebra resolves linearly forever
    rep = ko.check_classic_almost_koszul(nak2, bound=8)
    assert rep.verdict == "koszul"


def test_almost_self_orthogonal_delta_a2(delta_a2, a2_summands):
    rep = ko.check_almost_self_orthogonal(delta_a2, a2_summands, 2)
    assert rep.verdict == "pass"
    assert rep.l == [1, 3] and rep.g == [1, 2] and rep.targets == [1, 0]


def test_almost_self_orthogonal_x3(x3):
    rep = ko.check_almost_self_orthogonal(x3, [simple(x3)], 1)
    assert rep.verdict == "pass"
    assert rep.l == [2] and rep.g == [3]


def test_almost_self_orthogonal_dualnum(dualnum):
    rep = ko.check_almost_self_orthogonal(dualnum, [simple(dualnum)], 1)
    assert rep.verdict == "pass"
    assert rep.l == [1] and rep.g == [1]


def test_n_m_sigma_delta_a2(delta_a2, a2_summands):
    params, almost, tilt = ko.check_n_m_sigma_koszul(delta_a2, a2_summands, 2)
    assert params is not None
    assert params.m == [0, 1] and params.sigma == [0, 0]
    assert params.l == [1, 3] and params.g == [1, 2]
    assert params.pi == [1, 0]
    params.check_invariants()


def test_n_m_sigma_x3(x3):
    params, almost, tilt = ko.check_n_m_sigma_koszul(x3, [simple(x3)], 1)
    assert params is not None
    assert params.m == [1] and params.sigma == [1]
    params.check_invariants()


def test_sigma_zero_forced_when_a_is_one(delta_a2, a2_summands):
    params, _, _ = ko.check_n_m_sigma_koszul(delta_a2, a2_summands, 2)
    assert all(s == 0 for s in params.sigma)


def test_mu_bar_identity_for_symmetric(delta_a4, t_summands):
    fr = frobenius_analysis(delta_a4)
    md = ko.mu_permutation(t_summands, fr.mu)
    dual = tr.koszul_dual(delta_a4, t_summands, 2, 1)
    mb = ko.build_mu_bar(delta_a4, dual, fr.mu, md)
    assert mb.is_identity()


def test_mu_bar_swaps_idempotents(nak2):
    fr = frobenius_analysis(nak2)
    s = [simple(nak2, 1), simple(nak2, 2)]
    md = ko.mu_permutation(s, fr.mu, rng=random.Random(0))
    dual = tr.koszul_dual(nak2, s, 1, 3)
    mb = ko.build_mu_bar(nak2, dual, fr.mu, md, rng=random.Random(0))
    e1 = dual.algebra.idempotent(0)
    img = mb.apply(0, e1)
    assert img == dual.algebra.idempotent(1)


def test_serre_identity_x3(x3):
    k = simple(x3)
    tilde = ko.build_t_tilde(x3, [k], 1, 2)
    dual = tr.koszul_dual(x3, [k], 1, 1)
    bdata = ko.stable_endomorphism_algebra(x3, tilde, dual=dual)
    table, ok = ko.serre_dimension_identity(x3, tilde, bdata.algebra,
                                            i_max=3, l_min=-2, l_max=2)
    assert ok
    assert table[(0, 0)] == (3, 3)


def test_degree_zero_part(delta_a4, a4):
    a0 = degree_zero_part(delta_a4)
    assert a0.dim == a4.dim
    assert sorted(a0.labels) == sorted(a4.labels)


def test_basic_validation_rejects_duplicates(delta_a4, t_summands):
    with pytest.raises(InputError):
        ko.validate_basic([t_summands[0], t_summands[0]])


def test_cosyzygy_chain_rejects_non_self_injective(a4):
    # the envelope needs no self-injective base, but the projective-summand
    # check after it still rejects a4: the socle of e_1 A is S_2 + S_3
    chain = rs.MinimalCoresolution(simple(a4))
    with pytest.raises(InputError, match="not basic self-injective"):
        ko.omega(chain, 1)


def test_stable_end_of_dual_numbers_is_scalar(dualnum):
    k = simple(dualnum)
    tilde = ko.build_t_tilde(dualnum, [k], 1, 1)
    dual = tr.koszul_dual(dualnum, [k], 1, 1)
    bdata = ko.stable_endomorphism_algebra(dualnum, tilde, dual=dual)
    assert bdata.algebra.dim == 1


def test_characterization_semisimple_B_edge(nak2):
    # classical Koszul radical-square-zero algebra: T = degree-0 part,
    # n = 1, a = 1, so B is semisimple and the depth parameter is n*a-1 = 0
    from koszulity import verify as vf

    s = [simple(nak2, 1), simple(nak2, 2)]
    rep = vf.verify_characterization(nak2, s, 1, i_max=6, depth=4)
    assert rep.agree is True
    assert "pass" in rep.left


def test_presented_trivial_extension_agrees_with_constructed(a4, delta_a4,
                                                             t_summands):
    # the hand-written presentation file of the trivial extension gives the
    # same homological verdicts as the constructed algebra
    from koszulity.presentation import parse_algebra_file
    from koszulity.frobenius import frobenius_analysis
    from conftest import data_path

    presented, _ = parse_algebra_file(data_path("delta_a4.alg"), 4)
    assert presented.dims_by_degree() == delta_a4.dims_by_degree()
    fr = frobenius_analysis(presented)
    assert fr.is_frobenius and fr.a == 1 and fr.symmetric
    parts = [mo.parse_module_file(data_path(f), presented)
             for f in ("T1.mod", "T2.mod", "T3.mod", "T4.mod")]
    rep = ko.check_n_T_koszul(presented, parts, 2, 4)
    assert rep.passed
