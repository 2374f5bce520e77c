from fractions import Fraction

from koszulity import modules as mo
from koszulity import koszul as ko
from koszulity import resolution as rs


def simple(alg):
    return mo.simple_module(alg, 1, 0)


def test_dual_numbers_resolution_is_linear(dualnum):
    res = rs.MinimalResolution(simple(dualnum))
    res.extend(7)
    assert [res.generator_degrees(i) for i in range(7)] == [[i] for i in range(7)]


def test_x3_generator_degree_pattern(x3):
    res = rs.MinimalResolution(simple(x3))
    res.extend(7)
    degs = [res.generator_degrees(i)[0] for i in range(7)]
    assert degs == [0, 1, 3, 4, 6, 7, 9]


def test_differentials_have_radical_entries(dualnum, delta_a4, t_summands):
    for m in (simple(dualnum), t_summands[0]):
        res = rs.MinimalResolution(m)
        res.extend(4)
        alg = m.algebra
        for cols in res.diff_cols:
            for col in cols:
                for entry in col:
                    for b in entry:
                        assert not alg.is_idempotent_element(b)


def test_d_squared_zero(t_summands):
    res = rs.MinimalResolution(t_summands[0])
    res.extend(4)
    for i in range(2, 4):
        comp = res.diff_homs[i - 1].compose(res.diff_homs[i])
        assert comp.is_zero()


def test_ext_table_dual_numbers(dualnum):
    k = simple(dualnum)
    res = rs.MinimalResolution(k)
    tab = rs.ext_table(res, k, 6, -1, 7)
    for i in range(7):
        for j in range(-1, 8):
            assert tab.dim(i, j) == (1 if i == j else 0)


def test_ext_zero_row_is_hom(delta_a4, t_summands):
    T = mo.DirectSum(delta_a4, t_summands)
    res = rs.MinimalResolution(T)
    eg = rs.ext_group(res, T, 0, 0)
    assert eg.dim == len(mo.hom_space(T, T))


def test_ungraded_ext_matches_row_sum(dualnum, x3):
    k = simple(dualnum)
    assert rs.ungraded_ext_dim(k, k, 3) == 1
    k3 = simple(x3)
    assert rs.ungraded_ext_dim(k3, k3, 2) == 1


def test_ungraded_ext_projective_vanishes(delta_a4):
    reg = mo.regular_module(delta_a4)
    s = mo.simple_module(delta_a4, 1, 0)
    assert rs.ungraded_ext_dim(reg, s, 2) == 0


def test_yoneda_unit_law(dualnum):
    k = simple(dualnum)
    res = rs.MinimalResolution(k)
    res.extend(4)
    one = rs.ext_group(res, k, 0, 0)
    e1 = rs.ext_group(res, k, 1, 1)
    vals1 = rs.cocycle_values(res, e1, e1.reps[0])
    lift_one = rs.CocycleLift(res, res, 0,
                              rs.cocycle_values(res, one, one.reps[0]))
    prod = rs.yoneda_product(k, 1, vals1, lift_one)
    assert e1.reduce(rs.values_to_vec(e1, prod)) == [Fraction(1)]


def test_yoneda_square_nonzero_dual_numbers(dualnum):
    k = simple(dualnum)
    res = rs.MinimalResolution(k)
    res.extend(4)
    e1 = rs.ext_group(res, k, 1, 1)
    vals = rs.cocycle_values(res, e1, e1.reps[0])
    lift = rs.CocycleLift(res, res, 1, vals)
    prod = rs.yoneda_product(k, 1, vals, lift)
    e2 = rs.ext_group(res, k, 2, 2)
    assert e2.reduce(rs.values_to_vec(e2, prod)) != [Fraction(0)]


def test_yoneda_square_zero_x3(x3):
    k = simple(x3)
    res = rs.MinimalResolution(k)
    res.extend(4)
    e1 = rs.ext_group(res, k, 1, 1)
    e2 = rs.ext_group(res, k, 2, 2)
    assert e1.dim == 1 and e2.dim == 0  # target group vanishes by degrees


def test_yoneda_associative_on_samples(dualnum):
    k = simple(dualnum)
    res = rs.MinimalResolution(k)
    res.extend(7)
    e1 = rs.ext_group(res, k, 1, 1)
    vals = rs.cocycle_values(res, e1, e1.reps[0])
    lift1 = rs.CocycleLift(res, res, 1, vals)
    sq = rs.yoneda_product(k, 1, vals, lift1)
    # (x.x).x vs x.(x.x)
    left = rs.yoneda_product(k, 2, sq, lift1)
    sq_lift = rs.CocycleLift(res, res, 2, sq)
    right = rs.yoneda_product(k, 1, vals, sq_lift)
    e3 = rs.ext_group(res, k, 3, 3)
    assert (e3.reduce(rs.values_to_vec(e3, left))
            == e3.reduce(rs.values_to_vec(e3, right)))


def test_gldim(a4, a2, point, dualnum):
    assert rs.gldim_upto(a4, 8).value == 2
    assert rs.gldim_upto(a2, 8).value == 1
    assert rs.gldim_upto(point, 4).value == 0
    bounded = rs.gldim_upto(dualnum.forget_grading(), 4)
    assert bounded.exceeded


def test_tilting_regular_module(a4):
    rep = rs.tilting_module_check(a4, [mo.projective_module(a4, v)
                                       for v in a4.vertices])
    assert rep.is_tilting and rep.pd == 0
    assert rep.coresolution_mults == [[1, 1, 1, 1]]


def test_tilting_mixed_summand_module(a4):
    parts = [mo.projective_module(a4, 1), mo.simple_module(a4, 2),
             mo.simple_module(a4, 3), mo.dual_of_left_projective(a4, 4)]
    rep = rs.tilting_module_check(a4, parts)
    assert rep.is_tilting and rep.pd == 1


def test_tilting_negative(a2):
    rep = rs.tilting_module_check(a2, [mo.simple_module(a2, 2)])
    assert not rep.is_tilting
    assert "not injective" in rep.reason


def test_stable_hom_cross_check(delta_a4, t_summands):
    # Ext^i(M, N<j>) = stable Hom(M, Omega^{-i} N <j>) over a self-injective base
    t1 = t_summands[0]
    res = rs.MinimalResolution(t1)
    chain = rs.MinimalCoresolution(t1)
    c1, c2 = ko.omega(chain, 1), ko.omega(chain, 2)
    for i, cos in ((1, c1), (2, c2)):
        for j in range(-2, 3):
            lhs = rs.ext_group(res, t1, i, j).dim
            rhs = mo.stable_hom(t1, mo.shift_module(cos, j))[0]
            assert lhs == rhs


def test_graded_self_orthogonal_column_equals_ungraded_total(delta_a4,
                                                             t_summands):
    # for the graded 2-self-orthogonal module the whole ungraded Ext^2 sits
    # in the single graded column j = 1
    T = mo.DirectSum(delta_a4, t_summands)
    total = rs.ungraded_ext_dim(T, T, 2)
    res = rs.MinimalResolution(T)
    assert total == rs.ext_group(res, T, 2, 1).dim


def test_cover_and_envelope_of_projective_are_trivial(delta_a4):
    p = mo.projective_module(delta_a4, 2, 1)
    P, epi, tags = mo.projective_cover(p)
    assert tags == [(2, 1)] and epi.is_isomorphism()
    I, mono, itags = mo.injective_envelope(p)
    assert len(itags) == 1 and mono.is_isomorphism()


def test_cover_of_first_tilting_summand(t_summands):
    # top is the simple at the source vertex, so the cover is a single
    # four-dimensional projective with one-dimensional kernel
    P, epi, tags = mo.projective_cover(t_summands[0])
    assert tags == [(1, 0)] and P.dim == 4
    K, _ = mo.kernel_submodule(epi)
    assert K.dim == 1 and K.dims == {(1, 1): 1}


def test_cover_of_simple_over_delta_a2(delta_a2):
    s2 = mo.simple_module(delta_a2, 2, 0)
    P, epi, tags = mo.projective_cover(s2)
    assert P.dim == 3
    K, _ = mo.kernel_submodule(epi)
    assert K.dim == 2


def test_formal_coordinates_round_trip_on_resolution_terms(t_summands):
    # every basis element of every term of the minimal resolutions of
    # T1..T4 over the trivial extension of a4, up to degree 4, goes to
    # one algebra basis element of one generator and back
    for t in t_summands:
        res = rs.MinimalResolution(t).extend(4)
        assert len(res.terms) == 5
        for fp in res.terms:
            for key, i in fp.basis_elements():
                x = fp.unit_vector(key, i)
                formal = fp.element_to_formal(x)
                assert [len(comp) for comp in formal].count(1) == 1
                assert sum(map(len, formal)) == 1
                assert fp.formal_to_element(formal) == x
            for k, (v, _d) in enumerate(fp.gens):
                formal = fp.element_to_formal(fp.generator_element(k))
                e_v = t.algebra.idempotent_index(v)
                assert formal == [{e_v: 1} if j == k else {} for j in range(fp.rank)]


def _check_differentials(res):
    """Each d_i = incl o epi equals the hom its formal columns give."""
    for i in range(1, len(res.terms)):
        formal = rs.formal_explicit_hom(res.terms[i], res.terms[i - 1],
                                        res.diff_cols[i - 1])
        assert res.diff_homs[i].blocks == formal.blocks, i


def test_differentials_match_formal_columns(delta_a4, t_summands, delta_kron):
    res = rs.MinimalResolution(mo.DirectSum(delta_a4, t_summands)).extend(6)
    assert len(res.terms) == 7
    _check_differentials(res)
    for v in delta_kron.vertices:
        res = rs.MinimalResolution(mo.simple_module(delta_kron, v)).extend(4)
        _check_differentials(res)


def test_batched_preimages_match_one_target_calls(delta_a4, t_summands, kron):
    # every basis vector's image under eps and under each differential,
    # solved in one batch and one target at a time
    modules = [mo.DirectSum(delta_a4, t_summands),
               mo.DirectSum(kron, [mo.simple_module(kron, v) for v in kron.vertices])]
    for m in modules:
        res = rs.MinimalResolution(m).extend(4)
        for d, h in enumerate([res.eps, *res.diff_homs[1:]]):
            targets = [h.apply(h.domain.unit_vector(key, i))
                       for key, i in h.domain.basis_elements()]
            got = mo.solve_preimages(h, targets)
            assert got == [mo.solve_preimages(h, [t])[0] for t in targets]
            assert [h.apply(x) for x in got] == targets
            if d:
                # a minimal resolution's image lies in the radical, so a
                # generator of the codomain is outside it
                outside = h.codomain.generator_element(0)
                assert mo.solve_preimages(h, [outside]) is None
                assert mo.solve_preimages(h, targets[:1] + [outside] + targets[1:]) is None


def test_resolution_stops_after_rank_zero_term(delta_a4):
    res = rs.MinimalResolution(mo.zero_module(delta_a4)).extend(5)
    assert [t.rank for t in res.terms] == [0]
    assert res.eps.is_zero() and res.eps.codomain is res.module
    assert res.diff_cols == [] and res.diff_homs == [None]

    P = mo.projective_module(delta_a4, 1)
    res = rs.MinimalResolution(P).extend(5)
    assert [t.gens for t in res.terms] == [[(1, 0)], []]
    assert res.eps.is_isomorphism()
    assert res.diff_cols == [[]] and res.diff_homs[1].is_zero()
    _check_differentials(res)
    assert rs.projective_dimension_upto(P, 5)[0] == 0
    assert rs.projective_dimension_upto(mo.zero_module(delta_a4), 5)[0] == -1


def test_cocycle_lift_extends_only_the_terms_it_reads(dualnum):
    # the simple of the dual numbers has a resolution that does not stop, so
    # every extend step adds a term: stage m reads P_{p+m} of the source and
    # P_m of the target, and nothing further is built
    k = simple(dualnum)
    res = rs.MinimalResolution(k)
    e1 = rs.ext_group(res, k, 1, 1)
    vals = rs.cocycle_values(res, e1, e1.reps[0])
    for m in range(4):
        src, tgt = rs.MinimalResolution(k), rs.MinimalResolution(k)
        lift = rs.CocycleLift(src, tgt, 1, vals).ensure(m)
        assert (len(src.terms), len(tgt.terms), len(lift.stages)) == (m + 2, m + 1, m + 1)


def test_syzygy_walk_builds_no_formal_columns(t_summands, monkeypatch):
    built = []
    to_formal = mo.FormalProjective.element_to_formal
    monkeypatch.setattr(mo.FormalProjective, "element_to_formal",
                        lambda fp, elem: built.append(fp) or to_formal(fp, elem))
    res = rs.MinimalResolution(mo.DirectSum(t_summands[0].algebra, t_summands))
    res.syzygy(5)
    res.cover(4)
    assert built == []
    # the first read builds the columns of every differential so far
    assert len(res.diff_cols) == len(res.terms) - 1 == 4
    assert len(built) == sum(fp.rank for fp in res.terms[1:])
    _check_differentials(res)
