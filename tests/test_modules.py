import gc
import random
import weakref
from fractions import Fraction

import pytest

from koszulity import modules as mo
from koszulity import hereditary as hd
from koszulity import koszul as ko
from koszulity import resolution as rs
from koszulity.linalg import EchelonBasis, Matrix
from koszulity.algebra import InputError
from conftest import (data_path, dense_injections_projections, hom_space_with_constraints,
                      is_isomorphic_by_flatten, sparse)


def test_projective_dims(delta_a4):
    dims = [mo.projective_module(delta_a4, v).dims_by_degree()
            for v in delta_a4.vertices]
    assert dims == [{0: 3, 1: 1}, {0: 2, 1: 2}, {0: 2, 1: 2}, {0: 1, 1: 3}]


def test_projectives_and_injectives_are_built_once(delta_a4):
    # Hom bases are memoized per module object, so a rebuilt projective
    # would redo every Hom computation that involves it.
    for build in (mo.projective_module, mo.dual_of_left_projective):
        for v in delta_a4.vertices:
            for shift in (0, 3):
                assert build(delta_a4, v, shift) is build(delta_a4, v, shift)


@pytest.mark.parametrize("name", ["a4", "delta_a4"])
def test_map_from_projective_matches_constrained_solve(request, name):
    # Hom(e_v Lambda<d>, N) is N_(v,d): the closed form must be the map the
    # constrained solve finds from the generator's value alone.
    alg = request.getfixturevalue(name)
    rng = random.Random(0)
    reg = mo.regular_module(alg)
    for n in (reg, mo.graded_dual_module(alg)):
        for (v, d), dim in sorted(n.dims.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            p = mo.projective_module(alg, v, d)
            gen = mo.generator(p, v, d)
            elems = [n.unit_vector((v, d), i) for i in range(dim)]
            vec = sparse([Fraction(rng.randint(-3, 3)) for _ in range(dim)])
            elems.append({(v, d): vec} if vec else {})
            for elem in elems:
                f = mo.map_from_projective(p, n, elem)
                assert f.check_commutes()
                assert f.apply(gen) == elem
                g = hom_space_with_constraints(p, n, [(gen, elem)])
                assert f.blocks == g.blocks


def injective_test_modules(request):
    """(algebra, module) pairs: the regular module and D(Lambda) of a4, kron
    and Delta(a4), and T1-T4 over Delta(a4)."""
    out = []
    for name in ("a4", "kron", "delta_a4"):
        alg = request.getfixturevalue(name)
        reg = mo.regular_module(alg)
        out += [(alg, reg), (alg, mo.graded_dual_module(alg))]
    delta = request.getfixturevalue("delta_a4")
    out += [(delta, t) for t in request.getfixturevalue("t_summands")]
    return out


def test_map_into_injective_commutes(request):
    # x -> sum_b phi(x . b) psi_b is a module map for every functional phi,
    # and its psi_(e_w) coordinate on m_(w,s) is phi itself
    rng = random.Random(0)
    for alg, m in injective_test_modules(request):
        for w in alg.vertices:
            for s in (0, 1):
                q = mo.dual_of_left_projective(alg, w, s)
                [gen] = mo.generator(q, w, s)[(w, s)]
                n = m.block_dim(w, s)
                phis = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                         for _ in range(n)] for _ in range(3)]
                homs = mo.map_into_injective(m, q, w, [sparse(phi) for phi in phis])
                for phi, f in zip(phis, homs):
                    assert f.check_commutes()
                    for i in range(n):
                        assert f.block(w, s).data[gen][i] == phi[i]


def test_map_into_injective_spans_hom_space(request):
    # Hom(M, D(Lambda e_w)<s>) is D(M_(w,s)): the maps of the unit
    # functionals are a basis of the Hom space hom_space solves for
    for alg, m in injective_test_modules(request):
        for w in alg.vertices:
            for s in (0, 1):
                q = mo.dual_of_left_projective(alg, w, s)
                n = m.block_dim(w, s)
                layout, _ = mo.hom_frame(m, q)
                closed = EchelonBasis(mo.hom_flatten(h, layout) for h in
                                      mo.map_into_injective(m, q, w, [{k: 1} for k in range(n)]))
                solved = [mo.hom_flatten(h, layout) for h in mo.hom_space(m, q)]
                assert closed.rank == len(solved) == n
                assert all(closed.contains(h) for h in solved)


def test_place_into_sum_places_components(delta_a4, t_summands):
    parts = [mo.dual_of_left_projective(delta_a4, w) for w in (1, 3, 3)]
    total = mo.DirectSum(delta_a4, parts)
    m = t_summands[0]
    rng = random.Random(1)
    homs = [mo.map_into_injective(
        m, q, w, [sparse([Fraction(rng.randint(-2, 2)) for _ in range(m.block_dim(w, 0))])])[0]
        for q, w in zip(parts, (1, 3, 3))]
    f = mo.place(m, total, [(h, {}, off) for h, off in zip(homs, total.offsets)])
    assert f.check_commutes()
    _injections, projections = dense_injections_projections(total)
    for prj, h in zip(projections, homs):
        assert prj.compose(f).blocks == h.blocks


def test_module_validation(t_summands):
    for m in t_summands:
        assert m.validate()


def test_shift_roundtrip(t_summands):
    m = t_summands[0]
    assert mo.shift_module(mo.shift_module(m, 2), -2).dims == m.dims
    s = mo.simple_module(m.algebra, 1, 0)
    assert mo.shift_module(s, 2).dims == {(1, 2): 1}


def test_hom_evaluation_dimension(delta_a4, t_summands):
    # Hom(Lambda, M) is the degree-0 part of M as a vector space
    reg = mo.regular_module(delta_a4)
    for m in t_summands:
        hom = mo.hom_space(reg, m)
        assert len(hom) == sum(
            n for (v, d), n in m.dims.items() if d == 0
        )


def test_hom_distinct_simples(a2):
    s1 = mo.simple_module(a2, 1, 0)
    s2 = mo.simple_module(a2, 2, 0)
    assert mo.hom_space(s1, s2) == []


def test_hom_end_T_is_ten(delta_a4, t_summands):
    T = mo.DirectSum(delta_a4, t_summands)
    assert len(mo.hom_space(T, T)) == 10


def test_cosyzygies_of_first_summand(t_summands):
    # `ko.omega` raises if a cosyzygy has a projective summand
    chain = rs.MinimalCoresolution(t_summands[0])
    c1 = ko.omega(chain, 1)
    assert c1.dim == 5 and c1.dims_by_degree() == {-1: 4, 0: 1}
    c2 = ko.omega(chain, 2)
    assert c2.dim == 7


def test_envelope_of_summand(delta_a4, t_summands):
    t1 = t_summands[0]
    I, mono, tags = mo.injective_envelope(t1)
    assert I.dim == 8 and sorted(tags) == [(2, 0), (3, 0)]
    assert mono.is_injective() and mono.check_commutes()
    # over the graded Frobenius algebra D(Lambda e_v) is e_w Lambda<-1>
    shifted = mo.DirectSum(delta_a4, [mo.projective_module(delta_a4, w, -1)
                                      for w in (2, 3)])
    v = mo.is_isomorphic(I, shifted)
    assert v.isomorphic and v.certified


def old_injective_envelope(m):
    """The envelope into shifted projectives e_w Lambda<d - sd> over a
    self-injective algebra, with soc(e_w Lambda) = S_v at degree sd for each
    socle vector at (v, d), solved over a full Hom basis."""
    alg = m.algebra
    socle_of = {}  # v -> (w, sd, socle element of e_w Lambda)
    for w in alg.vertices:
        p = mo.projective_module(alg, w)
        [((v, sd), [vec])] = mo.socle_spans(p).items()
        socle_of[v] = (w, sd, {p.basis_index[(v, sd)][i]: c for i, c in vec.items()})
    soc = mo.socle_spans(m)
    parts, constraints = [], []
    for key in sorted(soc, key=lambda vd: (vd[1], str(vd[0]))):
        w, sd, elt = socle_of[key[0]]
        for vec in soc[key]:
            p = mo.projective_module(alg, w, key[1] - sd)
            parts.append(p)
            constraints.append(({key: vec},
                                p.apply_element(mo.generator(p, w, key[1] - sd), elt)))
    I = mo.DirectSum(alg, parts)
    return hom_space_with_constraints(
        m, I, [(x, I.embed(k, y)) for k, (x, y) in enumerate(constraints)])


@pytest.mark.parametrize("name", ["delta_a2", "delta_a4", "delta_kron"])
def test_envelope_matches_shifted_projective_envelope(request, name):
    # the closed-form envelope into D(Lambda e_v)<d> is an injective module
    # map, and its cokernel is isomorphic to that of the envelope into
    # shifted projectives the constrained solve finds
    alg = request.getfixturevalue(name)
    mods = [mo.simple_module(alg, v) for v in alg.vertices]
    mods += [mo.projective_module(alg, v) for v in alg.vertices]
    if name == "delta_a4":
        mods += request.getfixturevalue("t_summands")
    for m in mods:
        I, mono, tags = mo.injective_envelope(m)
        assert mono.is_injective() and mono.check_commutes()
        assert sorted(tags) == sorted(key for key, vecs in mo.socle_spans(m).items()
                                      for _ in vecs)
        old = old_injective_envelope(m)
        assert old is not None and old.is_injective()
        assert I.dims == old.codomain.dims
        v = mo.is_isomorphic(mo.cokernel(mono)[0], mo.cokernel(old)[0])
        assert v.isomorphic and v.certified


def test_graded_envelope_matches_ungraded_over_a4(a4):
    # a4 is not self-injective: the graded envelope needs no socle data of
    # the projectives, and over a degree-0 module it is the ungraded one
    for v in a4.vertices:
        s = mo.simple_module(a4, v)
        I, mono, tags = mo.injective_envelope(s)
        res = hd.injective_resolution_module(s, 0)
        J, mono_u = res.terms[0], res.qis[0]
        assert [w for w, _d in tags] == J.labels == [v]
        assert [p.dims for p in I.parts] == [p.dims for p in J.parts]
        assert mono.is_injective() and mono.blocks == mono_u.blocks


def test_syzygy_of_projective_is_zero(delta_a4):
    p = mo.projective_module(delta_a4, 1)
    assert ko.omega(rs.MinimalResolution(p), 1).is_zero()


def test_omega_inverse_chain_delta_a2(a2, delta_a2):
    e1 = mo.inflate_module(mo.projective_module(a2, 1), delta_a2)
    e2 = mo.inflate_module(mo.projective_module(a2, 2), delta_a2)
    c = ko.omega(rs.MinimalCoresolution(e1), 1)
    v = mo.is_isomorphic(c, mo.shift_module(e2, -1))
    assert v.isomorphic and v.certified
    c2 = ko.omega(rs.MinimalCoresolution(e2), 3)
    v2 = mo.is_isomorphic(c2, mo.shift_module(e1, -2))
    assert v2.isomorphic and v2.certified


def test_syzygy_cosyzygy_mutually_inverse(t_summands):
    m = t_summands[0]
    c = ko.omega(rs.MinimalCoresolution(m), 1)
    back = ko.omega(rs.MinimalResolution(c), 1)
    v = mo.is_isomorphic(back, m)
    assert v.isomorphic


def test_is_isomorphic_certificates(a2, t_summands):
    m = t_summands[0]
    v = mo.is_isomorphic(m, m)
    assert v.isomorphic and v.certificate.is_isomorphism()
    s1 = mo.simple_module(a2, 1, 0)
    s2 = mo.simple_module(a2, 2, 0)
    v2 = mo.is_isomorphic(s1, s2)
    assert v2.isomorphic is False and v2.certified
    # blocks at different keys: no hom between them is an isomorphism
    assert not mo.zero_hom(s1, s2).is_isomorphism()


def test_is_indecomposable(delta_a4, t_summands):
    for m in t_summands:
        ok, ne, head = mo.is_indecomposable(m)
        assert ok and head == 1
    s1 = mo.simple_module(delta_a4, 1, 0)
    double = mo.DirectSum(delta_a4, [s1, s1])
    ok, ne, head = mo.is_indecomposable(double)
    assert not ok and ne == 4 and head == 4


def test_twist_by_identity(t_summands):
    from koszulity.frobenius import identity_morphism

    m = t_summands[0]
    tw = mo.twist_module(m, identity_morphism(m.algebra))
    assert tw.dims == m.dims
    v = mo.is_isomorphic(tw, m)
    assert v.isomorphic


def test_twist_by_swap(nak2):
    from koszulity.frobenius import frobenius_analysis

    rep = frobenius_analysis(nak2)
    s1 = mo.simple_module(nak2, 1, 0)
    tw = mo.twist_module(s1, rep.mu)
    assert tw.dims == {(2, 0): 1}


def test_truncations(delta_a4, t_summands):
    reg = mo.regular_module(delta_a4)
    top = mo.truncation_above(reg, 1)
    assert top.dim == 8 and set(top.degrees()) == {1}
    bot = mo.truncation_below(reg, 0)
    assert bot.dim == 8 and set(bot.degrees()) == {0}
    mid = mo.degree_component(reg, 1)
    assert mid.dim == 8
    m = t_summands[0]
    assert mo.truncation_above(m, 0).dims == m.dims
    assert mo.truncation_below(m, 0).dims == m.dims


def test_truncation_exact_sequence(delta_a4):
    reg = mo.regular_module(delta_a4)
    for i in (-1, 0, 1, 2):
        above = mo.truncation_above(reg, i)
        below = mo.truncation_below(reg, i - 1)
        assert above.dim + below.dim == reg.dim


def test_stable_hom_projective_source_vanishes(delta_a4, t_summands):
    reg = mo.regular_module(delta_a4)
    for m in t_summands:
        qdim, _, _ = mo.stable_hom(reg, m)
        assert qdim == 0


def test_stable_hom_equals_hom_in_degree_zero(delta_a4, t_summands):
    # modules concentrated in degree 0 over a graded Frobenius algebra with
    # a >= 1: the stable and plain Hom spaces agree
    T = mo.DirectSum(delta_a4, t_summands)
    qdim, _, _ = mo.stable_hom(T, T)
    assert qdim == len(mo.hom_space(T, T)) == 10


def test_module_file_roundtrip(a4):
    m = mo.parse_module_file(data_path("T1.mod"), a4)
    assert m.dim == 3
    again = mo.parse_module_source(mo.dump_module(m), a4)
    assert again.dims == m.dims
    v = mo.is_isomorphic(m, again)
    assert v.isomorphic


def test_module_file_bad_shape(a4):
    src = """
module bad over a4
space 1 0 1
space 2 0 2
action a1 0 matrix 1
end
"""
    with pytest.raises(InputError):
        mo.parse_module_source(src, a4)


def test_module_file_relation_violation(a2):
    # a2 has no relations, but a wrong-shape action must still fail cleanly
    src = """
module bad over a2
space 1 0 1
action al 0 matrix 1
end
"""
    with pytest.raises(InputError):
        mo.parse_module_source(src, a2)


def test_graded_dual_module(point, dualnum, delta_a4):
    # a field: dual concentrated in degree 0
    d0 = mo.graded_dual_module(point)
    assert d0.dims_by_degree() == {0: 1}
    # dual numbers: components in degrees -1 and 0, each one-dimensional
    d1 = mo.graded_dual_module(dualnum)
    assert d1.dims_by_degree() == {-1: 1, 0: 1}
    # trivial extension: degree negation of (8, 8)
    d2 = mo.graded_dual_module(delta_a4)
    assert d2.dims_by_degree() == {-1: 8, 0: 8}
    d2.validate()


def test_dual_shifted_is_isomorphic_to_regular_for_frobenius(delta_a2):
    # DL <a> is isomorphic to the regular module for a graded Frobenius algebra
    reg = mo.regular_module(delta_a2)
    dual = mo.shift_module(mo.graded_dual_module(delta_a2), 1)
    v = mo.is_isomorphic(reg, dual)
    assert v.isomorphic


def test_hom_space_memo_does_not_keep_its_module_alive(delta_a4, t_summands):
    """A repeated hom_space gives equal homs, and the memo holds no
    reference cycle: a module dies with its last reference, without the
    cyclic garbage collector."""
    gc.disable()
    try:
        m = mo.DirectSum(delta_a4, t_summands[:2])
        homs = mo.hom_space(m, t_summands[0])
        again = mo.hom_space(m, t_summands[0])
        assert homs and [h.blocks for h in again] == [h.blocks for h in homs]
        ref = weakref.ref(m)
        del m, homs, again
        assert ref() is None
    finally:
        gc.enable()


def kronecker_band(kron, delta_kron, lam):
    """R_lam over Delta(kron): k at both vertices, a acting by 1, b by lam."""
    action = {kron.index_of["a"]: {0: Matrix(1, 1, [[1]])},
              kron.index_of["b"]: {0: Matrix(1, 1, [[lam]])}}
    return mo.inflate_module(
        mo.GradedModule(kron, {(1, 0): 1, (2, 0): 1}, action, name=f"R{lam}"),
        delta_kron)


def iso_test_modules(alg, parts):
    """parts, their sums in both orders, their syzygies and a copy of each
    over a basis rescaled by non-integral rationals."""
    from test_exactness import rescale

    mods = list(parts)
    mods += [mo.DirectSum(alg, [p, q]) for p in parts for q in parts if p is not q]
    mods += [ko.omega(rs.MinimalResolution(p), 1) for p in parts]
    mods = [m for m in mods if not m.is_zero()]
    scales = [Fraction(2, 3), Fraction(-1, 2), Fraction(5, 3)]
    return mods + [rescale(m, {key: [scales[(i + k) % 3] for i in range(dim)]
                                 for k, (key, dim) in enumerate(sorted(m.dims.items()))})
                   for m in mods]


@pytest.mark.parametrize("name", ["a4", "kron"])
def test_is_isomorphic_matches_flattened_hom_basis(request, name):
    alg = request.getfixturevalue(f"delta_{name}")
    if name == "a4":
        # T1 = P(1) has the dims of S1 + S2 + S3 but is not isomorphic to it
        parts = request.getfixturevalue("t_summands") + [mo.DirectSum(
            alg, [mo.simple_module(alg, v) for v in (1, 2, 3)])]
    else:
        kron = request.getfixturevalue("kron")
        parts = [kronecker_band(kron, alg, lam) for lam in (1, 2, Fraction(1, 2))]
    mods = iso_test_modules(alg, parts)
    outcomes = set()
    for m in mods:
        for n in mods:
            if m.dims != n.dims:
                continue
            got = mo.is_isomorphic(m, n, rng=random.Random(1))
            ref = is_isomorphic_by_flatten(m, n, rng=random.Random(1))
            assert (got.isomorphic, got.certified, got.reason) == (
                ref.isomorphic, ref.certified, ref.reason)
            if ref.certificate is not None:
                assert got.certificate.blocks == ref.certificate.blocks
            outcomes.add(got.isomorphic)
    # over Delta(kron), R_1 and R_2 have no nonzero hom between them
    assert outcomes == ({True, None} if name == "a4" else {True, False, None})
