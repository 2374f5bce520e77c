"""Property suites: degree bookkeeping over graded Frobenius algebras,
graded/ungraded Ext comparison on randomized modules, twist identities."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from koszulity import modules as mo
from koszulity import resolution as rs
from koszulity import koszul as ko
from koszulity.algebra import degree_zero_part
from koszulity.frobenius import frobenius_analysis
from koszulity.linalg import EchelonBasis

from conftest import DenseMatrix, sparse


def random_module(alg, rng, max_parts=2):
    """Random quotient of a small sum of shifted projectives; never zero."""
    for _attempt in range(20):
        parts = []
        for _ in range(rng.randint(1, max_parts)):
            v = rng.choice(alg.vertices)
            parts.append(mo.projective_module(alg, v, rng.randint(-1, 1)))
        total = mo.DirectSum(alg, parts)
        spans = {key: [] for key in total.dims}
        for _ in range(rng.randint(0, 2)):
            keys = sorted(total.dims, key=str)
            key = keys[rng.randrange(len(keys))]
            vec = sparse([Fraction(rng.randint(-2, 2)) for _ in range(total.dims[key])])
            if not vec:
                continue
            elem = {key: vec}
            # close under the action to make an honest submodule span
            stack = [elem]
            while stack:
                cur = stack.pop()
                for k2, v2 in cur.items():
                    spans.setdefault(k2, []).append(v2)
                for x in range(alg.num_vertices, alg.dim):
                    img = total.apply_element(cur, {x: Fraction(1)})
                    if img:
                        keep = False
                        for k2, v2 in img.items():
                            span = EchelonBasis(spans.get(k2, []))
                            if not span.contains(v2):
                                keep = True
                        if keep:
                            stack.append(img)
        quot, _, _ = mo.quotient_module(total, spans)
        if not quot.is_zero():
            return quot
    raise AssertionError("could not build a random module")


FROBENIUS_FIXTURES = ["delta_a4", "delta_a2", "delta_kron", "dualnum", "x3",
                      "nak2"]


@pytest.fixture(params=FROBENIUS_FIXTURES)
def frobenius_algebra(request):
    return request.getfixturevalue(request.param)


def degree_zero_test_modules(alg):
    out = [mo.simple_module(alg, v, 0) for v in alg.vertices]
    a0 = degree_zero_part(alg)
    for v in alg.vertices:
        p = mo.inflate_module(mo.projective_module(a0, v), alg)
        out.append(p)
    return out


def test_socle_sits_in_top_degree(frobenius_algebra):
    from koszulity.frobenius import socle_degrees

    a = frobenius_algebra.highest_degree()
    assert set(socle_degrees(frobenius_algebra)) == {a}


def test_degree_bound_suite(frobenius_algebra):
    alg = frobenius_algebra
    a = alg.highest_degree()
    mods = degree_zero_test_modules(alg)[:3]
    for m in mods:
        if mo.find_projective_summand(m) is not None:
            continue
        # (4): cosyzygies stay in degrees <= h; syzygies reach l + a
        h = m.highest_degree()
        low = m.lowest_degree()
        chain = rs.MinimalCoresolution(m)
        for i in (1, 2):
            c = ko.omega(chain, i)
            if not c.is_zero():
                assert c.highest_degree() <= h
        res = rs.MinimalResolution(m)
        s = ko.omega(res, 1)
        if not s.is_zero():
            assert s.highest_degree() >= low + a
        # (6): negative Omega-powers are cosyzygies; with negative shifts
        # they receive no degree-0 maps from M
        for i in (1, 2):
            cm = ko.omega(chain, i)
            for j in (-1, -2):
                if cm.is_zero():
                    continue
                assert mo.hom_space(m, mo.shift_module(cm, j)) == []
        # (7): Hom(M, Omega^{i} M <j>) = 0 for i > 0 and j >= 1 - a
        for i in (1, 2):
            sm = ko.omega(res, i)
            if sm.is_zero():
                continue
            for j in range(1 - a, 2):
                assert mo.hom_space(m, mo.shift_module(sm, j)) == []


def test_stable_hom_agrees_in_degree_zero(frobenius_algebra):
    alg = frobenius_algebra
    if alg.highest_degree() < 1:
        pytest.skip("needs a >= 1")
    mods = degree_zero_test_modules(alg)[:3]
    for m in mods:
        for nmod in mods[:2]:
            qdim, _, _ = mo.stable_hom(m, nmod)
            assert qdim == len(mo.hom_space(m, nmod))


def test_trivial_extensions_always_symmetric(a4, a2, kron, point):
    from koszulity.algebra import trivial_extension

    for base in (a4, a2, kron, point):
        rep = frobenius_analysis(trivial_extension(base))
        assert rep.is_frobenius and rep.a == 1 and rep.symmetric


def test_graded_ungraded_ext_sum_on_random_modules(delta_a2, dualnum, nak2):
    rng = random.Random(11)
    count = 0
    for alg in (delta_a2, dualnum, nak2):
        for _ in range(7):
            m = random_module(alg, rng)
            n = random_module(alg, rng)
            i = rng.randint(0, 4)
            rs.ungraded_ext_dim(m, n, i)  # raises on mismatch
            count += 1
    assert count >= 20


def test_block_structure_bug_trap_never_fires(delta_a2, a2_summands, x3,
                                          delta_kron, kron_summands):
    import koszulity.truncated as tr

    cases = [
        (delta_a2, a2_summands, 2, 1),
        (x3, [mo.simple_module(x3, 1, 0)], 1, 2),
        (delta_kron, kron_summands, 2, 1),
    ]
    for alg, summands, n, a in cases:
        tilde = ko.build_t_tilde(alg, summands, n, a)
        dual = tr.koszul_dual(alg, summands, n, max(a - 1, 1))
        bdata = ko.stable_endomorphism_algebra(alg, tilde, dual=dual)
        assert bdata.algebra.validate()


def dense_action(m, elem, coeffs):
    """Reference for `apply_element` on an element given by dense lists:
    every basis element, idempotents too, acts through its dense matrix
    `act`. Returns the sparse element."""
    alg = m.algebra
    out = {}
    for x, c in coeffs.items():
        for (v, d), vec in elem.items():
            if v != alg.source[x]:
                continue
            key = (alg.target[x], d + alg.degree[x])
            acc = out.setdefault(key, [0] * m.block_dim(*key))
            for i, val in enumerate(DenseMatrix.of(m.act(x, d)).apply(vec)):
                acc[i] += c * val
    return {k: sparse(v) for k, v in out.items() if any(v)}


@given(st.integers(min_value=0, max_value=2 ** 16), st.data())
@settings(max_examples=25, deadline=None)
def test_apply_element_matches_dense_action(delta_a4, delta_kron, seed, data):
    entries = st.one_of(st.integers(-3, 3),
                        st.fractions(min_value=-2, max_value=2,
                                     max_denominator=3))
    for alg in (delta_a4, delta_kron):
        m = random_module(alg, random.Random(seed))
        blocks = sorted(m.dims, key=str)
        keys = data.draw(st.lists(st.sampled_from(blocks), min_size=1,
                                  max_size=3, unique=True))
        elem = {k: data.draw(st.lists(entries, min_size=m.dims[k],
                                      max_size=m.dims[k])) for k in keys}
        coeffs = data.draw(st.dictionaries(
            st.integers(0, alg.dim - 1), entries, min_size=1, max_size=4))
        # every idempotent on one of the element's vertices acts too
        for v in {v for v, _d in keys}:
            coeffs.setdefault(alg.idempotent_index(v), 1)
        got = m.apply_element({k: sparse(v) for k, v in elem.items() if any(v)}, coeffs)
        assert got == dense_action(m, elem, coeffs)


@given(st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3))
@settings(max_examples=20, deadline=None)
def test_shift_additivity(j1, j2):
    from koszulity.presentation import Quiver, Arrow, build_algebra

    alg = build_algebra(Quiver(2, (Arrow("al", 1, 2, 0),)), [], 2, name="a2")
    m = mo.projective_module(alg, 1)
    double = mo.shift_module(mo.shift_module(m, j1), j2)
    direct = mo.shift_module(m, j1 + j2)
    assert double.dims == direct.dims


@given(st.integers(min_value=-2, max_value=2))
@settings(max_examples=15, deadline=None)
def test_truncation_dims_split(i):
    from koszulity.presentation import Quiver, Arrow, Relation, build_algebra
    from koszulity.algebra import trivial_extension

    alg = trivial_extension(
        build_algebra(Quiver(2, (Arrow("al", 1, 2, 0),)), [], 2, name="a2"))
    reg = mo.regular_module(alg)
    above = mo.truncation_above(reg, i)
    below = mo.truncation_below(reg, i - 1)
    assert above.dim + below.dim == reg.dim


@given(st.integers(min_value=2, max_value=4), st.data())
@settings(max_examples=8, deadline=None)
def test_random_radical_square_zero_trivial_extensions(nv, data):
    # random acyclic quivers with all length-two paths zero: the trivial
    # extension is always graded symmetric of highest degree 1
    from koszulity.presentation import Arrow, Quiver, Relation, build_algebra
    from koszulity.algebra import trivial_extension

    arrows = []
    n_arrows = data.draw(st.integers(min_value=1, max_value=4))
    for k in range(n_arrows):
        s = data.draw(st.integers(min_value=1, max_value=nv - 1))
        t = data.draw(st.integers(min_value=s + 1, max_value=nv))
        arrows.append(Arrow(f"q{k}", s, t, 0))
    q = Quiver(nv, tuple(arrows))
    rels = []
    for x in arrows:
        for y in arrows:
            if x.target == y.source:
                rels.append(Relation(((1, (x.name, y.name)),)))
    alg = build_algebra(q, rels, 3, name="rand")
    assert alg.dim == nv + n_arrows
    delta = trivial_extension(alg)
    rep = frobenius_analysis(delta)
    assert rep.is_frobenius and rep.a == 1 and rep.symmetric


@given(st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=15, deadline=None)
def test_hom_kernel_is_the_flattened_hom_basis(delta_a4, delta_kron, seed):
    # is_isomorphic and stable_hom read the kernel vectors where they once
    # flattened hom_space's homs: the two must be the same vectors in order
    rng = random.Random(seed)
    for alg in (delta_a4, delta_kron):
        m, n = random_module(alg, rng), random_module(alg, rng)
        for src, tgt in ((m, n), (n, m), (m, m)):
            layout, vectors = mo._hom_kernel(src, tgt)
            homs = mo.hom_space(src, tgt)
            assert layout == mo.hom_frame(src, tgt)[0]
            assert [mo.hom_flatten(h, layout) for h in homs] == vectors
            assert all(h.check_commutes() for h in homs)
