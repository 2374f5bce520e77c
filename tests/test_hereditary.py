import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from koszulity.algebra import InternalCheckError
from koszulity.linalg import Matrix
from koszulity import modules as mo
from koszulity import hereditary as hd
from conftest import (DenseMatrix, dense_injections_projections, hom_space_with_constraints,
                      linear_combination, preprojective_products_by_restart, sparse)


# ---------------------------------------------------------------------------
# independent oracle: preprojective dimension vectors by Coxeter iteration
# ---------------------------------------------------------------------------

def cartan_matrix(alg):
    n = alg.num_vertices
    c = [[Fraction(0)] * n for _ in range(n)]
    for i in range(alg.dim):
        u = alg.vertex_pos[alg.source[i]]
        v = alg.vertex_pos[alg.target[i]]
        c[u][v] += 1
    return Matrix(n, n, c)


def inverse_translate_dims(alg, dim_vec):
    """dim of the inverse translate of a non-injective module, from the
    Cartan matrix: -C^T C^{-1} applied to the dimension vector."""
    c = cartan_matrix(alg)
    op = (c.transpose() * c.inverse()).scale(-1)
    return DenseMatrix.of(op).apply(dim_vec)


def knitting_expected_dims(alg, d_max):
    """Degree dims of the stable-orbit algebra sum Hom(A, tau^{-d} A)."""
    out = {}
    injective_dims = {tuple(
        hd.injective_module(alg, v).block_dim(w, 0) for w in alg.vertices
    ) for v in alg.vertices}
    vec = {v: [Fraction(mo.projective_module(alg, v).block_dim(w, 0))
               for w in alg.vertices] for v in alg.vertices}
    alive = {v: True for v in alg.vertices}
    for d in range(d_max + 1):
        out[d] = sum(int(sum(vec[v])) for v in alg.vertices if alive[v])
        for v in alg.vertices:
            if not alive[v]:
                continue
            if tuple(int(x) for x in vec[v]) in {tuple(int(y) for y in t)
                                                 for t in injective_dims}:
                alive[v] = False
                continue
            vec[v] = inverse_translate_dims(alg, vec[v])
    return out


def test_coxeter_oracle_sanity(a2):
    # tau^{-1} of S2 = (0,1) is S1 = (1,0) over the path algebra 1 -> 2
    assert inverse_translate_dims(a2, [Fraction(0), Fraction(1)]) == [
        Fraction(1), Fraction(0)
    ]


def test_nakayama_correspondence(a2):
    i2 = hd.injective_module(a2, 2)
    assert i2.dims == {(2, 0): 1, (1, 0): 1}
    # P1 = I2 is projective-injective for the path algebra of 1 -> 2
    v = mo.is_isomorphic(mo.projective_module(a2, 1), i2)
    assert v.isomorphic


def test_nu_inverse_transport_composition(a2, a4, kron):
    # the closed forms of the Nakayama correspondence, read off a map of
    # injectives or of projectives, give back the x that built it
    rng = random.Random(0)
    for a in (a2, a4, kron):
        for v in a.vertices:
            for w in a.vertices:
                basis = [i for i in range(a.dim)
                         if a.source[i] == w and a.target[i] == v]
                for _ in range(3):
                    x = {i: Fraction(rng.randint(-3, 3)) for i in basis}
                    x = {i: c for i, c in x.items() if c}
                    inj = hd.dual_right_mult_hom(a, v, w, x)
                    proj = hd.left_mult_hom(a, v, w, x)
                    # left multiplication against the structure constants
                    for key, ix in proj.domain.basis_index.items():
                        for c_i, b in enumerate(ix):
                            img = proj.apply(proj.domain.unit_vector(key, c_i))
                            want = {}
                            for i, c in x.items():
                                for z, cz in a.mult_basis(i, b).items():
                                    want[z] = want.get(z, 0) + c * cz
                            ix = proj.codomain.basis_index.get(key, [])
                            got = {ix[t]: val for t, val in img.get(key, {}).items()}
                            assert got == {z: c for z, c in want.items() if c}
                    moved = hd.injective_to_projective_hom(a, v, w, inj)
                    assert moved.blocks == proj.blocks
                    back = hd.projective_to_injective_hom(a, v, w, proj)
                    assert back.blocks == inj.blocks
    # a map that is the identity on the top block only is not a module map
    P1, I2 = mo.projective_module(a2, 1), hd.injective_module(a2, 2)
    with pytest.raises(InternalCheckError):
        hd.projective_to_injective_hom(a2, 1, 1, mo.GradedModuleHom(
            P1, P1, {(1, 0): Matrix.identity(1)}))
    with pytest.raises(InternalCheckError):
        hd.injective_to_projective_hom(a2, 2, 2, mo.GradedModuleHom(
            I2, I2, {(2, 0): Matrix.identity(1)}))


def test_derived_nu_inverse_examples(a2, kron, point):
    # semisimple: nu = identity, so one power is the shift A[n]
    objs, tables = hd.derived_nu_inverse_power(
        point, mo.projective_module(point, 1), 1, 1)
    assert tables[1] == {-1: 1}
    # path algebra of 1 -> 2: one power of P2 is the simple S1
    objs, tables = hd.derived_nu_inverse_power(
        a2, mo.projective_module(a2, 2), 1, 1)
    assert tables[1] == {0: 1}
    assert objs[0].terms[0].dims == {(1, 0): 1}
    # Kronecker: powers of the regular module stay stalks
    reg = mo.regular_module(kron)
    objs, tables = hd.derived_nu_inverse_power(kron, reg, 4, 1)
    for j in range(1, 5):
        assert set(tables[j]) == {0}


def test_is_n_rep_finite_a2(a2):
    rep = hd.is_n_rep_finite(a2, 1)
    assert rep.verdict is True
    assert sorted((o.projective, o.m) for o in rep.orbits) == [(1, 0), (2, 1)]
    endpoints = {o.projective: o.endpoint for o in rep.orbits}
    assert endpoints == {1: 2, 2: 1}


def test_is_n_rep_finite_semisimple(point):
    rep = hd.is_n_rep_finite(point, 1)
    assert rep.verdict is True and all(o.m == 0 for o in rep.orbits)


def test_is_n_rep_finite_kronecker_cap(kron):
    rep = hd.is_n_rep_finite(kron, 1, orbit_cap=10)
    assert rep.verdict is None  # distinct within-cap verdict


def test_is_n_rep_infinite(kron, a2, point):
    assert hd.is_n_rep_infinite_upto(kron, 1, 6).verdict is True
    rep = hd.is_n_rep_infinite_upto(a2, 1, 6)
    assert rep.verdict is False and rep.fail_at is not None
    rep2 = hd.is_n_rep_infinite_upto(point, 1, 6)
    assert rep2.verdict is False and rep2.fail_at == (-1, 1)


def test_rep_finite_orbit_cohomology_vanishes(a2):
    rep = hd.is_n_rep_finite(a2, 1)
    for o in rep.orbits:
        for table in o.h_tables:
            assert set(table) <= {0}


def test_gldim_exactly_n_when_noninjective(a2):
    # some projective is non-injective and the vanishing holds, so gldim = 1
    from koszulity import resolution as rs

    assert rs.gldim_upto(a2, 4).value == 1


def test_preprojective_a2(a2):
    pp = hd.preprojective_algebra(a2, 1, 4)
    dims = pp.algebra.dims()
    assert [dims[d] for d in range(5)] == [3, 1, 0, 0, 0]
    assert not pp.flags
    pp.algebra.check()


def test_preprojective_point(point):
    pp = hd.preprojective_algebra(point, 1, 3)
    assert pp.algebra.dims() == {0: 1, 1: 0, 2: 0, 3: 0}


def test_preprojective_kron_matches_knitting_oracle(kron):
    pp = hd.preprojective_algebra(kron, 1, 4)
    expected = knitting_expected_dims(kron, 4)
    assert pp.algebra.dims() == expected
    assert expected == {0: 4, 1: 12, 2: 20, 3: 28, 4: 36}


def test_preprojective_degree_zero_is_algebra(kron):
    pp = hd.preprojective_algebra(kron, 1, 2)
    G = pp.algebra
    assert G.dim(0) == kron.dim
    # degree-0 products reproduce the algebra structure constants
    count_nonzero = sum(1 for k, v in G.products.items()
                       if k[0][0] == 0 and k[1][0] == 0 and v)
    expected = sum(1 for k, v in kron.table.items() if v)
    assert count_nonzero == expected


def test_preprojective_double_quiver_relation_a2(a2):
    # Pi_2 of the path algebra of 1 -> 2: the two degree-1 compositions
    # through the reverse arrow vanish on one side and match on the other
    pp = hd.preprojective_algebra(a2, 1, 2)
    G = pp.algebra
    star = None
    for i, (s, t, lab) in enumerate(G.basis[1]):
        star = (i, s, t)
    assert star is not None
    i, s, t = star
    assert (s, t) == (2, 1)
    # the square of the only degree-1 element lands in degree 2 = 0
    assert G.dim(2) == 0


def test_serre_rhs_table_kA2(a2):
    table = hd.serre_rhs_table(a2, 1, 2, range(-1, 2))
    assert table[(0, 0)] == a2.dim
    assert table[(1, 0)] == 1    # S1 from the orbit of P2
    assert table[(1, -1)] == 1   # P2[1] from the injective P1
    assert table[(2, 0)] == 0


def test_complex_resolution_multidegree(a4):
    # nu_2 powers over a non-hereditary base (gldim 2) spread cohomology and
    # exercise the mapping-cone resolution of complexes; the construction
    # self-validates (d^2 = 0, chain map, cohomology preserved)
    P1 = mo.projective_module(a4, 1)
    final, tables = hd.derived_nu_inverse_power(a4, P1, 3, 2)
    assert tables[0] == {0: 3}
    assert tables[1] == {-2: 2, -1: 1}
    assert sum(tables[2].values()) > 0


def assert_sections_split_projections(cx):
    for data in hd.complex_cohomology(cx).values():
        back = data.proj.compose(data.section)
        assert back.blocks == mo.identity_hom(data.module).blocks


def test_nakayama_involution_on_complexes(a4):
    # nu_n applied back to a nu_n^{-1} image restores the cohomology exactly
    P1 = mo.projective_module(a4, 1)
    cx = hd.BoundedComplex(a4, {0: P1}, {})
    cres = hd.injective_resolution_of_complex(cx)
    back = hd.nu_inverse_of_resolution(a4, cres, 2)
    fwd = hd.nu_forward_of_labeled(a4, back.terms, back.diffs, 2)
    fwd.validate()
    assert hd.cohomology_dims(fwd) == {0: 3}
    assert_sections_split_projections(fwd)


def test_complex_resolution_of_two_term_complex(a4):
    # left multiplication P2 -> P1 by the arrow has kernel and cokernel, so
    # the complex carries cohomology in both degrees
    x = a4.index_of["a1"]
    from fractions import Fraction as F

    f = hd.left_mult_hom(a4, 2, 1, {x: F(1)})
    cx = hd.BoundedComplex(a4, {0: f.domain, 1: f.codomain}, {0: f})
    cx.validate()
    dims = hd.cohomology_dims(cx)
    assert dims == {0: 1, 1: 2}
    cres = hd.injective_resolution_of_complex(cx)
    assert hd.cohomology_dims(cres.as_complex(a4)) == dims
    assert_sections_split_projections(cx)
    assert_sections_split_projections(cres.as_complex(a4))
    for p, ls in cres.terms.items():
        for lab in ls.labels:
            assert lab in a4.vertices


def test_serre_rhs_nonhereditary_base(a4):
    # the fallback makes the table computable over a gldim-2 base as well
    table = hd.serre_rhs_table(a4, 2, 2, range(-1, 2))
    assert table[(0, 0)] == a4.dim


def bumped(image, key, i):
    """The element image with entry i of block key raised by 1."""
    out = {k: dict(vec) for k, vec in image.items()}
    vec = out.setdefault(key, {})
    vec[i] = vec.get(i, 0) + 1
    if not vec[i]:
        del vec[i]
    return {k: vec for k, vec in out.items() if vec}


@pytest.fixture(scope="module")
def injective_sums():
    """The sum of the D(Lambda e_w)<s> for the socle blocks (w, s), built once
    per list, so hom_space's memo serves repeated draws."""
    sums = {}

    def get(alg, socles):
        key = (alg.name, tuple(socles))
        if key not in sums:
            sums[key] = mo.DirectSum(alg, [mo.dual_of_left_projective(alg, w, s)
                                           for w, s in socles])
        return sums[key]

    return get


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_place_and_slice_match_dense_injections(a4, kron, delta_a4, data):
    # random part-level components between labeled sums: placing them at
    # the offsets gives the sum of inj_j o comp o proj_i, the dense
    # projections and injections read each component back, the embedded
    # and restricted elements agree with them, and over a degree-0 base
    # transport moves each component by the Nakayama closed forms
    alg = data.draw(st.sampled_from([a4, kron, delta_a4]))
    src, tgt = [hd.LabeledSum(alg, data.draw(st.lists(st.sampled_from(alg.vertices),
                                                      max_size=3)),
                              data.draw(st.sampled_from(["proj", "inj"])))
                for _ in range(2)]
    comps = {}
    for i, p in enumerate(src.parts):
        for j, q in enumerate(tgt.parts):
            basis = mo.hom_space(p, q)
            coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(basis),
                                        max_size=len(basis)))
            comps[(i, j)] = linear_combination(p, q, basis, coeffs)
    placed = mo.place(src, tgt, [(h, src.offsets[i], tgt.offsets[j])
                                 for (i, j), h in comps.items()])
    src_inj, src_prj = dense_injections_projections(src)
    tgt_inj, tgt_prj = dense_injections_projections(tgt)
    ref = mo.zero_hom(src, tgt)
    for (i, j), h in comps.items():
        ref = ref.add(tgt_inj[j].compose(h).compose(src_prj[i]))
    assert placed.blocks == ref.blocks
    assert placed.check_commutes()
    for (i, j), h in comps.items():
        assert tgt_prj[j].compose(placed).compose(src_inj[i]).blocks == h.blocks
    if src.parts:
        assert src.name == "(+)".join(p.name for p in src.parts)
    else:
        assert src.name == "0" and src.is_zero()
    for k, part in enumerate(src.parts):
        for key, i in part.basis_elements():
            x = part.unit_vector(key, i)
            assert src.embed(k, x) == src_inj[k].apply(x)
            y = placed.apply(src.embed(k, x))
            for j, q in enumerate(tgt.parts):
                assert tgt.component(j, y) == tgt_prj[j].apply(y)
    if alg is not delta_a4 and src.kind == tgt.kind:
        other = "inj" if src.kind == "proj" else "proj"
        move = (hd.projective_to_injective_hom if src.kind == "proj"
                else hd.injective_to_projective_hom)
        src_to, tgt_to = (hd.LabeledSum(alg, s.labels, other) for s in (src, tgt))
        want = mo.place(src_to, tgt_to, [
            (move(alg, src.labels[i], tgt.labels[j], h), src_to.offsets[i], tgt_to.offsets[j])
            for (i, j), h in comps.items() if not h.is_zero()])
        moved = hd.transport_sum_hom(src, tgt, placed, src_to, tgt_to)
        assert moved.blocks == want.blocks


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_map_into_injectives_matches_constrained_hom_solve(a4, kron, delta_a4,
                                                           t_summands,
                                                           injective_sums, data):
    # values taken from a random hom into a sum of injectives, shifted by
    # -1, 0 or 1 over Delta(a4), one of them perturbed or not: the
    # per-summand closed-form solve and the solve over a full Hom basis
    # agree on solvability, and the map found meets every prescribed value
    mods = [(delta_a4, t) for t in t_summands]
    for alg in (a4, kron, delta_a4):
        reg = mo.regular_module(alg)
        mods += [(alg, reg), (alg, mo.graded_dual_module(alg))]
    alg, m = data.draw(st.sampled_from(mods))
    shifts = [-1, 0, 1] if alg is delta_a4 else [0]
    socles = data.draw(st.lists(st.tuples(st.sampled_from(alg.vertices),
                                          st.sampled_from(shifts)),
                                min_size=1, max_size=3))
    tgt = injective_sums(alg, socles)
    basis = mo.hom_space(m, tgt)
    homs = [linear_combination(m, tgt, basis, data.draw(st.lists(
        st.integers(-3, 3), min_size=len(basis), max_size=len(basis))))
        for _ in range(data.draw(st.integers(1, 3)))]
    blocks = m.blocks()
    elems = []
    for _ in range(data.draw(st.integers(0, 3))):
        key = data.draw(st.sampled_from(blocks))
        vec = sparse(data.draw(st.lists(
            st.integers(-2, 2), min_size=m.dims[key], max_size=m.dims[key])))
        elems.append({key: vec} if vec else {})
    images = [[h.apply(x) for x in elems] for h in homs]
    perturbed = elems and data.draw(st.booleans())
    if perturbed:
        key = data.draw(st.sampled_from(tgt.blocks()))
        i = data.draw(st.integers(0, tgt.dims[key] - 1))
        ys = images[data.draw(st.integers(0, len(homs) - 1))]
        ys[0] = bumped(ys[0], key, i)
    refs = [hom_space_with_constraints(m, tgt, list(zip(elems, ys))) for ys in images]
    got = mo.solve_map_into_injectives(m, tgt, socles, elems, images)
    event(f"perturbed={bool(perturbed)} solvable={got is not None} "
          f"shifted={any(s for _w, s in socles)} maps={len(homs)}")
    assert (got is None) == any(ref is None for ref in refs)
    if not perturbed:
        assert got is not None
    if got is not None:
        for u, ys in zip(got, images):
            assert u.check_commutes()
            assert [u.apply(x) for x in elems] == ys
        # a batch gives each list of values the map a lone solve gives it
        assert [u.blocks for u in got] == [
            mo.solve_map_into_injectives(m, tgt, socles, elems, [ys])[0].blocks
            for ys in images]


def test_map_into_injectives_one_system_per_socle_block(a4):
    # one socle block (w, s) twice: both parts share one column system and
    # read their own values off it; a solvable and an unsolvable set of
    # values on the second part agree with the solve over a full Hom basis
    m = mo.regular_module(a4)
    socles = [(4, 0), (4, 0)]
    tgt = mo.DirectSum(a4, [mo.dual_of_left_projective(a4, w, s) for w, s in socles])
    basis = mo.hom_space(m, tgt)
    h = linear_combination(m, tgt, basis, list(range(1, len(basis) + 1)))
    elems = [m.unit_vector(key, i) for key, i in m.basis_elements()]
    constraints = [(x, h.apply(x)) for x in elems]
    assert any(tgt.component(0, y) != tgt.component(1, y) for _x, y in constraints)
    assert hom_space_with_constraints(m, tgt, constraints) is not None
    got = mo.solve_map_into_injectives(m, tgt, socles, elems, [[y for _x, y in constraints]])
    assert got is not None and got[0].check_commutes()
    # the second part's value at a basis vector of (2, 0) moved by one
    x = m.unit_vector((2, 0), 0)
    bad = [(y, bumped(image, (2, 0), tgt.offsets[1][(2, 0)])) if y == x else (y, image)
           for y, image in constraints]
    assert hom_space_with_constraints(m, tgt, bad) is None
    assert mo.solve_map_into_injectives(m, tgt, socles, elems, [[y for _x, y in bad]]) is None
    # one unsolvable list of values fails the whole batch
    assert mo.solve_map_into_injectives(
        m, tgt, socles, elems, [[y for _x, y in constraints], [y for _x, y in bad]]) is None


# nu_n^{-1} power tables, a Serre table and Pi_{n+1} dumps as computed when
# stalks and complexes took separate routes through nu_n^{-1}; the single
# complex route reproduces them exactly
PINNED_A4_POWERS = {
    1: [{0: 3}, {-2: 2, -1: 1}, {-3: 2, -2: 5}, {-4: 4, -3: 3}],
    2: [{0: 2}, {0: 2}, {-2: 2}, {-2: 2}],
    3: [{0: 2}, {0: 2}, {-2: 2}, {-2: 2}],
    4: [{0: 1}, {-1: 1, 0: 4}, {-2: 3, -1: 2}, {-3: 3, -2: 6}],
}
PINNED_SERRE_A4 = {
    (0, 0): 8, (1, -2): 2, (1, -1): 2, (1, 0): 8, (2, -3): 2, (2, -2): 12,
    (2, -1): 2, (3, -4): 4, (3, -3): 6, (3, -2): 10,
}
PINNED_PREPROJECTIVE_SHA256 = {
    ("kron", 5): "73b3ccf8f23316f8377305c3c12dc649ceba54c1dbf5d6e20ee2eb02fc9d5060",
    ("a2", 4): "d6cd2f2c9048e449835396e8a58f2f9b395082594c42c5ea8239b3653f6ae1a9",
}


def test_derived_route_is_pinned(a4, a2, kron):
    for v, expected in PINNED_A4_POWERS.items():
        _objs, tables = hd.derived_nu_inverse_power(
            a4, mo.projective_module(a4, v), 3, 2)
        assert tables == expected, v
    _objs, tables = hd.derived_nu_inverse_power(kron, mo.regular_module(kron), 4, 1)
    assert tables == [{0: 4}, {0: 12}, {0: 20}, {0: 28}, {0: 36}]
    table = hd.serre_rhs_table(a4, 2, 3, range(-4, 2))
    assert table == {(i, l): PINNED_SERRE_A4.get((i, l), 0)
                     for i in range(4) for l in range(-4, 2)}
    for alg, d_max in ((kron, 5), (a2, 4)):
        dump = hd.preprojective_algebra(alg, 1, d_max).algebra.dump()
        digest = hashlib.sha256(dump.encode()).hexdigest()
        assert digest == PINNED_PREPROJECTIVE_SHA256[(alg.name, d_max)]



def test_preprojective_products_match_restarted_transport(kron, a2, point):
    """One running transport per basis hom gives the same product table as
    restarting the transport for every pair, and raises no flag."""
    for alg, n, d_max in ((kron, 1, 5), (a2, 1, 4), (kron, 2, 3), (a2, 2, 3),
                          (point, 1, 3)):
        pp = hd.preprojective_algebra(alg, n, d_max)
        assert pp.algebra.products == preprojective_products_by_restart(alg, pp), \
            (alg.name, n, d_max)
        assert pp.flags == []
