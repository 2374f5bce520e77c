import os

import pytest

from koszulity.presentation import Quiver, Arrow, Relation, build_algebra
from koszulity.algebra import trivial_extension
from koszulity.linalg import (EchelonBasis, Matrix, candidate_combinations,
                              kernel_vectors, solve_combination)
from koszulity import modules as mo

DATA = os.path.join(os.path.dirname(__file__), "data")


def data_path(name):
    return os.path.join(DATA, name)


def hom_space_with_constraints(m, n, constraints):
    """Reference solve over a full Hom basis: a hom m -> n with prescribed
    values, constraints = [(elem, image), ...], or None if there is none.

    The package solves in closed form instead (`mo.map_from_projective`,
    `mo.solve_map_into_injectives`); tests compare the two.
    """
    basis = mo.hom_space(m, n)
    index = {}
    coeffs = solve_combination([flat_values([h.apply(x) for x, _ in constraints], index)
                                for h in basis],
                               flat_values([y for _, y in constraints], index))
    return None if coeffs is None else linear_combination(m, n, basis, coeffs)


def flat_values(elems, index) -> dict:
    """A list of elements as one sparse vector; index numbers (k, block, row)."""
    out = {}
    for k, elem in enumerate(elems):
        for key, vec in elem.items():
            for i, x in enumerate(vec):
                if x:
                    out[index.setdefault((k, key, i), len(index))] = x
    return out


def linear_combination(m, n, homs, coeffs):
    """sum_k coeffs[k] homs[k] as a hom m -> n."""
    out = mo.zero_hom(m, n)
    for c, h in zip(coeffs, homs):
        if c:
            out = out.add(h.scale(c))
    return out


def hom_factorization_by_system(p, v):
    """Reference `mo.solve_hom_factorization`: u with p o u = v, or None,
    solved as a combination of a full basis of Hom(v.domain, p.domain),
    with equality asked for on the generators of v's domain.

    The package reads u off the generators of a projective domain instead;
    tests compare the two.
    """
    basis = mo.hom_space(v.domain, p.domain)
    gens = mo.generator_elements(v.domain)
    index = {}
    coeffs = solve_combination([flat_values([p.apply(h.apply(x)) for x in gens], index)
                                for h in basis],
                               flat_values([v.apply(x) for x in gens], index))
    return None if coeffs is None else linear_combination(v.domain, p.domain, basis, coeffs)


def submodule_by_solve(m, spans):
    """Reference `mo.submodule`: each block's action solved by one
    `solve_matrix` per (basis element, block) against the target block's
    reduced echelon basis.

    The package reads the coordinates at the basis' pivot columns instead;
    tests compare the two.
    """
    alg = m.algebra
    bases = {}
    for key, vecs in spans.items():
        if vecs:
            R, piv = Matrix(len(vecs), m.dims[key], vecs).rref()
            if piv:
                bases[key] = Matrix(len(piv), m.dims[key], R.data[:len(piv)])
    action = {}
    for x in range(alg.num_vertices, alg.dim):
        sv, tv, dx = alg.source[x], alg.target[x], alg.degree[x]
        for (v, d), b in bases.items():
            if v != sv:
                continue
            img = m.act(x, d) * b.transpose()
            if img.is_zero():
                continue
            sol = bases[(tv, d + dx)].transpose().solve_matrix(img)
            assert sol is not None, "span not action-closed"
            action.setdefault(x, {})[d] = sol
    return mo.GradedModule(alg, {key: b.rows for key, b in bases.items()}, action)


def kernel_spans(f):
    """The spans `mo.kernel_submodule` hands to `mo.submodule`."""
    return {key: f.block(*key).kernel_basis() for key in f.domain.dims}


def generating_set(alg):
    """Reference generators: basis indices, idempotents excluded, taken
    greedily in basis order whenever one leaves the span of the all-pairs
    product closure of the idempotents and the generators so far.

    The package reads the arrows (`GradedAlgebra.arrows`) instead; tests
    compare the two through the Hom systems they give.
    """
    span = EchelonBasis()
    elements = []
    for v in range(alg.num_vertices):
        span.add({v: 1})
        elements.append({v: 1})
    gens = []

    def close():
        changed = True
        while changed:
            changed = False
            fresh = []
            for a in list(elements):
                for b in list(elements):
                    p = alg.mult(a, b)
                    if p and span.add(p):
                        fresh.append(p)
                        changed = True
            elements.extend(fresh)

    close()
    for i in range(alg.dim):
        if span.add({i: 1}):
            gens.append(i)
            elements.append({i: 1})
            close()
    return gens


def hom_kernel_by_generating_set(m, n):
    """Reference `mo._hom_kernel`: one equation per entry of
    f a_m = a_n f for each element a of `generating_set`, in place of the
    arrows."""
    alg = m.algebra
    layout, total = mo.hom_frame(m, n)
    pos = {key: (off, m.dims[key]) for key, off, _ in layout}
    equations = EchelonBasis()
    for x in generating_set(alg):
        sv, tv, dx = alg.source[x], alg.target[x], alg.degree[x]
        for d in sorted({d for (v, d) in m.dims if v == sv}):
            a_m, a_n = m.act(x, d), n.act(x, d)
            for i in range(n.block_dim(tv, d + dx)):
                for j in range(m.block_dim(sv, d)):
                    row = {}
                    if (tv, d + dx) in pos:
                        off, cols = pos[(tv, d + dx)]
                        for k in range(m.block_dim(tv, d + dx)):
                            if a_m.data[k][j]:
                                row[off + i * cols + k] = a_m.data[k][j]
                    if (sv, d) in pos:
                        off, cols = pos[(sv, d)]
                        for k in range(n.block_dim(sv, d)):
                            col = off + k * cols + j
                            row[col] = row.get(col, 0) - a_n.data[i][k]
                    equations.add(row)
    return layout, kernel_vectors(equations.rows, total) if total else []


def radical_span_by_radical_basis(m):
    """Reference `mo.radical_span`: every element of `radical_basis()`
    applied to every unit vector."""
    spans = {key: [] for key in m.dims}
    for r in m.algebra.radical_basis():
        for key, i in m.basis_elements():
            for k2, vec in m.apply_element(m.unit_vector(key, i), r).items():
                spans[k2].append(vec)
    return spans


def socle_spans_by_radical_basis(m):
    """Reference `mo.socle_spans`: per block, the kernel of the matrices of
    every element of `radical_basis()`, identity rows when none acts."""
    rad = m.algebra.radical_basis()
    out = {}
    for key, dimk in m.dims.items():
        stacked = []
        for r in rad:
            per_target = {}
            for i in range(dimk):
                img = m.apply_element(m.unit_vector(key, i), r)
                for k2, vec in img.items():
                    rows = per_target.setdefault(k2, [[0] * dimk for _ in vec])
                    for r_i, val in enumerate(vec):
                        rows[r_i][i] = val
            for rows in per_target.values():
                stacked.extend(rows)
        if stacked:
            out[key] = Matrix(len(stacked), dimk, stacked).kernel_basis()
        else:
            out[key] = [list(v) for v in Matrix.identity(dimk).data]
    return {k: v for k, v in out.items() if v}


def socle_degrees_by_radical_basis(alg):
    """Reference `frobenius.socle_degrees`: one dense right-multiplication
    matrix per element of `radical_basis()`."""
    rad = alg.radical_basis()
    n = alg.dim
    if not rad:
        return sorted(alg.degree)
    stacked = []
    for r in rad:
        rm = [[0] * n for _ in range(n)]
        for i in range(n):
            for j, c in r.items():
                for k, ck in alg.mult_basis(i, j).items():
                    rm[k][i] += c * ck
        stacked.extend(rm)
    out = []
    for vec in Matrix(len(stacked), n, stacked).kernel_basis():
        out.extend(sorted({alg.degree[i] for i, c in enumerate(vec) if c}))
    return out


def cohomology_by_vectors(cx):
    """Reference `hd.complex_cohomology`, as {degree: H module}: the
    preimage of each boundary under the cycle inclusion, one
    `mo.solve_preimage` per basis vector of the previous term."""
    out = {}
    for d, term in cx.terms.items():
        dout = cx.diffs.get(d)
        if dout is None:
            dout = mo.zero_hom(term, mo.zero_module(cx.algebra))
        K, incl = mo.kernel_submodule(dout)
        spans = {}
        din = cx.diffs.get(d - 1)
        if din is not None:
            for key, i in din.domain.basis_elements():
                pre = mo.solve_preimage(incl, din.apply(din.domain.unit_vector(key, i)))
                assert pre is not None, "boundary is not a cycle"
                for k2, sol in pre.items():
                    spans.setdefault(k2, []).append(sol)
        out[d] = mo.quotient_module(K, spans)[0]
    return out


def graded_iso_space_dense(G1, G2, phi0):
    """Reference degree-1 space of `tr.find_graded_iso`: one dense row per
    (u, x, i2, side) over all n1 * n1 unknowns, each coefficient summed over
    phi0(u)'s terms, and the kernel of the dense matrix. Returns the kernel
    vectors as sparse dicts.

    The package feeds sparse rows to one elimination instead, with phi0(u)'s
    actions computed once per u; tests compare the two.
    """
    n0, n1 = G1.dim(0), G1.dim(1)
    unknowns = n1 * n1
    rows = []
    for u in range(n0):
        pu = {i: phi0.data[i][u] for i in range(n0) if phi0.data[i][u]}
        for x in range(n1):
            ux = G1.mult(0, {u: 1}, 1, {x: 1})
            xu = G1.mult(1, {x: 1}, 0, {u: 1})
            for i2 in range(n1):
                row = [0] * unknowns
                for z, cz in ux.items():
                    row[i2 * n1 + z] += cz
                for j2 in range(n1):
                    coef = 0
                    for p_i, cp in pu.items():
                        coef += cp * G2.mult(0, {p_i: 1}, 1, {j2: 1}).get(i2, 0)
                    row[j2 * n1 + x] -= coef
                rows.append(row)
            for i2 in range(n1):
                row = [0] * unknowns
                for z, cz in xu.items():
                    row[i2 * n1 + z] += cz
                for j2 in range(n1):
                    row[j2 * n1 + x] -= G2.mult(1, {j2: 1}, 0, pu).get(i2, 0)
                rows.append(row)
    space = Matrix(len(rows), unknowns, rows).kernel_basis()
    return [{c: x for c, x in enumerate(vec) if x} for vec in space]


def is_isomorphic_by_flatten(m, n, rng=None):
    """Reference `mo.is_isomorphic`: the Hom basis as homs from
    `mo.hom_space`, flattened back to vectors for the candidate stream, and
    every candidate unflattened.

    The package streams the sparse kernel of the Hom system directly;
    tests compare the two.
    """
    for key in set(m.dims) | set(n.dims):
        if m.block_dim(*key) != n.block_dim(*key):
            return mo.IsoVerdict(False, True,
                                 reason="graded dimension vectors differ")
    if m.is_zero():
        return mo.IsoVerdict(True, True, certificate=mo.zero_hom(m, n))
    H = mo.hom_space(m, n)
    if not H:
        return mo.IsoVerdict(False, True, reason="no nonzero homomorphisms")
    layout, _total = mo.hom_frame(m, n)
    for vec in candidate_combinations([mo.hom_flatten(h, layout) for h in H],
                                      rng, mo.ISO_SAMPLES):
        h = mo.hom_unflatten(m, n, layout, vec)
        if h.is_isomorphism():
            return mo.IsoVerdict(True, True, certificate=h)
    return mo.IsoVerdict(None, False, reason=f"no invertible combination found "
                         f"in {mo.ISO_SAMPLES} samples (probabilistic)")


def preprojective_products_by_restart(a, pp):
    """Reference product table of a `hd.PreprojectiveData`: for every pair
    f = (d1, u, v, c1), g = (d2, v, w, c2) of basis homs, transport f from
    step 0 along the orbit chains for d2 steps, compose with g and evaluate
    at the generator e_w.

    The package transports each f once, one step at a time, and reads every
    product with it off a column of the running transport; tests compare
    the two.
    """
    from koszulity import hereditary as hd

    chains, index = pp.chains, pp.index
    lifts = {}

    def basis_hom(d, u, v, c):
        module = chains[u][d].module
        return mo.map_from_projective(mo.projective_module(a, v), module,
                                      module.unit_vector((v, 0), c))

    def transport(d1, u, v, c, d2):
        key = (d1, u, v, c, d2)
        if key not in lifts:
            h = basis_hom(d1, u, v, c)
            for step in range(d2):
                src, tgt = chains[v][step], chains[u][d1 + step]
                nxt_src, nxt_tgt = chains[v][step + 1], chains[u][d1 + step + 1]
                zero = mo.zero_hom(nxt_src.module, nxt_tgt.module)
                if (h.is_zero() or nxt_src.module.is_zero()
                        or nxt_tgt.module.is_zero() or src.shift != tgt.shift
                        or nxt_src.shift != nxt_tgt.shift):
                    h = zero
                else:
                    h = hd.transport_stalk_hom(a, h, src, tgt).get(
                        -nxt_src.shift, zero)
            lifts[key] = h
        return lifts[key]

    products = {}
    for (d1, u, v, c1), i_f in index.items():
        for (d2, v2, w, c2), i_g in index.items():
            if v2 != v or d1 + d2 > pp.algebra.cutoff:
                continue
            comp = transport(d1, u, v, c1, d2).compose(basis_hom(d2, v, w, c2))
            val = comp.apply(mo.generator(comp.domain, w))
            entry = {index[(d1 + d2, u, key[0], t)]: x
                     for key, vec in val.items() for t, x in enumerate(vec) if x}
            if entry:
                products[((d1, i_f), (d2, i_g))] = entry
    return products


def rel(*paths):
    """Zero relation from one or more (coeff, path) terms given as strings."""
    terms = []
    for p in paths:
        if isinstance(p, tuple):
            terms.append((p[0], tuple(p[1].split("*"))))
        else:
            terms.append((1, tuple(p.split("*"))))
    return Relation(tuple(terms))


@pytest.fixture(scope="session")
def a4():
    q = Quiver(4, (Arrow("a1", 1, 2, 0), Arrow("a2", 1, 3, 0),
                   Arrow("a3", 2, 4, 0), Arrow("a4", 3, 4, 0)))
    return build_algebra(q, [rel("a1*a3"), rel("a2*a4")], 3, name="a4")


@pytest.fixture(scope="session")
def delta_a4(a4):
    return trivial_extension(a4)


@pytest.fixture(scope="session")
def a2():
    q = Quiver(2, (Arrow("al", 1, 2, 0),))
    return build_algebra(q, [], 2, name="a2")


@pytest.fixture(scope="session")
def delta_a2(a2):
    return trivial_extension(a2)


@pytest.fixture(scope="session")
def kron():
    q = Quiver(2, (Arrow("a", 1, 2, 0), Arrow("b", 1, 2, 0)))
    return build_algebra(q, [], 2, name="kron")


@pytest.fixture(scope="session")
def delta_kron(kron):
    return trivial_extension(kron)


@pytest.fixture(scope="session")
def dualnum():
    q = Quiver(1, (Arrow("x", 1, 1, 1),))
    return build_algebra(q, [rel("x*x")], 2, name="dualnum")


@pytest.fixture(scope="session")
def x3():
    q = Quiver(1, (Arrow("x", 1, 1, 1),))
    return build_algebra(q, [rel("x*x*x")], 3, name="x3")


@pytest.fixture(scope="session")
def nak2():
    q = Quiver(2, (Arrow("a", 1, 2, 1), Arrow("b", 2, 1, 1)))
    return build_algebra(q, [rel("a*b"), rel("b*a")], 2, name="nak2")


@pytest.fixture(scope="session")
def point():
    return build_algebra(Quiver(1, ()), [], 1, name="point")


@pytest.fixture(scope="session")
def t_summands(a4, delta_a4):
    parts = (mo.projective_module(a4, 1), mo.simple_module(a4, 2),
             mo.simple_module(a4, 3), mo.dual_of_left_projective(a4, 4))
    return [mo.inflate_module(p, delta_a4) for p in parts]


@pytest.fixture(scope="session")
def a2_summands(a2, delta_a2):
    return [mo.inflate_module(mo.projective_module(a2, v), delta_a2)
            for v in a2.vertices]


@pytest.fixture(scope="session")
def kron_summands(kron, delta_kron):
    return [mo.inflate_module(mo.projective_module(kron, v), delta_kron)
            for v in kron.vertices]
