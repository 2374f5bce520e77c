import os
from fractions import Fraction

import pytest

from koszulity.presentation import Quiver, Arrow, Relation, build_algebra
from koszulity.algebra import trivial_extension
from koszulity.linalg import (EchelonBasis, Matrix, candidate_combinations, exact,
                              kernel_vectors)
from koszulity import modules as mo, truncated as tr

DATA = os.path.join(os.path.dirname(__file__), "data")


def data_path(name):
    return os.path.join(DATA, name)


def sparse(vec):
    """The sparse vector {index: entry} of a dense list, normalised."""
    return {c: exact(x) for c, x in enumerate(vec) if x}


class DenseMatrix:
    """Reference `Matrix`: the dense row-list container the package used
    before its rows became sparse, with elimination by dense Gauss-Jordan.

    Rows are lists of normalised entries; `rref` reduces column by column
    over every cell, and `kernel_basis`, `solve_matrix` and `inverse` read
    the dense reduced rows. Tests compare `Matrix` with it.
    """

    def __init__(self, rows, cols, data):
        self.rows, self.cols = rows, cols
        self.data = [[exact(x) for x in row] for row in data]
        assert len(self.data) == rows and all(len(r) == cols for r in self.data)

    @staticmethod
    def of(m):
        return DenseMatrix(m.rows, m.cols, m.data)

    def __mul__(self, other):
        assert self.cols == other.rows
        return DenseMatrix(self.rows, other.cols, [
            [sum((a * other.data[k][j] for k, a in enumerate(row)), 0)
             for j in range(other.cols)] for row in self.data])

    def apply(self, vec):
        return [sum((a * v for a, v in zip(row, vec)), 0) for row in self.data]

    def transpose(self):
        return DenseMatrix(self.cols, self.rows,
                           [[row[j] for row in self.data] for j in range(self.cols)])

    def hstack(self, other):
        return DenseMatrix(self.rows, self.cols + other.cols,
                           [a + b for a, b in zip(self.data, other.data)])

    def rref(self):
        data = [row[:] for row in self.data]
        pivots = []
        for c in range(self.cols):
            r = len(pivots)
            pr = next((i for i in range(r, self.rows) if data[i][c]), None)
            if pr is None:
                continue
            data[r], data[pr] = data[pr], data[r]
            data[r] = [exact(Fraction(x) / data[r][c]) for x in data[r]]
            for i in range(self.rows):
                f = data[i][c]
                if i != r and f:
                    data[i] = [exact(a - f * b) for a, b in zip(data[i], data[r])]
            pivots.append(c)
        return DenseMatrix(self.rows, self.cols, data), pivots

    def kernel_basis(self):
        """One dense vector per free column fc: 1 there, -R[r][fc] at the
        pivot of each reduced row r."""
        R, pivots = self.rref()
        out = []
        for fc in (c for c in range(self.cols) if c not in pivots):
            v = [0] * self.cols
            v[fc] = 1
            for r, pc in enumerate(pivots):
                v[pc] = -R.data[r][fc]
            out.append(v)
        return out

    def solve_matrix(self, B):
        R, pivots = self.hstack(B).rref()
        if any(p >= self.cols for p in pivots):
            return None
        X = [[0] * B.cols for _ in range(self.cols)]
        for r, pc in enumerate(pivots):
            X[pc] = R.data[r][self.cols:]
        return DenseMatrix(self.cols, B.cols, X)

    def inverse(self):
        if self.rows != self.cols:
            return None
        eye = [[int(i == j) for j in range(self.rows)] for i in range(self.rows)]
        R, pivots = self.hstack(DenseMatrix(self.rows, self.rows, eye)).rref()
        if pivots != list(range(self.rows)):
            return None
        return DenseMatrix(self.rows, self.cols, [row[self.cols:] for row in R.data])


def dense_injections_projections(total):
    """The identity-block injections and projections of a DirectSum."""
    injections, projections = [], []
    for part, off in zip(total.parts, total.offsets):
        inj, prj = {}, {}
        for key, m in part.dims.items():
            inj[key] = Matrix.from_entries(total.dims[key], m,
                                           {(off[key] + i, i): 1 for i in range(m)})
            prj[key] = Matrix.from_entries(m, total.dims[key],
                                           {(i, off[key] + i): 1 for i in range(m)})
        injections.append(mo.GradedModuleHom(part, total, inj))
        projections.append(mo.GradedModuleHom(total, part, prj))
    return injections, projections


def hom_space_with_constraints(m, n, constraints):
    """Reference solve over a full Hom basis: a hom m -> n with prescribed
    values, constraints = [(elem, image), ...], or None if there is none.

    The package solves in closed form instead (`mo.map_from_projective`,
    `mo.solve_map_into_injectives`); tests compare the two.
    """
    basis = mo.hom_space(m, n)
    index = {}
    coeffs = dense_combination([flat_values([h.apply(x) for x, _ in constraints], index)
                                for h in basis],
                               flat_values([y for _, y in constraints], index), index)
    return None if coeffs is None else linear_combination(m, n, basis, coeffs)


def dense_combination(columns, target, index):
    """Coefficients c with sum_k c[k] columns[k] = target, or None, by
    `DenseMatrix.solve_matrix`: the non-pivot unknowns are 0. The sparse
    columns and target are indexed by index's values."""
    rows = len(index)
    a = DenseMatrix(rows, len(columns), [[col.get(r, 0) for col in columns]
                                         for r in range(rows)])
    x = a.solve_matrix(DenseMatrix(rows, 1, [[target.get(r, 0)] for r in range(rows)]))
    return None if x is None else [row[0] for row in x.data]


def flat_values(elems, index) -> dict:
    """A list of elements as one sparse vector; index numbers (k, block, row)."""
    out = {}
    for k, elem in enumerate(elems):
        for key, vec in elem.items():
            for i, x in vec.items():
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
    coeffs = dense_combination([flat_values([p.apply(h.apply(x)) for x in gens], index)
                                for h in basis],
                               flat_values([v.apply(x) for x in gens], index), index)
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
                    equations.add({c: x for c, x in row.items() if x})
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
                    rows = per_target.setdefault(k2, [[0] * dimk for _ in range(m.dims[k2])])
                    for r_i, val in vec.items():
                        rows[r_i][i] = val
            for rows in per_target.values():
                stacked.extend(rows)
        if stacked:
            out[key] = Matrix(len(stacked), dimk, stacked).kernel_basis()
        else:
            out[key] = [{i: 1} for i in range(dimk)]
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
        out.extend(sorted({alg.degree[i] for i in vec}))
    return out


def cohomology_by_vectors(cx):
    """Reference `hd.complex_cohomology`, as {degree: H module}: the
    preimage of each boundary under the cycle inclusion, one
    `mo.solve_preimages` call per basis vector of the previous term."""
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
                pre = mo.solve_preimages(incl, [din.apply(din.domain.unit_vector(key, i))])
                assert pre is not None, "boundary is not a cycle"
                for k2, sol in pre[0].items():
                    spans.setdefault(k2, []).append(sol)
        out[d] = mo.quotient_module(K, spans)[0]
    return out


def injective_resolution_by_envelope_loop(m, pos, cap=32):
    """Reference `hd.injective_resolution_module`: the envelope of m
    relabeled as a `hd.LabeledSum`, then envelope after envelope of each
    cokernel, relabeled the same way, until a cokernel is zero.

    The package reads the envelopes and cokernels off one
    `rs.MinimalCoresolution` instead; tests compare the two.
    """
    from koszulity import hereditary as hd
    from koszulity.algebra import InputError

    def envelope(x):
        _I, mono, tags = mo.injective_envelope(x)
        if any(d for _v, d in tags):
            raise InputError("ungraded envelope expects degree-0 modules")
        inj = hd.LabeledSum(x.algebra, [v for v, _d in tags], "inj")
        return inj, mo.GradedModuleHom(x, inj, mono.blocks)

    if m.is_zero():
        return hd.ComplexResolution({}, {}, {})
    I0, mono = envelope(m)
    terms, diffs = {pos: I0}, {}
    current, prev_proj = mo.cokernel(mono)
    p = pos
    while not current.is_zero():
        if len(terms) > cap:
            raise InputError(f"injective resolution exceeds cap {cap}")
        inj, mono_k = envelope(current)
        diffs[p] = mono_k.compose(prev_proj)
        p += 1
        terms[p] = inj
        current, prev_proj = mo.cokernel(mono_k)
    return hd.ComplexResolution(terms, diffs, {pos: mono})


def cover_data(m):
    """Reference step of `rs.MinimalResolution`: (epi, kernel, inclusion)
    of the minimal projective cover of m, built afresh from m."""
    _P, epi, _tags = mo.projective_cover(m)
    kernel, incl = mo.kernel_submodule(epi)
    return epi, kernel, incl


def syzygy_of_hom_by_cover_data(f, src, tgt):
    """Omega(f) through the `cover_data` src of f's domain and tgt of its
    codomain: one step of `gamma_by_cover_data`'s walk."""
    (src_epi, _k, src_incl), (tgt_epi, _l, tgt_incl) = src, tgt
    u = mo.solve_hom_factorization(tgt_epi, f.compose(src_epi))
    assert u is not None, "cover lifting failed"
    return mo.post_invert_mono(tgt_incl, u.compose(src_incl))


def gamma_by_cover_data(bdata, dual, rng=None):
    """Reference `ko.gamma_block_map`: Omega^{n j}(f) walked one syzygy at a
    time with `syzygy_of_hom_by_cover_data`, the covers built afresh.

    The package reads Omega^{n j}(f) off a chain lift instead. Both make the
    same `is_isomorphic` calls in the same order, so one seed gives both the
    same certificates; tests compare the coordinates.
    """
    from koszulity import koszul as ko
    from koszulity import resolution as rs

    tilde, n = bdata.tilde, bdata.tilde.n
    gamma = {}
    for (a1, b1, c1), idx in bdata.index.items():
        f = bdata.reps[(a1, b1)][c1]
        (s, j), (s2, i) = tilde.tags[b1], tilde.tags[a1]
        k = n * (i - j)
        dom0 = ko.omega(tilde.chains[s], n * j)
        cod0 = mo.shift_module(ko.omega(tilde.chains[s2], n * i), i - j)
        g = mo.GradedModuleHom(dom0, cod0,
                               {(v, d - j): m for (v, d), m in f.blocks.items()})
        if n * j:
            for _ in range(n * j):
                src, tgt = cover_data(g.domain), cover_data(g.codomain)
                g = syzygy_of_hom_by_cover_data(g, src, tgt)
            om = mo.is_isomorphic(g.domain, tilde.chains[s].module, rng=rng)
            target = mo.shift_module(ko.omega(tilde.chains[s2], k), i - j)
            om2 = mo.is_isomorphic(g.codomain, target, rng=rng)
            assert om.isomorphic and om2.isomorphic
            g = om2.certificate.compose(g).compose(om.certificate.inverse())
        res = dual.resolutions[s]
        vals = ko.stable_to_ext(res, tilde.chains[s2], k, i - j, g.compose(res.eps))
        eg = dual.groups[(s, s2, i - j)]
        gamma[idx] = ((i - j, s, s2), eg.reduce(rs.values_to_vec(eg, vals)))
    return gamma


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
    return Matrix(len(rows), unknowns, rows).kernel_basis()


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

    The orbit chains are stepped here with `hd.nu_inverse_step` from the
    projectives, so the reference reads none of pp's chains. The package
    transports the basis homs of a block together, one step at a time, and
    reads every product off a column of the running transport; tests
    compare the two.
    """
    from koszulity import hereditary as hd

    index = pp.index
    chains = {}
    for v in a.vertices:
        chains[v] = [hd.Piece(mo.projective_module(a, v), 0)]
        for _ in range(pp.algebra.cutoff):
            outs, _dims = hd.nu_inverse_step(a, chains[v][-1], pp.n)
            assert len(outs) <= 1
            chains[v].append(outs[0] if outs else hd.Piece(mo.zero_module(a), 0))
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
                    outs = hd.transport_stalk_homs(a, [h], src, tgt, -nxt_src.shift)
                    h = outs[0] if outs else zero
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
                     for key, vec in val.items() for t, x in vec.items()}
            tr.store_product(products, (d1, i_f, d2, i_g), entry)
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
