"""Truncated graded algebras: Koszul duals, quasi-Veronese, twists.

These carry the graded components of a possibly infinite-dimensional graded
algebra up to a degree cutoff, with all products that stay within the
cutoff. Basis elements are tagged (source, target) in the same composition
convention as GradedAlgebra.
"""

from __future__ import annotations

from .linalg import (EchelonBasis, Matrix, _axpy, assemble, candidate_combinations,
                     exact, kernel_vectors)
from .algebra import GradedAlgebra, InputError, InternalCheckError
from . import resolution as rs


class TruncatedGradedAlgebra:
    def __init__(self, name, cutoff, vertices, basis, products, unit):
        """basis: {d: [(src, tgt, label), ...]}; products: {((d1,i1),(d2,i2)): {i3: c}};
        unit: {i: c} in degree-0 coordinates."""
        self.name = name
        self.cutoff = cutoff
        self.vertices = list(vertices)
        self.basis = {d: list(items) for d, items in basis.items() if items}
        self.products = products
        self.unit = dict(unit)

    def dim(self, d: int) -> int:
        return len(self.basis.get(d, []))

    def dims(self):
        return {d: self.dim(d) for d in range(self.cutoff + 1)}

    def bigraded_dims(self, d: int) -> dict:
        out = {}
        for (s, t, _l) in self.basis.get(d, []):
            out[(s, t)] = out.get((s, t), 0) + 1
        return out

    def tags(self, d: int):
        return [(s, t) for (s, t, _l) in self.basis.get(d, [])]

    def mult(self, d1: int, v1: dict, d2: int, v2: dict) -> dict:
        if d1 + d2 > self.cutoff:
            raise InputError("product beyond cutoff")
        out = {}
        for i, c1 in v1.items():
            if not c1:
                continue
            for j, c2 in v2.items():
                if not c2:
                    continue
                prod = self.products.get(((d1, i), (d2, j)))
                if prod:
                    c = c1 * c2
                    for k, ck in prod.items():
                        s = out.get(k, 0) + c * ck
                        if s:
                            out[k] = s
                        else:
                            out.pop(k, None)
        return out

    def check(self):
        """Structural checks: tag compatibility, unit, associativity in range.

        Associativity is tested on every triple of basis elements whose tags
        compose. On any other triple both sides vanish: the tag checks prove
        that only composable pairs carry products and that a product of a
        and b has the tags (source a, target b). The products ab and bc are
        read from the table, so each triple costs two multiplications.
        """
        for ((d1, i), (d2, j)), prod in self.products.items():
            s1, t1, _ = self.basis[d1][i]
            s2, t2, _ = self.basis[d2][j]
            if t1 != s2 and prod:
                raise InternalCheckError("non-composable product stored")
            for k in prod:
                s3, t3, _ = self.basis[d1 + d2][k]
                if (s3, t3) != (s1, t2):
                    raise InternalCheckError("product tags wrong")
        for d in range(self.cutoff + 1):
            n = self.dim(d)
            for i in range(n):
                v = {i: 1}
                left = self.mult(0, self.unit, d, v)
                right = self.mult(d, v, 0, self.unit)
                if left != v or right != v:
                    raise InternalCheckError("unit law fails in truncated algebra")
        starting = {}  # (degree, source tag) -> basis indices
        for d, items in self.basis.items():
            for i, (s, _t, _l) in enumerate(items):
                starting.setdefault((d, s), []).append(i)
        for da in range(self.cutoff + 1):
            for db in range(self.cutoff + 1 - da):
                for dc in range(self.cutoff + 1 - da - db):
                    for i, (_s, ta, _l) in enumerate(self.basis.get(da, [])):
                        for j in starting.get((db, ta), []):
                            tb = self.basis[db][j][1]
                            ab = self.products.get(((da, i), (db, j)), {})
                            for k in starting.get((dc, tb), []):
                                bc = self.products.get(((db, j), (dc, k)), {})
                                lhs = self.mult(da + db, ab, dc, {k: 1})
                                rhs = self.mult(da, {i: 1}, db + dc, bc)
                                if lhs != rhs:
                                    raise InternalCheckError(
                                        "associativity fails in truncated algebra"
                                    )
        return True

    def idempotent(self, v) -> dict:
        """Degree-0 coefficients of the vertex idempotent e_v."""
        out = {}
        for i, c in self.unit.items():
            s, t, _l = self.basis[0][i]
            if s == v:
                if t != v:
                    raise InternalCheckError("unit component with mixed tags")
                out[i] = c
        return out

    def dump(self) -> str:
        lines = [f"truncated {self.name} cutoff {self.cutoff}"]
        for d in range(self.cutoff + 1):
            for (s, t, lab) in self.basis.get(d, []):
                lines.append(f"basis {d} {s} {t} {lab}")
        for ((d1, i), (d2, j)) in sorted(self.products,
                                         key=lambda p: (p[0][0], p[0][1], p[1][0], p[1][1])):
            prod = self.products[((d1, i), (d2, j))]
            if not prod:
                continue
            l1 = self.basis[d1][i][2]
            l2 = self.basis[d2][j][2]
            terms = " + ".join(
                f"{c}*{self.basis[d1 + d2][k][2]}" for k, c in sorted(prod.items())
            )
            lines.append(f"{l1} * {l2} = {terms}")
        lines.append("end")
        return "\n".join(lines)


def truncate_algebra(alg: GradedAlgebra, cutoff: int) -> TruncatedGradedAlgebra:
    """View a finite-dimensional graded algebra as a truncated one."""
    basis = {}
    index_map = {}
    for i in range(alg.dim):
        d = alg.degree[i]
        if d > cutoff:
            continue
        basis.setdefault(d, [])
        index_map[i] = (d, len(basis[d]))
        basis[d].append((alg.source[i], alg.target[i], alg.labels[i]))
    products = {}
    for (i, j), prod in alg.table.items():
        if i not in index_map or j not in index_map:
            continue
        d1, i1 = index_map[i]
        d2, j1 = index_map[j]
        if d1 + d2 > cutoff:
            continue
        entry = {}
        for k, c in prod.items():
            dk, k1 = index_map[k]
            entry[k1] = c
        products[((d1, i1), (d2, j1))] = entry
    unit = {}
    for v in range(alg.num_vertices):
        unit[index_map[v][1]] = 1
    return TruncatedGradedAlgebra(alg.name, cutoff, list(alg.vertices),
                                  basis, products, unit)


class TruncatedAlgebraMorphism:
    """Degree-preserving linear map between truncated algebras."""

    def __init__(self, domain, codomain, mats: dict):
        self.domain = domain
        self.codomain = codomain
        self.mats = mats  # d -> Matrix (codomain.dim(d) x domain.dim(d))
        self._cols = {}   # d -> (mats[d], its columns), for apply

    def mat(self, d: int) -> Matrix:
        m = self.mats.get(d)
        if m is None:
            return Matrix.zero(self.codomain.dim(d), self.domain.dim(d))
        return m

    def apply(self, d: int, vec: dict) -> dict:
        m = self.mat(d)
        hit = self._cols.get(d)
        if hit is None or hit[0] is not m:
            hit = self._cols[d] = (m, m.transpose().srows)
        out = {}
        for j, c in vec.items():
            for i, x in hit[1].get(j, {}).items():
                s = out.get(i, 0) + c * x
                if s:
                    out[i] = s
                else:
                    out.pop(i, None)
        return out

    def is_identity(self) -> bool:
        for d in range(self.domain.cutoff + 1):
            if self.domain.dim(d) and self.mat(d) != Matrix.identity(self.domain.dim(d)):
                return False
        return True

    def is_invertible(self) -> bool:
        return all(self.mat(d).is_invertible()
                   for d in range(self.domain.cutoff + 1) if self.domain.dim(d))

    def inverse(self) -> "TruncatedAlgebraMorphism":
        mats = {}
        for d in range(self.domain.cutoff + 1):
            if self.domain.dim(d):
                inv = self.mat(d).inverse()
                if inv is None:
                    raise InputError("morphism not invertible")
                mats[d] = inv
        return TruncatedAlgebraMorphism(self.codomain, self.domain, mats)

    def check_multiplicative(self) -> bool:
        G, H = self.domain, self.codomain
        for d1 in range(G.cutoff + 1):
            for d2 in range(G.cutoff + 1 - d1):
                for i in range(G.dim(d1)):
                    for j in range(G.dim(d2)):
                        lhs = self.apply(d1 + d2,
                                         G.mult(d1, {i: 1}, d2, {j: 1}))
                        rhs = H.mult(d1, self.apply(d1, {i: 1}),
                                     d2, self.apply(d2, {j: 1}))
                        if lhs != rhs:
                            return False
        return True


def identity_truncated_morphism(G) -> TruncatedAlgebraMorphism:
    return TruncatedAlgebraMorphism(
        G, G, {d: Matrix.identity(G.dim(d)) for d in range(G.cutoff + 1) if G.dim(d)}
    )


def compose_truncated(f, g) -> TruncatedAlgebraMorphism:
    """f o g."""
    mats = {}
    for d in range(g.domain.cutoff + 1):
        if g.domain.dim(d):
            mats[d] = f.mat(d) * g.mat(d)
    return TruncatedAlgebraMorphism(g.domain, f.codomain, mats)


# ---------------------------------------------------------------------------
# quasi-Veronese and twists
# ---------------------------------------------------------------------------

def quasi_veronese(G: TruncatedGradedAlgebra, r: int) -> TruncatedGradedAlgebra:
    """r-th quasi-Veronese: degree i holds the r x r block matrix with
    (j, k) entry G_{ri + k - j}."""
    if r < 1:
        raise InputError("quasi-Veronese parameter must be positive")
    new_cutoff = (G.cutoff - r + 1) // r
    if new_cutoff < 0:
        raise InputError("insufficient cutoff for quasi-Veronese")
    if r == 1:
        return TruncatedGradedAlgebra(
            f"{G.name}^[1]", G.cutoff, G.vertices, G.basis, G.products, G.unit
        )
    basis = {}
    index = {}  # (i, j, k, orig index) -> new index
    for i in range(new_cutoff + 1):
        items = []
        for j in range(r):
            for k in range(r):
                d = r * i + k - j
                for idx, (s, t, lab) in enumerate(G.basis.get(d, [])):
                    index[(i, j, k, idx)] = len(items)
                    items.append(((j, s), (k, t), f"[{j},{k}]{lab}"))
        basis[i] = items
    products = {}
    for (i1, j1, k1, idx1), p1 in index.items():
        for (i2, j2, k2, idx2), p2 in index.items():
            if i1 + i2 > new_cutoff or k1 != j2:
                continue
            d1 = r * i1 + k1 - j1
            d2 = r * i2 + k2 - j2
            prod = G.products.get(((d1, idx1), (d2, idx2)))
            if not prod:
                continue
            entry = {}
            for k, c in prod.items():
                entry[index[(i1 + i2, j1, k2, k)]] = c
            products[((i1, p1), (i2, p2))] = entry
    unit = {}
    for j in range(r):
        for idx, c in G.unit.items():
            unit[index[(0, j, j, idx)]] = c
    vertices = [(j, v) for j in range(r) for v in G.vertices]
    return TruncatedGradedAlgebra(f"{G.name}^[{r}]", new_cutoff, vertices,
                                  basis, products, unit)


def induced_veronese_automorphism(G, phi: TruncatedAlgebraMorphism, r: int,
                                  GV=None) -> TruncatedAlgebraMorphism:
    """Entrywise application of phi on the r-th quasi-Veronese."""
    if GV is None:
        GV = quasi_veronese(G, r)
    if r == 1:
        return TruncatedAlgebraMorphism(GV, GV, dict(phi.mats))
    mats = {}
    for i in range(GV.cutoff + 1):
        n = GV.dim(i)
        if not n:
            continue
        pieces = []
        pos = 0
        for j in range(r):
            for k in range(r):
                d = r * i + k - j
                pieces.append((phi.mat(d), pos, pos))
                pos += G.dim(d)
        mats[i] = assemble(n, n, pieces)
    return TruncatedAlgebraMorphism(GV, GV, mats)


def morphism_vertex_permutation(G, phi: TruncatedAlgebraMorphism) -> dict:
    """Vertex permutation induced by phi on the idempotents of G (degree 0)."""
    perm = {}
    for v in G.vertices:
        img = phi.apply(0, G.idempotent(v))
        tags = {G.basis[0][i][0] for i in img} | {G.basis[0][i][1] for i in img}
        if len(tags) != 1:
            raise InputError("morphism does not permute vertex idempotents")
        w = tags.pop()
        if img != G.idempotent(w):
            raise InputError("morphism does not permute vertex idempotents")
        perm[v] = w
    if len(set(perm.values())) != len(perm):
        raise InputError("vertex map is not a permutation")
    return perm


def twist_algebra(G: TruncatedGradedAlgebra,
                  phi: TruncatedAlgebraMorphism) -> TruncatedGradedAlgebra:
    """Twisted multiplication x . y = phi^{deg y}(x) * y.

    A degree-d basis element keeps its label and target but its source tag
    becomes vperm^{-d}(source), which is the idempotent acting on it from
    the left in the twisted algebra.
    """
    if not phi.is_invertible():
        raise InputError("twist requires an invertible morphism")
    vperm = morphism_vertex_permutation(G, phi)
    inv = {w: v for v, w in vperm.items()}

    def vperm_pow(v, k):
        for _ in range(k):
            v = inv[v]
        return v

    basis = {}
    for d, items in G.basis.items():
        basis[d] = [(vperm_pow(s, d), t, lab) for (s, t, lab) in items]
    powers = {0: identity_truncated_morphism(G)}
    for d in range(1, G.cutoff + 1):
        powers[d] = compose_truncated(phi, powers[d - 1])
    products = {}
    for d1 in range(G.cutoff + 1):
        for d2 in range(G.cutoff + 1 - d1):
            for i in range(G.dim(d1)):
                xi = powers[d2].apply(d1, {i: 1})
                for j in range(G.dim(d2)):
                    entry = G.mult(d1, xi, d2, {j: 1})
                    if entry:
                        products[((d1, i), (d2, j))] = entry
    return TruncatedGradedAlgebra(f"{G.name}_tw", G.cutoff, G.vertices,
                                  basis, products, G.unit)


# ---------------------------------------------------------------------------
# the Koszul-type dual
# ---------------------------------------------------------------------------

class DualData:
    def __init__(self, algebra: TruncatedGradedAlgebra, resolutions: list,
                 groups: dict, summands: list, index: dict, n: int):
        self.algebra = algebra
        self.resolutions = resolutions  # per summand
        self.groups = groups            # (s, s', degree) -> ExtGroup
        self.summands = summands        # the modules
        self.index = index              # (degree, s, s', class number) -> basis index
        self.n = n


def koszul_dual(alg: GradedAlgebra, summands, n: int, d_max: int,
                name: str = "dual") -> DualData:
    """Ext algebra sum over i of Ext^{ni}(T, T<i>) under Yoneda composition.

    Basis elements of Ext^{ni}(T^s, T^{s'}<i>) are tagged (source s',
    target s): composition order matches the path convention of
    GradedAlgebra.
    """
    t = len(summands)
    resolutions = [rs.MinimalResolution(m) for m in summands]
    for r in resolutions:
        r.extend(n * d_max + 1)
    groups = {}
    basis = {}
    index = {}
    for d in range(d_max + 1):
        items = []
        for s in range(t):
            for s2 in range(t):
                eg = rs.ext_group(resolutions[s], summands[s2], n * d, d)
                groups[(s, s2, d)] = eg
                for c in range(eg.dim):
                    index[(d, s, s2, c)] = len(items)
                    items.append((s2, s, f"x[{d}]({s2}<-{s}){c}"))
        basis[d] = items
    # identity classes of each summand: coordinates of eps in Ext^0(T^s, T^s)
    unit = {}
    for s in range(t):
        eg = groups[(s, s, 0)]
        res = resolutions[s]
        vals = []
        for k in range(res.terms[0].rank):
            gen = res.terms[0].generator_element(k)
            vals.append(res.eps.apply(gen))
        vec = rs.values_to_vec(eg, vals)
        for c, coeff in enumerate(eg.reduce(vec)):
            if coeff:
                unit[index[(0, s, s, c)]] = coeff
    # products by chain lifting: the classes g of one group are lifted once
    # and read by every f that follows them, then dropped
    products = {}
    for d2 in range(d_max + 1):
        for s in range(t):              # g: T^s -> translated T^{s'}
            for s2 in range(t):
                egg = groups[(s, s2, d2)]
                if not egg.dim:
                    continue
                glifts = [rs.CocycleLift(resolutions[s], resolutions[s2], n * d2,
                                         rs.cocycle_values(resolutions[s], egg, rep))
                          for rep in egg.reps]
                for d1 in range(d_max + 1 - d2):
                    for s3 in range(t):  # f: T^{s2} -> translated T^{s3}
                        egf = groups[(s2, s3, d1)]
                        eg_out = groups[(s, s3, d1 + d2)]
                        for cf in range(egf.dim):
                            fvals = rs.cocycle_values(resolutions[s2], egf,
                                                      egf.reps[cf])
                            for cg, glift in enumerate(glifts):
                                pv = rs.yoneda_product(summands[s3], n * d1,
                                                       fvals, glift)
                                vec = rs.values_to_vec(eg_out, pv)
                                coords = eg_out.reduce(vec)
                                entry = {}
                                for c, coeff in enumerate(coords):
                                    if coeff:
                                        entry[index[(d1 + d2, s, s3, c)]] = coeff
                                if entry:
                                    i_f = index[(d1, s2, s3, cf)]
                                    i_g = index[(d2, s, s2, cg)]
                                    products[((d1, i_f), (d2, i_g))] = entry
    G = TruncatedGradedAlgebra(name, d_max, list(range(t)), basis, products, unit)
    G.check()
    return DualData(G, resolutions, groups, list(summands), index, n)


# ---------------------------------------------------------------------------
# explicit graded isomorphism search (degree-1 generated)
# ---------------------------------------------------------------------------

class GradedIsoReport:
    def __init__(self, found: bool,
                 morphism: TruncatedAlgebraMorphism | None = None,
                 reason: str = "", probabilistic: bool = False):
        self.found = found
        self.morphism = morphism
        self.reason = reason
        self.probabilistic = probabilistic


def bigraded_dims_equal(G1, G2, vertex_map, upto=None) -> bool:
    upto = min(G1.cutoff, G2.cutoff) if upto is None else upto
    for d in range(upto + 1):
        b1 = {}
        for (s, t) in G1.tags(d):
            key = (vertex_map[s], vertex_map[t])
            b1[key] = b1.get(key, 0) + 1
        if b1 != G2.bigraded_dims(d):
            return False
    return True


# Random combinations find_graded_iso tries after the basis and its sum.
GRADED_ISO_SAMPLES = 24


def find_graded_iso(G1, G2, phi0: Matrix, vertex_map, rng=None,
                    upto=None) -> GradedIsoReport:
    """Isomorphism G1 -> G2 extending the degree-0 map phi0, generated in
    degree <= 1. phi0 must already be a degree-0 algebra isomorphism."""
    cutoff = min(G1.cutoff, G2.cutoff) if upto is None else upto
    dims_ok = bigraded_dims_equal(G1, G2, vertex_map, upto=cutoff)
    if not dims_ok:
        return GradedIsoReport(False, reason="bigraded dimensions differ")
    n0, n1 = G1.dim(0), G1.dim(1)
    if G2.dim(0) != n0 or G2.dim(1) != n1:
        return GradedIsoReport(False, reason="dimension mismatch")
    if n1 == 0:
        mats = {0: phi0}
        cand = TruncatedAlgebraMorphism(G1, G2, mats)
        ok = _extend_and_check(G1, G2, cand, cutoff)
        if ok is True:
            return GradedIsoReport(True, morphism=cand)
        return GradedIsoReport(False, reason=str(ok))
    space = _degree_one_space(G1, G2, phi0)
    if not space:
        return GradedIsoReport(False, reason="no bimodule maps in degree 1")
    last_reason = "no candidate extended to an isomorphism"
    for vec in candidate_combinations(space, rng, GRADED_ISO_SAMPLES):
        F = Matrix.from_entries(G2.dim(1), n1,
                                {divmod(c, n1): x for c, x in vec.items()})
        if not F.is_invertible():
            continue
        cand = TruncatedAlgebraMorphism(G1, G2, {0: phi0, 1: F})
        ok = _extend_and_check(G1, G2, cand, cutoff)
        if ok is True:
            return GradedIsoReport(True, morphism=cand)
        last_reason = str(ok)
    return GradedIsoReport(False, reason=last_reason,
                           probabilistic=len(space) > 1)


def _degree_one_space(G1, G2, phi0: Matrix):
    """Sparse basis of the degree-1 maps F with F(ux) = phi0(u) F(x) and
    F(xu) = F(x) phi0(u) for every degree-0 u and degree-1 x; F's entry
    (i2, j) is unknown i2 * n1 + j. G1 and G2 have equal dims in degree 1."""
    n1 = G1.dim(1)
    equations = EchelonBasis()
    for u in range(G1.dim(0)):
        pu = {i: row[u] for i, row in sorted(phi0.srows.items()) if u in row}
        # phi0(u)'s left and right actions on degree 1: i2 -> [(j2, coef)]
        left, right = {}, {}
        for j2 in range(n1):
            for i2, c in G2.mult(0, pu, 1, {j2: 1}).items():
                left.setdefault(i2, []).append((j2, c))
            for i2, c in G2.mult(1, {j2: 1}, 0, pu).items():
                right.setdefault(i2, []).append((j2, c))
        for x in range(n1):
            for prod, act in ((G1.mult(0, {u: 1}, 1, {x: 1}), left),
                              (G1.mult(1, {x: 1}, 0, {u: 1}), right)):
                for i2 in range(n1):
                    row = {i2 * n1 + z: exact(cz) for z, cz in prod.items()}
                    _axpy(row, 1, {j2 * n1 + x: c for j2, c in act.get(i2, ())})
                    if row:
                        equations.add(row)
    return kernel_vectors(equations.rows, n1 * n1)


def _extend_and_check(G1, G2, cand: TruncatedAlgebraMorphism, cutoff):
    """Extend a degree <= 1 map multiplicatively and verify. Returns True or
    a failure description."""
    for d in range(2, cutoff + 1):
        nd = G1.dim(d)
        if nd == 0:
            if G2.dim(d):
                return f"dimension mismatch in degree {d}"
            continue
        pairs = []
        for x in range(G1.dim(d - 1)):
            for y in range(G1.dim(1)):
                prod = G1.mult(d - 1, {x: 1}, 1, {y: 1})
                if not prod:
                    continue
                img = G2.mult(d - 1, cand.apply(d - 1, {x: 1}),
                              1, cand.apply(1, {y: 1}))
                pairs.append((prod, img))
        if not pairs:
            return f"degree {d} not generated by degree 1"
        P = Matrix(len(pairs), nd, [p[0] for p in pairs])
        if P.rank() < nd:
            return f"degree {d} not generated by degree 1"
        R = Matrix(len(pairs), G2.dim(d), [p[1] for p in pairs])
        X = P.solve_matrix(R)
        if X is None:
            return f"products inconsistent in degree {d}"
        Fd = X.transpose()
        if not Fd.is_invertible():
            return f"induced map in degree {d} not invertible"
        cand.mats[d] = Fd
    if not cand.check_multiplicative():
        return "full multiplicativity check failed"
    return True
