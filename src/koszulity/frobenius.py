"""Graded Frobenius structure: forms, Nakayama automorphisms, symmetry.

A finite-dimensional positively graded algebra of highest degree a is
graded Frobenius when the regular module is isomorphic to its shifted
graded dual. The search works with the Frobenius functional f supported on
the top degree: the pairing <x, y> = f(x y) must be nondegenerate. The
Nakayama automorphism solves <x, y> = <y, mu(x)> and symmetry means the
identity works as mu for some admissible f.
"""

from __future__ import annotations

from .linalg import Matrix, candidate_combinations
from .algebra import GradedAlgebra, InputError, InternalCheckError


class GradedAlgebraMorphism:
    """Algebra morphism given by images of basis elements."""

    def __init__(self, domain: GradedAlgebra, codomain: GradedAlgebra, images: dict):
        self.domain = domain
        self.codomain = codomain
        self.images = {i: {k: c for k, c in img.items() if c}
                       for i, img in images.items()}

    def apply_basis(self, i: int) -> dict:
        return self.images.get(i, {})

    def apply(self, vec: dict) -> dict:
        out = {}
        for i, c in vec.items():
            for k, ck in self.apply_basis(i).items():
                s = out.get(k, 0) + c * ck
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return out

    def matrix(self) -> Matrix:
        return Matrix.from_entries(self.codomain.dim, self.domain.dim, {
            (k, j): c for j in range(self.domain.dim)
            for k, c in self.apply_basis(j).items()})

    def is_identity(self) -> bool:
        if self.domain is not self.codomain and self.domain.labels != self.codomain.labels:
            return False
        for i in range(self.domain.dim):
            if self.apply_basis(i) != {i: 1}:
                return False
        return True

    def validate(self, check_vertices: bool = False):
        dom, cod = self.domain, self.codomain
        for i in range(dom.dim):
            img = self.apply_basis(i)
            d = dom.degree[i]
            for k in img:
                if cod.degree[k] != d:
                    raise InternalCheckError("morphism does not preserve degree")
        unit_img = {}
        for v in range(dom.num_vertices):
            for k, c in self.apply_basis(v).items():
                unit_img[k] = unit_img.get(k, 0) + c
        want = {v: 1 for v in range(cod.num_vertices)}
        if {k: c for k, c in unit_img.items() if c} != want:
            raise InternalCheckError("morphism does not preserve the unit")
        for i in range(dom.dim):
            for j in range(dom.dim):
                lhs = self.apply(dom.mult_basis(i, j))
                rhs = cod.mult(self.apply_basis(i), self.apply_basis(j))
                if lhs != rhs:
                    raise InternalCheckError(
                        f"morphism not multiplicative on "
                        f"({dom.labels[i]},{dom.labels[j]})"
                    )
        if check_vertices:
            self.vertex_permutation()
        return True

    def vertex_permutation(self) -> dict:
        """Vertex map when each e_v is sent to a vertex idempotent exactly."""
        dom, cod = self.domain, self.codomain
        perm = {}
        for v_i in range(dom.num_vertices):
            img = self.apply_basis(v_i)
            if len(img) != 1:
                raise InputError("morphism does not permute vertex idempotents")
            (k, c), = img.items()
            if c != 1 or k >= cod.num_vertices:
                raise InputError("morphism does not permute vertex idempotents")
            perm[dom.vertices[v_i]] = cod.vertices[k]
        if len(set(perm.values())) != len(perm):
            raise InputError("vertex map is not a permutation")
        return perm

    def permutes_vertices(self) -> bool:
        try:
            self.vertex_permutation()
            return True
        except InputError:
            return False

    def inverse(self) -> "GradedAlgebraMorphism":
        inv = self.matrix().inverse()
        if inv is None:
            raise InputError("morphism is not invertible")
        cols = inv.transpose().srows
        images = {j: dict(sorted(cols.get(j, {}).items()))
                  for j in range(self.codomain.dim)}
        return GradedAlgebraMorphism(self.codomain, self.domain, images)


def identity_morphism(alg: GradedAlgebra) -> GradedAlgebraMorphism:
    return GradedAlgebraMorphism(
        alg, alg, {i: {i: 1} for i in range(alg.dim)}
    )


class FrobeniusReport:
    def __init__(self, is_frobenius: bool, a: int | None = None,
                 symmetric: bool = False, mu: GradedAlgebraMorphism | None = None,
                 mu_vertex_permutation: dict | None = None,
                 functional: dict | None = None, probabilistic: bool = False,
                 reason: str = ""):
        self.is_frobenius = is_frobenius
        self.a = a
        self.symmetric = symmetric
        self.mu = mu
        self.mu_vertex_permutation = mu_vertex_permutation
        self.functional = functional
        self.probabilistic = probabilistic
        self.reason = reason


def _pairing_block_dims_match(alg: GradedAlgebra, a: int) -> bool:
    # block of the candidate iso at (v, d): Lambda_d e_v -> D(e_v Lambda_{a-d})
    for v in alg.vertices:
        for d in set(alg.degree):
            left = sum(1 for i in range(alg.dim)
                       if alg.target[i] == v and alg.degree[i] == d)
            right = sum(1 for i in range(alg.dim)
                        if alg.source[i] == v and alg.degree[i] == a - d)
            if left != right:
                return False
    return True


def _gram(alg: GradedAlgebra, f: dict) -> Matrix:
    n = alg.dim
    return Matrix.from_entries(n, n, {
        (i, j): sum(c * f.get(k, 0) for k, c in alg.mult_basis(i, j).items())
        for i in range(n) for j in range(n)})


def _nakayama_from_gram(alg: GradedAlgebra, g: Matrix) -> GradedAlgebraMorphism:
    ginv = g.inverse()
    if ginv is None:
        raise InternalCheckError("gram matrix not invertible")
    # u solves sum_z u_z f(y z) = f(x y) for all y: u = g^{-1} (row x of g),
    # so the images are the rows of g g^{-T}
    rows = (g * ginv.transpose()).srows
    images = {x: dict(sorted(rows.get(x, {}).items())) for x in range(alg.dim)}
    return GradedAlgebraMorphism(alg, alg, images)


# Random combinations frobenius_analysis tries after a basis and its sum.
FORM_SAMPLES = 64


def frobenius_analysis(alg: GradedAlgebra, rng=None):
    """Graded Frobenius test with Nakayama automorphism and symmetry flag."""
    a = alg.highest_degree()
    if not _pairing_block_dims_match(alg, a):
        return FrobeniusReport(False, reason="graded block dimensions obstruct DL = L<-a>")
    top = [i for i in range(alg.dim) if alg.degree[i] == a]
    # only functionals supported in the top degree give degree-0 module maps
    # symmetric subspace: f(xy) = f(yx) for all basis pairs
    rows = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            pij = alg.mult_basis(i, j)
            pji = alg.mult_basis(j, i)
            row = {t_i: pij.get(t, 0) - pji.get(t, 0) for t_i, t in enumerate(top)}
            if any(row.values()):
                rows.append(row)
    sym_space = Matrix(len(rows), len(top), rows).kernel_basis()

    def invertible_forms(space):
        """(f, Gram matrix of f) for each nondegenerate f the stream gives."""
        for vec in candidate_combinations(space, rng, FORM_SAMPLES):
            f = {top[i]: c for i, c in vec.items()}
            if f:
                g = _gram(alg, f)
                if g.is_invertible():
                    yield f, g

    sym_hit = next(invertible_forms(sym_space), None)
    if sym_hit is not None:
        f, g = sym_hit
        mu = identity_morphism(alg)
        mu_check = _nakayama_from_gram(alg, g)
        if not mu_check.is_identity():
            raise InternalCheckError("symmetric form gave nontrivial nakayama")
        return FrobeniusReport(
            True, a=a, symmetric=True, mu=mu,
            mu_vertex_permutation={v: v for v in alg.vertices},
            functional=f,
        )

    full_space = [{i: 1} for i in range(len(top))]
    hit = next(invertible_forms(full_space), None)
    if hit is None:
        if top:
            return FrobeniusReport(
                False, probabilistic=True,
                reason=f"no invertible combination found in {FORM_SAMPLES} samples "
                       "(probabilistic)",
            )
        return FrobeniusReport(False, reason="no top-degree functionals")
    f, g = hit
    mu = _nakayama_from_gram(alg, g)
    mu.validate()
    perm = None
    if mu.permutes_vertices():
        perm = mu.vertex_permutation()
    else:
        # retry a few candidates hoping for a vertex-permuting representative
        for f2, g2 in invertible_forms(full_space):
            mu2 = _nakayama_from_gram(alg, g2)
            if mu2.permutes_vertices():
                f, g, mu = f2, g2, mu2
                mu.validate()
                perm = mu.vertex_permutation()
                break
    return FrobeniusReport(
        True, a=a, symmetric=False, mu=mu, mu_vertex_permutation=perm,
        functional=f,
    )


def verify_form_identity(alg: GradedAlgebra, f: dict, mu: GradedAlgebraMorphism):
    """Check <x, y> = <y, mu(x)> on all basis pairs: g = M^T g^T for the
    Gram matrix g and M = mu.matrix()."""
    g = _gram(alg, f)
    return g == mu.matrix().transpose() * g.transpose()


def socle_degrees(alg: GradedAlgebra):
    """Degrees of a basis of the right socle (elements killed by the arrows)."""
    arrows = alg.arrows()
    n = alg.dim
    if not arrows:
        return sorted(alg.degree)
    # socle = kernel of x -> (x a)_a : stack right-multiplication matrices
    cells = {}
    for r, a in enumerate(arrows):
        for i in range(n):
            for j, c in a.items():
                for k, ck in alg.mult_basis(i, j).items():
                    cells[r * n + k, i] = cells.get((r * n + k, i), 0) + c * ck
    out = []
    for vec in Matrix.from_entries(n * len(arrows), n, cells).kernel_basis():
        out.extend(sorted({alg.degree[i] for i in vec}))
    return out
