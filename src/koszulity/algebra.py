"""Finite-dimensional positively graded algebras by basis and structure constants.

A GradedAlgebra stores a basis in which every element has a source vertex, a
target vertex and a degree. Structure constants follow the path-composition
convention: x*y is nonzero only when target(x) == source(y), and then
source(x*y) == source(x), target(x*y) == target(y). The first
len(vertices) basis elements are the vertex idempotents.

Endomorphism-style algebras produced elsewhere in the package use the same
convention; there a basis element tagged (source s, target t) is a
homomorphism from the t-th summand to the s-th summand, so that the algebra
product is composition of maps.
"""

from __future__ import annotations

from .linalg import EchelonBasis, Matrix


class InputError(ValueError):
    """Invalid user-supplied data (CLI exit code 2)."""


class InternalCheckError(AssertionError):
    """A structural identity that must hold unconditionally failed (bug trap)."""


def parse_number(field: str, line: str, conv=int):
    """conv(field) for a field of an input file line, or an InputError
    naming the field and its line when the field is not a number."""
    try:
        return conv(field)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"not a number: {field!r} in line {line!r}") from None


class GradedAlgebra:
    def __init__(self, name: str, num_vertices: int, labels: list, source: list,
                 target: list, degree: list, table: dict,
                 generator_labels: list | None = None,
                 path_witness: dict | None = None, vertices: list | None = None):
        self.name = name
        self.num_vertices = num_vertices
        self.labels = labels
        self.source = source
        self.target = target
        self.degree = degree
        self.table = table  # (i, j) -> {k: coefficient}; absent key means zero product
        self.generator_labels = generator_labels
        self.path_witness = path_witness
        if vertices is None:
            vertices = list(range(1, num_vertices + 1))
        if len(vertices) != num_vertices:
            raise InputError("vertex list length mismatch")
        self.vertices = vertices
        # Derived data built on first use (radical, arrows, projectives,
        # injectives, socles); not part of the algebra's value.
        self.memo = {}
        self.index_of = {lab: i for i, lab in enumerate(labels)}
        if len(self.index_of) != len(labels):
            raise InputError("duplicate basis labels")
        self.vertex_pos = {v: i for i, v in enumerate(vertices)}

    def _value(self) -> tuple:
        return (self.name, self.num_vertices, self.labels, self.source,
                self.target, self.degree, self.table, self.generator_labels,
                self.path_witness, self.vertices)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._value() == other._value()

    __hash__ = None

    # -- basic access ----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.labels)

    def idempotent_index(self, v) -> int:
        return self.vertex_pos[v]

    def is_idempotent_element(self, i) -> bool:
        return i < self.num_vertices

    def highest_degree(self) -> int:
        return max(self.degree) if self.degree else 0

    def dims_by_degree(self) -> dict:
        out = {}
        for d in self.degree:
            out[d] = out.get(d, 0) + 1
        return out

    def mult_basis(self, i: int, j: int) -> dict:
        return self.table.get((i, j), {})

    def mult(self, a: dict, b: dict) -> dict:
        out = {}
        for i, ca in a.items():
            if not ca:
                continue
            for j, cb in b.items():
                if not cb:
                    continue
                prod = self.table.get((i, j))
                if prod:
                    c = ca * cb
                    for k, ck in prod.items():
                        s = out.get(k, 0) + c * ck
                        if s:
                            out[k] = s
                        else:
                            out.pop(k, None)
        return out

    # -- validation --------------------------------------------------------

    def validate(self):
        nv = self.num_vertices
        for i in range(nv):
            if self.degree[i] != 0 or self.source[i] != self.target[i]:
                raise InternalCheckError("idempotent convention violated")
            if self.source[i] != self.vertices[i]:
                raise InternalCheckError("idempotent order mismatch")
        for (i, j), prod in self.table.items():
            if self.target[i] != self.source[j]:
                raise InternalCheckError(
                    f"product {self.labels[i]}*{self.labels[j]} has "
                    "non-composable tags"
                )
            d = self.degree[i] + self.degree[j]
            for k, c in prod.items():
                if not c:
                    raise InternalCheckError("stored zero coefficient")
                if self.degree[k] != d:
                    raise InternalCheckError("degree additivity violated")
                if self.source[k] != self.source[i] or self.target[k] != self.target[j]:
                    raise InternalCheckError("source/target of product wrong")
        # idempotents act as units on the correct sides
        for x in range(self.dim):
            sv = self.vertex_pos[self.source[x]]
            tv = self.vertex_pos[self.target[x]]
            for v in range(nv):
                left = self.mult_basis(v, x)
                want = {x: 1} if v == sv else {}
                if left != want:
                    raise InternalCheckError("unit law fails on the left")
                right = self.mult_basis(x, v)
                want = {x: 1} if v == tv else {}
                if right != want:
                    raise InternalCheckError("unit law fails on the right")
        # associativity on all basis triples
        for i in range(self.dim):
            for j in range(self.dim):
                if self.target[i] != self.source[j]:
                    continue
                ij = self.mult_basis(i, j)
                for k in range(self.dim):
                    if self.target[j] != self.source[k]:
                        continue
                    left = self.mult(ij, {k: 1})
                    right = self.mult({i: 1}, self.mult_basis(j, k))
                    if left != right:
                        raise InternalCheckError(
                            f"associativity fails on "
                            f"({self.labels[i]},{self.labels[j]},{self.labels[k]})"
                        )
        return True

    # -- radical and generators ---------------------------------------------

    def degree_zero_indices(self):
        return [i for i, d in enumerate(self.degree) if d == 0]

    def radical_degree_zero(self):
        """Basis (coefficient dicts) of rad of the degree-0 subalgebra.

        Characteristic-zero method: the radical is the kernel of the trace
        form (x, y) -> tr(L_{xy}) on the degree-0 part.
        """
        hit = self.memo.get("radical_degree_zero")
        if hit is not None:
            return hit
        z = self.degree_zero_indices()
        n = len(z)
        # trace of left multiplication by basis product
        # tr(L_k) over the degree-0 part, for each k in a product
        gram = Matrix.from_entries(n, n, {
            (a_i, b_i): sum(c * self.mult_basis(k, m).get(m, 0)
                            for k, c in self.mult_basis(a, b).items() for m in z)
            for a_i, a in enumerate(z) for b_i, b in enumerate(z)})
        rad = [{z[i]: c for i, c in sorted(v.items())} for v in gram.kernel_basis()]
        self.memo["radical_degree_zero"] = rad
        return rad

    def radical_basis(self):
        """Spanning set of rad(Lambda): positive degrees plus rad of degree 0."""
        out = [{i: 1} for i, d in enumerate(self.degree) if d > 0]
        out.extend(self.radical_degree_zero())
        return out

    def assert_split_basic(self):
        """Degree-0 part modulo radical must be k^(num vertices)."""
        z = self.degree_zero_indices()
        if len(z) - len(self.radical_degree_zero()) != self.num_vertices:
            raise InputError(
                "degree-0 part is not split basic over the rationals; "
                "unsupported ground data"
            )

    def arrows(self):
        """Lifts of a basis of rad/rad^2, each a coefficient dict inside one
        (source, target, degree) block: plain basis elements first, then the
        block components of `radical_basis`.

        With the idempotents they generate the algebra, since rad is
        nilpotent; so M.rad = sum of M.a, soc M is the common kernel of the
        a, and a linear map is a module map iff it commutes with the
        idempotents and the a. That needs a split basic algebra.
        """
        hit = self.memo.get("arrows")
        if hit is not None:
            return hit
        self.assert_split_basic()
        rad = self.radical_basis()
        current = EchelonBasis(self.mult(r1, r2) for r1 in rad for r2 in rad)
        rad_span = EchelonBasis(rad)
        out = [{i: 1} for i in range(self.dim)
               if rad_span.contains({i: 1}) and current.add({i: 1})]
        for r in rad:
            blocks = {}
            for k, c in r.items():
                blocks.setdefault((self.source[k], self.target[k], self.degree[k]),
                                  {})[k] = c
            out.extend(comp for comp in blocks.values() if current.add(comp))
        if current.rank != rad_span.rank:
            raise InputError("could not lift a homogeneous arrow basis")
        self.memo["arrows"] = out
        return out

    # -- constructions -------------------------------------------------------

    def opposite(self) -> "GradedAlgebra":
        table = {}
        for (i, j), prod in self.table.items():
            table[(j, i)] = dict(prod)
        return GradedAlgebra(
            name=self.name + "^op",
            num_vertices=self.num_vertices,
            labels=list(self.labels),
            source=list(self.target),
            target=list(self.source),
            degree=list(self.degree),
            table=table,
            vertices=list(self.vertices),
        )

    def regrade(self, n: int) -> "GradedAlgebra":
        """Multiply all degrees by n (n >= 1)."""
        if n < 1:
            raise InputError("regrade factor must be >= 1")
        return GradedAlgebra(
            name=f"{self.name}^(x{n})",
            num_vertices=self.num_vertices,
            labels=list(self.labels),
            source=list(self.source),
            target=list(self.target),
            degree=[n * d for d in self.degree],
            table={k: dict(v) for k, v in self.table.items()},
            generator_labels=self.generator_labels,
            path_witness=self.path_witness,
            vertices=list(self.vertices),
        )

    def forget_grading(self) -> "GradedAlgebra":
        """Same algebra concentrated in degree 0 (grading forgotten)."""
        return GradedAlgebra(
            name=f"{self.name}_ungraded",
            num_vertices=self.num_vertices,
            labels=list(self.labels),
            source=list(self.source),
            target=list(self.target),
            degree=[0] * self.dim,
            table={k: dict(v) for k, v in self.table.items()},
            generator_labels=self.generator_labels,
            path_witness=self.path_witness,
            vertices=list(self.vertices),
        )

    def is_concentrated_degree_zero(self) -> bool:
        return all(d == 0 for d in self.degree)


def trivial_extension(a0: GradedAlgebra) -> GradedAlgebra:
    """A + DA with multiplication (a,f)(b,g) = (ab, ag + fb), DA in degree 1.

    Basis labels of A are preserved; the dual of basis element x is labeled
    'x^*'. The dual of x in e_s A e_t sits in e_t (Delta A) e_s.
    """
    if not a0.is_concentrated_degree_zero():
        raise InputError("trivial extension input must be concentrated in degree 0")
    n = a0.dim
    labels = list(a0.labels) + [lab + "^*" for lab in a0.labels]
    source = list(a0.source) + list(a0.target)
    target = list(a0.target) + list(a0.source)
    degree = [0] * n + [1] * n
    table = {}
    for (i, j), prod in a0.table.items():
        table[(i, j)] = dict(prod)
    # a * b^* : (a b^*)(c) = b^*(c a), so a*b^* = sum_c coeff_b(c*a) c^*
    # b^* * a : (b^* a)(c) = b^*(a c), so b^**a = sum_c coeff_b(a*c) c^*
    for a in range(n):
        for b in range(n):
            left = {}
            right = {}
            for c in range(n):
                ca = a0.mult_basis(c, a)
                coeff = ca.get(b)
                if coeff:
                    left[n + c] = coeff
                ac = a0.mult_basis(a, c)
                coeff = ac.get(b)
                if coeff:
                    right[n + c] = coeff
            if left:
                table[(a, n + b)] = left
            if right:
                table[(n + b, a)] = right
    delta = GradedAlgebra(
        name=f"Delta({a0.name})",
        num_vertices=a0.num_vertices,
        labels=labels,
        source=source,
        target=target,
        degree=degree,
        table=table,
        vertices=list(a0.vertices),
    )
    delta.validate()
    if delta.highest_degree() != 1 or delta.dim != 2 * n:
        raise InternalCheckError("trivial extension shape wrong")
    return delta


def degree_zero_part(alg: GradedAlgebra) -> GradedAlgebra:
    """The degree-0 subalgebra, on the same vertices."""
    idx = alg.degree_zero_indices()
    pos = {b: i for i, b in enumerate(idx)}
    table = {}
    for (i, j), prod in alg.table.items():
        if i in pos and j in pos:
            entry = {pos[k]: c for k, c in prod.items()}
            if entry:
                table[(pos[i], pos[j])] = entry
    a0 = GradedAlgebra(
        name=f"{alg.name}_0",
        num_vertices=alg.num_vertices,
        labels=[alg.labels[i] for i in idx],
        source=[alg.source[i] for i in idx],
        target=[alg.target[i] for i in idx],
        degree=[0] * len(idx),
        table=table,
        vertices=list(alg.vertices),
    )
    return a0
