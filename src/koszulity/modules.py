"""Finitely generated graded right modules over a GradedAlgebra.

A module stores a dimension for each (vertex, degree) block and, for each
non-idempotent algebra basis element x, matrices mapping the
(source(x), d) block into the (target(x), d + deg x) block; the right
action of x*y is rho(y) o rho(x).

An element of a module is a dict {(v, d): {index: entry}}: for each block
it touches, the sparse vector of its nonzero coordinates there, each
normalised by `exact`, and no empty block. Maps, covers, envelopes and the
chain lifts of resolutions all take and give elements in this one form,
and a matrix acts on a block's vector through `Matrix.apply`.
"""

from __future__ import annotations

from bisect import bisect_right
from types import MappingProxyType

from .linalg import (EchelonBasis, Matrix, _axpy, _inexact, assemble,
                     candidate_combinations, complement_basis, exact,
                     kernel_vectors, solve_columns)
from .algebra import GradedAlgebra, InputError, InternalCheckError, parse_number


class GradedModule:
    def __init__(self, algebra: GradedAlgebra, dims: dict, action: dict, name="",
                 basis_index=None):
        """dims: {(vertex, degree): dim > 0}; action: {basis index: {degree: Matrix}},
        None for a subclass that builds its action on demand.

        basis_index, on projectives and injectives built from the algebra's
        basis: {(vertex, degree): algebra basis indices spanning that block}.
        """
        self.algebra = algebra
        self.dims = {k: v for k, v in dims.items() if v}
        if action is not None:
            self.action = action
        self.name = name
        self.basis_index = basis_index
        self.memo = {}  # Hom bases and generators, built on first use

    # -- block bookkeeping -------------------------------------------------

    def blocks(self):
        alg = self.algebra
        return sorted(self.dims.keys(), key=lambda vd: (vd[1], alg.vertex_pos[vd[0]]))

    def block_dim(self, v, d) -> int:
        return self.dims.get((v, d), 0)

    @property
    def dim(self) -> int:
        return sum(self.dims.values())

    def dims_by_degree(self) -> dict:
        out = {}
        for (v, d), m in self.dims.items():
            out[d] = out.get(d, 0) + m
        return out

    def degrees(self):
        return sorted({d for (_v, d) in self.dims})

    def highest_degree(self):
        ds = self.degrees()
        return ds[-1] if ds else None

    def lowest_degree(self):
        ds = self.degrees()
        return ds[0] if ds else None

    def is_zero(self) -> bool:
        return not self.dims

    def concentrated_degree(self):
        """The unique support degree, or None if not concentrated."""
        ds = self.degrees()
        return ds[0] if len(ds) == 1 else None

    def act(self, x: int, d: int) -> Matrix:
        """Action matrix of basis element x on the degree-d source block."""
        alg = self.algebra
        if x < alg.num_vertices:
            # one shared identity per block: callers only read what act returns
            key = ("identity", alg.source[x], d)
            if key not in self.memo:
                self.memo[key] = Matrix.identity(self.block_dim(alg.source[x], d))
            return self.memo[key]
        sv, tv, dx = alg.source[x], alg.target[x], alg.degree[x]
        src_dim = self.block_dim(sv, d)
        tgt_dim = self.block_dim(tv, d + dx)
        m = self.action.get(x, {}).get(d)
        if m is None:
            return Matrix.zero(tgt_dim, src_dim)
        if m.rows != tgt_dim or m.cols != src_dim:
            raise InternalCheckError("action matrix shape mismatch")
        return m

    def act_element(self, elem: dict, d: int) -> Matrix:
        """Action matrix of sum c*act(y, d) over elem = {y: c}, whose basis
        elements y share one (source, target, degree) block."""
        terms = [self.act(y, d).scale(c) for y, c in elem.items()]
        return sum(terms[1:], terms[0])

    def apply_element(self, elem: dict, coeffs: dict) -> dict:
        """Right action of the algebra element given by coefficient dict.

        A float in elem or coeffs raises, as in `Matrix.apply`.
        """
        alg = self.algebra
        out = {}
        for x, c in coeffs.items():
            if not c:
                continue
            if type(c) is not int:
                c = exact(c)
            sv, tv, dx = alg.source[x], alg.target[x], alg.degree[x]
            for (v, d), vec in elem.items():
                if v != sv:
                    continue
                if x < alg.num_vertices:
                    # an idempotent acts as the identity on its own blocks
                    if float in map(type, vec.values()):
                        raise _inexact(vec)
                    img = vec
                else:
                    img = self.act(x, d).apply(vec)
                if img:
                    _axpy(out.setdefault((tv, d + dx), {}), -c, img)
        return {k: v for k, v in out.items() if v}

    def basis_elements(self):
        """All (block, index) pairs in deterministic order."""
        out = []
        for (v, d) in self.blocks():
            for i in range(self.dims[(v, d)]):
                out.append(((v, d), i))
        return out

    def unit_vector(self, block, i) -> dict:
        return {block: {i: 1}}

    # -- validation ----------------------------------------------------------

    def validate(self):
        alg = self.algebra
        for (v, d), m in self.dims.items():
            if v not in alg.vertex_pos:
                raise InputError(f"unknown vertex {v!r} in module")
            if m <= 0:
                raise InputError("non-positive block dimension")
        for x, per_deg in self.action.items():
            if x < alg.num_vertices:
                raise InputError("explicit action for an idempotent")
            for d, mat in per_deg.items():
                sdim = self.block_dim(alg.source[x], d)
                tdim = self.block_dim(alg.target[x], d + alg.degree[x])
                if mat.rows != tdim or mat.cols != sdim:
                    raise InputError(
                        f"action of {alg.labels[x]} at degree {d} has wrong shape"
                    )
        # right-module axioms on all composable basis pairs
        for x in range(alg.dim):
            for y in range(alg.dim):
                if alg.target[x] != alg.source[y]:
                    continue
                prod = alg.mult_basis(x, y)
                for (v, d) in self.dims:
                    if v != alg.source[x]:
                        continue
                    lhs = self.act(y, d + alg.degree[x]) * self.act(x, d)
                    tdim = self.block_dim(alg.target[y], d + alg.degree[x] + alg.degree[y])
                    rhs = Matrix.zero(tdim, self.dims[(v, d)])
                    for z, c in prod.items():
                        rhs = rhs + self.act(z, d).scale(c)
                    if lhs != rhs:
                        raise InputError(
                            f"right-module axiom fails on "
                            f"{alg.labels[x]}*{alg.labels[y]} at degree {d}"
                        )
        return True


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def zero_module(alg: GradedAlgebra) -> GradedModule:
    return GradedModule(alg, {}, {}, name="0")


def simple_module(alg: GradedAlgebra, v, degree: int = 0) -> GradedModule:
    """The simple S_v placed in the given degree: the top P/rad P of
    P = e_v Lambda<degree>. A degree-0 basis element outside the radical
    acts on it by a scalar."""
    p = projective_module(alg, v, degree)
    return quotient_module(p, radical_span(p), name=f"S{v}<{degree}>")[0]


def projective_module(alg: GradedAlgebra, v, shift: int = 0) -> GradedModule:
    """e_v * Lambda with its generator placed in degree `shift`."""
    memo_key = ("projective_module", v, shift)
    hit = alg.memo.get(memo_key)
    if hit is not None:
        return hit
    idx_by_block = {}
    for i in range(alg.dim):
        if alg.source[i] != v:
            continue
        key = (alg.target[i], alg.degree[i] + shift)
        idx_by_block.setdefault(key, []).append(i)
    dims = {k: len(ix) for k, ix in idx_by_block.items()}
    action = {}
    for x in range(alg.num_vertices, alg.dim):
        sv, tv, dx = alg.source[x], alg.target[x], alg.degree[x]
        per_deg = {}
        for (w, d), ix in idx_by_block.items():
            if w != sv:
                continue
            tgt_ix = idx_by_block.get((tv, d + dx), [])
            if not tgt_ix:
                continue
            pos = {b: r for r, b in enumerate(tgt_ix)}
            mat = Matrix.from_entries(len(tgt_ix), len(ix), {
                (pos[z], c_i): cz for c_i, b in enumerate(ix)
                for z, cz in alg.mult_basis(b, x).items()})
            if not mat.is_zero():
                per_deg[d] = mat
        if per_deg:
            action[x] = per_deg
    mod = GradedModule(alg, dims, action, name=f"P({v})<{shift}>",
                       basis_index=idx_by_block)
    alg.memo[memo_key] = mod
    return mod


def regular_module(alg: GradedAlgebra) -> DirectSum:
    """Lambda as a right module over itself, the sum of its e_v Lambda."""
    return DirectSum(alg, [projective_module(alg, v) for v in alg.vertices])


def dual_of_left_projective(alg: GradedAlgebra, v, shift: int = 0) -> GradedModule:
    """D(Lambda e_v) shifted: the graded-injective with socle at vertex v.

    Component at (w, -deg b + shift) is spanned by duals of basis elements
    b in e_w Lambda e_v; right action (psi . x)(y) = psi(x y).
    """
    memo_key = ("dual_of_left_projective", v, shift)
    hit = alg.memo.get(memo_key)
    if hit is not None:
        return hit
    idx_by_block = {}
    for i in range(alg.dim):
        if alg.target[i] != v:
            continue
        key = (alg.source[i], -alg.degree[i] + shift)
        idx_by_block.setdefault(key, []).append(i)
    dims = {k: len(ix) for k, ix in idx_by_block.items()}
    action = {}
    for x in range(alg.num_vertices, alg.dim):
        sv, tv, dx = alg.source[x], alg.target[x], alg.degree[x]
        per_deg = {}
        for (w, d), ix in idx_by_block.items():
            if w != sv:
                continue
            tgt_ix = idx_by_block.get((tv, d + dx), [])
            if not tgt_ix:
                continue
            # (psi_b . x) = sum_y coeff_b(x*y) psi_y over y in e_tv L e_v
            mat = Matrix.from_entries(len(tgt_ix), len(ix), {
                (r_i, c_i): alg.mult_basis(x, y).get(b)
                for c_i, b in enumerate(ix) for r_i, y in enumerate(tgt_ix)})
            if not mat.is_zero():
                per_deg[d] = mat
        if per_deg:
            action[x] = per_deg
    mod = GradedModule(alg, dims, action, name=f"D(P^op({v}))<{shift}>",
                       basis_index=idx_by_block)
    alg.memo[memo_key] = mod
    return mod


def graded_dual_module(alg: GradedAlgebra) -> GradedModule:
    """D(Lambda) as a graded right module, (D Lambda)_i = D(Lambda_{-i})."""
    return DirectSum(alg, [dual_of_left_projective(alg, v) for v in alg.vertices])


def inflate_module(m0: GradedModule, big: GradedAlgebra) -> GradedModule:
    """View a module over a degree-0 subalgebra as a module over `big`.

    Basis labels of m0.algebra must appear in big with the same structure
    constants (as for a trivial extension); all other basis elements of big
    act by zero. Sound whenever the extra elements multiply into the span of
    themselves (e.g. the dual part of a trivial extension on a module
    concentrated in degree 0).
    """
    small = m0.algebra
    action = {}
    for x_small, per_deg in m0.action.items():
        lab = small.labels[x_small]
        if lab not in big.index_of:
            raise InputError(f"label {lab!r} missing in target algebra")
        action[big.index_of[lab]] = {d: mat for d, mat in per_deg.items()}
    out = GradedModule(big, dict(m0.dims), action, name=m0.name)
    return out


class DirectSum(GradedModule):
    """The direct sum of parts, kept as the row offset of each part in each
    block: part k's block at key fills the rows from offsets[k][key] on.

    Maps into, out of and between sums are written at these offsets by
    `place`, and `locate` finds the part a row lies in; the empty sum is
    the zero module.
    The action is the parts' actions placed block-diagonally. It is built
    on each read and never held, so a sum holds no more than its parts.
    """

    def __init__(self, alg: GradedAlgebra, parts):
        self.parts = list(parts)
        self.offsets = []
        dims = {}
        for p in self.parts:
            off = {}
            for key, m in p.dims.items():
                off[key] = dims.get(key, 0)
                dims[key] = off[key] + m
            self.offsets.append(off)
        super().__init__(alg, dims, None,
                         name="(+)".join(p.name for p in self.parts) or "0")

    @property
    def action(self) -> dict:
        """{x: {d: Matrix}} of the nonzero actions, built on this read."""
        alg = self.algebra
        out = {}
        for x in range(alg.num_vertices, alg.dim):
            degs = {d for p in self.parts for d in p.action.get(x, ())}
            per = {d: self.act(x, d) for d in sorted(degs)}
            per = {d: mat for d, mat in per.items() if not mat.is_zero()}
            if per:
                out[x] = per
        return out

    def act(self, x: int, d: int) -> Matrix:
        alg = self.algebra
        if x < alg.num_vertices:
            return super().act(x, d)
        src, tgt = (alg.source[x], d), (alg.target[x], d + alg.degree[x])
        return assemble(self.block_dim(*tgt), self.block_dim(*src), [
            (p.act(x, d), off[tgt], off[src])
            for p, off in zip(self.parts, self.offsets) if src in off and tgt in off])

    def locate(self, key, i):
        """(k, r): row i of the sum's block key is row r of part k's."""
        found = self.memo.get(("locate", key))
        if found is None:
            ks = [k for k, off in enumerate(self.offsets) if key in off]
            found = self.memo[("locate", key)] = (
                ks, [self.offsets[k][key] for k in ks])
        ks, starts = found
        pos = bisect_right(starts, i) - 1
        return ks[pos], i - starts[pos]

    def embed(self, k: int, elem: dict) -> dict:
        """The element elem of part k as an element of the sum."""
        off = self.offsets[k]
        return {key: {off[key] + i: x for i, x in vec.items()}
                for key, vec in elem.items()}

    def component(self, k: int, elem: dict) -> dict:
        """Part k's coordinates of an element of the sum."""
        part, off = self.parts[k], self.offsets[k]
        out = {}
        for key, vec in elem.items():
            if key in off:
                lo, hi = off[key], off[key] + part.dims[key]
                sub = {i - lo: x for i, x in vec.items() if lo <= i < hi}
                if sub:
                    out[key] = sub
        return out


def shift_module(m: GradedModule, j: int) -> GradedModule:
    """M<j> with M<j>_i = M_{i-j}: an element of degree d moves to degree d+j."""
    if j == 0:
        return m
    dims = {(v, d + j): n for (v, d), n in m.dims.items()}
    action = {
        x: {d + j: mat for d, mat in per.items()} for x, per in m.action.items()
    }
    return GradedModule(m.algebra, dims, action, name=f"{m.name}<{j}>")


def twist_module(m: GradedModule, phi) -> GradedModule:
    """M_phi with action m . x = m phi(x); phi must permute vertex idempotents.

    Block (v, d) of M_phi equals block (vperm[v], d) of M.
    """
    alg = m.algebra
    vperm = phi.vertex_permutation()
    inv = {w: v for v, w in vperm.items()}
    dims = {}
    for (w, d), n in m.dims.items():
        dims[(inv[w], d)] = n
    action = {}
    for x in range(alg.num_vertices, alg.dim):
        img = phi.apply_basis(x)
        if not img:
            continue
        sv, tv, dx = alg.source[x], alg.target[x], alg.degree[x]
        per_deg = {}
        degs = {d for (v, d) in dims if v == sv}
        for d in degs:
            sdim = dims.get((sv, d), 0)
            tdim = dims.get((tv, d + dx), 0)
            if not sdim or not tdim:
                continue
            mat = m.act_element(img, d)
            if not mat.is_zero():
                per_deg[d] = mat
        if per_deg:
            action[x] = per_deg
    return GradedModule(alg, dims, action, name=f"{m.name}_tw")


def truncation_above(m: GradedModule, i: int) -> GradedModule:
    """Submodule M_{>=i}."""
    dims = {(v, d): n for (v, d), n in m.dims.items() if d >= i}
    action = {}
    for x, per in m.action.items():
        keep = {d: mat for d, mat in per.items() if d >= i}
        if keep:
            action[x] = keep
    return GradedModule(m.algebra, dims, action, name=f"{m.name}_(>={i})")


def truncation_below(m: GradedModule, i: int) -> GradedModule:
    """Quotient M_{<=i} = M / M_{>=i+1}."""
    dims = {(v, d): n for (v, d), n in m.dims.items() if d <= i}
    action = {}
    for x, per in m.action.items():
        dx = m.algebra.degree[x]
        keep = {d: mat for d, mat in per.items() if d + dx <= i and d <= i}
        if keep:
            action[x] = keep
    return GradedModule(m.algebra, dims, action, name=f"{m.name}_(<={i})")


def degree_component(m: GradedModule, i: int) -> GradedModule:
    """M_i as a module (positive-degree part of the algebra acts by zero)."""
    dims = {(v, d): n for (v, d), n in m.dims.items() if d == i}
    action = {}
    for x, per in m.action.items():
        if m.algebra.degree[x] != 0:
            continue
        keep = {d: mat for d, mat in per.items() if d == i}
        if keep:
            action[x] = keep
    return GradedModule(m.algebra, dims, action, name=f"{m.name}_{i}")


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

class GradedModuleHom:
    def __init__(self, domain: GradedModule, codomain: GradedModule, blocks: dict):
        self.domain = domain
        self.codomain = codomain
        self.blocks = {}
        for key, mat in blocks.items():
            td = codomain.block_dim(*key)
            sd = domain.block_dim(*key)
            if mat.rows != td or mat.cols != sd:
                raise InternalCheckError("hom block shape mismatch")
            if not mat.is_zero():
                self.blocks[key] = mat

    def block(self, v, d) -> Matrix:
        key = (v, d)
        if key in self.blocks:
            return self.blocks[key]
        return Matrix.zero(self.codomain.block_dim(v, d), self.domain.block_dim(v, d))

    def apply(self, elem: dict) -> dict:
        out = {}
        for key, vec in elem.items():
            img = self.block(*key).apply(vec)
            if img:
                out[key] = img
        return out

    def compose(self, other: "GradedModuleHom") -> "GradedModuleHom":
        """self o other (other applied first)."""
        if other.codomain is not self.domain and other.codomain.dims != self.domain.dims:
            raise InternalCheckError("composition domain mismatch")
        keys = set(self.blocks) | set(other.blocks)
        blocks = {}
        for key in keys:
            m = self.block(*key) * other.block(*key)
            if not m.is_zero():
                blocks[key] = m
        return GradedModuleHom(other.domain, self.codomain, blocks)

    def add(self, other: "GradedModuleHom") -> "GradedModuleHom":
        keys = set(self.blocks) | set(other.blocks)
        blocks = {k: self.block(*k) + other.block(*k) for k in keys}
        return GradedModuleHom(self.domain, self.codomain, blocks)

    def scale(self, c) -> "GradedModuleHom":
        return GradedModuleHom(
            self.domain, self.codomain,
            {k: m.scale(c) for k, m in self.blocks.items()},
        )

    def is_zero(self) -> bool:
        return not self.blocks

    def is_injective(self) -> bool:
        for key, n in self.domain.dims.items():
            mat = self.block(*key)
            if mat.rank() < n:
                return False
        return True

    def is_surjective(self) -> bool:
        for key, n in self.codomain.dims.items():
            mat = self.block(*key)
            if mat.rank() < n:
                return False
        return True

    def is_isomorphism(self) -> bool:
        for key in set(self.domain.dims) | set(self.codomain.dims):
            if self.domain.block_dim(*key) != self.codomain.block_dim(*key):
                return False
            if not self.block(*key).is_invertible():
                return False
        return True

    def inverse(self) -> "GradedModuleHom":
        blocks = {}
        for key in self.domain.dims:
            inv = self.block(*key).inverse()
            if inv is None:
                raise InternalCheckError("inverting a non-isomorphism")
            blocks[key] = inv
        return GradedModuleHom(self.codomain, self.domain, blocks)

    def check_commutes(self) -> bool:
        alg = self.domain.algebra
        for x in [*range(alg.num_vertices, alg.dim)]:
            sv, tv, dx = alg.source[x], alg.target[x], alg.degree[x]
            degs = {d for (v, d) in self.domain.dims if v == sv}
            degs |= {d for (v, d) in self.codomain.dims if v == sv}
            for d in degs:
                lhs = self.block(tv, d + dx) * self.domain.act(x, d)
                rhs = self.codomain.act(x, d) * self.block(sv, d)
                if lhs != rhs:
                    return False
        return True


def identity_hom(m: GradedModule) -> GradedModuleHom:
    return GradedModuleHom(
        m, m, {key: Matrix.identity(n) for key, n in m.dims.items()}
    )


def hom_frame(domain: GradedModule, codomain: GradedModule):
    """Deterministic coordinate frame for degree-0 homs domain -> codomain."""
    keys = []
    for key in domain.blocks():
        if codomain.block_dim(*key):
            keys.append(key)
    layout = []
    offset = 0
    for key in keys:
        size = domain.dims[key] * codomain.dims[key]
        layout.append((key, offset, size))
        offset += size
    return layout, offset


def hom_flatten(h: GradedModuleHom, layout) -> dict:
    """{offset: entry} of the nonzero entries of h, in the hom_frame layout."""
    vec = {}
    for key, off, _size in layout:
        mat = h.blocks.get(key)
        if mat is None:
            continue
        for i, row in mat.srows.items():
            for j, x in row.items():
                vec[off + i * mat.cols + j] = x
    return vec


def hom_unflatten(domain, codomain, layout, vec: dict) -> GradedModuleHom:
    """The hom whose entries hom_flatten gives as vec."""
    starts = [off for _key, off, _size in layout]
    blocks = {}
    for c, x in vec.items():
        key, off, _size = layout[bisect_right(starts, c) - 1]
        mat = blocks.get(key)
        if mat is None:
            mat = blocks[key] = Matrix.zero(codomain.dims[key], domain.dims[key])
        i, j = divmod(c - off, mat.cols)
        mat.srows.setdefault(i, {})[j] = x
    return GradedModuleHom(domain, codomain, blocks)


def hom_space(m: GradedModule, n: GradedModule):
    """Basis of degree-0 module homomorphisms m -> n.

    Results are cached per module pair; modules are immutable after
    construction so the cache stays valid.
    """
    layout, kernel = _hom_kernel(m, n)
    return [hom_unflatten(m, n, layout, v) for v in kernel]


def _hom_kernel(m: GradedModule, n: GradedModule):
    """(layout, vectors): `hom_space` as sparse vectors in the hom_frame
    layout. A vector has no zero entry, so hom_flatten of its hom is itself.
    """
    if m.algebra is not n.algebra and m.algebra.labels != n.algebra.labels:
        raise InputError("hom_space requires the same base algebra")
    # Keyed by id(n) and keeping n alive beside the result, so no id is reused.
    # The memo holds the sparse kernel, not the homs: a hom refers back to m,
    # so a memo of homs would keep a short-lived m in a reference cycle.
    memo_key = ("hom_space", id(n))
    hit = m.memo.get(memo_key)
    if hit is not None and hit[0] is n:
        return hit[1], hit[2]
    alg = m.algebra
    layout, total = hom_frame(m, n)
    if total == 0:
        return layout, []
    pos = {key: (off, m.dims[key], n.dims[key]) for key, off, _ in layout}
    equations = EchelonBasis()
    # a linear map is a module map iff it commutes with the arrows
    for a in alg.arrows():
        x = next(iter(a))
        sv, tv, dx = alg.source[x], alg.target[x], alg.degree[x]
        degs = sorted({d for (v, d) in m.dims if v == sv})
        for d in degs:
            src_m = m.block_dim(sv, d)
            tgt_m = m.block_dim(tv, d + dx)
            src_n = n.block_dim(sv, d)
            tgt_n = n.block_dim(tv, d + dx)
            # constraint: f_(tv,d+dx) a_m = a_n f_(sv,d)
            # rows indexed by (tgt_n, src_m)
            if tgt_n * src_m == 0:
                continue
            # m-block (sv,d) -> (tv,d+dx): its columns, and n's rows
            a_m = m.act_element(a, d).transpose().srows if tgt_m else {}
            a_n = n.act_element(a, d).srows if src_n else {}
            off_t, cols_t, _r = pos.get((tv, d + dx), (0, 0, 0))
            off_s, cols_s, _r = pos.get((sv, d), (0, 0, 0))
            for i in range(tgt_n):
                for j in range(src_m):
                    row = {off_t + i * cols_t + k: c for k, c in a_m.get(j, {}).items()}
                    _axpy(row, 1, {off_s + k * cols_s + j: c
                                   for k, c in a_n.get(i, {}).items()})
                    if row:
                        equations.add(row)
    kernel = kernel_vectors(equations.rows, total)
    m.memo[memo_key] = (n, layout, kernel)
    return layout, kernel


def solve_hom_factorization(p: GradedModuleHom, v: GradedModuleHom):
    """u with p o u = v, or None when v does not factor through p.

    v's domain must be a FormalProjective. Hom(e_w Lambda<d>, N) is
    N_(w,d), so u is fixed by where it sends the generators: each goes to
    a preimage under p of v's value there, all solved at once.
    """
    P = v.domain
    xs = solve_preimages(p, [v.apply(P.generator_element(k)) for k in range(len(P.parts))])
    if xs is None:
        return None
    return place(P, p.domain, [(map_from_projective(part, p.domain, x), off, {})
                               for part, off, x in zip(P.parts, P.offsets, xs)])


def post_invert_mono(iota: GradedModuleHom, w: GradedModuleHom):
    """v with iota o v = w (image of w inside the mono's image)."""
    blocks = {}
    for key, mat in w.blocks.items():
        sol = iota.block(*key).solve_matrix(mat)
        if sol is None:
            raise InternalCheckError("image escapes the submodule")
        blocks[key] = sol
    return GradedModuleHom(w.domain, iota.domain, blocks)


def solve_preimages(h: GradedModuleHom, targets):
    """[x with h(x) = t for t in targets], or None when some target is
    outside the image. Each block of h is eliminated once, for every
    target's vector there, by `solve_columns`."""
    rhs = {}
    for t, elem in enumerate(targets):
        for key, vec in elem.items():
            rhs.setdefault(key, {})[t] = vec
    sols = {}
    for key, vecs in rhs.items():
        blk = h.block(*key)
        cols = blk.transpose().srows
        xs = solve_columns([cols.get(j, {}) for j in range(blk.cols)], vecs.values())
        if xs is None:
            return None
        sols.update(((t, key), x) for t, x in zip(vecs, xs))
    return [{key: sols[t, key] for key in elem} for t, elem in enumerate(targets)]


def zero_hom(m, n) -> GradedModuleHom:
    return GradedModuleHom(m, n, {})


def place(domain, codomain, pieces) -> GradedModuleHom:
    """The hom domain -> codomain made of pieces = [(h, cols, rows), ...].

    Each h maps a summand of domain to a summand of codomain, and its block
    at key is written from column cols[key] and row rows[key] on (0 when
    key is missing, as for {}): the offsets of a `DirectSum` part, or the
    dims of the summands placed before it. Pieces must not overlap.
    """
    blocks = {}
    for h, cols, rows in pieces:
        for key, mat in h.blocks.items():
            blocks.setdefault(key, []).append((mat, rows.get(key, 0), cols.get(key, 0)))
    return GradedModuleHom(domain, codomain, {
        key: assemble(codomain.dims[key], domain.dims[key], ps)
        for key, ps in blocks.items()})


# ---------------------------------------------------------------------------
# maps out of projectives
# ---------------------------------------------------------------------------

def generator(p: GradedModule, v, shift: int = 0) -> dict:
    """The element e_v of e_v Lambda<shift> or of D(Lambda e_v)<shift>."""
    block = (v, shift)
    return {block: {p.basis_index[block].index(p.algebra.idempotent_index(v)): 1}}


def map_from_projective(p: GradedModule, n: GradedModule, elem: dict) -> GradedModuleHom:
    """The map e_v Lambda<d> -> n sending the generator to elem: b -> elem . b.

    Hom(e_v Lambda<d>, N) is N_(v,d), so this is every such map.
    """
    blocks = {}
    for key, ix in p.basis_index.items():
        rows = n.block_dim(*key)
        if not rows:
            continue
        blocks[key] = Matrix.from_entries(rows, len(ix), {
            (r_i, c_i): val for c_i, b in enumerate(ix)
            for r_i, val in n.apply_element(elem, {b: 1}).get(key, {}).items()})
    return GradedModuleHom(p, n, blocks)


# ---------------------------------------------------------------------------
# maps into injectives
# ---------------------------------------------------------------------------

def map_into_injective(m: GradedModule, q: GradedModule, w, phis) -> list:
    """The maps m -> q = D(Lambda e_w)<s>, x -> sum_b phi(x . b) psi_b, one
    for each functional phi on m_(w,s) in phis (sparse vectors): all of
    Hom(M, D(Lambda e_w)<s>) = D(M_(w,s)). The row of psi_b in block (u, d)
    is phi^T act(b, d), since x . b lies in m_(w,s); each act(b, d) is read
    once for every phi.
    """
    blocks = [{} for _ in phis]
    for (u, d), ix in q.basis_index.items():
        cols = m.block_dim(u, d)
        if not cols:
            continue
        srows = [{} for _ in phis]
        for r_i, b in enumerate(ix):
            act = m.act(b, d).srows
            for phi, rows in zip(phis, srows):
                row = {}
                for k, arow in act.items():
                    c = phi.get(k)
                    if c:
                        _axpy(row, -c, arow)
                if row:
                    rows[r_i] = row
        for out, rows in zip(blocks, srows):
            out[(u, d)] = Matrix.sparse(len(ix), cols, rows)
    return [GradedModuleHom(m, q, out) for out in blocks]


def solve_map_into_injectives(m: GradedModule, tgt: DirectSum, socles, elems, images):
    """Maps m -> tgt with prescribed values, one per list of images, or None
    when some list has no map.

    Part j of tgt is D(Lambda e_w)<s> with (w, s) = socles[j], elems are
    element dicts of m, and map b sends elems[k] to images[b][k]. The
    component into part j is `map_into_injective` for a functional phi on
    M_(w,s), whose psi_b coordinate at elem is phi(elem . b): one equation
    in phi per (elem, psi_b). The columns depend only on (w, s) and elems,
    so each socle block is one `solve_columns` and one `map_into_injective`
    for every part and map. Each map is checked against its values.
    """
    groups = {}
    for j, key in enumerate(socles):
        groups.setdefault(key, []).append(j)
    comps = {}
    for (w, s), js in groups.items():
        part = tgt.parts[js[0]]  # every part of the group is D(Lambda e_w)<s>
        index = {}
        columns = [{} for _ in range(m.block_dim(w, s))]
        for k, elem in enumerate(elems):
            for key, vec in elem.items():
                for r_i, b in enumerate(part.basis_index.get(key, [])):
                    for i, y in m.act(b, key[1]).apply(vec).items():
                        columns[i][index.setdefault((k, key, r_i), len(index))] = y
        cells = [(b, j) for b in range(len(images)) for j in js]
        targets = []
        for b, j in cells:
            values = {}
            for k, image in enumerate(images[b]):
                for key, vec in tgt.component(j, image).items():
                    for r_i, y in vec.items():
                        row = index.get((k, key, r_i))
                        if row is None:
                            return None  # no column reaches this value
                        values[row] = y
            targets.append(values)
        xs = solve_columns(columns, targets)
        if xs is None:
            return None
        comps.update(zip(cells, map_into_injective(m, part, w, xs)))
    out = [place(m, tgt, [(comps[b, j], {}, tgt.offsets[j]) for j in range(len(socles))])
           for b in range(len(images))]
    if any(u.apply(x) != y for u, ys in zip(out, images) for x, y in zip(elems, ys)):
        raise InternalCheckError("map into injectives misses a prescribed value")
    return out


# ---------------------------------------------------------------------------
# sub/quotient machinery
# ---------------------------------------------------------------------------

def submodule(m: GradedModule, spans: dict, name="sub"):
    """Submodule from per-block row-span lists {block: [vector, ...]}.

    The spans must be action-closed; returns (module, inclusion hom). Each
    block's basis is the reduced echelon rows of its span, so a vector of
    the span has its coordinates at their pivot columns: the action is read
    off there, with no solve, and checked.
    """
    alg = m.algebra
    bases, pivots = {}, {}
    for key, vecs in spans.items():
        if not vecs:
            continue
        R, piv = Matrix(len(vecs), m.dims[key], vecs).rref()
        if piv:
            bases[key] = Matrix.sparse(len(piv), m.dims[key], R.srows).transpose()
            pivots[key] = piv
    dims = {key: b.cols for key, b in bases.items()}
    action = {}
    for x in range(alg.num_vertices, alg.dim):
        sv, tv, dx = alg.source[x], alg.target[x], alg.degree[x]
        per = {}
        for (v, d), b in bases.items():
            if v != sv:
                continue
            tgt = bases.get((tv, d + dx))
            img = m.act(x, d) * b  # columns = images of sub-basis vectors
            if img.is_zero():
                continue
            if tgt is None:
                raise InternalCheckError("span not action-closed")
            sol = Matrix.sparse(tgt.cols, img.cols, {
                r: img.srows[p] for r, p in enumerate(pivots[(tv, d + dx)])
                if p in img.srows})
            if tgt * sol != img:
                raise InternalCheckError("span not action-closed")
            per[d] = sol
        if per:
            action[x] = per
    sub = GradedModule(alg, dims, action, name=name)
    return sub, GradedModuleHom(sub, m, bases)


def kernel_submodule(f: GradedModuleHom, name="ker"):
    m = f.domain
    spans = {}
    for key, dimk in m.dims.items():
        mat = f.block(*key)
        if mat.rows == 0:
            spans[key] = [{j: 1} for j in range(dimk)]
        else:
            spans[key] = mat.kernel_basis()
    return submodule(m, spans, name=name)


def image_spans(f: GradedModuleHom):
    """Per-block spanning vectors of the image: the nonzero columns."""
    return {key: list(mat.transpose().srows.values())
            for key, mat in f.blocks.items()}


def quotient_module(m: GradedModule, spans: dict, name="quot"):
    """Quotient of m by the action-closed span.

    Returns (module, projection, section): the section is a blockwise linear
    right inverse of the projection, not in general a module map.
    """
    alg = m.algebra
    reducers = {}
    for key, dimk in m.dims.items():
        vecs = spans.get(key)
        R, piv = Matrix(len(vecs), dimk, vecs).rref() if vecs else (None, [])
        free = {j: q_i for q_i, j in enumerate(sorted(set(range(dimk)) - set(piv)))}
        # projection: ambient coords -> free coords after reduction; it sends
        # e_pc to -sum over free j of R[r][j] e_j, and lift sends e_j back
        proj = {q_i: {j: 1} for j, q_i in free.items()}
        for r_i, pc in enumerate(piv):
            for j, c in R.srows[r_i].items():
                if j != pc:
                    proj[free[j]][pc] = -c
        reducers[key] = (Matrix.sparse(len(free), dimk, proj),
                         Matrix.sparse(dimk, len(free), {j: {q_i: 1} for j, q_i in free.items()}))
    dims = {key: reducers[key][0].rows for key in m.dims if reducers[key][0].rows}
    action = {}
    for x in range(alg.num_vertices, alg.dim):
        sv, tv, dx = alg.source[x], alg.target[x], alg.degree[x]
        per = {}
        for (v, d) in m.dims:
            if v != sv:
                continue
            key_t = (tv, d + dx)
            if dims.get((v, d), 0) == 0 or dims.get(key_t, 0) == 0:
                continue
            proj_t, _ = reducers[key_t]
            _, lift_s = reducers[(v, d)]
            mat = proj_t * m.act(x, d) * lift_s
            if not mat.is_zero():
                per[d] = mat
        if per:
            action[x] = per
    quot = GradedModule(alg, dims, action, name=name)
    proj = GradedModuleHom(m, quot, {key: reducers[key][0] for key in dims})
    section = GradedModuleHom(quot, m, {key: reducers[key][1] for key in dims})
    return quot, proj, section


def cokernel(f: GradedModuleHom, name="coker"):
    quot, proj, _section = quotient_module(f.codomain, image_spans(f), name=name)
    return quot, proj


# ---------------------------------------------------------------------------
# top, socle, covers, envelopes, syzygies
# ---------------------------------------------------------------------------

def radical_span(m: GradedModule):
    """Per-block spanning vectors of M . rad(Lambda), the nonzero columns of
    the arrows' actions: M . rad is the sum of the M . a."""
    alg = m.algebra
    spans = {key: [] for key in m.dims}
    for a in alg.arrows():
        x = next(iter(a))
        sv, tv, dx = alg.source[x], alg.target[x], alg.degree[x]
        for (v, d) in m.dims:
            if v == sv and (tv, d + dx) in m.dims:
                spans[(tv, d + dx)].extend(m.act_element(a, d).transpose().srows.values())
    return spans


def top_data(m: GradedModule):
    """Generators of M/M.rad: list of (block, lift-vector in M coords)."""
    spans = radical_span(m)
    return [(key, {j: 1}) for key in m.blocks()
            for j in complement_basis(spans.get(key, []), m.dims[key])]


def socle_spans(m: GradedModule):
    """Per-block basis of soc M = elements killed by rad, the common kernel
    of the arrows' actions."""
    alg = m.algebra
    out = {}
    for (v, d), dimk in m.dims.items():
        stacked = []
        for a in alg.arrows():
            x = next(iter(a))
            if alg.source[x] == v and (alg.target[x], d + alg.degree[x]) in m.dims:
                stacked.extend(m.act_element(a, d).srows.values())
        out[(v, d)] = Matrix(len(stacked), dimk, stacked).kernel_basis()
    return {k: v for k, v in out.items() if v}


# The zero entry of every formal column: most entries of a resolution's
# differential are zero, and one shared read-only mapping keeps them from
# holding a dict each.
_ZERO_ENTRY = MappingProxyType({})


class FormalProjective(DirectSum):
    """Direct sum of e_v Lambda <d>, one part per generator (v, d) in gens."""

    def __init__(self, alg: GradedAlgebra, gens):
        self.gens = list(gens)
        super().__init__(alg, [projective_module(alg, v, d) for (v, d) in self.gens])

    @property
    def rank(self) -> int:
        return len(self.gens)

    def generator_element(self, k: int) -> dict:
        return self.embed(k, generator(self.parts[k], *self.gens[k]))

    def element_to_formal(self, elem: dict):
        """Decompose an explicit element into algebra elements per generator."""
        out = [{} for _ in self.gens]
        for key, vec in elem.items():
            for i, c in vec.items():
                k, r = self.locate(key, i)
                out[k][self.parts[k].basis_index[key][r]] = c
        return [comp or _ZERO_ENTRY for comp in out]

    def formal_to_element(self, column) -> dict:
        """Inverse of element_to_formal for a single formal column."""
        alg = self.algebra
        elem = {}
        for (v, d), part, off, comp in zip(self.gens, self.parts, self.offsets, column):
            for b, c in comp.items():
                if alg.source[b] != v:
                    raise InternalCheckError("formal entry outside projective")
                if c:
                    # each (generator, basis element) has its own coordinate
                    key = (alg.target[b], alg.degree[b] + d)
                    elem.setdefault(key, {})[off[key] + part.basis_index[key].index(b)] = (
                        c if type(c) is int else exact(c))
        return elem


def projective_cover(m: GradedModule):
    """Minimal projective cover: returns (P, epi, generator tags).

    P is the FormalProjective on the generator tags: a list of
    (vertex, degree) matching the summands e_v Lambda <degree> of P in
    order, so P.gens == tags.
    """
    alg = m.algebra
    alg.assert_split_basic()
    gens = top_data(m)
    tags = [key for key, _vec in gens]
    P = FormalProjective(alg, tags)
    epi = place(P, m, [(map_from_projective(part, m, {key: vec}), off, {})
                       for part, off, (key, vec) in zip(P.parts, P.offsets, gens)])
    if not epi.is_surjective():
        raise InternalCheckError("projective cover map not surjective")
    return P, epi, tags


def _socle_info(alg: GradedAlgebra):
    """For each vertex v, the socle element of e_v Lambda as a coefficient
    dict. Requires a simple socle (basic self-injective)."""
    hit = alg.memo.get("socle_info")
    if hit is not None:
        return hit
    info = {}
    for v in alg.vertices:
        P = projective_module(alg, v)
        spans = socle_spans(P)
        if sum(map(len, spans.values())) != 1:
            raise InputError(
                f"socle of projective at vertex {v!r} is not simple; "
                "algebra is not basic self-injective in the supported sense"
            )
        [(key, [vec])] = spans.items()
        info[v] = {P.basis_index[key][i]: c for i, c in sorted(vec.items())}
    alg.memo["socle_info"] = info
    return info


def injective_envelope(m: GradedModule):
    """Minimal injective envelope: returns (I, mono, socle tags).

    One D(Lambda e_v)<d> per basis vector of soc M at (v, d), in the order
    of the tags. The mono sends each socle vector to the generator
    psi_(e_v) of its copy; it is solved in closed form, one functional per
    copy, by `solve_map_into_injectives`.
    """
    alg = m.algebra
    soc = socle_spans(m)
    tags, socle = [], []
    for key in sorted(soc, key=lambda vd: (vd[1], str(vd[0]))):
        for vec in soc[key]:
            tags.append(key)
            socle.append({key: vec})
    I = DirectSum(alg, [dual_of_left_projective(alg, v, d) for (v, d) in tags])
    images = [I.embed(k, generator(part, *key)) for k, (part, key) in enumerate(zip(I.parts, tags))]
    (mono,) = solve_map_into_injectives(m, I, tags, socle, [images]) or [None]
    if mono is None:
        raise InternalCheckError("socle embedding does not extend to the module")
    if not mono.is_injective():
        raise InternalCheckError("injective envelope map not injective")
    return I, mono, tags


def find_projective_summand(m: GradedModule):
    """Find (v, j, element) such that e_v L <j> splits off via gen -> element."""
    alg = m.algebra
    info = _socle_info(alg)
    for (v, j) in m.blocks():
        # the map M_(v,j) -> M_(t, j+h), x -> x . socle-element of e_v L
        for i in range(m.dims[(v, j)]):
            img = m.apply_element(m.unit_vector((v, j), i), info[v])
            if img:
                return v, j, m.unit_vector((v, j), i)
    return None


# ---------------------------------------------------------------------------
# stable homs, isomorphism, indecomposability
# ---------------------------------------------------------------------------

def stable_hom(m: GradedModule, n: GradedModule, prefer=None):
    """Basis of Hom modulo maps factoring through projectives.

    Returns (quotient dimension, representative homs, reducer) where
    reducer(h) gives coordinates of the class of h in the quotient basis.
    Homs in `prefer` are tried first as representatives.
    """
    layout, H = _hom_kernel(m, n)
    if not H:
        return 0, [], lambda h: []
    P, epi, tags = projective_cover(n)
    basis = EchelonBasis(hom_flatten(epi.compose(u), layout)
                         for u in (hom_space(m, P) if tags else []))
    frank = basis.rank
    reps = [h for h in prefer or () if basis.add(hom_flatten(h, layout))]
    reps += [hom_unflatten(m, n, layout, v) for v in H if basis.add(v)]
    qdim = basis.rank - frank

    def reducer(h):
        coords = basis.coords(hom_flatten(h, layout))
        if coords is None:
            raise InternalCheckError("hom outside computed span")
        return [coords.get(k, 0) for k in range(frank, basis.rank)]

    return qdim, reps, reducer


class IsoVerdict:
    def __init__(self, isomorphic: bool | None, certified: bool,
                 certificate: object = None, reason: str = ""):
        self.isomorphic = isomorphic  # None = probably not (probabilistic)
        self.certified = certified
        self.certificate = certificate
        self.reason = reason

    @property
    def probabilistic(self) -> bool:
        return not self.certified


# Random combinations is_isomorphic tries after the Hom basis and its sum.
ISO_SAMPLES = 64


def is_isomorphic(m: GradedModule, n: GradedModule, rng=None):
    """Isomorphism test with certificates; NO may be probabilistic."""
    keys = set(m.dims) | set(n.dims)
    for key in keys:
        if m.block_dim(*key) != n.block_dim(*key):
            return IsoVerdict(False, True, reason="graded dimension vectors differ")
    if m.is_zero():
        return IsoVerdict(True, True, certificate=zero_hom(m, n))
    layout, H = _hom_kernel(m, n)
    if not H:
        return IsoVerdict(False, True, reason="no nonzero homomorphisms")
    for vec in candidate_combinations(H, rng, ISO_SAMPLES):
        h = hom_unflatten(m, n, layout, vec)
        if h.is_isomorphism():
            return IsoVerdict(True, True, certificate=h)
    return IsoVerdict(
        None, False,
        reason=f"no invertible combination found in {ISO_SAMPLES} samples "
               "(probabilistic)",
    )


def endomorphism_table(m: GradedModule):
    """Basis of End(M) and structure constants of composition."""
    layout, vecs = _hom_kernel(m, m)
    E = [hom_unflatten(m, m, layout, v) for v in vecs]
    basis = EchelonBasis(vecs)
    table = {}
    for i, hi in enumerate(E):
        for j, hj in enumerate(E):
            sol = basis.coords(hom_flatten(hi.compose(hj), layout))
            if sol is None:
                raise InternalCheckError("End(M) not closed under composition")
            table[(i, j)] = sol
    return E, table


def is_indecomposable(m: GradedModule):
    """True iff End(M)/rad is one-dimensional (char-0 trace form radical)."""
    if m.is_zero():
        return False, 0, 0
    E, table = endomorphism_table(m)
    ne = len(E)
    # trace form (i, j) -> tr(L_{b_i b_j}) on End(M); kernel = radical in char 0
    gram = Matrix.from_entries(ne, ne, {
        (i, j): sum(c * table[(k, l)].get(l, 0)
                    for k, c in table[(i, j)].items() for l in range(ne))
        for i in range(ne) for j in range(ne)})
    rad_dim = len(gram.kernel_basis())
    head = ne - rad_dim
    return head == 1, ne, head


# ---------------------------------------------------------------------------
# translations of homomorphisms
# ---------------------------------------------------------------------------

def shift_hom(f: GradedModuleHom, j: int, dom=None, cod=None) -> GradedModuleHom:
    """The hom f<j> between shifted modules."""
    dom = dom if dom is not None else shift_module(f.domain, j)
    cod = cod if cod is not None else shift_module(f.codomain, j)
    blocks = {(v, d + j): m for (v, d), m in f.blocks.items()}
    return GradedModuleHom(dom, cod, blocks)


# ---------------------------------------------------------------------------
# module file format
# ---------------------------------------------------------------------------

def parse_module_source(text: str, alg: GradedAlgebra) -> GradedModule:
    """Parse the line-oriented module format over a presented algebra.

        module NAME over ALGEBRA
        space VERTEX DEGREE DIM
        action ARROW DEGREE matrix r1c1,r1c2;r2c1,r2c2
        end

    Action lines name arrows of the quiver presentation; matrices map the
    (source, DEGREE) block to the (target, DEGREE + arrow degree) block with
    rows indexed by the target block. Omitted actions are zero. The actions
    of longer basis paths are composed from the arrow actions along the
    stored path witnesses, and the module axioms are then validated.
    """
    if alg.path_witness is None:
        raise InputError("module files need an algebra with a quiver presentation")
    name = None
    dims = {}
    arrow_action = {}
    ended = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ended:
            raise InputError("content after 'end'")
        parts = line.split()
        kw = parts[0]
        if kw == "module":
            if len(parts) != 4 or parts[2] != "over":
                raise InputError("module line must be 'module NAME over ALGEBRA'")
            name = parts[1]
        elif kw == "space":
            if len(parts) != 4:
                raise InputError(f"bad space line: {line!r}")
            v, d, m = (parse_number(f, line) for f in parts[1:])
            if v not in alg.vertex_pos:
                raise InputError(f"unknown vertex {v}")
            if m < 0:
                raise InputError("negative dimension")
            if m:
                dims[(v, d)] = m
        elif kw == "action":
            if len(parts) < 4 or parts[3] != "matrix":
                raise InputError(f"bad action line: {line!r}")
            arrow = parts[1]
            d = parse_number(parts[2], line)
            body = " ".join(parts[4:])
            rows = [r for r in body.split(";") if r.strip()]
            mat = [[parse_number(x, line, exact) for x in r.split(",")] for r in rows]
            arrow_action[(arrow, d)] = mat
        elif kw == "end":
            ended = True
        else:
            raise InputError(f"unknown keyword {kw!r}")
    if name is None:
        raise InputError("missing module header")
    if not ended:
        raise InputError("missing 'end'")
    action = {}
    for (arrow, d), mat in arrow_action.items():
        if arrow not in alg.index_of:
            raise InputError(f"unknown arrow {arrow!r}")
        x = alg.index_of[arrow]
        wit = alg.path_witness.get(arrow)
        if wit is None or len(wit) != 1:
            raise InputError(f"{arrow!r} is not an arrow of the presentation")
        sdim = dims.get((alg.source[x], d), 0)
        tdim = dims.get((alg.target[x], d + alg.degree[x]), 0)
        m = Matrix(len(mat), len(mat[0]) if mat else 0, mat) if mat else Matrix(0, 0)
        if m.rows != tdim or m.cols != sdim:
            raise InputError(
                f"action of {arrow} at degree {d} must be {tdim}x{sdim}"
            )
        if not m.is_zero():
            action.setdefault(x, {})[d] = m
    out = GradedModule(alg, dims, action, name=name)
    _extend_action_along_witnesses(out)
    out.validate()
    return out


def _extend_action_along_witnesses(m: GradedModule):
    alg = m.algebra
    for b in range(alg.num_vertices, alg.dim):
        wit = alg.path_witness.get(alg.labels[b], ())
        if len(wit) <= 1:
            continue
        per = {}
        for (v, d) in list(m.dims):
            if v != alg.source[b]:
                continue
            mat = None
            cur_d = d
            ok = True
            for nm in wit:
                x = alg.index_of[nm]
                step = m.act(x, cur_d)
                mat = step if mat is None else step * mat
                cur_d += alg.degree[x]
                if mat.rows == 0:
                    ok = False
                    break
            if ok and mat is not None and not mat.is_zero():
                per[d] = mat
        if per:
            m.action[b] = per


def parse_module_file(path, alg: GradedAlgebra) -> GradedModule:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_module_source(fh.read(), alg)


def dump_module(m: GradedModule, name=None) -> str:
    alg = m.algebra
    lines = [f"module {name or m.name or 'M'} over {alg.name}"]
    for (v, d) in m.blocks():
        lines.append(f"space {v} {d} {m.dims[(v, d)]}")
    action = m.action
    for x in sorted(action, key=lambda i: alg.labels[i]):
        for d in sorted(action[x]):
            mat = action[x][d]
            rows = (mat.srows.get(i, {}) for i in range(mat.rows))
            body = ";".join(",".join(str(r.get(j, 0)) for j in range(mat.cols))
                            for r in rows)
            lines.append(f"action {alg.labels[x]} {d} matrix {body}")
    lines.append("end")
    return "\n".join(lines)


def generator_elements(m: GradedModule):
    """Elements generating M as a module (lifts of a basis of M/M.rad).

    Two module homomorphisms out of M agree iff they agree on these, which
    keeps constraint systems small.
    """
    hit = m.memo.get("generator_elements")
    if hit is not None:
        return hit
    gens = [{key: vec} for (key, vec) in top_data(m)]
    m.memo["generator_elements"] = gens
    return gens
