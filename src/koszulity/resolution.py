"""Minimal graded (co)resolutions, Ext tables and Yoneda products.

The package walks "cover, then kernel" and "envelope, then cokernel" in one
place each: `MinimalResolution` and `MinimalCoresolution` keep the minimal
(co)syzygies of a module with the maps their readers need, and every reader
of Omega^k M or Omega^{-k} M reads them off these two records.

A term of a projective resolution is a formal direct sum of shifted
projectives e_v Lambda<d>. As a `DirectSum` it holds only its parts, and
builds the block-diagonal action of a basis element when it is asked for
it. A map
between formal projectives is a matrix of algebra elements: entry (l, k)
lies in e_{v_l} Lambda e_{v_k} and acts by left multiplication on the k-th
generator. Hom(P, N) is then a direct sum of blocks of N and the induced
maps are right actions, which keeps Ext computations small.
"""

from __future__ import annotations

from bisect import bisect_right

from .linalg import EchelonBasis, Matrix, _axpy, assemble, solve_columns
from .algebra import GradedAlgebra, InputError, InternalCheckError
from . import modules as mo


def formal_explicit_hom(source: mo.FormalProjective, target: mo.FormalProjective,
                        columns):
    """Explicit hom for a formal matrix given as columns (per source gen)."""
    return mo.place(source, target, [
        (mo.map_from_projective(part, target, target.formal_to_element(col)), off, {})
        for part, off, col in zip(source.parts, source.offsets, columns)])


def compose_formal(alg: GradedAlgebra, a_cols, b_cols):
    """Columns of A o B where B: Q -> R and A: R -> S are formal matrices.

    a_cols: columns of A (per generator of R), each a list over gens of S.
    b_cols: columns of B (per generator of Q), each a list over gens of R.
    """
    out = []
    for col in b_cols:
        acc = None
        for r_i, lam in enumerate(col):
            if not lam:
                continue
            a_col = a_cols[r_i]
            if acc is None:
                acc = [dict() for _ in a_col]
            for s_i, mu in enumerate(a_col):
                if not mu:
                    continue
                prod = alg.mult(mu, lam)
                if prod:
                    tgt = acc[s_i]
                    for k, c in prod.items():
                        s = tgt.get(k, 0) + c
                        if s:
                            tgt[k] = s
                        else:
                            tgt.pop(k, None)
        if acc is None:
            acc = [dict() for _ in (a_cols[0] if a_cols else [])]
        out.append(acc)
    return out


class MinimalResolution:
    """Minimal projective resolution built by iterated covers and kernels.

    d_i is the kernel inclusion Omega^i M -> P_{i-1} after the cover epi
    P_i -> Omega^i M; a zero syzygy gets the rank-0 cover, and the
    resolution stops there. Only the last inclusion is kept, and past
    degree 0 the epis are not kept: `cover` builds them again. The formal
    columns of the d_i are read off on first use of `diff_cols`: the
    syzygy walks, which read only `syzygy` and `cover`, never build them.
    """

    def __init__(self, m: mo.GradedModule):
        self.module = m
        self.terms = []       # FormalProjective per homological degree
        self._cols = []       # the formal columns built so far, see diff_cols
        self.diff_homs = [None]  # explicit homs, diff_homs[i] for i>=1
        self.eps = None
        self.syzygies = [m]   # syzygies[i] = Omega^i M
        self._last_incl = None  # Omega^i M -> P_{i-1} for the last syzygy

    def extend(self, upto: int):
        while len(self.terms) <= upto and (not self.terms or self.terms[-1].rank):
            self._step()
        return self

    def _step(self):
        # the cover is the formal projective on its top generators, and epi
        # sends its k-th generator to the k-th top generator of the syzygy;
        # its kernel lies in the radical of P, so the resolution is minimal
        i = len(self.terms)
        P, epi, _tags = mo.projective_cover(self.syzygies[-1])
        K, incl = mo.kernel_submodule(epi, name=f"Omega^{i + 1}")
        if i == 0:
            self.eps = epi
        else:
            self.diff_homs.append(self._last_incl.compose(epi))
        self.terms.append(P)
        self._last_incl = incl
        self.syzygies.append(K)

    @property
    def diff_cols(self):
        """diff_cols[i]: the formal columns of d_{i+1} : P_{i+1} -> P_i,
        one per generator of P_{i+1}, for every differential built so far."""
        while len(self._cols) < len(self.diff_homs) - 1:
            i = len(self._cols) + 1
            dhom, P = self.diff_homs[i], self.terms[i]
            self._cols.append([self.terms[i - 1].element_to_formal(
                dhom.apply(P.generator_element(k))) for k in range(P.rank)])
        return self._cols

    def syzygy(self, k: int) -> mo.GradedModule:
        """Omega^k M; the zero module past a finite resolution's end."""
        self.extend(k - 1)
        return self.syzygies[min(k, len(self.syzygies) - 1)]

    def cover(self, i: int) -> mo.GradedModuleHom:
        """The cover epi P_i -> Omega^i M; `projective_cover` is
        deterministic, so past degree 0 this is the epi the step built."""
        self.extend(i)
        if i == 0:
            return self.eps
        return mo.projective_cover(self.syzygies[i])[1]

    def term_gens(self, i: int):
        return self.terms[i].gens if i < len(self.terms) else []

    def generator_degrees(self, i: int):
        return sorted(d for (_v, d) in self.term_gens(i))


class MinimalCoresolution:
    """Minimal injective coresolution built by iterated envelopes and cokernels.

    monos[i]: Omega^{-i} M -> terms[i] is the minimal injective envelope,
    on the socle tags tags[i], and projs[i]: terms[i] -> Omega^{-(i+1)} M
    its cokernel. The coresolution stops at a zero cosyzygy.
    """

    def __init__(self, m: mo.GradedModule):
        self.module = m
        self.terms = []
        self.tags = []
        self.monos = []
        self.projs = []
        self.cosyzygies = [m]   # cosyzygies[i] = Omega^{-i} M

    def extend(self, upto: int):
        while len(self.terms) <= upto and not self.cosyzygies[-1].is_zero():
            I, mono, tags = mo.injective_envelope(self.cosyzygies[-1])
            C, proj = mo.cokernel(mono, name=f"Omega^-{len(self.terms) + 1}")
            self.terms.append(I)
            self.tags.append(tags)
            self.monos.append(mono)
            self.projs.append(proj)
            self.cosyzygies.append(C)
        return self

    def cosyzygy(self, k: int) -> mo.GradedModule:
        """Omega^{-k} M; the zero module past a finite coresolution's end."""
        self.extend(k - 1)
        return self.cosyzygies[min(k, len(self.cosyzygies) - 1)]


# ---------------------------------------------------------------------------
# Ext computations
# ---------------------------------------------------------------------------

def _hom_complex_frame(res: MinimalResolution, n: mo.GradedModule, i: int, j: int):
    """Coordinates of Hom(P_i, N<j>) = sum over gens of N_{(v, d - j)}."""
    layout = []
    offset = 0
    for k, (v, d) in enumerate(res.term_gens(i)):
        size = n.block_dim(v, d - j)
        layout.append(((v, d - j), offset, size))
        offset += size
    return layout, offset


def delta_matrix(res: MinimalResolution, n: mo.GradedModule, i: int, j: int):
    """Matrix of f -> f o d_{i+1} on the Hom-complex coordinates."""
    src_layout, src_total = _hom_complex_frame(res, n, i, j)
    tgt_layout, tgt_total = _hom_complex_frame(res, n, i + 1, j)
    if i + 1 >= len(res.terms):
        return Matrix.zero(tgt_total, src_total)
    cells = {}
    cols = res.diff_cols[i]  # columns of d_{i+1}: P_{i+1} -> P_i (see extend())
    for c, col in enumerate(cols):
        key_c, off_c, size_c = tgt_layout[c]
        if size_c == 0:
            continue
        for k, lam in enumerate(col):
            if not lam:
                continue
            key_k, off_k, size_k = src_layout[k]
            if size_k == 0:
                continue
            for s in range(size_k):
                img = n.apply_element({key_k: {s: 1}}, lam)
                for t, val in img.get(key_c, {}).items():
                    cells[off_c + t, off_k + s] = val
    return Matrix.from_entries(tgt_total, src_total, cells)


class ExtGroup:
    def __init__(self, i: int, j: int, dim: int, reps: list, layout: list,
                 total: int, _basis: EchelonBasis = None, _brank: int = 0):
        self.i = i
        self.j = j
        self.dim = dim
        self.reps = reps          # cocycles as sparse coordinate vectors
        self.layout = layout
        self.total = total
        self._basis = _basis      # coboundaries, then reps
        self._brank = _brank

    def reduce(self, vec):
        """Coordinates of a cocycle's class in the chosen basis."""
        coords = self._basis.coords(vec)
        if coords is None:
            raise InternalCheckError("cocycle outside computed span")
        return [coords.get(k, 0) for k in range(self._brank, self._basis.rank)]


def ext_group(res: MinimalResolution, n: mo.GradedModule, i: int, j: int) -> ExtGroup:
    res.extend(i + 1)
    layout, total = _hom_complex_frame(res, n, i, j)
    if total == 0:
        return ExtGroup(i, j, 0, [], layout, 0, EchelonBasis(), 0)
    d_out = delta_matrix(res, n, i, j)
    cocycles = d_out.kernel_basis() if d_out.rows else [{s: 1} for s in range(total)]
    basis = EchelonBasis()
    if i >= 1:
        for col in delta_matrix(res, n, i - 1, j).transpose().srows.values():
            basis.add(col)
    brank = basis.rank
    reps = [z for z in cocycles if basis.add(z)]
    return ExtGroup(i, j, basis.rank - brank, reps, layout, total, basis, brank)


def cocycle_values(res: MinimalResolution, eg: ExtGroup, vec):
    """Sparse cocycle coordinate vector -> list of N-elements per generator
    of P_i."""
    starts = [off for _key, off, _size in eg.layout]
    out = [{} for _ in eg.layout]
    for c, x in vec.items():
        k = bisect_right(starts, c) - 1
        key, off, _size = eg.layout[k]
        out[k].setdefault(key, {})[c - off] = x
    return out


def values_to_vec(eg: ExtGroup, values):
    """Inverse of `cocycle_values`: the sparse coordinate vector."""
    return {off + t: x for (key, off, _size), val in zip(eg.layout, values)
            for t, x in val.get(key, {}).items()}


class ExtTable:
    def __init__(self, i_max: int, j_min: int, j_max: int, dims: dict):
        self.i_max = i_max
        self.j_min = j_min
        self.j_max = j_max
        self.dims = dims          # (i, j) -> dimension

    def dim(self, i, j):
        return self.dims.get((i, j), 0)

    def tsv(self) -> str:
        lines = ["i\\j\t" + "\t".join(str(j) for j in range(self.j_min, self.j_max + 1))]
        for i in range(self.i_max + 1):
            row = [str(i)]
            for j in range(self.j_min, self.j_max + 1):
                row.append(str(self.dim(i, j)))
            lines.append("\t".join(row))
        return "\n".join(lines)


def ext_table(res: MinimalResolution, n: mo.GradedModule, i_max: int,
              j_min: int, j_max: int) -> ExtTable:
    """Bigraded Ext dims over the window; the groups are not kept."""
    res.extend(i_max + 1)
    dims = {}
    for i in range(i_max + 1):
        for j in range(j_min, j_max + 1):
            dim = ext_group(res, n, i, j).dim
            if dim:
                dims[(i, j)] = dim
    return ExtTable(i_max, j_min, j_max, dims)


def hom_window(res: MinimalResolution, n: mo.GradedModule, i: int):
    """All j with Hom(P_i, N<j>) possibly nonzero."""
    degs = [d for (_v, d) in res.term_gens(i)]
    if not degs or n.is_zero():
        return range(0)
    nd = n.degrees()
    return range(min(d - nd[-1] for d in degs), max(d - nd[0] for d in degs) + 1)


def ungraded_ext_dim(m: mo.GradedModule, n: mo.GradedModule, i: int) -> int:
    """Ext over the ungraded algebra, with the graded row-sum self-test."""
    alg = m.algebra
    ualg = alg.forget_grading()

    def forget(mod):
        dims = {}
        for (v, d), k in mod.dims.items():
            dims[(v, 0)] = dims.get((v, 0), 0) + k
        # block offsets per vertex
        offs = {}
        acc = {}
        for (v, d) in mod.blocks():
            offs[(v, d)] = acc.get(v, 0)
            acc[v] = acc.get(v, 0) + mod.dims[(v, d)]
        action = {}
        for x in range(alg.num_vertices, alg.dim):
            sv, tv = alg.source[x], alg.target[x]
            dx = alg.degree[x]
            tot_s = dims.get((sv, 0), 0)
            tot_t = dims.get((tv, 0), 0)
            if not tot_s or not tot_t:
                continue
            mat = assemble(tot_t, tot_s, [
                (mod.act(x, d), offs[(tv, d + dx)], offs[(v, d)])
                for (v, d) in mod.blocks() if v == sv and (tv, d + dx) in offs])
            if not mat.is_zero():
                action[x] = {0: mat}
        return mo.GradedModule(ualg, dims, action, name=mod.name + "_u")

    mu, nu = forget(m), forget(n)
    ures = MinimalResolution(mu)
    udim = ext_group(ures, nu, i, 0).dim
    # graded side
    gres = MinimalResolution(m)
    gres.extend(i + 1)
    total = 0
    for j in hom_window(gres, n, i):
        total += ext_group(gres, n, i, j).dim
    if total != udim:
        raise InternalCheckError(
            f"graded/ungraded Ext mismatch at i={i}: {total} vs {udim}"
        )
    return udim


# ---------------------------------------------------------------------------
# chain lifting and Yoneda products
# ---------------------------------------------------------------------------

class CocycleLift:
    """Chain maps g_m: P(src)_{p+m} -> P(tgt)_m lifting a cocycle.

    The cocycle lives in Ext^p(source module, target module <q>); values are
    stored in unshifted coordinates so the lift solves in plain modules.
    """

    def __init__(self, src_res: MinimalResolution, tgt_res: MinimalResolution,
                 p: int, values):
        self.src_res = src_res
        self.tgt_res = tgt_res
        self.p = p
        self.values = values
        self.stages = []  # stages[m] = columns of g_m

    def ensure(self, m_max: int):
        # stage m reads the source's P_{p+m} and d_{p+m}, and the target's
        # P_m, P_{m-1} and d_m
        alg = self.src_res.module.algebra
        self.src_res.extend(self.p + m_max)
        self.tgt_res.extend(m_max)
        while len(self.stages) <= m_max:
            m = len(self.stages)
            # every generator of the source term is lifted in one solve
            rank = self.src_res.terms[self.p + m].rank
            if m == 0:
                pres = mo.solve_preimages(self.tgt_res.eps, self.values[:rank])
                if pres is None:
                    raise InternalCheckError("cocycle value misses augmentation")
            else:
                rhs_cols = compose_formal(alg, self.stages[m - 1],
                                          self.src_res.diff_cols[self.p + m - 1])
                prev_tgt_fp = self.tgt_res.terms[m - 1]
                pres = mo.solve_preimages(self.tgt_res.diff_homs[m], [
                    prev_tgt_fp.formal_to_element(col) for col in rhs_cols[:rank]])
                if pres is None:
                    raise InternalCheckError("chain lifting failed (not a cycle)")
            self.stages.append([self.tgt_res.terms[m].element_to_formal(pre)
                                for pre in pres])
        return self


def yoneda_product(value_module: mo.GradedModule,
                   f_p: int, f_values,
                   g_lift: CocycleLift):
    """Values of the product cocycle (f composed after the translated g).

    f is a cocycle at homological degree f_p over g_lift's target
    resolution, with values in value_module; the result is a cocycle over
    g_lift.src_res at degree f_p + g_lift.p with values in value_module.
    """
    g_lift.ensure(f_p)
    cols = g_lift.stages[f_p]
    out = []
    for col in cols:
        acc = {}
        for lam, val in zip(col, f_values):
            if lam and val:
                for key, vec in value_module.apply_element(val, lam).items():
                    _axpy(acc.setdefault(key, {}), -1, vec)
        out.append({k: v for k, v in acc.items() if v})
    return out


# ---------------------------------------------------------------------------
# global dimension and tilting modules
# ---------------------------------------------------------------------------

class GldimResult:
    def __init__(self, value: int | None, exceeded: bool, bound: int):
        self.value = value        # exact value when determined, else None
        self.exceeded = exceeded  # True when all we know is gldim >= bound + 1
        self.bound = bound

    def __str__(self):
        if self.exceeded:
            return f">= {self.bound + 1}"
        return str(self.value)

    def le(self, n: int) -> bool | None:
        if not self.exceeded:
            return self.value <= n
        return None if self.bound < n else False


def gldim_upto(a0: GradedAlgebra, bound: int) -> GldimResult:
    """Global dimension via minimal resolutions of the simple modules."""
    worst = 0
    for v in a0.vertices:
        pd, _res = projective_dimension_upto(mo.simple_module(a0, v, 0), bound)
        if pd is None:
            return GldimResult(None, True, bound)
        worst = max(worst, pd)
    return GldimResult(worst, False, bound)


def projective_dimension_upto(m: mo.GradedModule, bound: int):
    res = MinimalResolution(m)
    res.extend(bound + 1)
    for i in range(len(res.terms)):
        if res.terms[i].rank == 0:
            return i - 1, res
    if res.syzygies[-1].is_zero():
        return len(res.terms) - 1, res
    return None, res


class TiltingReport:
    def __init__(self, is_tilting: bool, pd: int | None = None,
                 coresolution_mults: list = None, reason: str = "",
                 probabilistic: bool = False, inconclusive: bool = False):
        self.is_tilting = is_tilting
        self.pd = pd
        self.coresolution_mults = coresolution_mults
        self.reason = reason
        self.probabilistic = probabilistic
        self.inconclusive = inconclusive


def decompose_in_add(m: mo.GradedModule, summands, rng=None):
    """Multiplicities c_i with m isomorphic to sum of summands^{c_i}, or None.

    Candidate multiplicities come from graded dimension vectors, the
    certificate is an explicit isomorphism.
    """
    if m.is_zero():
        return [0] * len(summands)
    keys = sorted({k for s in summands for k in s.dims}
                  | set(m.dims), key=lambda vd: (vd[1], str(vd[0])))

    def dims(x):
        return {r: d for r, d in enumerate(x.block_dim(*k) for k in keys) if d}

    sols = solve_columns([dims(s) for s in summands], [dims(m)])
    if sols is None:
        return None
    mults = []
    for c in range(len(summands)):
        x = sols[0].get(c, 0)
        if x.denominator != 1 or x < 0:
            return None
        mults.append(int(x))
    parts = []
    for c, s in zip(mults, summands):
        parts.extend([s] * c)
    if not parts:
        return None
    total = mo.DirectSum(m.algebra, parts)
    verdict = mo.is_isomorphic(m, total, rng=rng)
    if verdict.isomorphic:
        return mults
    return None


def tilting_module_check(a0: GradedAlgebra, summands, pd_cap: int = 16,
                         rng=None) -> TiltingReport:
    """Tilting test for T = direct sum of the given indecomposable summands.

    Checks finite projective dimension, Ext-vanishing, and builds the
    coresolution of the regular module in add T greedily.
    """
    if not a0.is_concentrated_degree_zero():
        raise InputError("tilting check expects an algebra in degree 0")
    T = mo.DirectSum(a0, summands)
    pd, res = projective_dimension_upto(T, pd_cap)
    if pd is None:
        return TiltingReport(False, inconclusive=True,
                             reason=f"projective dimension exceeds cap {pd_cap}")
    for i in range(1, pd + 1):
        if ext_group(res, T, i, 0).dim:
            return TiltingReport(False, pd=pd, reason=f"Ext^{i}(T,T) nonzero")
    # coresolution 0 -> A -> T^0 -> ... -> T^l -> 0
    current = mo.regular_module(a0)
    mults = []
    cap = pd + a0.dim + 1
    step = 0
    while True:
        found = decompose_in_add(current, list(summands), rng=rng)
        if found is not None:
            mults.append(found)
            break
        if step > cap:
            return TiltingReport(False, pd=pd, inconclusive=True,
                                 reason=f"coresolution cap {cap} exceeded")
        homs = mo.hom_space(current, T)
        if not homs:
            return TiltingReport(False, pd=pd,
                                 reason="no maps into add T; regular module "
                                        "does not embed")
        total = mo.DirectSum(a0, [T] * len(homs))
        univ = mo.place(current, total,
                        [(h, {}, off) for h, off in zip(homs, total.offsets)])
        if not univ.is_injective():
            return TiltingReport(False, pd=pd,
                                 reason="universal map into add T not injective")
        mults.append(len(homs))
        current, _ = mo.cokernel(univ)
        step += 1
    return TiltingReport(True, pd=pd, coresolution_mults=mults)
