"""Higher Koszulity checkers.

Everything here certifies bounded statements: each "for all i" condition is
scanned over an explicit window recorded in the report. Generation of thick
subcategories is never re-verified computationally; reports carry this as a
standing assumption.
"""

from __future__ import annotations

import math

from .linalg import Matrix
from .algebra import (GradedAlgebra, InputError, InternalCheckError,
                      degree_zero_part)
from .frobenius import GradedAlgebraMorphism, frobenius_analysis
from . import modules as mo
from . import resolution as rs
from . import truncated as tr


GENERATION_ASSUMPTION = (
    "generation of the stable category as a thick subcategory is assumed "
    "from the theory, not re-verified"
)
COHERENCE_ASSUMPTION = (
    "graded right coherence and finite global dimension of the dual are "
    "assumptions, recorded but not decided"
)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class KoszulReport:
    def __init__(self, verdict: str, window: dict | None = None,
                 counterexample: tuple | None = None, probabilistic: bool = False,
                 citations: list | None = None, details: dict | None = None):
        self.verdict = verdict              # "pass" / "fail" / "inconclusive"
        self.window = {} if window is None else window
        self.counterexample = counterexample  # (i, j, dim)
        self.probabilistic = probabilistic
        self.citations = [] if citations is None else citations
        self.details = {} if details is None else details

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def as_dict(self, params=None):
        out = {
            "verdict": self.verdict,
            "bounds": self.window,
            "params": params,
            "counterexample": self.counterexample,
            "probabilistic": self.probabilistic,
            "citations": list(self.citations),
            "details": {k: str(v) for k, v in self.details.items()},
        }
        return out


class AlmostParams:
    def __init__(self, l: list, g: list, m: list, sigma: list, pi: list,
                 mu_perm: list, a: int, n: int, sigma_R: dict | None = None,
                 m_table: dict | None = None, sigma_L: dict | None = None):
        self.l = l
        self.g = g
        self.m = m
        self.sigma = sigma
        self.pi = pi                    # pi[i] = image summand index (0-based)
        self.mu_perm = mu_perm
        self.a = a
        self.n = n
        self.sigma_R = {} if sigma_R is None else sigma_R  # (i, j) -> value
        self.m_table = {} if m_table is None else m_table  # (i, j) -> m_{i,j}
        self.sigma_L = {} if sigma_L is None else sigma_L  # (i, j) -> summand index

    def as_dict(self):
        return {"m": list(self.m), "sigma": list(self.sigma),
                "l": list(self.l), "g": list(self.g), "pi": list(self.pi)}

    def check_invariants(self):
        t = len(self.l)
        a, n = self.a, self.n
        for i in range(t):
            if self.l[i] != n * a * self.m[i] - n * self.sigma[i] + 1:
                raise InternalCheckError("l_i formula fails")
            if self.g[i] != a * (self.m[i] + 1) - self.sigma[i]:
                raise InternalCheckError("g_i formula fails")
            if self.g[i] < a:
                raise InternalCheckError("g_i >= a fails")
            if self.m[i] == 0 and self.sigma[i] != 0:
                raise InternalCheckError("m_i = 0 forces sigma_i = 0")
        mu, pi = self.mu_perm, self.pi
        for i in range(t):
            if pi[mu[i]] != mu[pi[i]]:
                raise InternalCheckError("pi and mu do not commute")
            if self.l[mu[i]] != self.l[i] or self.g[mu[i]] != self.g[i]:
                raise InternalCheckError("l, g not mu-invariant")
        return True


# ---------------------------------------------------------------------------
# degree-0 part and summand validation
# ---------------------------------------------------------------------------

def restrict_to_degree_zero_part(m: mo.GradedModule, a0: GradedAlgebra):
    """A graded module concentrated in degree 0 as a module over Lambda_0."""
    big = m.algebra
    action = {}
    for x, per in m.action.items():
        lab = big.labels[x]
        if lab in a0.index_of:
            action[a0.index_of[lab]] = dict(per)
        elif any(not mat.is_zero() for mat in per.values()):
            raise InputError("module not defined over the degree-0 part")
    return mo.GradedModule(a0, dict(m.dims), action, name=m.name)


def validate_basic(summands, rng=None):
    """Each summand indecomposable, pairwise non-isomorphic."""
    flags = []
    for i, m in enumerate(summands):
        ok, ne, head = mo.is_indecomposable(m)
        if not ok:
            raise InputError(
                f"summand {i} is not indecomposable over the rationals "
                f"(End dim {ne}, semisimple quotient dim {head})"
            )
    for i in range(len(summands)):
        for j in range(i + 1, len(summands)):
            v = mo.is_isomorphic(summands[i], summands[j], rng=rng)
            if v.isomorphic:
                raise InputError(f"summands {i} and {j} are isomorphic; T not basic")
            if v.isomorphic is None:
                flags.append(f"non-isomorphy of summands {i},{j} is probabilistic")
    return flags


# ---------------------------------------------------------------------------
# graded n-self-orthogonality and n-T-Koszulity
# ---------------------------------------------------------------------------

def check_self_orthogonal(alg: GradedAlgebra, summands, n: int, i_max: int,
                          a: int | None = None, rng=None) -> KoszulReport:
    """Ext^i(T, T<j>) must vanish off the line i = n j, scanned over the
    stated window."""
    if a is None:
        a = alg.highest_degree()
    flags = validate_basic(summands, rng=rng)
    js = range(-(-i_max // n) - a - 1, (-(-i_max // n)) + a + 1)
    resolutions = [rs.MinimalResolution(m) for m in summands]
    for res in resolutions:
        res.extend(i_max + 1)
    for i in range(i_max + 1):
        for j in js:
            if i == n * j:
                continue
            dim = 0
            for res in resolutions:
                for m2 in summands:
                    dim += rs.ext_group(res, m2, i, j).dim
            if dim:
                return KoszulReport(
                    "fail",
                    window={"i_max": i_max, "j_min": js.start, "j_max": js.stop - 1},
                    counterexample=(i, j, dim),
                    probabilistic=bool(flags),
                    citations=[GENERATION_ASSUMPTION],
                )
    return KoszulReport(
        "pass",
        window={"i_max": i_max, "j_min": js.start, "j_max": js.stop - 1},
        probabilistic=bool(flags),
        citations=[GENERATION_ASSUMPTION],
    )


def check_n_T_koszul(alg: GradedAlgebra, summands, n: int, i_max: int,
                     gldim_bound: int = 12, rng=None) -> KoszulReport:
    """Tilting over the degree-0 part plus graded n-self-orthogonality."""
    a0 = degree_zero_part(alg)
    gl = rs.gldim_upto(a0, gldim_bound)
    if gl.exceeded:
        return KoszulReport("inconclusive",
                            window={"gldim_bound": gldim_bound},
                            details={"reason": "gldim bound exceeded"})
    t_parts = [restrict_to_degree_zero_part(m, a0) for m in summands]
    tilt = rs.tilting_module_check(a0, t_parts, rng=rng)
    if tilt.inconclusive:
        return KoszulReport("inconclusive",
                            details={"reason": tilt.reason})
    if not tilt.is_tilting:
        return KoszulReport("fail",
                            counterexample=None,
                            details={"reason": f"T is not tilting: {tilt.reason}"},
                            citations=[GENERATION_ASSUMPTION])
    so = check_self_orthogonal(alg, summands, n, i_max, rng=rng)
    so.details["tilting"] = f"pd {tilt.pd}"
    so.details["gldim0"] = str(gl)
    return so


# ---------------------------------------------------------------------------
# T-tilde, rigidity and the stable endomorphism algebra
# ---------------------------------------------------------------------------

def omega(record, k: int) -> mo.GradedModule:
    """Omega^k M read off a `rs.MinimalResolution` of M, or Omega^{-k} M off
    a `rs.MinimalCoresolution` of M.

    Over a self-injective algebra no minimal (co)syzygy has a projective
    summand; each step the read builds is checked once.
    """
    if isinstance(record, rs.MinimalResolution):
        built, read = record.syzygies, record.syzygy
        trap = "syzygy of a minimal cover has a projective summand"
    else:
        built, read = record.cosyzygies, record.cosyzygy
        trap = "cosyzygy of a minimal envelope has a projective summand"
    start = len(built)
    out = read(k)
    for m in built[start:]:
        if mo.find_projective_summand(m) is not None:
            raise InternalCheckError(trap)
    return out


class TTilde:
    def __init__(self, parts: list, tags: list, chains: list, n: int, a: int):
        self.parts = parts        # modules X^{(s,i)} = Omega^{-n i} T^s <i>
        self.tags = tags          # (s, i)
        self.chains = chains      # rs.MinimalCoresolution per summand
        self.n = n
        self.a = a


def build_t_tilde(alg: GradedAlgebra, summands, n: int, a: int) -> TTilde:
    chains = [rs.MinimalCoresolution(m) for m in summands]
    parts, tags = [], []
    for i in range(a):
        for s, chain in enumerate(chains):
            x = omega(chain, n * i)
            parts.append(mo.shift_module(x, i))
            tags.append((s, i))
    return TTilde(parts, tags, chains, n, a)


def _tilde_translate(tilde: TTilde, syz_res, s, i, e, extra_shift):
    """Omega^{-e} applied to chain summand s, shifted by i + extra_shift."""
    m = omega(tilde.chains[s], e) if e >= 0 else omega(syz_res[s], -e)
    return mo.shift_module(m, i + extra_shift)


def rigidity_check(alg: GradedAlgebra, tilde: TTilde, l_bound: int | None = None
                   ) -> KoszulReport:
    """stable Hom(T~, Omega^{-l} T~) = 0 for 0 < |l| <= bound."""
    n, a = tilde.n, tilde.a
    if l_bound is None:
        l_bound = 2 * n * a + 2
    syz_res = [rs.MinimalResolution(c.module) for c in tilde.chains]
    for l in range(1, l_bound + 1):
        for sign in (+1, -1):
            ll = sign * l
            total = 0
            witness = None
            for (s2, i2), src in zip(tilde.tags, tilde.parts):
                for (s, i) in tilde.tags:
                    e = n * i + ll
                    tgt = _tilde_translate(tilde, syz_res, s, i, e, 0)
                    if tgt.is_zero() or src.is_zero():
                        continue
                    d = mo.stable_hom(src, tgt)[0]
                    total += d
                    if d and witness is None:
                        witness = ((s2, i2), (s, i))
            if total:
                return KoszulReport(
                    "fail", window={"l_bound": l_bound},
                    counterexample=(ll, witness, total),
                    citations=[GENERATION_ASSUMPTION],
                )
    return KoszulReport("pass", window={"l_bound": l_bound},
                        citations=[GENERATION_ASSUMPTION])


class StableEndData:
    def __init__(self, algebra: GradedAlgebra, reps: dict, tilde: TTilde,
                 index: dict, gamma: dict | None = None):
        self.algebra = algebra
        self.reps = reps          # (a_tag_idx, b_tag_idx) -> list of hom reps
        self.tilde = tilde
        self.index = index        # (a_tag_idx, b_tag_idx, rep) -> basis index of B
        self.gamma = gamma        # basis index -> (degree, coords) in the dual


def stable_endomorphism_algebra(alg: GradedAlgebra, tilde: TTilde,
                                dual=None) -> StableEndData:
    """B = stable End(T~) as a degree-0 algebra with block bookkeeping.

    When `dual` (a tr.DualData for the same summands and n) is supplied, the
    block dimensions are asserted against the dual components: the block
    Hom(X^{(s,j)}, X^{(s',i)}) must have the dimension of the (s, s') part
    of the dual in degree i - j, and zero for i < j.
    """
    parts, tags = tilde.parts, tilde.tags
    t = len(parts)
    reps = {}
    reducers = {}
    for b_i in range(t):
        for a_i in range(t):
            prefer = [mo.identity_hom(parts[a_i])] if a_i == b_i else None
            qdim, rp, red = mo.stable_hom(parts[b_i], parts[a_i], prefer=prefer)
            reps[(a_i, b_i)] = rp
            reducers[(a_i, b_i)] = red
            if dual is not None:
                (s, j) = tags[b_i]
                (s2, i) = tags[a_i]
                expected = 0
                if i >= j:
                    eg = dual.groups.get((s, s2, i - j))
                    expected = eg.dim if eg is not None else 0
                if qdim != expected:
                    raise InternalCheckError(
                        f"stable endomorphism block {(tags[a_i], tags[b_i])} has "
                        f"dimension {qdim}, the triangular block structure predicts {expected}"
                    )
    labels = []
    source, target = [], []
    index = {}
    for a_i in range(t):
        index[(a_i, a_i, 0)] = len(labels)
        labels.append(f"e{tags[a_i]}")
        source.append(tags[a_i])
        target.append(tags[a_i])
    for a_i in range(t):
        for b_i in range(t):
            rp = reps[(a_i, b_i)]
            start = 1 if a_i == b_i else 0
            for c in range(start, len(rp)):
                index[(a_i, b_i, c)] = len(labels)
                labels.append(f"f{tags[a_i]}<-{tags[b_i]}#{c}")
                source.append(tags[a_i])
                target.append(tags[b_i])
    table = {}
    for (a1, b1, c1), i1 in index.items():
        f = reps[(a1, b1)][c1]
        for (a2, b2, c2), i2 in index.items():
            if b1 != a2:
                continue
            g = reps[(a2, b2)][c2]
            comp = f.compose(g)
            coords = reducers[(a1, b2)](comp)
            entry = {}
            for c, coeff in enumerate(coords):
                if coeff:
                    entry[index[(a1, b2, c)]] = coeff
            if entry:
                table[(i1, i2)] = entry
    B = GradedAlgebra(
        name=f"B({alg.name})",
        num_vertices=t,
        labels=labels,
        source=source,
        target=target,
        degree=[0] * len(labels),
        table=table,
        vertices=list(tags),
    )
    B.validate()
    return StableEndData(B, reps, tilde, index)


# ---------------------------------------------------------------------------
# stable-hom to Ext translation (for block identification and mu-bar)
# ---------------------------------------------------------------------------

def stable_to_ext(res: rs.MinimalResolution, chain: rs.MinimalCoresolution,
                  k: int, q: int, v: mo.GradedModuleHom):
    """Cocycle values of the Ext^k class of g: M -> Omega^{-k} N <q>.

    v is g o res.eps: P_0 -> shift(omega(chain, k), q), all of g the
    translation reads.
    """
    def unshift(vals):
        return [{(v, d - q): vec for (v, d), vec in val.items()}
                for val in vals]

    if k == 0:
        return unshift([v.apply(res.terms[0].generator_element(t))
                        for t in range(res.terms[0].rank)])
    omega(chain, k)   # builds and checks the envelopes up to C_k
    res.extend(k + 1)
    for r in range(k, 0, -1):
        # the shifted envelope of C_{r-1} and its cokernel C_r
        I_q = mo.shift_module(chain.terms[r - 1], q)
        Cr_q = mo.shift_module(chain.cosyzygies[r], q)
        Cprev_q = mo.shift_module(chain.cosyzygies[r - 1], q)
        proj_q = mo.shift_hom(chain.projs[r - 1], q, dom=I_q, cod=Cr_q)
        mono_q = mo.shift_hom(chain.monos[r - 1], q, dom=Cprev_q, cod=I_q)
        # rebind v's codomain to the canonical shifted module
        v = mo.GradedModuleHom(v.domain, Cr_q, dict(v.blocks))
        u = mo.solve_hom_factorization(proj_q, v)
        if u is None:
            raise InternalCheckError("projective lift through envelope failed")
        t = k - r
        d = res.diff_homs[t + 1]
        w = u.compose(d)
        v = mo.post_invert_mono(mono_q, w)
        v = mo.GradedModuleHom(v.domain, Cprev_q, dict(v.blocks))
    term = res.terms[k]
    return unshift([v.apply(term.generator_element(tt))
                    for tt in range(term.rank)])


def gamma_block_map(bdata: StableEndData, dual: tr.DualData, rng=None):
    """Coordinates in the dual of every basis element of B.

    For f: X^{(s,j)} -> X^{(s',i)}, gamma(f) is the Ext class of the
    syzygy translate Omega^{n j}(f)<-j>, computed with certified
    isomorphisms aligning translated modules with the stored chains.
    Omega^{n j}(f) is read off stage n j of a chain map lifting f through
    two minimal resolutions; its Ext class does not depend on the lift.
    """
    tilde = bdata.tilde
    n = tilde.n
    gamma = {}
    syz_cache = {}

    def resolution_of(mod, key):
        if key not in syz_cache:
            syz_cache[key] = rs.MinimalResolution(mod)
        return syz_cache[key]

    for (a1, b1, c1), idx in bdata.index.items():
        f = bdata.reps[(a1, b1)][c1]
        (s, j) = tilde.tags[b1]
        (s2, i) = tilde.tags[a1]
        if i < j:
            raise InternalCheckError("nonzero block below the diagonal")
        k, nj = n * (i - j), n * j
        # unshift by j on both sides
        dom0 = omega(tilde.chains[s], nj)
        cod0 = mo.shift_module(omega(tilde.chains[s2], n * i), i - j)
        f0 = mo.GradedModuleHom(dom0, cod0,
                                {(v, d - j): m for (v, d), m in f.blocks.items()})
        res = dual.resolutions[s]
        if nj == 0:
            v = f0.compose(res.eps)
        else:
            src_res = resolution_of(dom0, ("dom", s, j))
            tgt_res = resolution_of(cod0, ("cod", s2, i, j))
            dom_fin, cod_fin = omega(src_res, nj), omega(tgt_res, nj)
            # align domain with T^s and codomain with the stored chain module
            om = mo.is_isomorphic(dom_fin, tilde.chains[s].module, rng=rng)
            if not om.isomorphic:
                raise InternalCheckError(
                    "syzygy-of-cosyzygy is not isomorphic to the module"
                )
            target = mo.shift_module(omega(tilde.chains[s2], k), i - j)
            om2 = mo.is_isomorphic(cod_fin, target, rng=rng)
            if not om2.isomorphic:
                raise InternalCheckError(
                    "syzygy translate misses the stored cosyzygy"
                )
            # Omega^{nj}(f0) o src cover = tgt cover o u, u the lift at nj
            p0 = src_res.terms[0]
            lift = rs.CocycleLift(src_res, tgt_res, 0, [
                f0.apply(src_res.eps.apply(p0.generator_element(t)))
                for t in range(p0.rank)]).ensure(nj)
            u = rs.formal_explicit_hom(src_res.terms[nj], tgt_res.terms[nj],
                                       lift.stages[nj])
            w = mo.solve_hom_factorization(src_res.cover(nj),
                                           om.certificate.inverse().compose(res.eps))
            if w is None:
                raise InternalCheckError("cover lifting failed")
            v = om2.certificate.compose(tgt_res.cover(nj)).compose(u).compose(w)
        vals = stable_to_ext(res, tilde.chains[s2], k, i - j, v)
        eg = dual.groups[(s, s2, i - j)]
        coords = eg.reduce(rs.values_to_vec(eg, vals))
        gamma[idx] = ((i - j, s, s2), coords)
    bdata.gamma = gamma
    return gamma


# ---------------------------------------------------------------------------
# mu permutation of summands
# ---------------------------------------------------------------------------

class MuPermutation:
    def __init__(self, perm: list, certificates: list, identity: bool):
        self.perm = perm                  # 0-based images
        self.certificates = certificates  # iso twist(T^s, mu) -> T^{perm(s)}
        self.identity = identity


def mu_permutation(summands, mu: GradedAlgebraMorphism, rng=None) -> MuPermutation:
    if mu.is_identity():
        return MuPermutation(list(range(len(summands))),
                             [mo.identity_hom(m) for m in summands], True)
    perm = []
    certs = []
    for s, m in enumerate(summands):
        tw = mo.twist_module(m, mu)
        hit = None
        for s2, m2 in enumerate(summands):
            v = mo.is_isomorphic(tw, m2, rng=rng)
            if v.isomorphic:
                hit = (s2, v.certificate)
                break
        if hit is None:
            raise InputError(
                f"twist of summand {s} by the Nakayama automorphism is not "
                "isomorphic to any summand; standing assumption violated"
            )
        perm.append(hit[0])
        certs.append(hit[1])
    if sorted(perm) != list(range(len(summands))):
        raise InputError("Nakayama twist does not permute the summands")
    return MuPermutation(perm, certs, False)


# ---------------------------------------------------------------------------
# classic almost-Koszul detection
# ---------------------------------------------------------------------------

class ClassicAlmostReport:
    def __init__(self, verdict: str, g: int | None = None, l: int | None = None,
                 bound: int = 0):
        self.verdict = verdict    # "almost", "koszul", "none", "inapplicable"
        self.g = g
        self.l = l
        self.bound = bound


def check_classic_almost_koszul(alg: GradedAlgebra, bound: int = 12
                                ) -> ClassicAlmostReport:
    a0 = degree_zero_part(alg)
    if a0.radical_degree_zero():
        return ClassicAlmostReport("inapplicable")
    g = alg.highest_degree()
    parts = [mo.simple_module(alg, v, 0) for v in alg.vertices]
    m0 = mo.DirectSum(alg, parts)
    res = rs.MinimalResolution(m0)
    res.extend(bound + 1)
    for r in range(1, bound + 1):
        degs = set(res.generator_degrees(r))
        if not degs:
            return ClassicAlmostReport("none", bound=bound)
        if degs == {r}:
            continue
        l = r - 1
        if l < 1 or degs != {g + l}:
            return ClassicAlmostReport("none", bound=bound)
        syz = res.syzygies[r]
        if syz.concentrated_degree() != g + l:
            return ClassicAlmostReport("none", bound=bound)
        rad = mo.radical_span(syz)
        if any(vec for vecs in rad.values() for vec in vecs):
            return ClassicAlmostReport("none", bound=bound)
        return ClassicAlmostReport("almost", g=g, l=l, bound=bound)
    return ClassicAlmostReport("koszul", g=g, l=None, bound=bound)


# ---------------------------------------------------------------------------
# almost graded n-self-orthogonality and (n, m_i, sigma_i)
# ---------------------------------------------------------------------------

class AlmostReport:
    def __init__(self, verdict: str, l: list = None, g: list = None,
                 targets: list = None, counterexample: tuple | None = None,
                 probabilistic: bool = False, anomalies: list | None = None,
                 window: dict | None = None):
        self.verdict = verdict
        self.l = l
        self.g = g
        self.targets = targets
        self.counterexample = counterexample
        self.probabilistic = probabilistic
        self.anomalies = [] if anomalies is None else anomalies
        self.window = {} if window is None else window


def check_almost_self_orthogonal(alg: GradedAlgebra, summands, n: int,
                                 l_max: int = 16, rng=None) -> AlmostReport:
    """Find (l_i, g_i) with Omega^{-l_i} T^i = T' <-g_i> and verify the
    vanishing below l_i."""
    flags = validate_basic(summands, rng=rng)
    chains = [rs.MinimalCoresolution(m) for m in summands]
    ls, gs, targets = [], [], []
    anomalies = []
    probabilistic = bool(flags)
    for s, chain in enumerate(chains):
        hit = None
        for k in range(1, l_max + 1):
            c = omega(chain, k)
            d0 = c.concentrated_degree()
            if d0 is None:
                continue
            for s2, m2 in enumerate(summands):
                cand = mo.shift_module(m2, d0)
                if cand.dims != c.dims:
                    continue
                v = mo.is_isomorphic(c, cand, rng=rng)
                if v.isomorphic:
                    if d0 >= 0:
                        anomalies.append((s, k, d0, s2))
                        continue
                    hit = (k, -d0, s2)
                    break
                if v.isomorphic is None:
                    probabilistic = True
            if hit:
                break
        if hit is None:
            return AlmostReport("inconclusive", window={"l_max": l_max},
                                anomalies=anomalies,
                                probabilistic=probabilistic)
        ls.append(hit[0])
        gs.append(hit[1])
        targets.append(hit[2])
    # vanishing: Ext^j(T, T^s<k>) = 0 for j != nk, j < l_s
    resolutions = [rs.MinimalResolution(m) for m in summands]
    for res in resolutions:
        res.extend(max(ls) + 1)
    for s in range(len(summands)):
        for j in range(1, ls[s]):
            for res in resolutions:
                for k in rs.hom_window(res, summands[s], j):
                    if j == n * k:
                        continue
                    if rs.ext_group(res, summands[s], j, k).dim:
                        return AlmostReport(
                            "fail", l=ls, g=gs, targets=targets,
                            counterexample=(j, k, s),
                            probabilistic=probabilistic,
                            anomalies=anomalies,
                            window={"l_max": l_max},
                        )
    return AlmostReport("pass", l=ls, g=gs, targets=targets,
                        probabilistic=probabilistic, anomalies=anomalies,
                        window={"l_max": l_max})


def check_n_m_sigma_koszul(alg: GradedAlgebra, summands, n: int,
                           mu_data: MuPermutation | None = None,
                           a: int | None = None, l_max: int = 16,
                           gldim_bound: int = 12, rng=None):
    """Solve (m_i, sigma_i) from (l_i, g_i), check minimality, assemble pi.

    Returns (AlmostParams or None, AlmostReport, KoszulReport-for-tilting).
    """
    if a is None:
        a = alg.highest_degree()
    a0 = degree_zero_part(alg)
    gl = rs.gldim_upto(a0, gldim_bound)
    if gl.exceeded:
        return None, AlmostReport("inconclusive",
                                  window={"gldim_bound": gldim_bound}), None
    t_parts = [restrict_to_degree_zero_part(m, a0) for m in summands]
    tilt = rs.tilting_module_check(a0, t_parts, rng=rng)
    if not tilt.is_tilting:
        return None, AlmostReport(
            "fail", counterexample=None,
            anomalies=[f"T not tilting over the degree-0 part: {tilt.reason}"],
        ), tilt
    almost = check_almost_self_orthogonal(alg, summands, n, l_max=l_max, rng=rng)
    if almost.verdict != "pass":
        return None, almost, tilt
    t = len(summands)
    ms, sigmas = [], []
    for s in range(t):
        l_i, g_i = almost.l[s], almost.g[s]
        if (l_i - 1) % n != 0 or (l_i - 1) // n != g_i - a:
            almost.anomalies.append(
                f"summand {s}: (l, g) = ({l_i}, {g_i}) admits no (m, sigma)"
            )
            return None, almost, tilt
        qv = g_i - a
        m_i = -(-qv // a) if a > 0 else 0
        sigma_i = a * m_i - qv
        if not (0 <= sigma_i <= a - 1) or m_i < 0:
            almost.anomalies.append(
                f"summand {s}: no integer solution in range for ({l_i}, {g_i})"
            )
            return None, almost, tilt
        ms.append(m_i)
        sigmas.append(sigma_i)
    # minimality: no 0 < nk < l_i with Omega^{-nk} T^i = T'<-k>
    chains = [rs.MinimalCoresolution(m) for m in summands]
    for s in range(t):
        for k in range(1, (almost.l[s] - 1) // n + 1):
            if n * k >= almost.l[s]:
                break
            c = omega(chains[s], n * k)
            if c.concentrated_degree() == -k:
                for m2 in summands:
                    v = mo.is_isomorphic(c, mo.shift_module(m2, -k), rng=rng)
                    if v.isomorphic:
                        almost.anomalies.append(
                            f"summand {s}: minimality fails at k = {k}"
                        )
                        return None, almost, tilt
    if mu_data is None:
        fr = frobenius_analysis(alg, rng=rng)
        if not fr.is_frobenius:
            raise InputError("algebra is not graded Frobenius")
        mu_data = mu_permutation(summands, fr.mu, rng=rng)
    params = AlmostParams(
        l=list(almost.l), g=list(almost.g), m=ms, sigma=sigmas,
        pi=list(almost.targets), mu_perm=list(mu_data.perm), a=a, n=n,
    )
    params.check_invariants()
    # derived tables
    mu_perm = params.mu_perm

    def mu_power_inv(idx, p):
        inv = [0] * t
        for x, y in enumerate(mu_perm):
            inv[y] = x
        for _ in range(p % _perm_order(mu_perm)):
            idx = inv[idx]
        return idx

    for i in range(t):
        for jj in range(a):
            sr = params.sigma[i] + jj
            if sr <= a - 1:
                params.sigma_R[(i, jj)] = sr
            else:
                params.sigma_R[(i, jj)] = sr - a
            if jj <= params.sigma_R[(i, jj)]:
                params.m_table[(i, jj)] = params.m[i]
            else:
                params.m_table[(i, jj)] = params.m[i] - 1
            params.sigma_L[(i, jj)] = mu_power_inv(params.pi[i],
                                                   params.m_table[(i, jj)] + 1)
    return params, almost, tilt


def _perm_order(perm):
    t = len(perm)
    order = 1
    seen = [False] * t
    for start in range(t):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        order = math.lcm(order, length)
    return order


# ---------------------------------------------------------------------------
# mu-bar on the dual
# ---------------------------------------------------------------------------

class TwistedResolution:
    """The Nakayama twist of a minimal resolution, relabeled honestly.

    (e_v L)_mu is isomorphic to e_{w} L for mu(e_w) = e_v via q -> mu(q);
    applying this identification to every term gives an honest formal
    resolution of the twisted module with entries mu^{-1}(lambda).
    """

    def __init__(self, res: rs.MinimalResolution, mu: GradedAlgebraMorphism):
        alg = res.module.algebra
        self.module = mo.twist_module(res.module, mu)
        vperm = mu.vertex_permutation()
        inv_vperm = {w: v for v, w in vperm.items()}
        mu_inv = mu.inverse()
        self.terms = []
        self.diff_cols = []
        self.diff_homs = [None]
        for i, fp in enumerate(res.terms):
            gens = [(inv_vperm[v], d) for (v, d) in fp.gens]
            self.terms.append(mo.FormalProjective(alg, gens))
        for i in range(1, len(res.terms)):
            cols = []
            for col in res.diff_cols[i - 1]:
                cols.append([mu_inv.apply(lam) for lam in col])
            self.diff_cols.append(cols)
            self.diff_homs.append(rs.formal_explicit_hom(
                self.terms[i], self.terms[i - 1], cols))
        # augmentation: gen'_k -> rekey(eps(gen_k)); the twisted action makes
        # gen'_k . b go to rekey(eps(gen_k . mu(b)))
        if res.terms:
            fp0 = res.terms[0]
            tfp0 = self.terms[0]
            pieces = []
            for k, (part, off) in enumerate(zip(tfp0.parts, tfp0.offsets)):
                img = res.eps.apply(fp0.generator_element(k))
                elem = {(inv_vperm[v], d): vec for (v, d), vec in img.items()}
                pieces.append((mo.map_from_projective(part, self.module, elem), off, {}))
            self.eps = mo.place(tfp0, self.module, pieces)
        else:
            self.eps = mo.zero_hom(mo.zero_module(alg), self.module)

    def extend(self, upto):
        if upto >= len(self.terms):
            raise InternalCheckError("twisted resolution shorter than required")
        return self


def build_mu_bar(alg: GradedAlgebra, dual: tr.DualData,
                 mu: GradedAlgebraMorphism, mu_data: MuPermutation,
                 rng=None) -> tr.TruncatedAlgebraMorphism:
    """The automorphism of the dual induced by twisting with the Nakayama
    automorphism and conjugating with the chosen isos tau. Verified to be
    multiplicative on all product pairs within the cutoff."""
    G = dual.algebra
    if mu_data.identity and mu.is_identity():
        return tr.identity_truncated_morphism(G)
    n = dual.n
    perm = mu_data.perm
    t = len(dual.summands)
    vperm = mu.vertex_permutation()
    inv_vperm = {w: v for v, w in vperm.items()}

    def rekey_values(vals):
        return [{(inv_vperm[v], d): vec for (v, d), vec in val.items()}
                for val in vals]

    twisted = {}
    lifts = {}
    for s in range(t):
        dual.resolutions[s].extend(n * G.cutoff + 1)
        twisted[s] = TwistedResolution(dual.resolutions[s], mu)
        # tau_s^{-1}: T^{perm(s)} -> (T^s)_mu lifted through resolutions
        tau_inv = mu_data.certificates[s].inverse()
        src = dual.resolutions[perm[s]]
        vals = []
        for k in range(src.terms[0].rank):
            gen = src.terms[0].generator_element(k)
            vals.append(tau_inv.apply(src.eps.apply(gen)))
        lifts[s] = rs.CocycleLift(src, twisted[s], 0, vals)
    mats = {}
    for dd in range(G.cutoff + 1):
        ndim = G.dim(dd)
        if ndim == 0:
            continue
        cells = {}
        for s in range(t):
            for s2 in range(t):
                eg = dual.groups[(s, s2, dd)]
                if not eg.dim:
                    continue
                tau2 = mu_data.certificates[s2]   # (T^{s2})_mu -> T^{perm(s2)}
                eg_out = dual.groups[(perm[s], perm[s2], dd)]
                for c in range(eg.dim):
                    vals = rs.cocycle_values(dual.resolutions[s], eg,
                                             eg.reps[c])
                    tw_vals = rekey_values(vals)
                    # postcompose with tau_{s2}: blocks of the twisted module
                    out_vals = []
                    for val in tw_vals:
                        out_vals.append(tau2.apply(val))
                    # precompose with the lift of tau_s^{-1}
                    prod_vals = rs.yoneda_product(dual.summands[perm[s2]],
                                                  n * dd, out_vals, lifts[s])
                    vec = rs.values_to_vec(eg_out, prod_vals)
                    coords = eg_out.reduce(vec)
                    col = dual.index[(dd, s, s2, c)]
                    for c2, coeff in enumerate(coords):
                        cells[dual.index[(dd, perm[s], perm[s2], c2)], col] = coeff
        mats[dd] = Matrix.from_entries(ndim, ndim, cells)
    out = tr.TruncatedAlgebraMorphism(G, G, mats)
    if not out.is_invertible():
        raise InternalCheckError("mu-bar is not invertible")
    if not out.check_multiplicative():
        raise InternalCheckError("mu-bar is not multiplicative")
    return out


# ---------------------------------------------------------------------------
# Serre-functor dimension identity
# ---------------------------------------------------------------------------

def serre_lhs_table(alg: GradedAlgebra, tilde: TTilde, i_max: int, l_range):
    """dims of stable Hom(T~, Omega^{-(n a i + l)} T~ <a i>) over the window."""
    n, a = tilde.n, tilde.a
    syz_res = [rs.MinimalResolution(c.module) for c in tilde.chains]
    table = {}
    for i in range(i_max + 1):
        for l in l_range:
            total = 0
            for src in tilde.parts:
                for (s, i2) in tilde.tags:
                    e = n * a * i + l + n * i2
                    tgt = _tilde_translate(tilde, syz_res, s, i2, e, a * i)
                    if src.is_zero() or tgt.is_zero():
                        continue
                    total += mo.stable_hom(src, tgt)[0]
            table[(i, l)] = total
    return table


def serre_dimension_identity(alg: GradedAlgebra, tilde: TTilde,
                             b_algebra: GradedAlgebra, i_max: int = 3,
                             l_min: int = -2, l_max: int = 2):
    """Both sides of the Serre-functor correspondence, compared as dims.

    Left: stable Hom(T~, Omega^{-(nai+l)} T~ <ai>) over the graded algebra.
    Right: H^l(nu_{na-1}^{-i}(B)). Returns (table, all_equal).
    """
    from . import hereditary as hd

    n, a = tilde.n, tilde.a
    l_range = range(l_min, l_max + 1)
    lhs = serre_lhs_table(alg, tilde, i_max, l_range)
    rhs = hd.serre_rhs_table(b_algebra, n * a - 1, i_max, l_range)
    table = {}
    ok = True
    for i in range(i_max + 1):
        for l in l_range:
            lv = lhs.get((i, l), 0)
            rv = rhs.get((i, l), 0)
            table[(i, l)] = (lv, rv)
            if lv != rv:
                ok = False
    return table, ok
