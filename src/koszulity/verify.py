"""Verifiers for the theorem-level statements, each comparing two
independently computed sides and reporting agreement with explicit bounds.

Exit-code conventions used by the command line: 0 both sides agree,
1 mathematical disagreement, 2 invalid input, 3 inconclusive (a bound was
hit or a probabilistic step could not certify).
"""

from __future__ import annotations

import random

from .linalg import Matrix
from .algebra import GradedAlgebra, InputError, trivial_extension
from .frobenius import frobenius_analysis
from . import modules as mo
from . import resolution as rs
from . import truncated as tr
from . import koszul as ko
from . import hereditary as hd


class VerifyReport:
    def __init__(self, theorem: str, agree: bool | None, left: object = None,
                 right: object = None, bounds: dict | None = None,
                 probabilistic: bool = False, details: dict | None = None,
                 citations: list | None = None, params: object = None):
        self.theorem = theorem
        self.agree = agree          # None = inconclusive
        self.left = left
        self.right = right
        self.bounds = {} if bounds is None else bounds
        self.probabilistic = probabilistic
        self.details = {} if details is None else details
        self.citations = [] if citations is None else citations
        self.params = params

    @property
    def exit_code(self) -> int:
        # a "disagree" resting on sampled evidence is inconclusive
        if self.agree is None or (not self.agree and self.probabilistic):
            return 3
        return 0 if self.agree else 1

    def as_dict(self):
        return {
            "theorem": self.theorem,
            "agree": self.agree,
            "left": str(self.left),
            "right": str(self.right),
            "bounds": dict(self.bounds),
            "params": self.params.as_dict() if self.params is not None else None,
            "probabilistic": self.probabilistic,
            "details": {k: str(v) for k, v in self.details.items()},
            "citations": list(self.citations),
        }


def regular_summands(a0: GradedAlgebra):
    return [mo.projective_module(a0, v) for v in a0.vertices]


def inflated_regular_summands(a0: GradedAlgebra, big: GradedAlgebra):
    return [mo.inflate_module(m, big) for m in regular_summands(a0)]


# ---------------------------------------------------------------------------
# characterization: n-T-Koszul iff T~ tilting and B (na-1)-rep-infinite
# ---------------------------------------------------------------------------

def verify_characterization(alg: GradedAlgebra, summands, n: int,
                            i_max: int = 6, depth: int = 6,
                            seed: int = 0) -> VerifyReport:
    rng = random.Random(seed)
    fr = frobenius_analysis(alg, rng=rng)
    if not fr.is_frobenius:
        raise InputError("algebra is not graded Frobenius")
    a = fr.a
    if a < 1:
        raise InputError("highest degree must be at least 1")
    ko.mu_permutation(summands, fr.mu, rng=rng)
    left = ko.check_n_T_koszul(alg, summands, n, i_max, rng=rng)
    tilde = ko.build_t_tilde(alg, summands, n, a)
    dual = tr.koszul_dual(alg, summands, n, max(a - 1, 1))
    bdata = ko.stable_endomorphism_algebra(alg, tilde, dual=dual)
    rig = ko.rigidity_check(alg, tilde)
    ri = hd.is_n_rep_infinite_upto(bdata.algebra, n * a - 1, depth)
    right_pass = rig.passed and ri.verdict is True
    if left.verdict == "inconclusive" or ri.verdict is None:
        agree = None
    else:
        agree = left.passed == right_pass
    return VerifyReport(
        "characterization", agree,
        left=f"n-T-Koszul: {left.verdict} {left.counterexample or ''}".strip(),
        right=f"tilting-object rigidity: {rig.verdict}; "
              f"(na-1)-rep-infinite to depth {depth}: {ri.verdict}",
        bounds={"i_max": i_max, "depth": depth,
                "rigidity_l_bound": rig.window.get("l_bound")},
        probabilistic=left.probabilistic or rig.probabilistic,
        details={"B_dim": bdata.algebra.dim, "a": a,
                 "rep_infinite_reason": ri.reason},
        citations=[ko.GENERATION_ASSUMPTION],
    )


# ---------------------------------------------------------------------------
# trivial extension: Delta A is (n+1)-Koszul w.r.t. A iff A n-rep-infinite
# ---------------------------------------------------------------------------

def verify_trivext_koszul(a0: GradedAlgebra, n: int, i_max: int = 6,
                          depth: int = 6, seed: int = 0) -> VerifyReport:
    if not a0.is_concentrated_degree_zero():
        raise InputError("the base of a trivial extension must live in degree 0")
    rng = random.Random(seed)
    delta = trivial_extension(a0)
    summands = inflated_regular_summands(a0, delta)
    left = ko.check_n_T_koszul(delta, summands, n + 1, i_max, rng=rng)
    right = hd.is_n_rep_infinite_upto(a0, n, depth)
    if left.verdict == "inconclusive" or right.verdict is None:
        agree = None
    else:
        agree = left.passed == (right.verdict is True)
    return VerifyReport(
        "trivext-koszul", agree,
        left=f"Delta A (n+1)-Koszul wrt A: {left.verdict}",
        right=f"A {n}-rep-infinite to depth {depth}: {right.verdict} "
              f"{right.reason}".strip(),
        bounds={"i_max": i_max, "depth": depth},
        probabilistic=left.probabilistic,
        citations=[ko.GENERATION_ASSUMPTION],
    )


# ---------------------------------------------------------------------------
# trivial extension dual: Pi_{n+1} A vs (Delta A)^!
# ---------------------------------------------------------------------------

def ext0_coordinates(dual: tr.DualData, i: int, j: int, h: mo.GradedModuleHom):
    res = dual.resolutions[i]
    vals = [h.apply(res.eps.apply(res.terms[0].generator_element(k)))
            for k in range(res.terms[0].rank)]
    eg = dual.groups[(i, j, 0)]
    return eg.reduce(rs.values_to_vec(eg, vals))


def dual_phi0_from_pp(pp: hd.PreprojectiveData, a0: GradedAlgebra,
                      dual: tr.DualData, summands) -> Matrix:
    """Degree-0 identification of Pi_0 = A with End(A) inside the dual:
    a basis element of Pi_0, which is an algebra element x in e_u A e_v,
    goes to the class of left multiplication by x. Columns follow the
    basis order of the preprojective algebra."""
    n0 = dual.algebra.dim(0)
    G = pp.algebra
    if G.dim(0) != n0:
        raise InputError("degree-0 dimensions differ")
    cells = {}
    pos_of_vertex = {v: i for i, v in enumerate(a0.vertices)}
    for (d, u, v, c), col in pp.index.items():
        if d:
            continue
        x = pp.chains[u][0].module.basis_index[(v, 0)][c]
        i, j = pos_of_vertex[v], pos_of_vertex[u]
        lm = hd.left_mult_hom(a0, v, u, {x: 1})
        h = mo.GradedModuleHom(summands[i], summands[j], dict(lm.blocks))
        coords = ext0_coordinates(dual, i, j, h)
        for cc, coeff in enumerate(coords):
            cells[dual.index[(0, i, j, cc)], col] = coeff
    return Matrix.from_entries(n0, G.dim(0), cells)


def verify_trivext_dual(a0: GradedAlgebra, n: int, d_max: int = 5,
                        seed: int = 0) -> VerifyReport:
    """Pi_{n+1}(A) vs the dual of Delta A, dims and an explicit degree-1
    generated isomorphism."""
    if not a0.is_concentrated_degree_zero():
        raise InputError("the base of a trivial extension must live in degree 0")
    delta = trivial_extension(a0)
    summands = inflated_regular_summands(a0, delta)
    pp = hd.preprojective_algebra(a0, n, d_max)
    dual = tr.koszul_dual(delta, summands, n + 1, d_max)
    vertex_map = {v: i for i, v in enumerate(a0.vertices)}
    dims_ok = tr.bigraded_dims_equal(pp.algebra, dual.algebra, vertex_map)
    phi0 = dual_phi0_from_pp(pp, a0, dual, summands)
    iso = tr.find_graded_iso(pp.algebra, dual.algebra, phi0, vertex_map,
                             rng=random.Random(seed))
    agree = dims_ok and iso.found
    return VerifyReport(
        "trivext-dual", agree,
        left=f"Pi_{n + 1}(A) dims {pp.algebra.dims()}",
        right=f"dual dims {dual.algebra.dims()}",
        bounds={"d_max": d_max},
        probabilistic=bool(pp.flags) or iso.probabilistic and not iso.found,
        details={"dims_equal": dims_ok, "iso_found": iso.found,
                 "iso_note": iso.reason},
        citations=[ko.COHERENCE_ASSUMPTION],
    )


# ---------------------------------------------------------------------------
# preprojective vs quasi-Veronese of the dual
# ---------------------------------------------------------------------------

def verify_preproj_veronese(alg: GradedAlgebra, summands, n: int,
                            d_max: int = 4, seed: int = 0) -> VerifyReport:
    """Pi_{na}(B) vs the (inverse mu-bar)-twisted a-th quasi-Veronese of the
    dual; in the graded symmetric case also the untwisted comparison."""
    rng = random.Random(seed)
    fr = frobenius_analysis(alg, rng=rng)
    if not fr.is_frobenius:
        raise InputError("algebra is not graded Frobenius")
    a = fr.a
    mu_data = ko.mu_permutation(summands, fr.mu, rng=rng)
    dual = tr.koszul_dual(alg, summands, n, a * d_max + a - 1 + 1)
    tilde = ko.build_t_tilde(alg, summands, n, a)
    dual_small = tr.koszul_dual(alg, summands, n, max(a - 1, 1))
    bdata = ko.stable_endomorphism_algebra(alg, tilde, dual=dual_small)
    B = bdata.algebra
    pp = hd.preprojective_algebra(B, n * a - 1, d_max,
                                  name=f"Pi_{n * a}(B)")
    mu_bar = ko.build_mu_bar(alg, dual, fr.mu, mu_data, rng=rng)
    inv_bar = mu_bar.inverse()
    GV = tr.quasi_veronese(dual.algebra, a)
    phi_v = tr.induced_veronese_automorphism(dual.algebra, inv_bar, a, GV=GV)
    twisted = tr.twist_algebra(GV, phi_v)
    # vertex correspondence: part (s, i) of T~ -> Veronese block (a-1-i, s);
    # the part at cosyzygy level a-1 is listed first in the block matrix
    vertex_map = {}
    for tag in B.vertices:
        (s, i) = tag
        vertex_map[tag] = (a - 1 - i, s) if a > 1 else s
    dims_ok = tr.bigraded_dims_equal(pp.algebra, twisted, vertex_map,
                                     upto=min(d_max, twisted.cutoff))
    # degree-0 identification via the block map gamma
    ko.gamma_block_map(bdata, dual, rng=rng)
    phi0 = _phi0_blocks(bdata, dual, twisted, a, pp)
    iso = tr.find_graded_iso(pp.algebra, twisted, phi0, vertex_map, rng=rng,
                             upto=min(d_max, twisted.cutoff))
    details = {
        "dims_equal": dims_ok, "iso_found": iso.found, "iso_note": iso.reason,
        "symmetric": fr.symmetric,
    }
    agree = dims_ok and iso.found
    if fr.symmetric:
        untwisted_ok = tr.bigraded_dims_equal(pp.algebra, GV, vertex_map,
                                              upto=min(d_max, GV.cutoff))
        iso_u = tr.find_graded_iso(pp.algebra, GV, phi0, vertex_map,
                                   rng=rng, upto=min(d_max, GV.cutoff))
        details["untwisted_dims_equal"] = untwisted_ok
        details["untwisted_iso_found"] = iso_u.found
        agree = agree and untwisted_ok and iso_u.found
    return VerifyReport(
        "preproj-veronese", agree,
        left=f"Pi_{n * a}(B) dims {pp.algebra.dims()}",
        right=f"twisted Veronese dims {twisted.dims()}",
        bounds={"d_max": d_max, "dual_cutoff": dual.algebra.cutoff},
        probabilistic=bool(pp.flags),
        details=details,
        citations=[ko.COHERENCE_ASSUMPTION],
    )


def _phi0_blocks(bdata: ko.StableEndData, dual: tr.DualData, target,
                 a: int, pp: hd.PreprojectiveData) -> Matrix:
    """Degree-0 matrix sending the basis of Pi_0(B) = B to the gamma classes
    inside the degree-0 part of the (possibly twisted) Veronese. Columns
    follow the basis order of the preprojective algebra."""
    n0 = target.dim(0)
    G = pp.algebra
    cells = {}
    lookup = {}
    for p, (s_tag, t_tag, lab) in enumerate(target.basis.get(0, [])):
        lookup[lab] = p
    tag_level = {bidx: (bdata.tilde.tags[b1][1], bdata.tilde.tags[a1][1])
                 for (a1, b1, _c), bidx in bdata.index.items()}
    for (d, u, v, c), col in pp.index.items():
        if d:
            continue
        bidx = pp.chains[u][0].module.basis_index[(v, 0)][c]
        (dd, s, s2), coords = bdata.gamma[bidx]
        j, i = tag_level[bidx]
        for cc, coeff in enumerate(coords):
            di = dual.index[(dd, s, s2, cc)]
            lab = dual.algebra.basis[dd][di][2]
            if a > 1:
                lab = f"[{a - 1 - i},{a - 1 - j}]{lab}"
            p = lookup.get(lab)
            if p is None:
                raise InputError("block label missing in the Veronese")
            cells[p, col] = coeff
    return Matrix.from_entries(n0, G.dim(0), cells)


# ---------------------------------------------------------------------------
# rep-finite characterization and parameter consistency
# ---------------------------------------------------------------------------

def verify_nrepfin_char(alg: GradedAlgebra, summands, n: int,
                        l_max: int = 16, orbit_cap: int = 24,
                        seed: int = 0) -> VerifyReport:
    rng = random.Random(seed)
    fr = frobenius_analysis(alg, rng=rng)
    if not fr.is_frobenius:
        raise InputError("algebra is not graded Frobenius")
    a = fr.a
    mu_data = ko.mu_permutation(summands, fr.mu, rng=rng)
    params, almost, tilt = ko.check_n_m_sigma_koszul(
        alg, summands, n, mu_data=mu_data, a=a, l_max=l_max, rng=rng)
    tilde = ko.build_t_tilde(alg, summands, n, a)
    dual_small = tr.koszul_dual(alg, summands, n, max(a - 1, 1))
    bdata = ko.stable_endomorphism_algebra(alg, tilde, dual=dual_small)
    rig = ko.rigidity_check(alg, tilde)
    rf = hd.is_n_rep_finite(bdata.algebra, n * a - 1, orbit_cap=orbit_cap,
                            rng=rng)
    left_pass = params is not None
    right_pass = rig.passed and rf.verdict is True
    if rf.verdict is None or almost.verdict == "inconclusive":
        agree = None
    else:
        agree = left_pass == right_pass
    details = {"rigidity": rig.verdict, "rep_finite": rf.verdict,
               "rep_finite_reason": rf.reason}
    if params is not None and rf.verdict is True:
        match = _match_parameters(params, rf, bdata, mu_data)
        details["parameters_match"] = match
        agree = agree and match
    return VerifyReport(
        "nrepfin-char", agree,
        left=("(n, m_i, sigma_i)-Koszul with m=" + str(params.m)
              + " sigma=" + str(params.sigma)) if params else
             f"not (n, m_i, sigma_i)-Koszul: {almost.verdict}",
        right=f"B (na-1)-rep-finite: {rf.verdict}",
        bounds={"l_max": l_max, "orbit_cap": orbit_cap},
        probabilistic=almost.probabilistic or rf.probabilistic,
        details=details,
        citations=[ko.GENERATION_ASSUMPTION],
        params=params,
    )


def _match_parameters(params: ko.AlmostParams, rf: hd.NRepReport,
                      bdata: ko.StableEndData, mu_data) -> bool:
    """Orbit data of B against the closed formulas of the parameters."""
    orbit = {o.projective: o for o in rf.orbits}
    for (i, j), m_ij in params.m_table.items():
        tag = (i, j)
        o = orbit.get(tag)
        if o is None:
            return False
        if o.m != m_ij:
            return False
        expected_endpoint = (params.sigma_L[(i, j)], params.sigma_R[(i, j)])
        if o.endpoint != expected_endpoint:
            return False
    return True


def verify_param_consistency(alg: GradedAlgebra, summands, n: int,
                             l_max: int = 16, orbit_cap: int = 24,
                             seed: int = 0) -> VerifyReport:
    rep = verify_nrepfin_char(alg, summands, n, l_max=l_max,
                              orbit_cap=orbit_cap, seed=seed)
    match = rep.details.get("parameters_match")
    agree = None if match is None else bool(match)
    return VerifyReport(
        "param-consistency", agree,
        left="closed formulas for m_{i,j}, sigma_i^R, sigma_j^L",
        right="nu-orbit data of B",
        bounds=rep.bounds, probabilistic=rep.probabilistic,
        details=rep.details,
    )


# ---------------------------------------------------------------------------
# Serre identity
# ---------------------------------------------------------------------------

def verify_serre_identity(alg: GradedAlgebra, summands, n: int,
                          i_max: int = 3, l_abs: int = 2,
                          seed: int = 0) -> VerifyReport:
    rng = random.Random(seed)
    fr = frobenius_analysis(alg, rng=rng)
    if not fr.is_frobenius:
        raise InputError("algebra is not graded Frobenius")
    a = fr.a
    ko.mu_permutation(summands, fr.mu, rng=rng)
    tilde = ko.build_t_tilde(alg, summands, n, a)
    dual_small = tr.koszul_dual(alg, summands, n, max(a - 1, 1))
    bdata = ko.stable_endomorphism_algebra(alg, tilde, dual=dual_small)
    table, ok = ko.serre_dimension_identity(alg, tilde, bdata.algebra,
                                            i_max=i_max, l_min=-l_abs,
                                            l_max=l_abs)
    mism = {k: v for k, v in table.items() if v[0] != v[1]}
    return VerifyReport(
        "serre-identity", ok,
        left="stable Hom over the graded algebra",
        right="cohomology of inverse Nakayama powers over B",
        bounds={"i_max": i_max, "l_abs": l_abs},
        details={"mismatches": mism} if mism else {"window_dims": len(table)},
    )
