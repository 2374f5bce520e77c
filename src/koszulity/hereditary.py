"""Ungraded machinery: derived Nakayama functor, higher representation type,
higher preprojective algebras.

Modules here live over an algebra concentrated in degree 0. Objects of the
derived category are bounded complexes, and a shifted stalk M[s] is the
one-term complex with M at position -s. One inverse Nakayama step takes an
injective resolution of a complex, keyed by position (for a stalk, its
minimal injective resolution; otherwise a mapping cone that validates
itself: square-zero differentials, comparison chain map, cohomology
preserved), relabels the injective terms as projectives, shifts by [n] and
reads off cohomology. The Nakayama correspondence
Hom(D(Ae_v), D(Ae_w)) = e_w A e_v = Hom(e_v A, e_w A) is a closed form both
ways: a map of projectives is left multiplication by the image x of e_v,
and a map of injectives is the dual of right multiplication by x, whose
coefficients form the row of e_w in its (w, 0) block. A result whose
cohomology sits in one degree is replaced by that shifted stalk; over a
hereditary base any result splits as the sum of its shifted cohomology
stalks. Morphism transport, needed for preprojective multiplication, is
only performed along single-stalk chains, which keeps it an honest
application of the functor.
"""

from __future__ import annotations

from .algebra import GradedAlgebra, InputError, InternalCheckError
from .linalg import Matrix
from . import modules as mo
from . import resolution as rs
from .truncated import TruncatedGradedAlgebra, store_product


# ---------------------------------------------------------------------------
# injectives over a degree-0 algebra and the Nakayama correspondence
# ---------------------------------------------------------------------------

def injective_module(a: GradedAlgebra, v) -> mo.GradedModule:
    """D(A e_v), the injective envelope of the simple at v, in degree 0."""
    return mo.dual_of_left_projective(a, v, 0)


def _coordinates(ix, coeffs) -> dict:
    """The sparse vector of coeffs = {basis element: c} on the basis ix."""
    return {j: coeffs[b] for j, b in enumerate(ix) if coeffs.get(b)}


def left_mult_hom(a: GradedAlgebra, v, w, coeffs) -> mo.GradedModuleHom:
    """e_v A -> e_w A, p -> x p, for x in e_w A e_v given by coeffs."""
    Q = mo.projective_module(a, w)
    x = _coordinates(Q.basis_index.get((v, 0), []), coeffs)
    return mo.map_from_projective(mo.projective_module(a, v), Q, {(v, 0): x} if x else {})


def dual_right_mult_hom(a: GradedAlgebra, v, w, coeffs) -> mo.GradedModuleHom:
    """D(Ae_v) -> D(Ae_w), dual of right multiplication by x in e_w A e_v:
    psi_b goes to the sum over c of psi_b(c x) psi_c. Its functional on
    D(Ae_v)_(w,0) is psi -> psi(x)."""
    I = injective_module(a, v)
    phi = _coordinates(I.basis_index.get((w, 0), []), coeffs)
    return mo.map_into_injective(I, injective_module(a, w), w, [phi])[0]


def injective_to_projective_hom(a: GradedAlgebra, v, w, h: mo.GradedModuleHom):
    """Apply the inverse Nakayama correspondence to h: D(Ae_v) -> D(Ae_w).

    h is the dual of right multiplication by some x in e_w A e_v, so the
    functional it sends to psi_{e_w} is psi_{e_w}(- x): the row of e_w in the
    (w, 0) block holds the coefficients of x on the basis of e_w A e_v.
    """
    e_w = h.codomain.basis_index[(w, 0)].index(a.idempotent_index(w))
    row = h.block(w, 0).srows.get(e_w, {})
    coeffs = {h.domain.basis_index[(w, 0)][j]: c for j, c in sorted(row.items())}
    if dual_right_mult_hom(a, v, w, coeffs).blocks != h.blocks:
        raise InternalCheckError("injective hom outside the dual-basis span")
    return left_mult_hom(a, v, w, coeffs)


def projective_to_injective_hom(a: GradedAlgebra, v, w, h: mo.GradedModuleHom):
    """Apply the Nakayama correspondence to h: e_v A -> e_w A.

    h is left multiplication by x = h(e_v), an element of e_w A e_v.
    """
    x = h.apply(mo.generator(h.domain, v)).get((v, 0), {})
    ix = h.codomain.basis_index.get((v, 0), [])
    coeffs = {ix[j]: c for j, c in x.items()}
    if left_mult_hom(a, v, w, coeffs).blocks != h.blocks:
        raise InternalCheckError("projective hom outside the left-mult span")
    return dual_right_mult_hom(a, v, w, coeffs)


class LabeledSum(mo.DirectSum):
    """Direct sum of the indecomposable projectives (kind "proj") or
    injectives (kind "inj") at the given vertex labels, in order."""

    def __init__(self, a: GradedAlgebra, labels, kind: str):
        self.labels = list(labels)
        self.kind = kind
        make = mo.projective_module if kind == "proj" else injective_module
        super().__init__(a, [make(a, v) for v in self.labels])


def transport_sum_hom(src: LabeledSum, tgt: LabeledSum, h: mo.GradedModuleHom,
                      src_to: LabeledSum, tgt_to: LabeledSum):
    """Move a hom between sums of one kind to the sums of the other kind on
    the same labels, part by part: injectives to projectives or back.

    Each nonzero entry of h goes to the component between the parts its
    column and row lie in, so only the nonzero components are built."""
    move = (injective_to_projective_hom if src.kind == "inj"
            else projective_to_injective_hom)
    comps = {}
    for key, mat in h.blocks.items():
        for r, row in mat.srows.items():
            j, r_j = tgt.locate(key, r)
            for c, x in row.items():
                i, c_i = src.locate(key, c)
                srows = comps.setdefault((i, j), {}).setdefault(key, {})
                srows.setdefault(r_j, {})[c_i] = x
    pieces = []
    for (i, j), blocks in sorted(comps.items()):
        p, q = src.parts[i], tgt.parts[j]
        comp = mo.GradedModuleHom(p, q, {
            key: Matrix.sparse(q.dims[key], p.dims[key], srows)
            for key, srows in blocks.items()})
        pieces.append((move(src.algebra, src.labels[i], tgt.labels[j], comp),
                       src_to.offsets[i], tgt_to.offsets[j]))
    return mo.place(src_to, tgt_to, pieces)


def identify_injective(a: GradedAlgebra, m: mo.GradedModule, rng=None):
    """(v, probabilistic): v with m isomorphic to D(Ae_v), or None.

    probabilistic is True when some candidate of m's dimensions got an
    uncertified "not isomorphic", so a None rests on sampling.
    """
    probabilistic = False
    for v in a.vertices:
        cand = injective_module(a, v)
        if cand.dims != m.dims:
            continue
        verdict = mo.is_isomorphic(m, cand, rng=rng)
        if verdict.isomorphic:
            return v, probabilistic
        probabilistic = probabilistic or verdict.probabilistic
    return None, probabilistic


# ---------------------------------------------------------------------------
# injective resolutions (ungraded) and complexes
# ---------------------------------------------------------------------------

class BoundedComplex:
    def __init__(self, algebra: GradedAlgebra, terms: dict, diffs: dict):
        self.algebra = algebra
        self.terms = terms        # cohomological degree -> module
        self.diffs = diffs        # degree -> hom terms[d] -> terms[d+1]

    def validate(self):
        for d, h in self.diffs.items():
            if d + 1 in self.diffs:
                if not self.diffs[d + 1].compose(h).is_zero():
                    raise InternalCheckError("d^2 != 0")
        return True


class CohomologyData:
    def __init__(self, module: mo.GradedModule, cycles: mo.GradedModule,
                 incl: mo.GradedModuleHom, proj: mo.GradedModuleHom,
                 section: mo.GradedModuleHom):
        self.module = module
        self.cycles = cycles
        self.incl = incl          # cycles -> term
        self.proj = proj          # cycles -> H
        self.section = section    # H -> cycles, a blockwise right inverse of proj


def complex_cohomology(cx: BoundedComplex):
    out = {}
    for d, term in cx.terms.items():
        dout = cx.diffs.get(d)
        if dout is None:
            dout = mo.zero_hom(term, mo.zero_module(cx.algebra))
        K, incl = mo.kernel_submodule(dout, name=f"Z^{d}")
        # din factors through the cycles: one solve per block gives the boundaries
        din = cx.diffs.get(d - 1)
        spans = {} if din is None else mo.image_spans(mo.post_invert_mono(incl, din))
        H, proj, section = mo.quotient_module(K, spans, name=f"H^{d}")
        out[d] = CohomologyData(H, K, incl, proj, section)
    return out


def cohomology_dims(cx: BoundedComplex) -> dict:
    return {d: data.module.dim for d, data in complex_cohomology(cx).items()
            if data.module.dim}


class ComplexResolution:
    """Bounded complex of labeled injective sums quasi-isomorphic to a
    bounded complex, together with the comparison chain map."""

    def __init__(self, terms: dict, diffs: dict, qis: dict):
        self.terms = terms        # position -> LabeledSum
        self.diffs = diffs        # position -> hom terms[p] -> terms[p+1]
        self.qis = qis            # position -> hom (original term -> terms[p])

    def as_complex(self, algebra) -> BoundedComplex:
        return BoundedComplex(algebra, dict(self.terms), dict(self.diffs))


def injective_resolution_module(m: mo.GradedModule, pos: int,
                                cap: int = 32) -> ComplexResolution:
    """Minimal injective resolution of the one-term complex m at position pos.

    Its terms sit at pos, pos + 1, ...: the envelopes of `rs.MinimalCoresolution`,
    relabeled as sums of the D(Ae_v) of their socle vectors at (v, 0), so
    the maps' blocks carry over unchanged; d = mono_{k+1} o proj_k. The
    envelope mono m -> terms[pos] is its one comparison map.
    """
    core = rs.MinimalCoresolution(m).extend(cap)
    if any(d for tags in core.tags for _v, d in tags):
        raise InputError("ungraded envelope expects degree-0 modules")
    if not core.cosyzygies[-1].is_zero():
        raise InputError(f"injective resolution exceeds cap {cap}")
    inj = [LabeledSum(m.algebra, [v for v, _d in tags], "inj") for tags in core.tags]
    terms = {pos + k: I for k, I in enumerate(inj)}
    diffs = {pos + k: mo.GradedModuleHom(inj[k], inj[k + 1],
                                         core.monos[k + 1].compose(core.projs[k]).blocks)
             for k in range(len(inj) - 1)}
    qis = {pos: mo.GradedModuleHom(m, inj[0], core.monos[0].blocks)} if inj else {}
    return ComplexResolution(terms, diffs, qis)


# ---------------------------------------------------------------------------
# the inverse Nakayama step
# ---------------------------------------------------------------------------

class Piece:
    """A stalk module placed at cohomological degree -shift (i.e. M[shift])."""

    def __init__(self, module: mo.GradedModule, shift: int = 0,
                 step_data: object = None):
        self.module = module
        self.shift = shift
        self.step_data = step_data


class StepData:
    def __init__(self, n: int, resolution: ComplexResolution,
                 complex: BoundedComplex, cohomology: dict, result_pieces: dict):
        self.n = n
        self.resolution = resolution  # of the stalk, at position -shift
        self.complex = complex        # nu_n^{-1} of the stalk, before splitting
        self.cohomology = cohomology  # position -> CohomologyData
        self.result_pieces = result_pieces  # position (absolute) -> output piece


def nu_inverse_step(a: GradedAlgebra, piece: Piece, n: int, cap: int = 32):
    """Apply nu_n^{-1} = nu^{-1}(-)[n] to a shifted stalk, the one-term
    complex at position -shift.

    Returns (new pieces, h_dims): one stalk per nonzero cohomology degree,
    in increasing order, and the dimensions keyed by absolute cohomological
    degree of nu_n^{-1}(piece).
    """
    if piece.module.is_zero():
        return [], {}
    res = injective_resolution_module(piece.module, -piece.shift, cap)
    cx = nu_inverse_of_resolution(a, res, n)
    coh = complex_cohomology(cx)
    result = {d: Piece(data.module, -d) for d, data in sorted(coh.items())
              if data.module.dim}
    piece.step_data = StepData(n, res, cx, coh, result)
    return list(result.values()), {d: p.module.dim for d, p in result.items()}


def _lift_stalk_map_into_injectives(res: ComplexResolution, psi0s: list,
                                    jterms: dict, jdiffs: dict):
    """Chain maps Psi_p: res.terms[p] -> jterms[p], one for each psi0 of
    psi0s, for the resolution res of a stalk M at position lo, with
    Psi_lo o mono = psi0 and the usual commutation squares. Returns
    {position: [Psi_p per psi0]}.

    Psi_p is prescribed on d(x) for the generators x of the previous term
    (on mono(x) for the generators x of M, at p = lo) and solved into the
    injective sum jterms[p] by `mo.solve_map_into_injectives`, one
    functional per summand, without a Hom basis. Every lift prescribes
    values at the same elements, so each position is one solve for all of
    them. Any solution will do: a lift into a complex of injectives is
    unique up to homotopy, so the maps it induces on cohomology do not
    depend on the choice. A position with no target term gets no map.
    """
    ((lo, mono),) = res.qis.items()
    chain = {}
    prev = None
    for p in sorted(res.terms):
        tgt = jterms.get(p)
        if tgt is None:
            # the commutation square must be trivially satisfiable
            if prev is not None and (p - 1) in jdiffs:
                if any(not jdiffs[p - 1].compose(u).is_zero() for u in prev):
                    raise InternalCheckError("chain lift leaks past the complex")
            prev = None
            continue
        if p == lo:
            gens = mo.generator_elements(mono.domain)
            elems = [mono.apply(x) for x in gens]
            images = [[psi0.apply(x) for x in gens] for psi0 in psi0s]
        else:
            gens = mo.generator_elements(res.terms[p - 1])
            elems = [res.diffs[p - 1].apply(x) for x in gens]
            dj = jdiffs.get(p - 1)
            if dj is None or prev is None:
                images = [[{} for _ in gens] for _ in psi0s]
            else:
                images = [[dj.apply(u.apply(x)) for x in gens] for u in prev]
        prev = mo.solve_map_into_injectives(res.terms[p], tgt,
                                            [(w, 0) for w in tgt.labels], elems, images)
        if prev is None:
            raise InternalCheckError("stalk lift into injective complex failed")
        chain[p] = prev
    return chain


def transport_stalk_homs(a: GradedAlgebra, homs: list, src_piece: Piece,
                         tgt_piece: Piece, pos: int):
    """The component at position pos of nu_n^{-1}(h) for each h of homs, all
    from the module of src_piece to that of tgt_piece: same-shift
    single-stalk pieces already stepped. Returns one hom between the result
    pieces at pos per h, or [] when every such component is zero.

    Both stalks are resolved at the same position, so the chain lifts of
    the homs are keyed by position and solved together, and the resolution
    term behind output position pos sits at pos + n.
    """
    if src_piece.shift != tgt_piece.shift:
        raise InternalCheckError("transport requires equal shifts")
    sd: StepData = src_piece.step_data
    td: StepData = tgt_piece.step_data
    if sd is None or td is None:
        raise InternalCheckError("pieces must be stepped before transport")
    if pos not in sd.result_pieces or pos not in td.result_pieces:
        return []
    sres, tres = sd.resolution, td.resolution
    ((_pos, tmono),) = tres.qis.items()
    chain = _lift_stalk_map_into_injectives(sres, [tmono.compose(h) for h in homs],
                                            tres.terms, tres.diffs)
    csrc, ctgt, q = sd.cohomology[pos], td.cohomology[pos], pos + sd.n
    outs = []
    for u in chain.get(q, ()):
        moved = transport_sum_hom(sres.terms[q], tres.terms[q], u,
                                  sd.complex.terms[pos], td.complex.terms[pos])
        # the chain map sends boundaries to boundaries, so any section works
        cycles = mo.post_invert_mono(
            ctgt.incl, moved.compose(csrc.incl).compose(csrc.section))
        outs.append(ctgt.proj.compose(cycles))
    return outs


# ---------------------------------------------------------------------------
# representation type
# ---------------------------------------------------------------------------

class Orbit:
    def __init__(self, projective: object, m: int | None = None,
                 endpoint: object = None, modules: list | None = None,
                 h_tables: list | None = None):
        self.projective = projective  # vertex label
        self.m = m
        self.endpoint = endpoint      # vertex label of the injective reached
        self.modules = [] if modules is None else modules
        self.h_tables = [] if h_tables is None else h_tables


class NRepReport:
    def __init__(self, mode: str, n: int, verdict: bool | None,
                 orbits: list | None = None, depth: int | None = None,
                 reason: str = "", probabilistic: bool = False,
                 fail_at: tuple | None = None):
        self.mode = mode              # "finite" or "infinite"
        self.n = n
        self.verdict = verdict        # None = inconclusive (cap hit)
        self.orbits = [] if orbits is None else orbits
        self.depth = depth
        self.reason = reason
        self.probabilistic = probabilistic
        self.fail_at = fail_at

    def as_dict(self):
        return {
            "mode": self.mode,
            "n": self.n,
            "verdict": self.verdict,
            "orbits": [
                {"projective": str(o.projective), "m": o.m,
                 "endpoint": str(o.endpoint) if o.endpoint is not None else None}
                for o in self.orbits
            ],
            "depth": self.depth,
            "reason": self.reason,
            "probabilistic": self.probabilistic,
        }


def is_n_rep_finite(a: GradedAlgebra, n: int, orbit_cap: int = 24,
                    rng=None) -> NRepReport:
    """Every nu_n^{-1}-orbit of an indecomposable projective must reach an
    indecomposable injective through stalk modules, and the endpoints must
    exhaust the injectives."""
    gl = rs.gldim_upto(a, n)
    if gl.le(n) is not True:
        return NRepReport("finite", n, False,
                          reason=f"global dimension {gl} exceeds {n}")
    orbits = []
    endpoints = []
    probabilistic = False

    def report(verdict, **kw):
        return NRepReport("finite", n, verdict, orbits=orbits,
                          probabilistic=probabilistic, **kw)

    for v in a.vertices:
        orbit = Orbit(projective=v)
        current = mo.projective_module(a, v)
        orbit.modules.append(current)
        m = 0
        while True:
            hit, sampled = identify_injective(a, current, rng=rng)
            probabilistic = probabilistic or sampled
            if hit is not None:
                orbit.m = m
                orbit.endpoint = hit
                endpoints.append(hit)
                break
            if m >= orbit_cap:
                return report(None, reason=f"orbit of {v} exceeded cap {orbit_cap}")
            piece = Piece(current, 0)
            pieces, h_dims = nu_inverse_step(a, piece, n)
            orbit.h_tables.append(h_dims)
            if sorted(h_dims) != [0]:
                return report(
                    False,
                    reason=f"nu_n^-1 of orbit of {v} not a stalk at step {m + 1}",
                    fail_at=(str(v), m + 1),
                )
            current = pieces[0].module
            orbit.modules.append(current)
            m += 1
        orbits.append(orbit)
    if sorted(str(e) for e in endpoints) != sorted(str(v) for v in a.vertices):
        return report(False, reason="orbit endpoints do not exhaust the injectives")
    return report(True)


def is_n_rep_infinite_upto(a: GradedAlgebra, n: int, depth: int = 6) -> NRepReport:
    """Check H^i(nu_n^{-j} A) = 0 for i != 0 and 0 <= j <= depth."""
    gl = rs.gldim_upto(a, n)
    if gl.le(n) is not True:
        return NRepReport("infinite", n, False, depth=0,
                          reason=f"global dimension {gl} exceeds {n}")
    pieces = [Piece(mo.projective_module(a, v), 0) for v in a.vertices]
    for j in range(1, depth + 1):
        new_pieces = []
        table = {}
        for p in pieces:
            # a step's table is exact, so cohomology spread over several
            # degrees already has a nonzero degree other than 0
            outs, h_dims = nu_inverse_step(a, p, n)
            for d, c in h_dims.items():
                table[d] = table.get(d, 0) + c
            new_pieces.extend(outs)
        bad = [d for d in table if d != 0]
        if bad:
            return NRepReport(
                "infinite", n, False, depth=j,
                reason=f"H^{min(bad)}(nu_n^-{j} A) nonzero",
                fail_at=(min(bad), j),
            )
        pieces = new_pieces
    return NRepReport("infinite", n, True, depth=depth)


def derived_nu_inverse_power(a: GradedAlgebra, start: mo.GradedModule,
                             power: int, n: int, hereditary=None):
    """Iterate nu_n^{-1} on a stalk; returns (bounded complexes, H tables).

    Each step resolves every complex by injectives and applies nu_n^{-1}. A
    result whose cohomology sits in one degree, or any result over a
    hereditary base, splits into its shifted cohomology stalks; otherwise
    the complex is carried on. tables[j] sums the cohomology dimensions of
    nu_n^{-j}(start) by degree.
    """
    if hereditary is None:
        gl = rs.gldim_upto(a, max(n, 4))
        hereditary = gl.value is not None and gl.value <= 1
    objs = [BoundedComplex(a, {0: start}, {})]
    tables = [{0: start.dim} if start.dim else {}]
    for _ in range(power):
        new_objs = []
        table = {}
        for cx in objs:
            nxt = nu_inverse_of_resolution(a, injective_resolution_of_complex(cx), n)
            coh = {d: data.module for d, data in complex_cohomology(nxt).items()
                   if data.module.dim}
            for d, h in coh.items():
                table[d] = table.get(d, 0) + h.dim
            if len(coh) > 1 and not hereditary:
                new_objs.append(nxt)
            else:
                new_objs.extend(BoundedComplex(a, {d: coh[d]}, {}) for d in sorted(coh))
        objs = new_objs
        tables.append(table)
    return objs, tables


# ---------------------------------------------------------------------------
# higher preprojective algebras
# ---------------------------------------------------------------------------

class PreprojectiveData:
    def __init__(self, algebra: TruncatedGradedAlgebra, chains: dict, n: int,
                 index: dict, flags: list | None = None):
        self.algebra = algebra
        self.chains = chains      # vertex -> list of Piece per degree (single-stalk,
                                  # step data cleared)
        self.n = n
        self.index = index        # (degree, u, v, c) -> position in the degree's basis
        self.flags = [] if flags is None else flags


def preprojective_algebra(a: GradedAlgebra, n: int, d_max: int,
                          name=None) -> PreprojectiveData:
    """Sum over i of Hom(A, nu_n^{-i} A) with composition products.

    Requires every orbit step to stay a single (possibly shifted) stalk;
    this certifies itself during construction.
    """
    gl = rs.gldim_upto(a, max(n, 4))
    if gl.le(n) is not True:
        raise InputError(f"global dimension {gl} exceeds {n}")
    name = name or f"Pi_{n + 1}({a.name})"
    chains = {}
    for v in a.vertices:
        chain = [Piece(mo.projective_module(a, v), 0)]
        for d in range(d_max):
            outs, _h_dims = nu_inverse_step(a, chain[-1], n)
            if len(outs) > 1:
                raise InputError(
                    "orbit does not stay a single stalk; preprojective "
                    "multiplication not supported for this input"
                )
            if not outs:
                chain.append(Piece(mo.zero_module(a), 0))
            else:
                chain.append(outs[0])
        chains[v] = chain

    # basis of degree d: for orbit u, the (v, 0) block of the shift-0 stalk;
    # homs[(d, u)] lists its (v, c, index) in index order
    basis = {}
    index = {}
    homs = {}
    for d in range(d_max + 1):
        items = []
        for u in a.vertices:
            piece = chains[u][d]
            if piece.shift != 0 or piece.module.is_zero():
                continue
            for v in a.vertices:
                cnt = piece.module.block_dim(v, 0)
                for c in range(cnt):
                    index[(d, u, v, c)] = len(items)
                    homs.setdefault((d, u), []).append((v, c, len(items)))
                    items.append((u, v, f"p[{d}]({u}<-{v}){c}"))
        basis[d] = items

    # products: f in degree d1 block (u, v) is the hom e_v A -> M_{d1}^{(u)}
    # sending e_v to basis vector c1 of the (v, 0) block. With T the
    # stepwise transport of homs along the orbit chains, f . g = T^{d2}(f) o g
    # for g = (d2, v, w, c2), and g(e_w) is basis vector c2 of the (w, 0)
    # block, so f . g is column c2 of the (w, 0) block of T^{d2}(f).
    products = {}
    unit = {}
    flags = []  # ((d1, i_f, d2), degree) of each possible class dropped
    for u in a.vertices:
        piece0 = chains[u][0]
        gen_pos = piece0.module.basis_index[(u, 0)].index(
            a.idempotent_index(u))
        unit[index[(0, u, u, gen_pos)]] = 1

    # running lists ((d1, u, v), [(i_f, T^{d2}(f))]) for the basis homs f of
    # a block that a later d2 still reads, with nonzero transports; one step
    # transports a block's homs together. At d2 = 0 a block lists (i_f, c1).
    running = {}
    for (d1, u, v, c1), i_f in index.items():
        running.setdefault((d1, u, v), []).append((i_f, c1))
    running = running.items()
    for d2 in range(d_max + 1):
        stepped = []
        for (d1, u, v), group in running:
            if not d2:
                target = chains[u][d1].module
                group = [(i_f, mo.map_from_projective(mo.projective_module(a, v), target,
                                                      target.unit_vector((v, 0), c1)))
                         for i_f, c1 in group]
            else:
                src, tgt = chains[v][d2 - 1], chains[u][d1 + d2 - 1]
                nxt_src, nxt_tgt = chains[v][d2], chains[u][d1 + d2]
                if (nxt_src.module.is_zero() or nxt_tgt.module.is_zero()
                        or src.shift != tgt.shift):
                    continue
                delta = nxt_src.shift - nxt_tgt.shift
                if delta:
                    # the image can only be a shifted-degree class; certify
                    # that no such class exists, else flag each f
                    if delta > 0 and rs.ext_group(rs.MinimalResolution(nxt_src.module),
                                                  nxt_tgt.module, delta, 0).dim:
                        flags += [((d1, i_f, d2), delta) for i_f, _h in group]
                    continue
                outs = transport_stalk_homs(a, [h for _i_f, h in group], src, tgt,
                                            -nxt_src.shift)
                group = [(i_f, h) for (i_f, _h), h in zip(group, outs) if not h.is_zero()]
            for w, c2, i_g in homs.get((d2, v), ()):
                for i_f, h in group:
                    entry = {}
                    for key2, vec2 in h.apply(h.domain.unit_vector((w, 0), c2)).items():
                        if key2[1] != 0:
                            raise InternalCheckError("product value off degree 0")
                        for t, x in sorted(vec2.items()):
                            pk = (d1 + d2, u, key2[0], t)
                            if pk not in index:
                                raise InternalCheckError(
                                    "nonzero product lands in a shifted piece"
                                )
                            entry[index[pk]] = x
                    store_product(products, (d1, i_f, d2, i_g), entry)
            if group and any((k, v) in homs for k in range(d2 + 1, d_max + 1 - d1)):
                stepped.append(((d1, u, v), group))
        running = stepped
        if d2:
            # a degree-k piece is a source only at step k + 1 and a target
            # only up to it, so its step data has no reader left
            for u in a.vertices:
                chains[u][d2 - 1].step_data = None
    G = TruncatedGradedAlgebra(name, d_max, list(a.vertices), basis, products,
                               unit)
    G.check()
    return PreprojectiveData(G, chains, n, index, [
        f"dropped a possible degree-{delta} extension component in orbit transport"
        for _at, delta in sorted(flags)])


# ---------------------------------------------------------------------------
# the Serre-functor dimension identity
# ---------------------------------------------------------------------------

def serre_rhs_table(b: GradedAlgebra, n_serre: int, i_max: int, l_range):
    """dims of H^l(nu_{n_serre}^{-i}(B)) for 0 <= i <= i_max, l in l_range."""
    gl = rs.gldim_upto(b, max(n_serre, 4))
    hereditary = gl.value is not None and gl.value <= 1
    table = {}
    tables_per_vertex = []
    for v in b.vertices:
        _, tabs = derived_nu_inverse_power(
            b, mo.projective_module(b, v), i_max, n_serre,
            hereditary=hereditary)
        tables_per_vertex.append(tabs)
    for i in range(i_max + 1):
        for l in l_range:
            table[(i, l)] = sum(tabs[i].get(l, 0) for tabs in tables_per_vertex)
    return table


# ---------------------------------------------------------------------------
# injective resolutions of bounded complexes
# ---------------------------------------------------------------------------

def injective_resolution_of_complex(cx: BoundedComplex,
                                    cap: int = 32) -> ComplexResolution:
    """Quasi-isomorphic bounded complex of injectives.

    Peels the lowest term: the brutal truncation above it is resolved
    recursively, the connecting differential is lifted through the minimal
    resolution of the lowest term, and the shifted mapping cone of the lift
    is returned. Terms are labeled sums so the Nakayama correspondence can
    be applied levelwise.
    """
    a = cx.algebra
    degs = [d for d in sorted(cx.terms) if not cx.terms[d].is_zero()]
    if not degs:
        return ComplexResolution({}, {}, {})
    lo = degs[0]
    if len(degs) == 1:
        return injective_resolution_module(cx.terms[lo], lo, cap)
    upper = BoundedComplex(
        a,
        {d: t for d, t in cx.terms.items() if d > lo},
        {d: h for d, h in cx.diffs.items() if d > lo},
    )
    sub = injective_resolution_of_complex(upper, cap)
    # the lowest term is resolved one position up, so the lift psi of its
    # differential is a chain map res -> sub keyed by position
    res = injective_resolution_module(cx.terms[lo], lo + 1, cap)
    if len(res.terms) > cap:
        raise InputError(f"complex resolution exceeds cap {cap}")
    delta = cx.diffs.get(lo)
    if delta is None:
        raise InternalCheckError("missing differential out of the lowest term")
    psi = {p: u for p, (u,) in _lift_stalk_map_into_injectives(
        res, [sub.qis[lo + 1].compose(delta)], sub.terms, sub.diffs).items()}

    # the cone term at p is I = res.terms[p + 1] (+) J = sub.terms[p], so J
    # sits at the offsets I.dims; the differential is [[-d_I, 0], [psi, d_J]]
    # and the comparison map is [mono; q_J]
    def j_offsets(p):
        i_term = res.terms.get(p + 1)
        return i_term.dims if i_term is not None else {}

    all_pos = sorted(set(sub.terms) | {p - 1 for p in res.terms})
    terms = {}
    for p in all_pos:
        i_term, j_term = res.terms.get(p + 1), sub.terms.get(p)
        terms[p] = LabeledSum(a, (i_term.labels if i_term is not None else [])
                              + (j_term.labels if j_term is not None else []), "inj")
    diffs = {}
    for p in all_pos:
        if p + 1 not in terms:
            continue
        pieces = []
        if p + 1 in res.diffs:
            pieces.append((res.diffs[p + 1].scale(-1), {}, {}))
        if p + 1 in psi:
            pieces.append((psi[p + 1], {}, j_offsets(p + 1)))
        if p in sub.diffs:
            pieces.append((sub.diffs[p], j_offsets(p), j_offsets(p + 1)))
        diffs[p] = mo.place(terms[p], terms[p + 1], pieces)
    qis = {}
    for p in degs:
        pieces = [(res.qis[lo + 1], {}, {})] if p == lo else []
        if p in sub.qis:
            pieces.append((sub.qis[p], {}, j_offsets(p)))
        qis[p] = mo.place(cx.terms[p], terms[p], pieces)
    out = ComplexResolution(terms, diffs, qis)
    _validate_complex_resolution(cx, out)
    return out


def _validate_complex_resolution(cx: BoundedComplex, out: ComplexResolution):
    a = cx.algebra
    for p, d in out.diffs.items():
        nxt = out.diffs.get(p + 1)
        if nxt is not None and not nxt.compose(d).is_zero():
            raise InternalCheckError("resolution differential squares to nonzero")
    # the comparison map is a chain map
    for p, q in out.qis.items():
        dx = cx.diffs.get(p)
        dr = out.diffs.get(p)
        if dx is not None and (p + 1) in out.qis:
            lhs = out.qis[p + 1].compose(dx)
            rhs = (dr.compose(q) if dr is not None
                   else mo.zero_hom(q.domain, lhs.codomain))
            for key in set(lhs.blocks) | set(rhs.blocks):
                if lhs.block(*key) != rhs.block(*key):
                    raise InternalCheckError("comparison map is not a chain map")
    # quasi-isomorphism: cohomology dimensions agree
    if cohomology_dims(cx) != cohomology_dims(out.as_complex(a)):
        raise InternalCheckError("resolution changed the cohomology")


def nu_inverse_of_resolution(a: GradedAlgebra, cres: ComplexResolution,
                             n: int) -> BoundedComplex:
    """Apply nu^{-1} levelwise to an injective resolution and shift by [n].

    The terms are labeled projective sums: the term at position p comes from
    the resolution term at p + n.
    """
    proj_terms = {p: LabeledSum(a, ls.labels, "proj")
                  for p, ls in cres.terms.items()}
    diffs = {}
    for p, d in cres.diffs.items():
        if p + 1 not in cres.terms:
            continue
        diffs[p - n] = transport_sum_hom(cres.terms[p], cres.terms[p + 1], d,
                                         proj_terms[p], proj_terms[p + 1])
    return BoundedComplex(a, {p - n: t for p, t in proj_terms.items()}, diffs)


def nu_forward_of_labeled(a: GradedAlgebra, labeled: dict, diffs: dict,
                          n: int) -> BoundedComplex:
    """nu_n = nu(-)[-n] applied to a complex of labeled projective sums.

    Projectives are acyclic for the Nakayama functor, so the application is
    levelwise; positions move up by n.
    """
    inj_terms = {p: LabeledSum(a, ls.labels, "inj") for p, ls in labeled.items()}
    terms = {p + n: inj_terms[p] for p in inj_terms}
    out_diffs = {}
    for p, d in diffs.items():
        if p + 1 not in labeled:
            continue
        out_diffs[p + n] = transport_sum_hom(
            labeled[p], labeled[p + 1], d, inj_terms[p], inj_terms[p + 1])
    return BoundedComplex(a, terms, out_diffs)
