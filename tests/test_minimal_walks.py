"""The two minimal walks: cover-then-kernel (`rs.MinimalResolution`) and
envelope-then-cokernel (`rs.MinimalCoresolution`).

Every reader of Omega^k M or Omega^{-k} M reads these two records. These
tests compare them with the routes they replace
(`conftest.injective_resolution_by_envelope_loop`, `conftest.cover_data`),
compare the gamma map, which reads Omega^{nj}(f) off a chain lift, with
`conftest.gamma_by_cover_data`, which walks it one syzygy at a time, read
past the end of a finite resolution, and reach the traps of the readers: a
non-minimal cover or envelope, an injective resolution longer than its cap,
and a module outside degree 0 for the ungraded envelope.
"""

import random

import pytest

from conftest import (cover_data, data_path, gamma_by_cover_data,
                      injective_resolution_by_envelope_loop, rel)
from koszulity import hereditary as hd
from koszulity import koszul as ko
from koszulity import modules as mo
from koszulity import resolution as rs
from koszulity import truncated as tr
from koszulity.algebra import InputError, InternalCheckError
from koszulity.presentation import Arrow, Quiver, build_algebra, parse_algebra_file


@pytest.fixture(scope="module")
def stalk_algebras(a2, kron, a4):
    return [a2, kron, a4, parse_algebra_file(data_path("beil2.alg"))[0],
            parse_algebra_file(data_path("ausA3.alg"))[0]]


def assert_same_resolution(got, want):
    assert sorted(got.terms) == sorted(want.terms)
    for p, inj in want.terms.items():
        assert got.terms[p].labels == inj.labels
        assert got.terms[p].dims == inj.dims
    for maps_got, maps_want in ((got.diffs, want.diffs), (got.qis, want.qis)):
        assert sorted(maps_got) == sorted(maps_want)
        for p, h in maps_want.items():
            assert maps_got[p].domain.dims == h.domain.dims
            assert maps_got[p].codomain.dims == h.codomain.dims
            assert maps_got[p].blocks == h.blocks


def test_stalk_resolutions_match_the_envelope_loop(stalk_algebras):
    for alg in stalk_algebras:
        for v in alg.vertices:
            for m in (mo.simple_module(alg, v), mo.projective_module(alg, v)):
                for pos in (0, -2):
                    got = hd.injective_resolution_module(m, pos)
                    assert_same_resolution(got, injective_resolution_by_envelope_loop(m, pos))
                    assert got.as_complex(alg).validate()


def assert_same_module(got, want):
    assert got.dims == want.dims and got.action == want.action


@pytest.mark.parametrize("name", ["delta_a4", "x3"])
def test_covers_match_the_cover_data_route(name, request):
    alg = request.getfixturevalue(name)
    if name == "x3":
        k = mo.simple_module(alg, 1)
        mods = [k, mo.cokernel(mo.map_from_projective(
            mo.projective_module(alg, 1, 2), mo.projective_module(alg, 1),
            {(1, 2): {0: 1}}))[0]]
    else:
        mods = request.getfixturevalue("t_summands")
    for m in mods:
        res, ref = rs.MinimalResolution(m), cover_data(m)
        for i in range(3):
            # the epi built again from the syzygy is the one the step built
            assert res.cover(i).blocks == ref[0].blocks
            assert res.cover(i).domain.gens == res.terms[i].gens
            assert_same_module(res.syzygy(i + 1), ref[1])
            ref = cover_data(ref[1])


def truncated_polynomial(k):
    """k[x]/x^k with x in degree 1."""
    q = Quiver(1, (Arrow("x", 1, 1, 1),))
    return build_algebra(q, [rel("*".join("x" * k))], k, name=f"x{k}")


def cyclic_nakayama(length):
    """The self-injective Nakayama algebra on the cycle 1 -> 2 -> 1 with
    Loewy length `length`, arrows in degree 1."""
    q = Quiver(2, (Arrow("a", 1, 2, 1), Arrow("b", 2, 1, 1)))
    paths = ["*".join((("a", "b") * length)[i:i + length]) for i in (0, 1)]
    return build_algebra(q, [rel(p) for p in paths], length, name=f"nak{length}")


GAMMA_INPUTS = ([(f"x{k}", n) for k in (3, 4, 5) for n in (1, 2, 3)]
                + [(f"nak{length}", n) for length in (3, 4) for n in (1, 2)]
                + [("delta_a4", 2)])


@pytest.mark.parametrize("name, n", GAMMA_INPUTS,
                         ids=[f"{name}-n{n}" for name, n in GAMMA_INPUTS])
def test_gamma_matches_the_cover_data_route(name, n, request):
    # simples as summands (T1-T4 over Delta(a4)), a the highest degree;
    # gamma reads Omega^{nj}(f) off a chain lift, the reference walks it
    if name == "delta_a4":
        alg, summands = request.getfixturevalue(name), request.getfixturevalue("t_summands")
    else:
        k = int(name[-1])
        alg = truncated_polynomial(k) if name[0] == "x" else cyclic_nakayama(k)
        summands = [mo.simple_module(alg, v) for v in alg.vertices]
    a = alg.highest_degree()
    tilde = ko.build_t_tilde(alg, summands, n, a)
    dual = tr.koszul_dual(alg, summands, n, max(a - 1, 1))
    bdata = ko.stable_endomorphism_algebra(alg, tilde, dual=dual)
    got = ko.gamma_block_map(bdata, dual, rng=random.Random(0))
    assert got == gamma_by_cover_data(bdata, dual, rng=random.Random(0))
    assert len(got) == bdata.algebra.dim
    assert all(any(coords) for _key, coords in got.values())


def test_syzygies_past_the_end_are_zero(a4):
    res = rs.MinimalResolution(mo.projective_module(a4, 1))
    assert not res.syzygy(0).is_zero()
    assert res.syzygy(1).is_zero() and res.syzygy(4).is_zero()
    assert [t.rank for t in res.terms] == [1, 0]
    core = rs.MinimalCoresolution(mo.simple_module(a4, 1))   # S_1 = D(Ae_1)
    assert core.cosyzygy(1).is_zero() and core.cosyzygy(3).is_zero()
    assert len(core.terms) == 1


def padded_cover(real):
    """A non-minimal cover: the minimal one plus a second copy of its first
    projective, sent to zero."""
    def cover(m):
        P, epi, tags = real(m)
        Q = mo.FormalProjective(m.algebra, tags + tags[:1])
        values = [epi.apply(P.generator_element(k)) for k in range(P.rank)] + [{}]
        pad = mo.place(Q, m, [(mo.map_from_projective(part, m, val), off, {})
                              for part, off, val in zip(Q.parts, Q.offsets, values)])
        return Q, pad, Q.gens
    return cover


def padded_envelope(real):
    """A non-minimal envelope: the minimal one plus a second copy of its
    first injective, missed by the mono."""
    def envelope(m):
        I, mono, tags = real(m)
        J = mo.DirectSum(m.algebra, I.parts + I.parts[:1])
        return J, mo.place(m, J, [(mono, {}, {})]), tags + tags[:1]
    return envelope


def test_syzygy_trap_catches_a_non_minimal_cover(dualnum, monkeypatch):
    monkeypatch.setattr(mo, "projective_cover", padded_cover(mo.projective_cover))
    res = rs.MinimalResolution(mo.simple_module(dualnum, 1))
    with pytest.raises(InternalCheckError,
                       match="syzygy of a minimal cover has a projective summand"):
        ko.omega(res, 1)


def test_cosyzygy_trap_catches_a_non_minimal_envelope(dualnum, monkeypatch):
    monkeypatch.setattr(mo, "injective_envelope", padded_envelope(mo.injective_envelope))
    core = rs.MinimalCoresolution(mo.simple_module(dualnum, 1))
    with pytest.raises(InternalCheckError,
                       match="cosyzygy of a minimal envelope has a projective summand"):
        ko.omega(core, 1)


def test_injective_resolution_trap_at_its_cap(a2):
    # S_2 over a2 is not injective: its resolution needs a second term
    s2 = mo.simple_module(a2, 2)
    with pytest.raises(InputError, match="injective resolution exceeds cap 0"):
        hd.injective_resolution_module(s2, 0, cap=0)
    assert sorted(hd.injective_resolution_module(s2, 0, cap=1).terms) == [0, 1]


def test_ungraded_envelope_trap_outside_degree_zero(a2):
    with pytest.raises(InputError, match="ungraded envelope expects degree-0 modules"):
        hd.injective_resolution_module(mo.simple_module(a2, 1, 1), 0)
