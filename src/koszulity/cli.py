"""Command-line interface.

Exit codes: 0 pass/agree, 1 mathematical failure/disagreement, 2 input
error, 3 inconclusive (a bound was hit or only probabilistic evidence is
available). Identical inputs and seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .algebra import InputError, degree_zero_part, trivial_extension
from .presentation import dump_algebra, parse_algebra_file

# Each command handler imports the modules it runs, so that start-up loads
# only those. The imports above serve loading an algebra and `build`.


def __getattr__(name):
    # `cli.frobenius_analysis` stays readable, as frobenius's current binding,
    # but frobenius.py loads only when it is read or `build` runs.
    if name == "frobenius_analysis":
        from .frobenius import frobenius_analysis
        return frobenius_analysis
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The theorems `verify` checks, one verifier each in `verify.py`.
THEOREMS = ("characterization", "nrepfin-char", "param-consistency",
            "preproj-veronese", "serre-identity", "trivext-dual",
            "trivext-koszul")

# Smallest accepted value of each integer option, in the order checked.
MINIMUM = {"n": 1, "i_max": 0, "degree_max": 0, "depth": 0, "orbit_cap": 0,
           "l_max": 0, "path_bound": 1, "r": 1}


def _validate(args):
    for name, low in MINIMUM.items():
        if vars(args).get(name, low) < low:
            bound = "positive" if low else "non-negative"
            raise InputError(f"--{name.replace('_', '-')} must be {bound}")


def _load_algebra(args):
    if not args.algebra:
        raise InputError("--algebra is required")
    alg, quiver = parse_algebra_file(args.algebra, args.path_bound)
    base = alg
    if args.trivext:
        if not alg.is_concentrated_degree_zero():
            raise InputError("--trivext expects an algebra in degree 0")
        alg = trivial_extension(base)
    return alg, base


def _load_summands(args, alg, base):
    from . import modules as mo

    files = args.tilting or args.module
    if files:
        mods = [mo.parse_module_file(p, base) for p in files]
        if args.trivext:
            mods = [mo.inflate_module(m, alg) for m in mods]
        return mods
    a0 = degree_zero_part(alg)
    parts = [mo.projective_module(a0, v) for v in a0.vertices]
    return [mo.inflate_module(p, alg) for p in parts]


def _emit(args, text_lines, payload, exit_code: int) -> int:
    if args.json_out:
        body = json.dumps(payload, indent=2, sort_keys=True)
    else:
        body = "\n".join(text_lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body + "\n")
    else:
        print(body)
    return exit_code


def cmd_build(args) -> int:
    from .frobenius import frobenius_analysis
    from .resolution import gldim_upto

    alg, base = _load_algebra(args)
    alg.validate()
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            fh.write(dump_algebra(alg) + "\n")
    fr = frobenius_analysis(alg, rng=random.Random(args.seed))
    gl = gldim_upto(degree_zero_part(alg), args.i_max)
    dims = alg.dims_by_degree()
    lines = [
        f"algebra {alg.name}",
        f"dim {alg.dim}",
        "graded dims: " + ", ".join(f"{d}:{dims[d]}" for d in sorted(dims)),
    ]
    if fr.is_frobenius:
        lines.append(
            f"graded Frobenius: yes, a = {fr.a}, symmetric = "
            f"{'yes' if fr.symmetric else 'no'}"
        )
        if fr.mu_vertex_permutation is not None:
            lines.append(f"nakayama vertex permutation: {fr.mu_vertex_permutation}")
    else:
        lines.append(f"graded Frobenius: no ({fr.reason})")
    lines.append(f"degree-0 part gldim: {gl}")
    payload = {
        "algebra": alg.name,
        "dim": alg.dim,
        "graded_dims": {str(d): dims[d] for d in sorted(dims)},
        "frobenius": fr.is_frobenius,
        "a": fr.a,
        "symmetric": fr.symmetric,
        "nakayama_vertex_permutation":
            {str(k): v for k, v in (fr.mu_vertex_permutation or {}).items()},
        "gldim0": str(gl),
        "probabilistic": fr.probabilistic,
    }
    return _emit(args, lines, payload, 0)


def cmd_ext(args) -> int:
    from . import modules as mo
    from . import resolution as rs

    alg, base = _load_algebra(args)
    if not args.M or not args.N:
        raise InputError("ext needs --M and --N module files")
    ms = [mo.parse_module_file(p, base) for p in args.M]
    ns = [mo.parse_module_file(p, base) for p in args.N]
    if args.trivext:
        ms = [mo.inflate_module(m, alg) for m in ms]
        ns = [mo.inflate_module(m, alg) for m in ns]
    M = mo.DirectSum(alg, ms) if len(ms) > 1 else ms[0]
    N = mo.DirectSum(alg, ns) if len(ns) > 1 else ns[0]
    res = rs.MinimalResolution(M)
    a = alg.highest_degree()
    j_lo = -(-args.i_max // args.n) if args.n else args.i_max
    table = rs.ext_table(res, N, args.i_max, -j_lo - a - 1, j_lo + a + 1)
    payload = {"dims": {f"{i},{j}": d for (i, j), d in table.dims.items()},
               "i_max": args.i_max, "j_min": table.j_min, "j_max": table.j_max}
    return _emit(args, [table.tsv()], payload, 0)


def cmd_koszul(args) -> int:
    from .koszul import check_n_T_koszul

    alg, base = _load_algebra(args)
    summands = _load_summands(args, alg, base)
    rep = check_n_T_koszul(alg, summands, args.n, args.i_max)
    lines = [f"n-T-Koszul check (n = {args.n}, i_max = {args.i_max}): {rep.verdict}"]
    if rep.counterexample:
        lines.append(f"counterexample (i, j, dim): {rep.counterexample}")
    for k, v in rep.details.items():
        lines.append(f"{k}: {v}")
    lines.append(f"bounds: {rep.window}")
    lines.append(f"probabilistic: {rep.probabilistic}")
    code = 0 if rep.passed else (3 if rep.verdict == "inconclusive" else 1)
    return _emit(args, lines, rep.as_dict(), code)


def cmd_nrep(args) -> int:
    from . import hereditary as hd

    alg, base = _load_algebra(args)
    if not alg.is_concentrated_degree_zero():
        raise InputError("nrep expects an ungraded algebra (degree 0 only)")
    if args.mode == "finite":
        rep = hd.is_n_rep_finite(alg, args.n, orbit_cap=args.orbit_cap)
    else:
        rep = hd.is_n_rep_infinite_upto(alg, args.n, args.depth)
    lines = [f"{args.mode} check (n = {args.n}): "
             f"{'pass' if rep.verdict else 'inconclusive' if rep.verdict is None else 'fail'}"]
    if rep.reason:
        lines.append(f"reason: {rep.reason}")
    for o in rep.orbits:
        lines.append(f"orbit {o.projective}: m = {o.m}, endpoint = {o.endpoint}")
    if rep.depth is not None:
        lines.append(f"depth: {rep.depth}")
    # a probabilistic "no" is not a certified failure
    code = 0 if rep.verdict else (
        3 if rep.verdict is None or rep.probabilistic else 1)
    return _emit(args, lines, rep.as_dict(), code)


def cmd_preprojective(args) -> int:
    from .hereditary import preprojective_algebra

    alg, base = _load_algebra(args)
    if not alg.is_concentrated_degree_zero():
        raise InputError("preprojective expects an ungraded algebra")
    pp = preprojective_algebra(alg, args.n, args.degree_max)
    dims = pp.algebra.dims()
    lines = ["preprojective degree dims: "
             + ",".join(str(dims[d]) for d in range(args.degree_max + 1))]
    if pp.flags:
        lines.append("flags: " + "; ".join(pp.flags))
    payload = {"dims": {str(d): dims[d] for d in sorted(dims)},
               "flags": pp.flags}
    return _emit(args, lines, payload, 3 if pp.flags else 0)


def cmd_veronese(args) -> int:
    from . import truncated as tr

    alg, base = _load_algebra(args)
    G = tr.truncate_algebra(alg, args.degree_max)
    GV = tr.quasi_veronese(G, args.r)
    payload = {"dims": {str(d): GV.dim(d) for d in range(GV.cutoff + 1)}}
    return _emit(args, [GV.dump()], payload, 0)


def cmd_dual(args) -> int:
    from .truncated import koszul_dual

    alg, base = _load_algebra(args)
    summands = _load_summands(args, alg, base)
    dual = koszul_dual(alg, summands, args.n, args.degree_max)
    payload = {"dims": {str(d): dual.algebra.dim(d)
                        for d in range(args.degree_max + 1)}}
    return _emit(args, [dual.algebra.dump()], payload, 0)


def cmd_verify(args) -> int:
    from . import verify as vf

    alg, base = _load_algebra(args)
    theorem = args.theorem
    if theorem in ("trivext-koszul", "trivext-dual"):
        if args.trivext:
            target = base
        else:
            if not alg.is_concentrated_degree_zero():
                raise InputError(f"{theorem} expects the degree-0 base algebra")
            target = alg
        if theorem == "trivext-koszul":
            rep = vf.verify_trivext_koszul(target, args.n, i_max=args.i_max,
                                           depth=args.depth, seed=args.seed)
        else:
            rep = vf.verify_trivext_dual(target, args.n, d_max=args.degree_max,
                                         seed=args.seed)
    else:
        summands = _load_summands(args, alg, base)
        if theorem == "characterization":
            rep = vf.verify_characterization(alg, summands, args.n,
                                             i_max=args.i_max, depth=args.depth,
                                             seed=args.seed)
        elif theorem == "preproj-veronese":
            rep = vf.verify_preproj_veronese(alg, summands, args.n,
                                             d_max=args.degree_max, seed=args.seed)
        elif theorem == "nrepfin-char":
            rep = vf.verify_nrepfin_char(alg, summands, args.n,
                                         l_max=args.l_max,
                                         orbit_cap=args.orbit_cap, seed=args.seed)
        elif theorem == "param-consistency":
            rep = vf.verify_param_consistency(alg, summands, args.n,
                                              l_max=args.l_max,
                                              orbit_cap=args.orbit_cap,
                                              seed=args.seed)
        elif theorem == "serre-identity":
            rep = vf.verify_serre_identity(alg, summands, args.n,
                                           i_max=min(args.i_max, 3),
                                           seed=args.seed)
        else:
            raise InputError(f"unhandled theorem {theorem!r}")
    verdict = ("agree" if rep.agree else
               "inconclusive" if rep.agree is None else "disagree")
    lines = [
        f"verify {rep.theorem}: {verdict}",
        f"left:  {rep.left}",
        f"right: {rep.right}",
        f"bounds: {rep.bounds}",
        f"probabilistic: {rep.probabilistic}",
    ]
    for k, v in rep.details.items():
        lines.append(f"{k}: {v}")
    for c in rep.citations:
        lines.append(f"note: {c}")
    return _emit(args, lines, rep.as_dict(), rep.exit_code)


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="koszulity",
        description="exact checks for graded quiver algebras: Ext tables, "
                    "higher Koszulity, representation type, preprojective "
                    "algebras",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text, modules=False):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        sp.add_argument("--algebra", required=True)
        sp.add_argument("--path-bound", type=int, default=12)
        sp.add_argument("--trivext", action="store_true",
                        help="work over the trivial extension of the algebra")
        sp.add_argument("--n", type=int, default=1)
        sp.add_argument("--i-max", type=int, default=8)
        sp.add_argument("--degree-max", type=int, default=6)
        sp.add_argument("--depth", type=int, default=6)
        sp.add_argument("--orbit-cap", type=int, default=24)
        sp.add_argument("--l-max", type=int, default=16)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--json", action="store_true", dest="json_out")
        sp.add_argument("--out")
        if modules:
            sp.add_argument("--module", action="append", default=[])
            sp.add_argument("--tilting", action="append", default=[])
        return sp

    sp = command("build", cmd_build, "validate and summarize an algebra file")
    sp.add_argument("--dump", help="write the recovered presentation here")
    sp = command("ext", cmd_ext, "bigraded Ext table")
    sp.add_argument("--M", action="append", default=[])
    sp.add_argument("--N", action="append", default=[])
    command("koszul", cmd_koszul, "n-T-Koszulity check", modules=True)
    sp = command("nrep", cmd_nrep, "higher representation type")
    sp.add_argument("--mode", choices=["finite", "infinite"], default="infinite")
    command("preprojective", cmd_preprojective,
            "higher preprojective algebra dims")
    sp = command("veronese", cmd_veronese, "quasi-Veronese of a graded algebra")
    sp.add_argument("--r", type=int, default=1)
    command("dual", cmd_dual, "Ext algebra of a tilting module", modules=True)
    sp = command("verify", cmd_verify, "two-sided theorem verification",
                 modules=True)
    sp.add_argument("theorem", choices=THEOREMS)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        _validate(args)
        return args.handler(args)
    except (InputError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
