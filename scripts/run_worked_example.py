"""End-to-end run of the four-vertex worked example.

Builds the diamond quiver algebra with all length-two paths zero, forms its
trivial extension, checks 2-T-Koszulity for the tilting module with summand
dimensions (3, 1, 1, 3), and inspects the stable endomorphism algebra.

Usage: python scripts/run_worked_example.py
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from koszulity.algebra import trivial_extension
from koszulity.frobenius import frobenius_analysis
from koszulity.presentation import parse_algebra_file
from koszulity import modules as mo
from koszulity import resolution as rs
from koszulity import truncated as tr
from koszulity import koszul as ko
from koszulity import hereditary as hd

DATA = os.path.join(os.path.dirname(__file__), "..", "tests", "data")


def main():
    t0 = time.time()
    alg, quiver = parse_algebra_file(os.path.join(DATA, "a4.alg"), 3)
    delta = trivial_extension(alg)
    print(f"A: dim {alg.dim}; trivial extension: dim {delta.dim}, "
          f"graded dims {delta.dims_by_degree()}")
    fr = frobenius_analysis(delta)
    print(f"graded Frobenius: a = {fr.a}, symmetric = {fr.symmetric}")

    base_parts = [mo.parse_module_file(os.path.join(DATA, f), alg)
                  for f in ("T1.mod", "T2.mod", "T3.mod", "T4.mod")]
    print("tilting summand dims:", [m.dim for m in base_parts])
    tilt = rs.tilting_module_check(alg, base_parts)
    print(f"tilting over the degree-0 part: {tilt.is_tilting} (pd {tilt.pd})")

    parts = [mo.inflate_module(m, delta) for m in base_parts]
    chain = rs.MinimalCoresolution(parts[0])
    c1, c2 = ko.omega(chain, 1), ko.omega(chain, 2)
    print(f"first cosyzygy of the projective summand: dim {c1.dim}, "
          f"graded {c1.dims_by_degree()}; second: dim {c2.dim}")

    rep = ko.check_n_T_koszul(delta, parts, 2, 6)
    print(f"2-T-Koszul over the window i <= 6: {rep.verdict}")

    tilde = ko.build_t_tilde(delta, parts, 2, fr.a)
    dual = tr.koszul_dual(delta, parts, 2, 1)
    bdata = ko.stable_endomorphism_algebra(delta, tilde, dual=dual)
    print(f"stable endomorphism algebra: dim {bdata.algebra.dim}")
    ri = hd.is_n_rep_infinite_upto(bdata.algebra, 1, 6)
    print(f"B is 1-representation infinite to depth 6: {ri.verdict}")

    table, ok = ko.serre_dimension_identity(delta, tilde, bdata.algebra,
                                            i_max=2, l_min=-2, l_max=2)
    print(f"Serre dimension identity on the window: {ok}")
    print(f"total {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
