"""Memory bounds of whole commands, each run in a fresh interpreter, and a
check that the product-table builders leave none of their working data
behind.

The Hom and graded-isomorphism linear systems are kept as sparse vectors,
and every `Matrix` holds only its nonzero entries. A direct sum, such as a
term of a resolution, builds its block-diagonal action on demand and holds
none. These tests bound what a command may hold at its peak, so a dense
constraint row, a dense Hom basis, dense matrices or held term actions
coming back fail here.
"""

import gc
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from koszulity import hereditary as hd, resolution as rs, truncated as tr

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
MIB = 2 ** 20
TILTING = [x for k in range(1, 5) for x in ("--tilting", f"{DATA}/T{k}.mod")]
EXT_MODULES = [x for flag in ("--M", "--N") for k in range(1, 5)
               for x in (flag, f"{DATA}/T{k}.mod")]

# Peak of Python allocations while one command runs, after every koszulity
# module is imported, so import-time allocations are left out.
PROBE = """
import contextlib, importlib, io, json, sys, tracemalloc
for name in ("algebra", "cli", "frobenius", "hereditary", "koszul", "linalg",
             "modules", "presentation", "resolution", "truncated", "verify"):
    importlib.import_module("koszulity." + name)
from koszulity.cli import main
tracemalloc.start()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, tracemalloc.get_traced_memory()[1]]))
"""


def traced_peak(argv):
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                          cwd=ROOT, env=ENV, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv, bound_mib", [
    # about 1.3 MiB with sparse Hom kernels; 4.4 MiB with a dense Hom basis
    (["verify", "characterization", "--algebra", f"{DATA}/a4.alg", "--trivext",
      *TILTING, "--n", "2", "--i-max", "6"], 2.0),
    # about 1.97 MiB when each orbit step's data and each class's chain
    # lift die after their last reader; 2.63 MiB holding both to the end of
    # their builders, 2.32 MiB holding only the step data, 2.27 MiB only the
    # lifts, 4.9 MiB with dense constraint rows
    (["verify", "trivext-dual", "--algebra", f"{DATA}/kron.alg", "--n", "1",
      "--degree-max", "4"], 2.2),
    # about 1.5 MiB when each Ext group is dropped once its dimension is
    # read; 2.6 MiB keeping every group
    (["ext", "--algebra", f"{DATA}/a4.alg", "--trivext", "--n", "2",
      "--i-max", "12", *EXT_MODULES], 2.2),
    # about 6.6 MiB with sparse matrices, no held term actions and no held
    # Ext groups; 17.4 MiB keeping every group, 31.3 MiB with dense
    # matrices and each term's dense block-diagonal action held
    (["ext", "--algebra", f"{DATA}/a4.alg", "--trivext", "--n", "2",
      "--i-max", "30", *EXT_MODULES], 9.0),
], ids=["characterization-a4", "trivext-dual-kron-d4", "ext-a4-i12", "ext-a4-i30"])
def test_traced_peak_is_bounded(argv, bound_mib):
    code, peak = traced_peak(argv)
    assert code == 0
    assert peak <= bound_mib * MIB, f"peak {peak / MIB:.2f} MiB"


def test_builders_hold_no_step_data_or_chain_lifts(kron, delta_kron, kron_summands):
    # each orbit step's resolution, complex and cohomology, and each Ext
    # class's chain lift, die after their last reader: none is reachable
    # from the returned algebras, and none is left over for the collector
    pp = hd.preprojective_algebra(kron, 1, 5)
    dual = tr.koszul_dual(delta_kron, kron_summands, 2, 4)
    gc.collect()
    held = [type(x).__name__ for x in gc.get_objects()
            if isinstance(x, (hd.StepData, rs.CocycleLift))]
    assert held == []
    assert pp.algebra.dims() and dual.algebra.dims()


def test_beilinson_trivext_dual_runs_in_bounded_memory():
    # Pi_3 of the Beilinson algebra of P^2 against the dual of its trivial
    # extension: 96 x 96 unknowns in degree 1. Dense constraint rows took
    # gigabytes here; the child runs under a 1 GiB address-space cap.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1024 * MIB, 1024 * MIB))

    proc = subprocess.run(
        [sys.executable, "-m", "koszulity.cli", "verify", "trivext-dual",
         "--algebra", f"{DATA}/beil2.alg", "--n", "2", "--degree-max", "1"],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=300,
        preexec_fn=cap)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "verify trivext-dual: agree"
    assert lines[1] == "left:  Pi_3(A) dims {0: 15, 1: 96}"
    assert lines[2] == "right: dual dims {0: 15, 1: 96}"
