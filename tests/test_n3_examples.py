"""The n = 3 examples, end to end through the command line.

lin4r2 is linear A4 modulo the square of its radical, Iyama's A^(3)_2:
3-representation finite, of global dimension 3 ("Cluster tilting for higher
Auslander algebras", Adv. Math. 226, 2011). beil3 is the Beilinson algebra
of P^3, 3-representation infinite. Every check here is one homological
degree deeper than at n = 2.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

from koszulity.cli import main
from conftest import data_path

LIN4R2 = data_path("lin4r2.alg")
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out.splitlines()


def test_lin4r2_is_3_rep_finite(capsys):
    code, out = run(capsys, "nrep", "--algebra", LIN4R2, "--mode", "finite",
                    "--n", "3")
    assert code == 0
    assert out == ["finite check (n = 3): pass",
                   "orbit 1: m = 0, endpoint = 2",
                   "orbit 2: m = 0, endpoint = 3",
                   "orbit 3: m = 0, endpoint = 4",
                   "orbit 4: m = 1, endpoint = 1"]


def test_lin4r2_is_not_2_rep_finite(capsys):
    code, out = run(capsys, "nrep", "--algebra", LIN4R2, "--mode", "finite",
                    "--n", "2")
    assert code == 1
    assert out == ["finite check (n = 2): fail",
                   "reason: global dimension 3 exceeds 2"]


def test_lin4r2_trivext_koszul_agrees_on_fail(capsys):
    code, out = run(capsys, "verify", "trivext-koszul", "--algebra", LIN4R2,
                    "--n", "3")
    assert code == 0
    assert out[:3] == [
        "verify trivext-koszul: agree",
        "left:  Delta A (n+1)-Koszul wrt A: fail",
        "right: A 3-rep-infinite to depth 6: False H^-3(nu_n^-1 A) nonzero"]


def test_lin4r2_trivext_dual_agrees(capsys):
    code, out = run(capsys, "verify", "trivext-dual", "--algebra", LIN4R2,
                    "--n", "3", "--degree-max", "3")
    assert code == 0
    assert out[:3] == ["verify trivext-dual: agree",
                       "left:  Pi_4(A) dims {0: 7, 1: 1, 2: 0, 3: 0}",
                       "right: dual dims {0: 7, 1: 1, 2: 0, 3: 0}"]


def test_beil3_is_3_rep_infinite_to_depth_1():
    # The Beilinson algebra of P^3 (56-dimensional) is 3-RI
    # (Herschend-Iyama-Oppermann, Adv. Math. 252, 2014). The child runs
    # under a 2 GiB address-space cap: dense module actions took 173 MiB
    # here, and one step deeper passed 2 GiB.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 1024 ** 3, 2 * 1024 ** 3))

    proc = subprocess.run(
        [sys.executable, "-m", "koszulity.cli", "nrep", "--algebra",
         data_path("beil3.alg"), "--mode", "infinite", "--n", "3", "--depth", "1"],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
        timeout=300, preexec_fn=cap)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["infinite check (n = 3): pass", "depth: 1"]
