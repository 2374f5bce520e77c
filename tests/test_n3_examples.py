"""An n = 3 example, end to end through the command line.

lin4r2 is linear A4 modulo the square of its radical, Iyama's A^(3)_2:
3-representation finite, of global dimension 3 ("Cluster tilting for higher
Auslander algebras", Adv. Math. 226, 2011). Every check here is one
homological degree deeper than at n = 2.
"""

from koszulity.cli import main
from conftest import data_path

LIN4R2 = data_path("lin4r2.alg")


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
