"""The paper's n = 2 examples, end to end through the command line.

beil2 is the Beilinson algebra of P^2: 2-representation infinite and
2-representation tame (Herschend-Iyama-Oppermann, Adv. Math. 252, 2014).
ausA3 is the Auslander algebra of linear A3: 2-representation finite
(Iyama, Adv. Math. 226, 2011).
"""

from math import comb

from koszulity import hereditary as hd
from koszulity.cli import main
from conftest import data_path

BEIL2 = data_path("beil2.alg")
AUSA3 = data_path("ausA3.alg")


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out.splitlines()


def test_beilinson_is_2_rep_infinite_to_depth_3(capsys):
    code, out = run(capsys, "nrep", "--algebra", BEIL2, "--mode", "infinite",
                    "--n", "2", "--depth", "3")
    assert code == 0
    assert out == ["infinite check (n = 2): pass", "depth: 3"]


def test_beilinson_trivext_koszul_agrees_on_pass(capsys):
    code, out = run(capsys, "verify", "trivext-koszul", "--algebra", BEIL2,
                    "--n", "2", "--i-max", "4", "--depth", "3")
    assert code == 0
    assert out[:3] == ["verify trivext-koszul: agree",
                       "left:  Delta A (n+1)-Koszul wrt A: pass",
                       "right: A 2-rep-infinite to depth 3: True"]


def test_beilinson_characterization_agrees_on_pass(capsys):
    code, out = run(capsys, "verify", "characterization", "--algebra", BEIL2,
                    "--trivext", "--n", "3", "--i-max", "4", "--depth", "3")
    assert code == 0
    assert out[:3] == [
        "verify characterization: agree", "left:  n-T-Koszul: pass",
        "right: tilting-object rigidity: pass; (na-1)-rep-infinite to depth 3: True"]


def test_beilinson_preprojective_matches_closed_form(capsys, monkeypatch):
    # Pi_3 of beil2: the (s, t) block of degree d has dimension
    # C(3d + t - s + 2, 2), or 0 when 3d + t - s < 0
    built = []

    def keep(*args, **kwargs):
        built.append(preprojective(*args, **kwargs))
        return built[-1]

    preprojective = hd.preprojective_algebra
    monkeypatch.setattr(hd, "preprojective_algebra", keep)
    code, out = run(capsys, "preprojective", "--algebra", BEIL2, "--n", "2",
                    "--degree-max", "2")
    assert code == 0
    assert out == ["preprojective degree dims: 15,96,258"]
    [pp] = built
    for d in range(3):
        assert pp.algebra.bigraded_dims(d) == {
            (s, t): comb(3 * d + t - s + 2, 2)
            for s in (1, 2, 3) for t in (1, 2, 3) if 3 * d + t - s >= 0}


def test_auslander_a3_is_2_rep_finite(capsys):
    code, out = run(capsys, "nrep", "--algebra", AUSA3, "--mode", "finite",
                    "--n", "2")
    assert code == 0
    assert out[0] == "finite check (n = 2): pass"


def test_auslander_a3_trivext_koszul_agrees_on_fail(capsys):
    code, out = run(capsys, "verify", "trivext-koszul", "--algebra", AUSA3,
                    "--n", "2")
    assert code == 0
    assert out[:3] == [
        "verify trivext-koszul: agree",
        "left:  Delta A (n+1)-Koszul wrt A: fail",
        "right: A 2-rep-infinite to depth 6: False H^-2(nu_n^-1 A) nonzero"]


def test_auslander_a3_trivext_dual_agrees(capsys):
    code, out = run(capsys, "verify", "trivext-dual", "--algebra", AUSA3,
                    "--n", "2", "--degree-max", "3")
    assert code == 0
    assert out[:3] == ["verify trivext-dual: agree",
                       "left:  Pi_3(A) dims {0: 15, 1: 5, 2: 1, 3: 0}",
                       "right: dual dims {0: 15, 1: 5, 2: 1, 3: 0}"]
