import json

import pytest

from koszulity.cli import main
from koszulity import hereditary as hd
from koszulity import modules as mo
from koszulity import truncated as tr
from koszulity import verify as vf
from conftest import data_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_delta(capsys):
    code, out, _ = run(capsys, "build", "--algebra", data_path("a4.alg"),
                       "--trivext")
    assert code == 0
    assert "dim 16" in out
    assert "a = 1" in out and "symmetric = yes" in out
    assert "gldim: 2" in out


def test_build_dualnum(capsys):
    code, out, _ = run(capsys, "build", "--algebra", data_path("dualnum.alg"))
    assert code == 0
    assert "dim 2" in out and "a = 1" in out and "symmetric = yes" in out


def test_build_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra bad\nvertices 1\narrow x 1 1 1\narrow y 1 1 2\n"
                   "relation x - y\nend\n")
    code, _, err = run(capsys, "build", "--algebra", str(bad))
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("suffix, text, field", [
    (".alg", "algebra bad\nvertices two\nend\n", "'two'"),
    (".alg", "algebra bad\nvertices 1\narrow x 1 1 one\nend\n", "'one'"),
    (".mod", "module k over x3\nspace 1 zero 1\nend\n", "'zero'"),
    (".mod", "module k over x3\nspace 1 0 1\naction x 0 matrix y\nend\n", "'y'"),
    (".alg", "algebra bad\nvertices\nend\n", "'vertices'"),
    (".mod", "module k over x3\nspace 1 0\nend\n", "'space 1 0'"),
], ids=["vertices", "arrow", "space", "action", "short-vertices", "short-space"])
def test_malformed_number_field_is_an_input_error(tmp_path, capsys, suffix,
                                                  text, field):
    # a field that is not a number, or missing, exits 2 and names its line
    bad = tmp_path / f"bad{suffix}"
    bad.write_text(text)
    if suffix == ".alg":
        argv = ["build", "--algebra", str(bad)]
    else:
        argv = ["verify", "nrepfin-char", "--algebra", data_path("x3.alg"),
                "--module", str(bad), "--n", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and field in err


@pytest.mark.parametrize("argv, flag, bound", [
    (["build", "--n", "0"], "--n", "must be positive"),
    (["build", "--i-max", "-1"], "--i-max", "must be non-negative"),
    (["veronese", "--r", "0"], "--r", "must be positive"),
])
def test_out_of_range_option_is_an_input_error(capsys, argv, flag, bound):
    code, out, err = run(capsys, *argv, "--algebra", data_path("a2.alg"))
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and flag in err and bound in err


def test_build_missing_file(capsys):
    code, _, err = run(capsys, "build", "--algebra", "no-such-file.alg")
    assert code == 2


def tilting_files(flag):
    return [x for t in ("T1", "T2", "T3", "T4")
            for x in (flag, data_path(f"{t}.mod"))]


def test_ext_table_section6(capsys):
    code, out, _ = run(capsys, "ext", "--algebra", data_path("a4.alg"),
                       "--trivext", "--n", "2", "--i-max", "4",
                       *tilting_files("--M"), *tilting_files("--N"))
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    header = [int(x) for x in rows[0][1:]]
    for row in rows[1:]:
        i = int(row[0])
        for j, val in zip(header, row[1:]):
            if int(val):
                assert i == 2 * j


def test_ext_table_deep_window(capsys):
    # The recorded table is the report of the dense elimination that the
    # sparse echelon core replaced; it must keep matching byte for byte.
    code, out, _ = run(capsys, "ext", "--algebra", data_path("a4.alg"),
                       "--trivext", "--n", "2", "--i-max", "12",
                       *tilting_files("--M"), *tilting_files("--N"))
    assert code == 0
    with open(data_path("ext_a4_trivext_T_i12.tsv")) as fh:
        assert out == fh.read()
    rows = [line.split("\t") for line in out.strip().splitlines()]
    header = [int(x) for x in rows[0][1:]]
    diagonal = [int(rows[1 + 2 * k][1 + header.index(k)]) for k in range(7)]
    assert diagonal == [10, 22, 42, 54, 74, 86, 106]


def test_koszul_command(capsys):
    code, out, _ = run(capsys, "koszul", "--algebra", data_path("kron.alg"),
                       "--trivext", "--n", "2", "--i-max", "5")
    assert code == 0
    assert "pass" in out


def test_koszul_command_failure_exit(capsys):
    # kA2 is representation finite, so its trivial extension is not
    # 2-Koszul with respect to the degree-0 part
    code, out, _ = run(capsys, "koszul", "--algebra", data_path("a2.alg"),
                       "--trivext", "--n", "2", "--i-max", "5")
    assert code == 1
    assert "fail" in out
    code2, out2, _ = run(capsys, "koszul", "--algebra",
                         data_path("dualnum.alg"), "--n", "2", "--i-max", "5")
    assert code2 == 1


def test_nrep_json(capsys):
    code, out, _ = run(capsys, "nrep", "--algebra", data_path("a2.alg"),
                       "--mode", "finite", "--n", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert sorted(o["m"] for o in payload["orbits"]) == [0, 1]


def test_nrep_infinite_fail_exit(capsys):
    code, out, _ = run(capsys, "nrep", "--algebra", data_path("a2.alg"),
                       "--mode", "infinite", "--n", "1")
    assert code == 1


def test_nrep_infinite_fails_at_first_spread_step(capsys):
    # over a4 (gldim 2) nu_2^{-1} A has cohomology in degrees -2 and -1; the
    # step's table is exact, so it settles "no" at depth 1
    code, out, _ = run(capsys, "nrep", "--algebra", data_path("a4.alg"),
                       "--mode", "infinite", "--n", "2", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] is False and payload["depth"] == 1
    assert payload["reason"] == "H^-2(nu_n^-1 A) nonzero"


def test_preprojective_rejects_spread_orbit(capsys):
    code, _, err = run(capsys, "preprojective", "--algebra", data_path("a4.alg"),
                       "--n", "2")
    assert code == 2
    assert "orbit does not stay a single stalk" in err


def test_preprojective_dims(capsys):
    code, out, _ = run(capsys, "preprojective", "--algebra",
                       data_path("a2.alg"), "--n", "1", "--degree-max", "4")
    assert code == 0
    assert "3,1,0,0,0" in out


def test_veronese_identity_echo(capsys):
    code, out, _ = run(capsys, "veronese", "--algebra", data_path("x3.alg"),
                       "--r", "1", "--degree-max", "2")
    assert code == 0
    assert "cutoff 2" in out


def test_dual_command(capsys):
    code, out, _ = run(capsys, "dual", "--algebra", data_path("dualnum.alg"),
                       "--module", data_path("k_dualnum.mod"),
                       "--n", "1", "--degree-max", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == {str(d): 1 for d in range(5)}


def test_verify_trivext_koszul(capsys):
    code, out, _ = run(capsys, "verify", "trivext-koszul",
                       "--algebra", data_path("kron.alg"), "--n", "1",
                       "--i-max", "5", "--depth", "5")
    assert code == 0
    assert "agree" in out


def test_verify_exit_codes_disagree_is_not_used_for_joint_failure(capsys):
    # both sides fail on kA2, so the equivalence holds and the exit is 0
    code, out, _ = run(capsys, "verify", "trivext-koszul",
                       "--algebra", data_path("a2.alg"), "--n", "1",
                       "--i-max", "5", "--depth", "5")
    assert code == 0


def test_verify_trivext_koszul_a4_agrees_on_failure(capsys):
    # Delta(a4) is not 3-Koszul wrt a4, and a4 is not 2-rep-infinite
    code, out, _ = run(capsys, "verify", "trivext-koszul",
                       "--algebra", data_path("a4.alg"), "--n", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["left"].endswith(": fail")
    assert payload["right"].startswith("A 2-rep-infinite to depth 6: False ")


@pytest.mark.parametrize("argv, recorded", [
    (["verify", "trivext-dual", "--algebra", "kron.alg", "--n", "1",
      "--degree-max", "2"], "verify_trivext_dual_kron_d2.txt"),
    (["verify", "preproj-veronese", "--algebra", "x3.alg",
      "--module", "k_x3.mod", "--n", "1", "--degree-max", "3"],
     "verify_preproj_veronese_x3_d3.txt"),
    (["verify", "characterization", "--algebra", "kron.alg", "--trivext",
      "--n", "2", "--i-max", "3"], "verify_characterization_kron_trivext_n2_i3.txt"),
    (["verify", "param-consistency", "--algebra", "nak2.alg"],
     "verify_param_consistency_nak2.txt"),
])
def test_verify_report_bytes(capsys, argv, recorded):
    # These reports lift maps through projective covers, envelopes and
    # syzygies, and follow nu_n^{-1} orbits; they must match the recorded
    # reports byte for byte.
    argv = [data_path(a) if a.endswith((".alg", ".mod")) else a for a in argv]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    with open(data_path(recorded)) as fh:
        assert out == fh.read()


def test_nrep_probabilistic_no_is_inconclusive(capsys, monkeypatch):
    # an uncertified "not isomorphic" leaves the orbit endpoints unproven
    monkeypatch.setattr(mo, "is_isomorphic",
                        lambda m, n, rng=None: mo.IsoVerdict(None, False))
    code, out, _ = run(capsys, "nrep", "--algebra", data_path("a2.alg"),
                       "--mode", "finite", "--n", "1", "--json")
    assert json.loads(out)["probabilistic"] is True
    assert code == 3


@pytest.mark.parametrize("owner, name, fake, argv", [
    (hd, "identify_injective", lambda a, m, rng=None: (None, True),
     ["nrepfin-char", "--algebra", "x3.alg", "--module", "k_x3.mod",
      "--n", "1"]),
    (tr, "find_graded_iso",
     lambda *args, **kw: tr.GradedIsoReport(False, probabilistic=True),
     ["trivext-dual", "--algebra", "kron.alg", "--n", "1",
      "--degree-max", "2"]),
], ids=["nrepfin-char", "trivext-dual"])
def test_verify_probabilistic_disagree_is_inconclusive(capsys, monkeypatch,
                                                       owner, name, fake, argv):
    # a "disagree" resting on an uncertified "no" proves nothing either way
    monkeypatch.setattr(owner, name, fake)
    argv = [data_path(a) if a.endswith((".alg", ".mod")) else a for a in argv]
    code, out, _ = run(capsys, "verify", *argv)
    assert "disagree" in out and "probabilistic: True" in out
    assert code == 3


THEOREM_IDS = ["characterization", "nrepfin-char", "param-consistency",
               "preproj-veronese", "serre-identity", "trivext-dual",
               "trivext-koszul"]


def test_verify_help_lists_the_theorem_ids(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "{" + ",".join(THEOREM_IDS) + "}" in capsys.readouterr().out


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_every_theorem_id_reaches_its_verifier(capsys, monkeypatch, theorem):
    # each id the parser accepts calls the verifier of the same name
    reached = []

    def fake(name):
        return lambda *args, **kw: (reached.append(name)
                                    or vf.VerifyReport(name, True))

    for name in dir(vf):
        if name.startswith("verify_"):
            monkeypatch.setattr(vf, name, fake(name))
    code, out, _ = run(capsys, "verify", theorem,
                       "--algebra", data_path("a2.alg"))
    assert code == 0 and out.startswith("verify verify_")
    assert reached == ["verify_" + theorem.replace("-", "_")]


@pytest.mark.parametrize("argv", [
    ["ext", "--algebra", "a4.alg", "--M", "T1.mod"],
    ["nrep", "--algebra", "x3.alg"],
    ["verify", "trivext-dual", "--algebra", "x3.alg"],
], ids=["ext", "nrep", "verify"])
def test_input_error_after_a_handlers_imports_exits_2(capsys, argv):
    argv = [data_path(a) if a.endswith((".alg", ".mod")) else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")


def test_reports_deterministic(capsys, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        code = main(["verify", "nrepfin-char", "--algebra",
                     data_path("x3.alg"), "--module", data_path("k_x3.mod"),
                     "--n", "1", "--seed", "0", "--json", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_serre_identity_cli(capsys):
    code, out, _ = run(capsys, "verify", "serre-identity",
                       "--algebra", data_path("x3.alg"),
                       "--module", data_path("k_x3.mod"),
                       "--n", "1", "--i-max", "3")
    assert code == 0


def test_build_dump_round_trip(capsys, tmp_path):
    out = tmp_path / "delta.alg"
    code, _, _ = run(capsys, "build", "--algebra", data_path("a4.alg"),
                     "--trivext", "--dump", str(out))
    assert code == 0
    code2, text, _ = run(capsys, "build", "--algebra", str(out))
    assert code2 == 0
    assert "dim 16" in text and "symmetric = yes" in text


@pytest.mark.parametrize("argv", [
    ["build", "--algebra", "a4.alg", "--trivext"],
    ["ext", "--algebra", "a4.alg", "--trivext", "--n", "2", "--i-max", "2",
     "--M", "T1.mod", "--N", "T2.mod"],
    ["koszul", "--algebra", "kron.alg", "--trivext", "--n", "2", "--i-max", "3"],
    ["nrep", "--algebra", "a2.alg", "--mode", "finite", "--n", "1"],
    ["nrep", "--algebra", "a2.alg", "--mode", "infinite", "--n", "1"],
    ["preprojective", "--algebra", "a2.alg", "--n", "1", "--degree-max", "3"],
    ["veronese", "--algebra", "x3.alg", "--r", "2", "--degree-max", "3"],
    ["dual", "--algebra", "dualnum.alg", "--module", "k_dualnum.mod",
     "--n", "1", "--degree-max", "3"],
    ["verify", "trivext-koszul", "--algebra", "a2.alg", "--n", "1",
     "--i-max", "3", "--depth", "3"],
    ["verify", "trivext-dual", "--algebra", "kron.alg", "--n", "1",
     "--degree-max", "2"],
    ["verify", "preproj-veronese", "--algebra", "x3.alg",
     "--module", "k_x3.mod", "--n", "1", "--degree-max", "3"],
    ["verify", "characterization", "--algebra", "kron.alg", "--trivext",
     "--n", "2", "--i-max", "3"],
    ["verify", "nrepfin-char", "--algebra", "x3.alg", "--module", "k_x3.mod",
     "--n", "1"],
    ["verify", "param-consistency", "--algebra", "nak2.alg"],
    ["verify", "serre-identity", "--algebra", "x3.alg", "--module", "k_x3.mod",
     "--n", "1", "--i-max", "3"],
], ids=lambda argv: "-".join(argv[:2]).replace("--algebra", "").strip("-"))
def test_json_reports_are_plain_json(capsys, argv):
    # --json has no fallback for values json cannot encode: such a value
    # raises rather than being printed as a string.
    argv = [data_path(a) if a.endswith((".alg", ".mod")) else a for a in argv]
    code, out, _ = run(capsys, *argv, "--json")
    assert code in (0, 1)
    assert isinstance(json.loads(out), dict)
