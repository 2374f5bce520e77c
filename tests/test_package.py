"""The package's public names, and which of its modules a command loads.

`import koszulity` loads no submodule: each public name resolves in its home
module on first use. Each command loads only the modules it runs; this
matters most when no bytecode cache is written, since every loaded module
is then compiled from source at start-up. The package's records are plain
classes with written-out constructors, not `dataclasses`, so start-up
generates and compiles no code of its own and never loads `dataclasses` or
the `inspect` module it imports.
"""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import koszulity
from koszulity import hereditary, koszul, modules, verify

ROOT = Path(__file__).resolve().parent.parent
DATA = "tests/data"

PUBLIC = [
    "Arrow", "DirectSum", "ExtTable", "GradedAlgebra", "GradedAlgebraMorphism",
    "GradedModule", "GradedModuleHom", "InputError", "InternalCheckError",
    "KoszulReport", "MinimalResolution", "NRepReport", "Quiver", "Relation",
    "TruncatedGradedAlgebra", "algebra", "build_algebra", "build_mu_bar",
    "build_t_tilde", "check_almost_self_orthogonal",
    "check_classic_almost_koszul", "check_n_T_koszul", "check_n_m_sigma_koszul",
    "check_self_orthogonal", "derived_nu_inverse_power",
    "dual_of_left_projective", "ext_table", "find_graded_iso", "frobenius",
    "frobenius_analysis", "gldim_upto", "graded_dual_module", "hereditary",
    "hom_space", "inflate_module", "injective_envelope", "injective_module",
    "is_indecomposable", "is_isomorphic", "is_n_rep_finite",
    "is_n_rep_infinite_upto", "koszul", "koszul_dual", "linalg", "modules",
    "mu_permutation", "parse_algebra_file", "parse_algebra_source",
    "parse_module_file", "parse_module_source", "path_count",
    "preprojective_algebra", "presentation", "projective_cover",
    "projective_module", "quasi_veronese", "regular_module", "resolution",
    "rigidity_check", "serre_dimension_identity", "shift_module",
    "simple_module", "stable_endomorphism_algebra", "stable_hom",
    "tilting_module_check", "trivial_extension", "truncate_algebra",
    "truncated", "twist_algebra", "twist_module", "ungraded_ext_dim", "verify",
]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 72
    assert koszulity.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(koszulity))


def test_public_names_are_their_home_objects():
    for name in PUBLIC:
        obj = getattr(koszulity, name)
        if isinstance(obj, types.ModuleType):
            assert obj is importlib.import_module(f"koszulity.{name}")
        else:
            assert obj.__module__.startswith("koszulity."), name
            assert obj is getattr(sys.modules[obj.__module__], name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from koszulity import *", namespace)
    assert {n: namespace[n] for n in PUBLIC} == {n: getattr(koszulity, n)
                                                 for n in PUBLIC}


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        koszulity.no_such_name
    assert not hasattr(koszulity, "degree_zero_part")


def test_public_name_reads_its_home_module_each_time(monkeypatch):
    # nothing is cached in the package, so rebinding the home module's name
    # (as a tracer does, and undoes) shows through at once
    marker = object()
    monkeypatch.setattr(modules, "hom_space", marker)
    assert koszulity.hom_space is marker
    monkeypatch.undo()
    assert koszulity.hom_space is modules.hom_space


PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
code = None
if argv is not None:
    import contextlib, io
    from koszulity.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
else:
    import koszulity
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("koszulity.")),
                  [m for m in ("dataclasses", "inspect") if m in sys.modules]]))
"""


def loaded_modules(argv):
    """Exit code, koszulity modules loaded and which of `dataclasses` and
    `inspect` got loaded, by one command in a fresh interpreter; argv None
    only imports the package."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, names, codegen = json.loads(proc.stdout.splitlines()[-1])
    return code, {name.split(".", 1)[1] for name in names}, codegen


def test_bare_import_loads_no_submodule():
    assert loaded_modules(None) == (None, set(), [])


@pytest.mark.parametrize("argv, left_out", [
    (["build", "--algebra", f"{DATA}/a4.alg", "--trivext"],
     {"truncated", "koszul", "hereditary", "verify"}),
    (["ext", "--algebra", f"{DATA}/a4.alg", "--trivext", "--n", "2",
      "--i-max", "2", "--M", f"{DATA}/T1.mod", "--N", f"{DATA}/T2.mod"],
     {"frobenius", "truncated", "koszul", "hereditary", "verify"}),
    (["veronese", "--algebra", f"{DATA}/x3.alg", "--r", "2",
      "--degree-max", "3"],
     {"frobenius", "koszul", "hereditary", "verify"}),
    (["nrep", "--algebra", f"{DATA}/a2.alg", "--mode", "finite", "--n", "1"],
     {"frobenius", "koszul", "verify"}),
    (["verify", "nrepfin-char", "--algebra", f"{DATA}/x3.alg", "--module",
      f"{DATA}/k_x3.mod", "--n", "1"],
     set()),
], ids=["build", "ext", "veronese", "nrep", "verify"])
def test_command_loads_only_its_modules(argv, left_out):
    code, loaded, codegen = loaded_modules(argv)
    assert code == 0
    assert "cli" in loaded
    assert not loaded & left_out, sorted(loaded & left_out)
    assert codegen == []


# Records whose container fields default to empty, with constructor arguments.
RECORDS = [
    (koszul.KoszulReport, ("pass",), ("window", "citations", "details")),
    (koszul.AlmostParams, ([], [], [], [], [], [], 1, 1),
     ("sigma_R", "m_table", "sigma_L")),
    (hereditary.Orbit, (1,), ("modules", "h_tables")),
    (hereditary.NRepReport, ("finite", 1, True), ("orbits",)),
    (hereditary.PreprojectiveData, (None, {}, 1, {}), ("flags",)),
    (koszul.AlmostReport, ("pass",), ("anomalies", "window")),
    (verify.VerifyReport, ("serre-identity", True),
     ("bounds", "details", "citations")),
]


@pytest.mark.parametrize("record, args, containers", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_defaults_are_fresh_per_instance(record, args, containers):
    # a record's default container belongs to that record alone
    first, second = record(*args), record(*args)
    for name in containers:
        mine, theirs = getattr(first, name), getattr(second, name)
        assert not mine and not theirs and mine is not theirs, name
