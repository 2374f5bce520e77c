"""Entries stay exact: ints where integral, Fractions only where a division
makes one, and never a float.

`linalg.exact` normalises every entry that comes from outside and
`linalg.div` is the package's one division, so the source may hold no other
`/`, no `Fraction(...)` call outside `linalg`, no float literal and no
`float(...)` call. The differential tests rescale module bases by
non-integral rationals, which sends the elimination down its Fraction path,
and require the same Ext dimensions as over the integral bases.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from koszulity import modules as mo
from koszulity import resolution as rs
from koszulity.algebra import InternalCheckError
from koszulity.linalg import EchelonBasis, Matrix, div, exact

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "koszulity"


def inexact_nodes(tree, in_linalg):
    """(line, what) of each node that could make or admit an inexact entry."""
    allowed = set()
    for node in tree.body:
        if in_linalg and isinstance(node, ast.FunctionDef) and node.name == "div":
            allowed.update(id(sub) for sub in ast.walk(node))
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.Div):
            yield node.lineno, "/"
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, "float literal"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and (node.func.id == "float"
                     or node.func.id == "Fraction" and not in_linalg):
            yield node.lineno, f"{node.func.id}(...)"


def test_no_division_or_float_outside_linalg():
    # `//` and `%` on degrees are integer operations and stay allowed.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{line} {what}"
                  for line, what in inexact_nodes(tree, path.name == "linalg.py")]
    assert not found, "inexact arithmetic: " + ", ".join(found)


def test_inexact_nodes_flags_each_kind():
    src = "a = b / c\nd /= 2\ne = 0.5\nf = float(g)\nh = Fraction(1, 3)\n"
    assert [what for _, what in inexact_nodes(ast.parse(src), False)] == [
        "/", "/", "float literal", "float(...)", "Fraction(...)"]
    lin = "def div(a, b):\n    return a / b\n\ndef f(x):\n    return Fraction(x)\n"
    assert list(inexact_nodes(ast.parse(lin), True)) == []


def test_exact_normalises():
    assert type(exact(3)) is int
    assert exact(Fraction(4, 2)) == 2 and type(exact(Fraction(4, 2))) is int
    assert type(exact(Fraction(2, 3))) is Fraction
    assert exact("-2/3") == Fraction(-2, 3)
    assert exact("6/3") == 2 and type(exact("6/3")) is int
    assert exact(True) == 1 and type(exact(True)) is int


def test_div_is_exact():
    assert div(1, -1) == -1 and type(div(1, -1)) is int
    assert div(Fraction(1, 2), Fraction(1, 4)) == 2
    assert type(div(Fraction(1, 2), Fraction(1, 4))) is int
    assert div(2, 3) == Fraction(2, 3) and type(div(2, 3)) is Fraction
    with pytest.raises(ZeroDivisionError):
        div(1, 0)


@pytest.mark.parametrize("make", [
    lambda: exact(0.1),
    lambda: exact(1.0),
    lambda: Matrix(1, 2, [[1, 0.5]]),
    lambda: Matrix(1, 1, [[2.0]]),
    lambda: Matrix.identity(2).scale(0.5),
    lambda: Matrix.identity(2).apply({0: 1, 1: 0.5}),
    lambda: EchelonBasis([{0: 1, 1: 0.25}]),
    lambda: EchelonBasis([{0: 1}]).contains({1: 0.5}),
], ids=["exact", "exact-integral", "matrix", "from-rows", "scale", "apply",
        "echelon-add", "echelon-contains"])
def test_float_raises(make):
    with pytest.raises(InternalCheckError):
        make()


def test_float_raises_in_module_element(delta_a4, t_summands):
    m = t_summands[0]
    alg = m.algebra
    key = m.blocks()[0]
    x = next(x for x in range(alg.num_vertices, alg.dim)
             if alg.source[x] == key[0] and m.act(x, key[1]).rows)
    elem = {key: {0: 0.5}}
    with pytest.raises(InternalCheckError):
        m.apply_element(elem, {x: 1})
    with pytest.raises(InternalCheckError):
        m.apply_element({key: {0: 1}}, {x: 0.5})
    # an idempotent acts without a matrix, and still refuses floats
    with pytest.raises(InternalCheckError):
        m.apply_element(elem, {alg.idempotent_index(key[0]): 1})


def test_elimination_keeps_ints_ints():
    # pivots +-1 divide nothing; a pivot 2 makes halves, and 2 * 1/2 is 1
    R, piv = Matrix(2, 3, [[-1, 2, 1], [1, -1, 0]]).rref()
    assert R.data == [[1, 0, 1], [0, 1, 1]] and piv == [0, 1]
    assert all(type(x) is int for row in R.data for x in row)
    basis = EchelonBasis([{0: Fraction(1, 2), 1: 1}, {0: Fraction(1, 3), 1: 1}])
    entries = [x for row in basis.rows.values() for x in row.values()]
    entries += [x for combo in basis.combos.values() for x in combo.values()]
    assert all(type(x) is int or x.denominator != 1 for x in entries)


# -- differential: rescaled bases take the Fraction path ----------------------

SCALES = st.sampled_from([Fraction(2, 3), Fraction(-1, 2), Fraction(3, 5),
                          Fraction(-7, 4), Fraction(5, 2)])


def rescale(m, scales):
    """m with basis vector r of block k replaced by scales[k][r] times it.

    The action of x on the degree-d block becomes D_t A D_s^{-1}, and
    v -> D v is an isomorphism from m onto the result.
    """
    alg = m.algebra
    action = {}
    for x, per_deg in m.action.items():
        for d, mat in per_deg.items():
            ds = scales.get((alg.source[x], d), [])
            dt = scales.get((alg.target[x], d + alg.degree[x]), [])
            data = [[dt[r] * a / ds[c] for c, a in enumerate(row)]
                    for r, row in enumerate(mat.data)]
            action.setdefault(x, {})[d] = Matrix(mat.rows, mat.cols, data)
    out = mo.GradedModule(alg, m.dims, action, name=m.name + "'")
    out.validate()
    return out


def has_fraction(m):
    return any(type(x) is Fraction for per_deg in m.action.values()
               for mat in per_deg.values() for row in mat.data for x in row)


def ext_dims(m, n, i_max):
    res = rs.MinimalResolution(m)
    res.extend(i_max + 1)
    return {(i, j): rs.ext_group(res, n, i, j).dim
            for i in range(i_max + 1) for j in rs.hom_window(res, n, i)}


I_MAX = 4


@pytest.fixture(scope="module")
def modules_and_ext(t_summands, delta_a4, kron_summands, delta_kron):
    """T1+...+T4 over Delta(a4), and kron's regular module over Delta(kron),
    each with its Ext dims against itself for i <= I_MAX."""
    out = {}
    for name, alg, parts in (("T", delta_a4, t_summands),
                             ("kron", delta_kron, kron_summands)):
        m = mo.DirectSum(alg, parts)
        out[name] = (m, ext_dims(m, m, I_MAX))
    return out


@pytest.mark.parametrize("name", ["T", "kron"])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_rescaled_modules_have_the_same_ext(modules_and_ext, name, data):
    m, expected = modules_and_ext[name]
    m1, n1 = (rescale(m, {key: data.draw(st.lists(SCALES, min_size=k, max_size=k))
                          for key, k in sorted(m.dims.items(), key=str)})
              for _ in range(2))
    assume(has_fraction(m1))
    assert ext_dims(m1, n1, I_MAX) == expected
    # the graded/ungraded self-test raises on a mismatch
    rs.ungraded_ext_dim(m1, n1, data.draw(st.integers(0, I_MAX)))
