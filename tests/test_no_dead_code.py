"""No public function or method of the package is left without a caller,
no module imports a name it does not use, no function assigns a local
name it never reads, and no code outside `linalg.candidate_combinations`
draws random integers.

A public top-level function of `src/koszulity`, or a public method of one of
its top-level classes, fails this check when its name is used nowhere in
`src`, `tests` or `scripts` outside its own body: not as a name, an
attribute, an imported name or a string constant (as `getattr` would take).
Comments and docstrings do not count as uses.

`hereditary.nu_forward_of_labeled` is called only from the tests, and it
stays: it applies nu_n levelwise to a complex of projective sums, and
`test_nakayama_involution_on_complexes` uses it as the reference inverse of
`nu_inverse_of_resolution`, checking that the cohomology comes back. It
moves each differential with the same `transport_sum_hom` as the inverse
step, which picks the direction of the Nakayama correspondence from the
kind of the source sum.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "koszulity"
SEARCHED = ("src", "tests", "scripts")
# The package's imports are its public API.
API = PACKAGE / "__init__.py"


def names_used(node):
    """Every identifier node uses, with multiplicity."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            yield sub.value


def public_definitions(tree):
    """(qualified name, def node) of public functions and methods."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs):
                    yield f"{node.name}.{item.name}", item


def test_every_public_function_has_a_caller():
    used = Counter()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            used.update(names_used(ast.parse(path.read_text(encoding="utf-8"))))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualname, node in public_definitions(tree):
            if node.name.startswith("_"):
                continue
            own = Counter(names_used(node))[node.name]
            if used[node.name] <= own:
                dead.append(f"{path.name}:{node.lineno} {qualname}")
    assert not dead, "no caller: " + ", ".join(dead)


def imported_names(tree):
    """(bound name, line) of every import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".", 1)[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_no_unused_imports():
    unused = []
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == API:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            loaded = {node.id for node in ast.walk(tree)
                      if isinstance(node, ast.Name)}
            for name, line in imported_names(tree):
                if name not in loaded:
                    unused.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert not unused, "unused import: " + ", ".join(unused)


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def own_nodes(func):
    """Nodes of func's body, not descending into nested functions or classes."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS + (ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_unused_locals():
    # `name = value` whose name the function (nested functions included)
    # never reads; names starting with "_" are exempt.
    unused = []
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for func in ast.walk(tree):
                if not isinstance(func, FUNCTIONS):
                    continue
                read = {node.id for node in ast.walk(func)
                        if isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Load)}
                for node in own_nodes(func):
                    if isinstance(node, (ast.Global, ast.Nonlocal)):
                        read.update(node.names)
                for node in own_nodes(func):
                    if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                            and isinstance(node.targets[0], ast.Name)):
                        continue
                    name = node.targets[0].id
                    if not name.startswith("_") and name not in read:
                        unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unused, "assigned, never read: " + ", ".join(unused)


def is_randint(node):
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Attribute) and node.func.attr == "randint"
        or isinstance(node.func, ast.Name) and node.func.id == "randint")


def test_random_draws_only_in_candidate_combinations():
    # Every randomized search samples through linalg.candidate_combinations,
    # so one seed fixes one sequence of draws and one bound on a miss.
    allowed, stray = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if path.name == "linalg.py" and isinstance(node, ast.FunctionDef) \
                    and node.name == "candidate_combinations":
                allowed += [sub for sub in ast.walk(node) if is_randint(sub)]
            else:
                stray += [f"{path.name}:{sub.lineno}" for sub in ast.walk(node)
                          if is_randint(sub)]
    assert allowed
    assert not stray, "randint outside candidate_combinations: " + ", ".join(stray)
