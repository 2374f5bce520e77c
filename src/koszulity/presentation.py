"""Quivers with homogeneous relations and bound quiver algebras.

A quiver is given by a vertex count and a list of arrows carrying a
non-negative degree. The quotient kQ/I by an ideal of homogeneous
relations is computed length by length: at each path length the span of
the relation ideal is row reduced and the surviving path classes (the
lexicographically smallest representatives) become basis elements of the
algebra. Construction stops at the first length where no class survives;
if classes still survive at the configured bound, the algebra is rejected
as not finite dimensional within the bound.
"""

from __future__ import annotations

from .linalg import Matrix, exact
from .algebra import GradedAlgebra, InputError, parse_number


class Arrow:
    def __init__(self, name: str, source: int, target: int, degree: int):
        self.name = name
        self.source = source
        self.target = target
        self.degree = degree


class Quiver:
    def __init__(self, num_vertices: int, arrows: tuple):
        seen = set()
        for a in arrows:
            if a.name in seen:
                raise InputError(f"duplicate arrow name {a.name!r}")
            seen.add(a.name)
            if not (1 <= a.source <= num_vertices):
                raise InputError(f"arrow {a.name!r}: bad source {a.source}")
            if not (1 <= a.target <= num_vertices):
                raise InputError(f"arrow {a.name!r}: bad target {a.target}")
            if a.degree < 0:
                raise InputError(f"arrow {a.name!r}: negative degree")
        self.num_vertices = num_vertices
        self.arrows = arrows

    def arrow(self, name: str) -> Arrow:
        for a in self.arrows:
            if a.name == name:
                return a
        raise InputError(f"unknown arrow {name!r}")


class Relation:
    """Sum of scalar multiples of parallel paths, each path a tuple of arrow names."""

    def __init__(self, terms: tuple):
        self.terms = terms  # of (coefficient, tuple[str, ...])

    def validate(self, quiver: Quiver):
        if not self.terms:
            raise InputError("empty relation")
        sig = None
        for coeff, path in self.terms:
            if not path:
                raise InputError("relation contains an empty path")
            arrows = [quiver.arrow(nm) for nm in path]
            for x, y in zip(arrows, arrows[1:]):
                if x.target != y.source:
                    raise InputError(
                        f"path {'*'.join(path)} is not composable"
                    )
            src, tgt = arrows[0].source, arrows[-1].target
            deg = sum(a.degree for a in arrows)
            length = len(arrows)
            if sig is None:
                sig = (src, tgt, deg, length)
            elif sig != (src, tgt, deg, length):
                if sig[:3] != (src, tgt, deg):
                    raise InputError(
                        "relation is not homogeneous (source/target/degree differ)"
                    )
                raise InputError(
                    "relation mixes path lengths; only length-homogeneous "
                    "relations are supported"
                )


def _paths_by_length(quiver: Quiver, max_len: int):
    """paths[l] = list of tuples of Arrow of length l, lexicographic by name."""
    order = sorted(quiver.arrows, key=lambda a: a.name)
    paths = [[()] if False else []]
    trivial = [((), v) for v in range(1, quiver.num_vertices + 1)]
    paths[0] = trivial
    for l in range(1, max_len + 1):
        cur = []
        for seq, tgt in paths[l - 1]:
            for a in order:
                if a.source == tgt:
                    cur.append((seq + (a,), a.target))
        paths.append(cur)
    return paths


def path_count(quiver: Quiver, length_bound: int) -> int:
    """Number of paths of length <= bound, trivial paths included."""
    if length_bound < 0:
        return 0
    paths = _paths_by_length(quiver, length_bound)
    return sum(len(p) for p in paths)


def build_algebra(
    quiver: Quiver,
    relations,
    path_length_bound: int,
    name: str = "algebra",
) -> GradedAlgebra:
    """Quotient of the path algebra by the relation ideal.

    Raises InputError for inhomogeneous relations or when nonzero path
    classes survive at length == path_length_bound.
    """
    if path_length_bound < 1:
        raise InputError("path length bound must be >= 1")
    for r in relations:
        r.validate(quiver)

    rel_data = []
    for r in relations:
        arrows0 = [quiver.arrow(nm) for nm in r.terms[0][1]]
        length = len(arrows0)
        src = arrows0[0].source
        tgt = arrows0[-1].target
        terms = []
        for coeff, pathnames in r.terms:
            terms.append((exact(coeff), tuple(quiver.arrow(nm) for nm in pathnames)))
        rel_data.append((length, src, tgt, terms))

    paths = _paths_by_length(quiver, path_length_bound)

    # Per length l: express ideal component in the path basis and reduce.
    # reduce_maps[l]: dict path-key -> list of (coeff, surviving path-key)
    reduce_maps = {}
    survivors_by_len = [list(paths[0])]
    stop_len = None
    for l in range(1, path_length_bound + 1):
        plist = paths[l]
        index = {}
        for i, (seq, _t) in enumerate(plist):
            index[tuple(a.name for a in seq)] = i
        n = len(plist)
        span_rows = _ideal_span_rows(paths, rel_data, l, index)
        R, pivots = Matrix(len(span_rows), n, span_rows).rref() if span_rows else (None, [])
        pivset = set(pivots)
        surv = [plist[i] for i in range(n) if i not in pivset]
        # reduction of an arbitrary length-l path to surviving classes
        red = {}
        for r_i, pc in enumerate(pivots):
            key = tuple(a.name for a in plist[pc][0])
            red[key] = [(-c, tuple(a.name for a in plist[j][0]))
                        for j, c in sorted(R.srows[r_i].items()) if j not in pivset]
        reduce_maps[l] = red
        survivors_by_len.append(surv)
        if not surv:
            stop_len = l
            break

    if stop_len is None:
        leftover = len(survivors_by_len[-1])
        if leftover:
            raise InputError(
                f"not finite-dimensional within bound: {leftover} path classes "
                f"survive at length {path_length_bound}"
            )
        stop_len = path_length_bound

    # Assemble basis: lengths 0 .. stop_len-1 survivors (trivial paths first).
    basis = []  # (label, src, tgt, degree, arrow-name tuple, length)
    for v in range(1, quiver.num_vertices + 1):
        basis.append((f"e{v}", v, v, 0, (), 0))
    path_key_to_index = {}
    for v in range(1, quiver.num_vertices + 1):
        path_key_to_index[("e", v)] = v - 1
    idx = quiver.num_vertices
    for l in range(1, len(survivors_by_len)):
        for seq, tgt in survivors_by_len[l]:
            names = tuple(a.name for a in seq)
            label = "*".join(names)
            src = seq[0].source
            deg = sum(a.degree for a in seq)
            basis.append((label, src, tgt, deg, names, l))
            path_key_to_index[names] = idx
            idx += 1

    def reduce_path(names, src_vertex):
        """Reduce an arrow-name tuple to a vector over the basis (dict idx->coeff)."""
        if not names:
            return {path_key_to_index[("e", src_vertex)]: 1}
        l = len(names)
        if l >= stop_len:
            return {}
        if names in path_key_to_index:
            return {path_key_to_index[names]: 1}
        red = reduce_maps.get(l, {})
        if names not in red:
            return {}
        out = {}
        for c, key in red[names]:
            j = path_key_to_index.get(key)
            if j is None:
                continue
            out[j] = out.get(j, 0) + c
        return {k: v for k, v in out.items() if v}

    # structure constants
    nb = len(basis)
    table = {}
    for i, (lab_i, s_i, t_i, d_i, names_i, len_i) in enumerate(basis):
        for j, (lab_j, s_j, t_j, d_j, names_j, len_j) in enumerate(basis):
            if t_i != s_j:
                continue
            if len_i == 0:
                vec = {j: 1}
            elif len_j == 0:
                vec = {i: 1}
            else:
                vec = reduce_path(names_i + names_j, s_i)
            if vec:
                table[(i, j)] = vec

    labels = [b[0] for b in basis]
    src = [b[1] for b in basis]
    tgt = [b[2] for b in basis]
    deg = [b[3] for b in basis]
    witnesses = {labels[i]: basis[i][4] for i in range(nb)}
    alg = GradedAlgebra(
        name=name,
        num_vertices=quiver.num_vertices,
        labels=labels,
        source=src,
        target=tgt,
        degree=deg,
        table=table,
        generator_labels=[a.name for a in sorted(quiver.arrows, key=lambda a: a.name)
                          if a.name in set(labels)],
        path_witness=witnesses,
    )
    alg.validate()
    return alg


def _ideal_span_rows(paths, rel_data, l, index):
    """Sparse rows spanning the length-l component of the ideal, in path
    coordinates."""
    rows = []
    for rl, rsrc, rtgt, terms in rel_data:
        if rl > l:
            continue
        pre_total = l - rl
        for split in range(pre_total + 1):
            post = pre_total - split
            for pseq, ptgt in paths[split]:
                if ptgt != rsrc:
                    continue
                for qseq, _qt in paths[post]:
                    qsrc = qseq[0].source if qseq else _qt
                    if qsrc != rtgt:
                        continue
                    row = {}
                    for coeff, mid in terms:
                        k = index[tuple(a.name for a in pseq + mid + qseq)]
                        row[k] = row.get(k, 0) + coeff
                    row = {k: exact(c) for k, c in row.items() if c}
                    if row:
                        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def parse_algebra_source(text: str, path_length_bound: int = 12):
    """Parse the line-oriented algebra format and build the algebra.

    Format (''#'' starts a comment):
        algebra NAME
        vertices V
        arrow NAME SRC TGT DEG
        relation c1*p1 + c2*p2 - ...
        end
    """
    name = None
    vertices = None
    arrows = []
    relations = []
    ended = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ended:
            raise InputError("content after 'end'")
        parts = line.split()
        kw = parts[0]
        if kw == "algebra":
            if len(parts) != 2:
                raise InputError("algebra line needs a name")
            name = parts[1]
        elif kw == "vertices":
            if len(parts) != 2:
                raise InputError(f"bad vertices line: {line!r}")
            vertices = parse_number(parts[1], line)
            if vertices <= 0:
                raise InputError("vertex count must be positive")
        elif kw == "arrow":
            if len(parts) != 5:
                raise InputError(f"bad arrow line: {line!r}")
            arrows.append(
                Arrow(parts[1], *(parse_number(f, line) for f in parts[2:]))
            )
        elif kw == "relation":
            relations.append(_parse_relation(line[len("relation"):].strip()))
        elif kw == "end":
            ended = True
        else:
            raise InputError(f"unknown keyword {kw!r}")
    if name is None or vertices is None:
        raise InputError("file must declare 'algebra NAME' and 'vertices V'")
    if not ended:
        raise InputError("missing 'end'")
    quiver = Quiver(vertices, tuple(arrows))
    alg = build_algebra(quiver, relations, path_length_bound, name=name)
    return alg, quiver


def parse_algebra_file(path, path_length_bound: int = 12):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra_source(fh.read(), path_length_bound)


def _parse_relation(text: str) -> Relation:
    """Parse 'c1*p1 + c2*p2 - p3' where p = arrow names joined by '*'."""
    if not text:
        raise InputError("empty relation")
    tokens = []
    cur = ""
    for ch in text:
        if ch in "+-":
            if cur.strip():
                tokens.append(cur.strip())
            tokens.append(ch)
            cur = ""
        else:
            cur += ch
    if cur.strip():
        tokens.append(cur.strip())
    terms = []
    sign = 1
    expect_term = True
    for tok in tokens:
        if tok == "+":
            sign = 1
            expect_term = True
            continue
        if tok == "-":
            sign = -1
            expect_term = True
            continue
        if not expect_term:
            raise InputError(f"malformed relation near {tok!r}")
        coeff, path = _parse_term(tok)
        terms.append((sign * coeff, path))
        sign = 1
        expect_term = False
    if not terms or expect_term:
        raise InputError(f"malformed relation: {text!r}")
    return Relation(tuple(terms))


def _parse_term(tok: str):
    pieces = [p.strip() for p in tok.split("*") if p.strip()]
    if not pieces:
        raise InputError(f"empty term in relation: {tok!r}")
    try:
        coeff, path = exact(pieces[0]), tuple(pieces[1:])
    except (ValueError, ZeroDivisionError):
        coeff, path = 1, tuple(pieces)
    if not path:
        raise InputError(f"term {tok!r} has no path")
    return coeff, path


# ---------------------------------------------------------------------------
# presentation recovery and dumping
# ---------------------------------------------------------------------------

def recover_presentation(alg, max_length: int = 24):
    """Quiver with relations presenting a basic split graded algebra.

    Arrows are lifts of a basis of rad/rad^2, one per (source, target,
    degree) block; relations are per-length kernels of the induced map from
    the path algebra, which are length-homogeneous by construction. The
    result rebuilds an algebra with the same block dimensions.
    """
    from .linalg import EchelonBasis, Matrix

    nb = alg.dim
    # name the arrows: a plain basis element keeps its label where it can
    arrow_elems = alg.arrows()
    arrows = []
    for elem in arrow_elems:
        x = next(iter(elem))
        name = alg.labels[x]
        if elem != {x: 1} or name in {a.name for a in arrows} or "*" in name \
                or " " in name:
            name = f"r{len(arrows)}"
        arrows.append(Arrow(name, alg.source[x], alg.target[x], alg.degree[x]))

    quiver = Quiver(alg.num_vertices, tuple(arrows))
    # evaluate paths in the algebra and collect per-length kernels
    relations = []
    paths = {0: [((), v, {alg.idempotent_index(v): 1})
                 for v in alg.vertices]}
    length = 0
    while True:
        length += 1
        if length > max_length:
            raise InputError("presentation recovery exceeded the length cap")
        prev = paths[length - 1]
        cur = []
        for (seq, tgt, val) in prev:
            for a_i, arrow in enumerate(arrows):
                if arrow.source != tgt:
                    continue
                nval = alg.mult(val, arrow_elems[a_i])
                cur.append((seq + (arrow.name,), arrow.target, nval))
        paths[length] = cur
        if length < 2:
            if not cur:
                break
            continue
        rows = [p[2] for p in cur]
        if rows:
            m = Matrix(len(rows), nb, rows)
            kernel = m.transpose().kernel_basis()
            # drop kernel vectors already implied by the shorter relations
            path_lists = {
                l: [(tuple(quiver.arrow(nm) for nm in p[0]), p[1])
                    for p in paths[l]]
                for l in range(length + 1)
            }
            rel_data = []
            for r in relations:
                arrows0 = [quiver.arrow(nm) for nm in r.terms[0][1]]
                rel_data.append((len(arrows0), arrows0[0].source,
                                 arrows0[-1].target,
                                 [(c, tuple(quiver.arrow(nm) for nm in pp))
                                  for c, pp in r.terms]))
            idx = {tuple(a.name for a in seq): i
                   for i, (seq, _t) in enumerate(path_lists[length])}
            span = EchelonBasis(_ideal_span_rows(path_lists, rel_data, length, idx))
            for v in kernel:
                if span.add(v):
                    terms = tuple((c, cur[i][0]) for i, c in sorted(v.items()))
                    relations.append(Relation(terms))
        alive = any(any(c for c in p[2].values()) for p in cur)
        if not cur or not alive:
            break
    return quiver, relations, length + 1


def dump_algebra(alg, max_length: int = 24) -> str:
    """Algebra file text recovered from the structure constants."""
    quiver, relations, bound = recover_presentation(alg, max_length)
    lines = [f"algebra {alg.name}", f"vertices {alg.num_vertices}"]
    for a in quiver.arrows:
        lines.append(f"arrow {a.name} {a.source} {a.target} {a.degree}")
    for rel in relations:
        parts = []
        for idx, (c, path) in enumerate(rel.terms):
            body = "*".join(path)
            mag = abs(c)
            term = body if mag == 1 else f"{mag}*{body}"
            if idx == 0:
                parts.append(term if c > 0 else f"- {term}")
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        lines.append("relation " + " ".join(parts))
    lines.append("end")
    return "\n".join(lines)
