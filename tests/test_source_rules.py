"""Fixed rules of the package source, checked on its syntax trees.

Arithmetic is exact, so no module holds a float literal or calls `float`;
mathematical invariants raise exceptions, so no module uses `assert`, which
`python -O` strips.  Integrality of a cochain is read from its values, so no
module reads a `.ring` attribute or calls `as_integer`, and only `io`, where
cochains enter, passes a ring argument to `Cochain`, `Cochain.from_vector`
or `cochain_from_json`.  Every sparse product in `exact_linalg` goes through
its shared loop kernels, so that module sums no comprehension over a sparse
vector's `.items()`.  Input is checked where it enters, so the modules that
only derive values from checked ones (`cochain`, `products`,
`fiber_integration`) call no checking constructor: they build chains and
cochains through `_of` and characters through `_derived`; likewise
`relative` builds no checked character or relative character, and
`fiber_integration` no checked simplicial map.  Complexes, cones and maps
memoize their tables in one mechanism, the `_memo` dict of `_Memo`, so only
`fixtures`, whose bundled complexes are built once per process, caches
through `functools` (`lru_cache`, `cache` or `cached_property`).  Only
`simplicial` builds a trusted map (`SimplicialMap._of`): identities,
composites, the inclusions into a product, and `ProductComplex._map_of`, the
one coordinate rule for maps out of a product, so no other code walks
product vertices to build one.  The group law lives in two
base classes, `LinearCombination` and `DirectSum`, so no other class defines
`+`, `-` or unary `-`, and none keeps a compatibility check of its own;
`DirectSum` also holds the one equality of the character groups, so no
subclass of it defines `__eq__` or `is_zero` or tests integral periods.
Library code reads factorizations and matrices only through their sparse
storage, so no module reads a dense view (`.U`, `.V`, `.D`, `.u_inv`,
`.v_inv` or `IntMatrix.data`): a dense view builds a rows x cols grid and
forces the first columns of a lifted U, which nothing else builds.  Nor
does any module but `exact_linalg` read the private storage of a
factorization, splitting or presentation (`_u`, `_u_inv`, `_v`, `_v_inv`,
`_rows`, `_cols`, `_rel_snf`, `_class_rows`, `_torsion_indices`): the rest
of the package reads them through their methods, so a class is read only
through `coordinates`.  The vectors those hold are read-only and shared, so
`_axpy`, the one in-place update of a vector, is used only inside
`smith_normal_form`, on the vectors it made itself.  A complex builds d_n
on each call and keeps it nowhere, so the elimination, its one reader in the
factorizations, reads it through the public `boundary_matrix`, which the
benchmark traces, and only `Complex.boundary_matrix` calls the private
builder `_build_boundary`.  Every
`verify` check goes through one recorder, which keeps its witness, so no
code in `verify` outside `_Recorder` names a "pass" key.  Each sign rule of
the chain operators is written once: the face rule (the face without s[i]
has sign (-1)^i) in `Complex._build_boundary`, the image rule (the parity of
the permutation sorting an image) in `SimplicialMap._build_push`, and every
other operator reads their memoized tables, so no module cuts a face out by
slicing, `x[:i] + x[i + 1:]`, and no other function flips a sign per face or
per inversion.  A process loads only the modules it runs, so `__init__`
imports no submodule at module level, and `cli`, `io` and `fixtures` import
the modules only some of their functions need (products, fiber integration,
relative characters, holonomy, the verify suites; cochains and characters in
`fixtures`) inside those functions.  Among the tests, only the stateful
machine in `test_derived` and the suite pins in `test_verify` call an
identity of `verify`, so no hand-picked instance of one grows back; the
instances that older tests still hold are listed, and leave the list when
they are retired.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "diffchar").glob("*.py"))


def _violations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float() call"


# The position of the ring argument of each cochain entry point.
_RING_POSITION = {"Cochain": 3, "from_vector": 3, "cochain_from_json": 2}


def _callee(func):
    """The name a call goes to; `Cochain.from_vector` counts, `x.from_vector` not."""
    if isinstance(func, ast.Name):
        return func.id
    if not isinstance(func, ast.Attribute):
        return None
    on_cochain = isinstance(func.value, ast.Name) and func.value.id == "Cochain"
    return None if func.attr == "from_vector" and not on_cochain else func.attr


def _ring_violations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("ring", "as_integer"):
            yield node.lineno, f"attribute .{node.attr}"
        elif isinstance(node, ast.Call):
            name = _callee(node.func)
            if name in _RING_POSITION and (
                len(node.args) > _RING_POSITION[name]
                or any(k.arg == "ring" for k in node.keywords)
            ):
                yield node.lineno, f"ring argument to {name}"


def test_no_asserts_or_floats_in_the_package():
    assert {p.name for p in SOURCES} >= {"exact_linalg.py", "characters.py", "cli.py"}
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in _violations(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_the_rules_catch_each_violation():
    source = "assert x\ny = 0.5\nz = float(y)\nw = 2j\n"
    assert [what for _, what in sorted(_violations(ast.parse(source)))] == [
        "assert statement", "float literal 0.5", "float() call", "float literal 2j",
    ]


def test_integrality_is_read_from_the_values():
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in _ring_violations(ast.parse(path.read_text(), str(path)))
        if not (path.name == "io.py" and what.startswith("ring argument"))
    ]
    assert found == []


def test_the_ring_rule_catches_each_violation():
    source = (
        "a.ring\nb.as_integer()\nCochain(K, 0, v, 'Z')\nCochain(K, 0, v, ring='Q')\n"
        "Cochain.from_vector(K, 0, w, 'Z')\nio.cochain_from_json(o, K, 'Z')\n"
        "Cochain(K, 0, v)\nCochain.from_vector(K, 0, w)\nK.chain_from_vector(0, w)\n"
        "cochain_from_json(o, K)\nx.from_vector(K, 0, w, 'Z')\n"
    )
    assert [what for _, what in sorted(_ring_violations(ast.parse(source)))] == [
        "attribute .ring", "attribute .as_integer", "ring argument to Cochain",
        "ring argument to Cochain", "ring argument to from_vector",
        "ring argument to cochain_from_json",
    ]


def _sums_over_items(tree):
    """Calls sum(<comprehension>) whose comprehension iterates some x.items()."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sum" and node.args
                and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))):
            continue
        if any(isinstance(g.iter, ast.Call) and isinstance(g.iter.func, ast.Attribute)
               and g.iter.func.attr == "items" for g in node.args[0].generators):
            yield node.lineno, "sum over .items()"


def test_sparse_products_go_through_the_kernels():
    path = next(p for p in SOURCES if p.name == "exact_linalg.py")
    assert list(_sums_over_items(ast.parse(path.read_text(), str(path)))) == []


def test_the_kernel_rule_catches_each_violation():
    source = (
        "a = [sum(x * v[j] for j, x in row.items()) for row in rows]\n"
        "b = sum([x * a[i] for i, x in col.items()])\n"
        "c = sum(x for x in row.values())\n"
        "d = min((abs(x), c) for c, x in row.items())\n"
    )
    assert sorted(_sums_over_items(ast.parse(source))) == [
        (1, "sum over .items()"), (2, "sum over .items()"),
    ]


_FUNCTOOLS_CACHES = {"lru_cache", "cache", "cached_property"}


def _functools_caches(tree):
    """Imports of a `functools` cache and reads of one through the module,
    under any name the module is imported as."""
    modules = {"functools"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name in _FUNCTOOLS_CACHES:
                    yield node.lineno, f"import of {alias.name}"
        elif (isinstance(node, ast.Attribute) and node.attr in _FUNCTOOLS_CACHES
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            yield node.lineno, f"functools.{node.attr}"


def test_only_the_fixtures_cache_through_functools():
    found = {
        path.name: [f"{line}: {what}" for line, what
                    in _functools_caches(ast.parse(path.read_text(), str(path)))]
        for path in SOURCES
    }
    del found["fixtures.py"]
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_cache_rule_catches_each_violation():
    source = (
        "from functools import lru_cache\n"
        "import functools\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def staircase(p, q): pass\n"
        "from functools import reduce, cache as memo\n"
        "import functools as ft\n"
        "class Complex:\n"
        "    @ft.cached_property\n"
        "    def paths(self): pass\n"
        "cache = {}\n"
        "self._cached('paths', n, build)\n"
        "from functools import reduce\n"
        "other.lru_cache\n"
    )
    assert sorted(_functools_caches(ast.parse(source))) == [
        (1, "import of lru_cache"), (3, "functools.lru_cache"), (5, "import of cache"),
        (8, "functools.cached_property"),
    ]


_CHECKED_CONSTRUCTORS = {"Cochain", "Chain", "TensorChain", "DiffChar", "LowDegreeChar",
                         "character"}
_DERIVING_MODULES = ("cochain.py", "products.py", "fiber_integration.py")


def _checked_constructions(tree, names=_CHECKED_CONSTRUCTORS):
    """Calls of a checking constructor, by plain name or as a module attribute."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        if name in names:
            yield node.lineno, f"{name}() call"


def test_derived_values_skip_the_checking_constructors():
    paths = [p for p in SOURCES if p.name in _DERIVING_MODULES]
    assert len(paths) == len(_DERIVING_MODULES)
    found = [
        f"{path.name}:{line}: {what}"
        for path in paths
        for line, what in _checked_constructions(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_the_constructor_rule_catches_each_violation():
    source = (
        "Cochain(K, 0, v)\nChain(K, 0, c)\nTensorChain(K, L, c)\nDiffChar(a, b)\n"
        "LowDegreeChar(K, 0)\ncharacter(a, b)\nsimplicial.Chain(K, 0, c)\n"
        "Cochain._of(K, 0, v)\nChain._of(K, 0, c)\n_derived(a, b, m)\n"
        "K.chain(0, c)\nCochain.from_vector(K, 0, w)\n"
    )
    assert sorted(_checked_constructions(ast.parse(source))) == [
        (1, "Cochain() call"), (2, "Chain() call"), (3, "TensorChain() call"),
        (4, "DiffChar() call"), (5, "LowDegreeChar() call"), (6, "character() call"),
        (7, "Chain() call"),
    ]


# Library-derived values these modules build, and the checking constructors
# they therefore must not call.
_TRUSTED_BUILDS = {"relative.py": {"RelChar", "DiffChar"},
                   "fiber_integration.py": {"SimplicialMap"}}


def test_relative_characters_and_maps_skip_the_checking_constructors():
    paths = {p.name: p for p in SOURCES if p.name in _TRUSTED_BUILDS}
    assert set(paths) == set(_TRUSTED_BUILDS)
    found = [
        f"{name}:{line}: {what}"
        for name, path in paths.items()
        for line, what in _checked_constructions(
            ast.parse(path.read_text(), str(path)), _TRUSTED_BUILDS[name])
    ]
    assert found == []


def test_the_trusted_build_rule_catches_each_violation():
    source = (
        "RelChar(cone, a, b, x, y)\nrelative.DiffChar(a, b)\nSimplicialMap(K, L, vm)\n"
        "RelChar._of(s, p)\nSimplicialMap._of(K, L, vm)\n_derived(a, b, m)\n"
        "LowDegreeChar(K, 0)\n"
    )
    names = {"RelChar", "DiffChar", "SimplicialMap"}
    assert sorted(_checked_constructions(ast.parse(source), names)) == [
        (1, "RelChar() call"), (2, "DiffChar() call"), (3, "SimplicialMap() call"),
    ]


def _trusted_map_builds(tree):
    """(line, enclosing function) of each `SimplicialMap._of` call."""

    def visit(node, owner):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_of" and _base_name(node.func.value) == "SimplicialMap"):
            yield node.lineno, owner
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)

    yield from visit(tree, "")


def test_only_simplicial_builds_trusted_maps():
    found = {
        (path.name, owner)
        for path in SOURCES
        for _, owner in _trusted_map_builds(ast.parse(path.read_text(), str(path)))
    }
    assert found == {
        ("simplicial.py", "compose_maps"), ("simplicial.py", "identity_map"),
        ("simplicial.py", "ProductComplex._map_of"),
        ("simplicial.py", "ProductComplex.include_at_right"),
        ("simplicial.py", "ProductComplex.include_at_left"),
    }


def test_the_trusted_map_rule_catches_each_violation():
    source = (
        "def rebracket_map(flat, nested):\n"
        "    return SimplicialMap._of(flat, nested, vm)\n"
        "class ProductComplex:\n"
        "    def _projection(self, k):\n"
        "        return simplicial.SimplicialMap._of(self, t, vm)\n"
        "swap = SimplicialMap._of(total, target, vm)\n"
        "checked = SimplicialMap(K, L, vm)\n"
        "chain = Chain._of(K, 0, c)\n"
        "rule = P._map_of(L, image)\n"
    )
    assert sorted(_trusted_map_builds(ast.parse(source))) == [
        (2, "rebracket_map"), (5, "ProductComplex._projection"), (6, ""),
    ]


_GROUP_LAW = {"__add__", "__sub__", "__neg__"}
_GROUP_LAW_BASES = {"LinearCombination", "DirectSum"}


def _own_group_laws(tree):
    """Methods of the group law outside the two base classes, and any
    `_check_compatible`."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            if item.name == "_check_compatible" or (
                item.name in _GROUP_LAW and node.name not in _GROUP_LAW_BASES
            ):
                yield item.lineno, f"{node.name}.{item.name}"


def test_one_group_law():
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in _own_group_laws(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_the_group_law_rule_catches_each_violation():
    source = (
        "class DirectSum:\n    def __add__(self, o): pass\n    def __neg__(self): pass\n"
        "class RelChar(DirectSum):\n    def __add__(self, o): pass\n"
        "    def __sub__(self, o): pass\n    def scale(self, n): pass\n"
        "class FlatClass(DirectSum):\n    def __neg__(self): pass\n"
        "    def _check_compatible(self, o): pass\n"
        "def __add__(a, b): pass\n"
    )
    assert sorted(_own_group_laws(ast.parse(source))) == [
        (5, "RelChar.__add__"), (6, "RelChar.__sub__"), (9, "FlatClass.__neg__"),
        (10, "FlatClass._check_compatible"),
    ]


_OWN_EQUALITY = {"__eq__", "is_zero"}
_INTEGRALITY = {"integral_periods", "has_integral_periods"}


def _base_name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _own_equalities(trees):
    """`__eq__` and `is_zero` defined in a direct or indirect subclass of
    `DirectSum`, and any integrality test over cycles there, over all trees."""
    classes = [node for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    subclasses, grew = {"DirectSum"}, True
    while grew:
        grew = False
        for node in classes:
            if node.name not in subclasses and any(
                    _base_name(b) in subclasses for b in node.bases):
                subclasses.add(node.name)
                grew = True
    for node in classes:
        if node.name == "DirectSum" or node.name not in subclasses:
            continue
        for item in ast.walk(node):
            if isinstance(item, ast.FunctionDef) and item.name in _OWN_EQUALITY:
                yield item.lineno, f"{node.name}.{item.name}"
            elif isinstance(item, ast.Call) and _base_name(item.func) in _INTEGRALITY:
                yield item.lineno, f"{node.name} calls {_base_name(item.func)}"


def test_one_equality():
    """`DirectSum` alone decides when two values of a character group are
    equal, from the parts each subclass declares."""
    trees = [ast.parse(path.read_text(), str(path)) for path in SOURCES]
    assert sorted(_own_equalities(trees)) == []


def test_the_equality_rule_catches_each_violation():
    simplicial = (
        "class DirectSum:\n    def __eq__(self, o): pass\n    def is_zero(self): pass\n"
        "class ConeChain(DirectSum):\n    def is_cycle(self): pass\n"
    )
    characters = (
        "class DiffChar(simplicial.DirectSum):\n    def __eq__(self, o): pass\n"
        "class LowDegreeChar(DiffChar):\n    def is_zero(self): pass\n"
        "class RelChar(DirectSum):\n"
        "    def _integral_on_cycles(self, v):\n"
        "        return self.cone.splitting(1).integral_periods(v)\n"
        "class FlatClass(DirectSum):\n"
        "    def _same(self, o):\n        return has_integral_periods(self.c - o.c)\n"
        "class Phased:\n    def __eq__(self, o): pass\n    def is_zero(self): pass\n"
    )
    trees = [ast.parse(simplicial), ast.parse(characters)]
    assert sorted(_own_equalities(trees)) == [
        (2, "DiffChar.__eq__"), (4, "LowDegreeChar.is_zero"),
        (7, "RelChar calls integral_periods"), (10, "FlatClass calls has_integral_periods"),
    ]


_DENSE_VIEWS = {"U", "V", "D", "u_inv", "v_inv", "data"}


def _dense_view_reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _DENSE_VIEWS:
            yield node.lineno, f"dense view .{node.attr}"


def test_no_module_reads_a_dense_view():
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in _dense_view_reads(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_the_dense_view_rule_catches_each_violation():
    source = (
        "snf.U\nsnf.V\nsnf.D\nsnf.u_inv\nsnf.v_inv\nA.data\nK.boundary_snf(1).U.rows\n"
        "snf._u\nsnf._v_inv\nA.entries\nsnf.apply_u_inv(b)\ndata.draw(x)\n"
        "def U(self): pass\n"
    )
    assert sorted(_dense_view_reads(ast.parse(source))) == [
        (1, "dense view .U"), (2, "dense view .V"), (3, "dense view .D"),
        (4, "dense view .u_inv"), (5, "dense view .v_inv"), (6, "dense view .data"),
        (7, "dense view .U"),
    ]


_PRIVATE_STORAGE = {"_u", "_u_inv", "_v", "_v_inv", "_rows", "_cols", "_rel_snf",
                    "_class_rows", "_torsion_indices"}


def _private_storage_reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _PRIVATE_STORAGE:
            yield node.lineno, f"private storage .{node.attr}"


def test_only_exact_linalg_reads_factorization_storage():
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        if path.name != "exact_linalg.py"
        for line, what in _private_storage_reads(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_the_private_storage_rule_catches_each_violation():
    source = (
        "snf._u\nsnf._u_inv\nsnf._v\nsnf._v_inv\nsplit._rows\nsplit._cols\n"
        "group._rel_snf._u_inv[0]\ngroup._class_rows\nx = group._torsion_indices\n"
        "snf.kernel_rows()\nsplit.coordinates(v)\ngroup.torsion\n_rows = 1\nsnf._memo\n"
        "def _u(self): pass\n"
    )
    assert sorted(_private_storage_reads(ast.parse(source))) == [
        (1, "private storage ._u"), (2, "private storage ._u_inv"), (3, "private storage ._v"),
        (4, "private storage ._v_inv"), (5, "private storage ._rows"),
        (6, "private storage ._cols"), (7, "private storage ._rel_snf"),
        (7, "private storage ._u_inv"), (8, "private storage ._class_rows"),
        (9, "private storage ._torsion_indices"),
    ]


def _axpy_uses(tree):
    """(line, enclosing top-level function or class) of each read of `_axpy`."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else ""
        for node in ast.walk(top):
            if ((isinstance(node, ast.Name) and node.id == "_axpy"
                 and isinstance(node.ctx, ast.Load))
                    or (isinstance(node, ast.Attribute) and node.attr == "_axpy")):
                yield node.lineno, owner


def test_only_the_elimination_updates_vectors_in_place():
    found = {
        (path.name, owner)
        for path in SOURCES
        for _, owner in _axpy_uses(ast.parse(path.read_text(), str(path)))
    }
    assert found == {("exact_linalg.py", "smith_normal_form")}


def test_the_in_place_rule_catches_each_violation():
    source = (
        "def smith_normal_form(A):\n"
        "    def row_step(r, i, t):\n"
        "        _axpy(L[r], t, L[i])\n"
        "class CycleSplitting:\n"
        "    def lift(self, rel_snf):\n"
        "        _axpy(u, 1, v)\n"
        "def _combination(coeffs, vectors):\n"
        "    step = exact_linalg._axpy\n"
        "_axpy(a, 2, b)\n"
        "def _axpy(target, t, source):\n"
        "    pass\n"
        "_axpy = None\n"
    )
    assert sorted(_axpy_uses(ast.parse(source))) == [
        (3, "smith_normal_form"), (6, "CycleSplitting"), (8, "_combination"), (9, ""),
    ]


def _boundary_reads(tree):
    """(line, enclosing class and method, call) of each call of `boundary_matrix`
    or `_build_boundary`; a function nested in a method counts as the method."""

    def visit(node, owner, in_function):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and not in_function:
            owner = f"{owner}.{node.name}" if owner else node.name
            in_function = isinstance(node, ast.FunctionDef)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("boundary_matrix", "_build_boundary")):
            yield node.lineno, owner, f"{ast.unparse(node.func.value)}.{node.func.attr}"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner, in_function)

    yield from visit(tree, "", False)


def test_the_elimination_reads_the_traced_boundary_matrix():
    path = next(path for path in SOURCES if path.name == "simplicial.py")
    reads = {(owner, call) for _, owner, call
             in _boundary_reads(ast.parse(path.read_text(), str(path)))}
    assert {read for read in reads if read[0].startswith("_Factorizations.")} == {
        ("_Factorizations.relation_snf", "self.boundary_matrix")}
    assert {read for read in reads if read[1].endswith("._build_boundary")} == {
        ("Complex.boundary_matrix", "self._build_boundary")}


def test_the_boundary_read_rule_catches_each_violation():
    source = (
        "class _Factorizations:\n"
        "    def relation_snf(self, n):\n"
        "        def build():\n"
        "            return self._build_boundary(n)\n"
        "    def boundary_snf(self, n):\n"
        "        return self.boundary_matrix(n).rows\n"
        "def fundamental_cycle(complex):\n"
        "    return complex.boundary_matrix(d).entries\n"
        "boundary_matrix(2)\n"
        "K.boundary_matrix\n"
    )
    assert sorted(_boundary_reads(ast.parse(source))) == [
        (4, "_Factorizations.relation_snf", "self._build_boundary"),
        (6, "_Factorizations.boundary_snf", "self.boundary_matrix"),
        (8, "fundamental_cycle", "complex.boundary_matrix"),
    ]


def _pass_keys_outside(tree, owner="_Recorder"):
    """Every "pass" string outside the class `owner`: a check entry is a dict
    with a "pass" key, so only that class may write one."""
    inside = {id(n) for c in ast.walk(tree)
              if isinstance(c, ast.ClassDef) and c.name == owner for n in ast.walk(c)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value == "pass" and id(node) not in inside:
            yield node.lineno, '"pass" outside the recorder'


def test_only_the_recorder_writes_check_entries():
    path = next(p for p in SOURCES if p.name == "verify.py")
    assert list(_pass_keys_outside(ast.parse(path.read_text(), str(path)))) == []


def test_the_recorder_rule_catches_each_violation():
    source = (
        "class _Recorder:\n"
        "    def check(self, name):\n"
        "        entry = {'name': name, 'pass': True}\n"
        "        entry['pass'] = False\n"
        "checks.append({'name': n, 'pass': ok})\n"
        "entry['pass'] = False\n"
        "done = dict([('name', n), ('pass', ok)])\n"
        "entry.update(passed=True)\n"
        "class Other:\n"
        "    x = {'pass': 1}\n"
        "if ok:\n"
        "    pass\n"
    )
    assert sorted(_pass_keys_outside(ast.parse(source))) == [
        (5, '"pass" outside the recorder'), (6, '"pass" outside the recorder'),
        (7, '"pass" outside the recorder'), (10, '"pass" outside the recorder'),
    ]


def _same(a, b):
    return ast.dump(a) == ast.dump(b)


def _is_face_slice(node):
    """x[:i] + x[i + 1:]."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and isinstance(node.left, ast.Subscript) and isinstance(node.right, ast.Subscript)):
        return False
    head, tail = node.left.slice, node.right.slice
    return (isinstance(head, ast.Slice) and isinstance(tail, ast.Slice)
            and head.lower is None and head.upper is not None and tail.upper is None
            and isinstance(tail.lower, ast.BinOp) and isinstance(tail.lower.op, ast.Add)
            and _same(tail.lower.left, head.upper) and _same(node.left.value, node.right.value))


def _flips_a_sign(statements):
    """Some statement is `x = -x` or `x *= -1`."""
    for node in statements:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.UnaryOp) and isinstance(node.value.op, ast.USub)
                and getattr(node.value.operand, "id", None) == node.targets[0].id):
            return True
        if (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult)
                and isinstance(node.value, (ast.Constant, ast.UnaryOp))
                and ast.literal_eval(node.value) == -1):
            return True
    return False


def _is_combinations(call):
    return isinstance(call, ast.Call) and (
        getattr(call.func, "id", None) == "combinations"
        or getattr(call.func, "attr", None) == "combinations")


def _sign_rules(tree):
    """(line, what, enclosing function) for each face slice, each loop over
    the faces of a simplex (`combinations`) that flips a sign per face, and
    each comparison of two entries of a sequence that flips a sign (the
    inversion count of a parity loop)."""

    def visit(node, owner):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        if _is_face_slice(node):
            yield node.lineno, "face slicing", owner
        elif (isinstance(node, ast.For) and _is_combinations(node.iter)
              and _flips_a_sign(node.body)):
            yield node.lineno, "face sign loop", owner
        elif (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
              and isinstance(node.test.left, ast.Subscript)
              and all(isinstance(c, ast.Subscript) for c in node.test.comparators)
              and _flips_a_sign(node.body)):
            yield node.lineno, "parity loop", owner
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)

    yield from visit(tree, "")


def test_each_sign_rule_is_written_once():
    found = sorted(
        (path.name, what, owner)
        for path in SOURCES
        for _, what, owner in _sign_rules(ast.parse(path.read_text(), str(path)))
    )
    assert found == [
        ("simplicial.py", "face sign loop", "Complex._build_boundary"),
        ("simplicial.py", "parity loop", "SimplicialMap._build_push"),
    ]


def test_the_sign_rule_catches_each_violation():
    source = (
        "def boundary(s, c):\n"
        "    return [s[:i] + s[i + 1 :] for i in range(len(s))]\n"
        "class Map:\n"
        "    def push(self, image):\n"
        "        sign = 1\n"
        "        for i in range(len(image)):\n"
        "            for j in range(i + 1, len(image)):\n"
        "                if image[i] > image[j]:\n"
        "                    sign *= -1\n"
        "def faces(s, sign):\n"
        "    for face in itertools.combinations(s, len(s) - 1):\n"
        "        yield face, sign\n"
        "        sign = -sign\n"
        "def fine(s, t, i, rhs):\n"
        "    head = s[:i] + s[i:]\n"
        "    tail = s[:i] + t[i + 1:]\n"
        "    for face in combinations(s, 2):\n"
        "        rhs = rhs - face\n"
        "    if s[0] > s[1]:\n"
        "        rhs = -i\n"
        "    for k in (1, 2):\n"
        "        rhs = -rhs\n"
    )
    assert sorted(_sign_rules(ast.parse(source))) == [
        (2, "face slicing", "boundary"),
        (8, "parity loop", "Map.push"),
        (11, "face sign loop", "faces"),
    ]


# The modules each entry point imports only where they are used, so that a
# process compiles and keeps only what it runs; `__init__` imports none.
_DEFERRED = {
    "__init__.py": None,
    "cli.py": {"products", "fiber_integration", "relative", "holonomy", "verify"},
    "io.py": {"relative"},
    "fixtures.py": {"cochain", "characters", "products"},
}


def _imported_submodules(node):
    """The diffchar submodules an import statement names."""
    if isinstance(node, ast.Import):
        paths = [alias.name for alias in node.names]
    else:
        base = "diffchar." * bool(node.level) + (node.module or "")
        base = base.rstrip(".")
        if base == "diffchar":
            paths = [f"diffchar.{alias.name}" for alias in node.names]
        else:
            paths = [base]
    return [p.split(".")[1] for p in paths if p.startswith("diffchar.")]


def _eager_imports(tree, deferred):
    """Imports of the deferred modules (any submodule when `deferred` is
    None) that run when the module is imported: outside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for name in _imported_submodules(node):
                if deferred is None or name in deferred:
                    yield node.lineno, f"module-level import of {name}"
        stack.extend(ast.iter_child_nodes(node))


def test_entry_points_import_deferred_modules_where_used():
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES if path.name in _DEFERRED
        for line, what in _eager_imports(ast.parse(path.read_text(), str(path)),
                                         _DEFERRED[path.name])
    ]
    assert found == []
    assert {path.name for path in SOURCES} >= set(_DEFERRED)


def test_the_deferred_import_rule_catches_each_violation():
    source = (
        "from diffchar.products import external_product\n"
        "import diffchar.verify\n"
        "from diffchar import fixtures, relative\n"
        "from .holonomy import holonomy\n"
        "from . import fiber_integration as fi\n"
        "if True:\n"
        "    import diffchar.products\n"
        "class Handler:\n"
        "    from diffchar.relative import RelChar\n"
        "from diffchar.simplicial import Complex\n"
        "import diffchar\n"
        "import json\n"
        "def handler():\n"
        "    from diffchar.products import internal_product\n"
        "    import diffchar.verify\n"
        "lazy = lambda: __import__('diffchar.relative')\n"
    )
    deferred = _DEFERRED["cli.py"]
    assert sorted(_eager_imports(ast.parse(source), deferred)) == [
        (1, "module-level import of products"), (2, "module-level import of verify"),
        (3, "module-level import of relative"), (4, "module-level import of holonomy"),
        (5, "module-level import of fiber_integration"), (7, "module-level import of products"),
        (9, "module-level import of relative"),
    ]
    assert sorted(line for line, _ in _eager_imports(ast.parse(source), None)) == [
        1, 2, 3, 3, 4, 5, 7, 9, 10,
    ]


TESTS = sorted(Path(__file__).parent.glob("*.py"))
# The tests that call verify's identities: the machine and the suite pins.
_IDENTITY_CALLERS = {"test_derived.py", "test_verify.py"}
# Hand-picked instances of identities the machine also checks; each goes
# when it is retired, and none is added.
_PENDING_INSTANCES = {
    "test_products.py": {
        "test_internal_product_bilinear_and_associative", "test_internal_product_multiplicativity",
        "test_internal_product_naturality", "test_iota_and_flat_compatibility",
        "test_commutativity_restated",
    },
    "test_fiber_integration.py": {
        "test_orientation_reversal", "test_naturality_along_a_base_map",
        "test_functoriality_of_iterated_fibers", "test_boundary_fiber_integration_identity",
        "test_boundary_fiber_degree_one_is_an_endpoint_quotient", "test_updown_formula_instance",
        "test_fiber_product_formula_instance",
    },
}


def _identities(tree):
    """The identities of verify: its module-level generator functions."""
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
            and any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(node))}


def _dotted(node):
    """`a.b.c` for a name or an attribute chain on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def _identity_calls(tree, identities):
    """(top-level definition, line, callee) of each call of an identity:
    through the verify module, under any name, or imported from it."""
    modules, names = {"verify", "diffchar.verify"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names if a.name == "diffchar.verify" and a.asname}
        elif isinstance(node, ast.ImportFrom) and node.module == "diffchar":
            modules |= {a.asname or a.name for a in node.names if a.name == "verify"}
        elif isinstance(node, ast.ImportFrom) and node.module == "diffchar.verify":
            names |= {a.asname or a.name for a in node.names if a.name in identities}
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            callee = isinstance(node, ast.Call) and _dotted(node.func)
            if not callee:
                continue
            module, _, name = callee.rpartition(".")
            if (module in modules and name in identities) or (not module and name in names):
                yield owner, node.lineno, callee


def test_only_the_machine_and_the_suite_pins_call_verify_identities():
    verify = next(p for p in SOURCES if p.name == "verify.py")
    identities = _identities(ast.parse(verify.read_text()))
    assert {"bilinearity", "iterated_fibers", "kernel_descends"} <= identities
    assert not identities & {"violation", "run_suite", "internal_product"}
    calls = {(path.name, owner, line, callee) for path in TESTS
             for owner, line, callee in _identity_calls(ast.parse(path.read_text()), identities)}
    found = [f"{name}:{line}: {callee} in {owner}" for name, owner, line, callee in sorted(calls)
             if name not in _IDENTITY_CALLERS and owner not in _PENDING_INSTANCES.get(name, ())]
    assert found == []
    pending = {(name, owner) for name, owners in _PENDING_INSTANCES.items() for owner in owners}
    assert pending <= {(name, owner) for name, owner, _, _ in calls}


def test_the_identity_caller_rule_catches_each_violation():
    source = (
        "import diffchar.verify as v\n"
        "from diffchar import verify\n"
        "from diffchar.verify import naturality, violation, bilinearity as bl\n"
        "def test_restated(h, f, g, hf, fh, phi, cone):\n"
        "    verify.violation(verify.associativity(h, f, g, hf))\n"
        "    naturality(phi, h, f, hf)\n"
        "    assert bl(h, h, f, hf, fh)\n"
        "    v.iterated_fibers(h)\n"
        "    diffchar.verify.section_gate(h, cone)\n"
        "class TestInstances:\n"
        "    def test_one(self, h, tr, out):\n"
        "        list(verify.endpoint_quotient(h, tr, out))\n"
        "def test_not_an_identity(h, f, other):\n"
        "    verify.violation([(h, f)])\n"
        "    verify.run_suite('updown')\n"
        "    verify.internal_product(h, f)\n"
        "    other.naturality(h, f)\n"
        "    bilinearity(h, f)\n"
    )
    identities = {"associativity", "naturality", "bilinearity", "iterated_fibers",
                  "section_gate", "endpoint_quotient"}
    assert sorted(_identity_calls(ast.parse(source), identities)) == [
        ("TestInstances", 12, "verify.endpoint_quotient"),
        ("test_restated", 5, "verify.associativity"), ("test_restated", 6, "naturality"),
        ("test_restated", 7, "bl"), ("test_restated", 8, "v.iterated_fibers"),
        ("test_restated", 9, "diffchar.verify.section_gate"),
    ]
