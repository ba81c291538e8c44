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
`fiber_integration` no checked simplicial map.  Only `simplicial` builds a
trusted map (`SimplicialMap._of`): identities, composites, the inclusions
into a product, and `ProductComplex._map_of`, the one coordinate rule for
maps out of a product, so no other code walks product vertices to build
one.  The group law lives in two
base classes, `LinearCombination` and `DirectSum`, so no other class defines
`+`, `-` or unary `-`, and none keeps a compatibility check of its own;
`DirectSum` also holds the one equality of the character groups, so no
subclass of it defines `__eq__` or `is_zero` or tests integral periods.
Library code reads factorizations and matrices only through their sparse
storage, so no module reads a dense view (`.U`, `.V`, `.D`, `.u_inv`,
`.v_inv` or `IntMatrix.data`): a dense view builds a rows x cols grid and
forces the first columns of a lifted U, which nothing else builds.  Every
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
`fixtures`) inside those functions.
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
