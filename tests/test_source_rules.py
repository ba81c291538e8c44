"""Fixed rules of the package source, checked on its syntax trees.

Most rules have one shape: some use of some names is allowed only in some
places.  `RULES` holds these as rows.  A row names a kind of use (a key of
`KINDS`), the names it governs, where it looks (`scope`, every package file
when empty) and where the use is allowed (`allowed`).  A place is a file,
`"io.py"`, or a class or function in it with everything nested inside,
`"simplicial.py:Complex"`; an allowed place may pin the one use it allows,
`"simplicial.py:compose_maps SimplicialMap._of"`, which then counts only that
exact dotted name directly in that function.  A name governs a use when the
use's dotted name, with import aliases resolved, is the name or ends in
`.name`.  Each row carries a sample and the lines of its violations, one entry
per violation; the sample is read as the file of the row's first scope place,
else of its first allowed class or function, else as `sample`.  Each rule
makes two tests from its rows, under the names its own walker's tests had:
the package has no violation, every allowed place still holds a use and every
scope place exists (so a rename cannot widen a rule); and every sample gives
exactly its hits.  To add a rule, add a `Rule` with its reason and a row per
kind of use.

The rules that do not fit keep their own walkers below: sums over `.items()`
in `exact_linalg`, the one equality of the character groups, the sign rules,
deferred imports and the identity callers.  Every source is parsed once per
session.
"""

from __future__ import annotations

import ast
from functools import cache
from pathlib import Path
from typing import NamedTuple

PACKAGE = Path(__file__).parents[1] / "src" / "diffchar"
SOURCES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


@cache
def _tree(path):
    return ast.parse(path.read_text(), str(path))


def _index(tree):
    """(nodes, aliases): (node, parent, owner) for every node, where owner is
    the dotted path of the classes and functions around it, and the name each
    import binds -> the dotted name it binds."""
    nodes, aliases = [], {}

    def visit(node, parent, owner):
        nodes.append((node, parent, owner))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        for child in ast.iter_child_nodes(node):
            visit(child, node, owner)

    visit(tree, None, "")
    for node, _, _ in nodes:
        aliases.update(_imported(node))
    return nodes, aliases


def _imported(node):
    """(name bound, dotted name imported) for each alias of an import."""
    if isinstance(node, ast.Import):
        return [(a.asname or a.name, a.name) for a in node.names]
    if isinstance(node, ast.ImportFrom):
        return [(a.asname or a.name, f"{node.module}.{a.name}" if node.module else a.name)
                for a in node.names]
    return []


@cache
def _package():
    modules = {path.name: _index(_tree(path)) for path in SOURCES}
    assert {"cli.py", "exact_linalg.py", "simplicial.py", "verify.py"} <= modules.keys()
    return modules


def _dotted(node, aliases):
    """`a.b.c` for an attribute chain; a base that is no name is left out."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


# Each kind of use: (node, parent, aliases) -> the dotted names the node uses.
KINDS = {
    "attribute": lambda node, parent, aliases: (
        [_dotted(node, aliases)] if isinstance(node, ast.Attribute) else []),
    # A read of a name, bare or as an attribute.
    "name": lambda node, parent, aliases: (
        [_dotted(node, aliases)] if isinstance(node, ast.Attribute)
        or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) else []),
    "call": lambda node, parent, aliases: (
        [_dotted(node.func, aliases)] if isinstance(node, ast.Call) else []),
    # `f(i)` for the i-th positional argument of a call of f, `f(k)` for keyword k.
    "argument": lambda node, parent, aliases: (
        [f"{_dotted(node.func, aliases)}({arg})"
         for arg in [*range(len(node.args)), *(k.arg for k in node.keywords)]]
        if isinstance(node, ast.Call) else []),
    "import": lambda node, parent, aliases: [dotted for _, dotted in _imported(node)],
    "method": lambda node, parent, aliases: (
        [node.name] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and isinstance(parent, ast.ClassDef) else []),
    # A string constant by its repr, any other constant by its type.
    "constant": lambda node, parent, aliases: (
        [repr(node.value) if isinstance(node.value, str) else type(node.value).__name__]
        if isinstance(node, ast.Constant) else []),
    "assert": lambda node, parent, aliases: ["assert"] if isinstance(node, ast.Assert) else [],
}


class Row(NamedTuple):
    kind: str
    names: tuple
    sample: str
    hits: tuple
    scope: tuple = ()
    allowed: tuple = ()


class Rule(NamedTuple):
    test: str
    sample_test: str
    reason: str
    rows: tuple


def _within(place, file, owner, used=None):
    where, _, pinned = place.partition(" ")
    name, _, path = where.partition(":")
    nested = not pinned and owner.startswith(path + ".")
    return file == name and (not path or owner == path or nested) and used == (pinned or used)


def _uses(row, modules):
    """(file, line, owner, use, allowed) of each use the row governs in its scope."""
    for file, (nodes, aliases) in modules.items():
        for node, parent, owner in nodes:
            if row.scope and not any(_within(p, file, owner) for p in row.scope):
                continue
            for used in KINDS[row.kind](node, parent, aliases):
                if any(used == name or used.endswith("." + name) for name in row.names):
                    yield (file, node.lineno, owner, used,
                           any(_within(p, file, owner, used) for p in row.allowed))


def _problems(row):
    modules = _package()
    uses = list(_uses(row, modules))
    owners = {(file, owner) for file, (nodes, _) in modules.items() for _, _, owner in nodes}
    return ([f"{file}:{line}: {used} in {owner or 'the module'}"
             for file, line, owner, used, allowed in uses if not allowed]
            + [f"allowed place {place} holds no {row.kind} of {row.names}"
               for place in row.allowed
               if not any(_within(place, file, owner, used) for file, _, owner, used, _ in uses)]
            + [f"scope {place} is gone" for place in row.scope
               if tuple(place.partition(":")[::2]) not in owners])


def _sample_hits(row):
    file = (row.scope or [p for p in row.allowed if ":" in p] or ["sample"])[0].partition(":")[0]
    uses = _uses(row, {file: _index(ast.parse(row.sample))})
    return tuple(sorted(line for _, line, _, _, allowed in uses if not allowed))


def _tests(rule):
    def package():
        assert [problem for row in rule.rows for problem in _problems(row)] == [], rule.reason

    def samples():
        hits = [_sample_hits(row) for row in rule.rows]
        assert hits == [row.hits for row in rule.rows], rule.reason

    return {f"test_{rule.test}": package, f"test_{rule.sample_test}": samples}


_CACHES = ("functools.lru_cache", "functools.cache", "functools.cached_property")

RULES = (
    Rule("no_asserts_or_floats_in_the_package", "the_rules_catch_each_violation",
         "Invariants raise exceptions, which `python -O` keeps, and arithmetic is exact.", (
             Row("assert", ("assert",), "assert x\ny = 1\n", (1,)),
             Row("constant", ("float", "complex"), "y = 0.5\nz = 'float'\nw = 2j\nn = 2\n",
                 (1, 3)),
             Row("call", ("float",), "z = float(y)\nn = int(y)\nm = x.float_part()\n", (1,)),
         )),
    Rule("integrality_is_read_from_the_values", "the_ring_rule_catches_each_violation",
         "Integrality of a cochain is read from its values; only io, where cochains enter, "
         "passes a ring.", (
             Row("attribute", ("ring", "as_integer"),
                 "a.ring\nb.as_integer()\nc.rings\nring = 1\n", (1, 2)),
             Row("argument", ("Cochain(3)", "Cochain(ring)", "from_vector(3)",
                              "from_vector(ring)", "cochain_from_json(2)",
                              "cochain_from_json(ring)"),
                 "Cochain(K, 0, v, 'Z')\nCochain(K, 0, v, ring='Q')\n"
                 "Cochain.from_vector(K, 0, w, 'Z')\nio.cochain_from_json(o, K, 'Z')\n"
                 "from_vector(K, 0, w, 'Z')\nx.from_vector(K, 0, w, ring='Z')\n"
                 "Cochain(K, 0, v)\nCochain.from_vector(K, 0, w)\nx.from_vector(K, 0, w)\n"
                 "chain_from_vector(K, 0, w, 'Z')\ncochain_from_json(o, K)\n",
                 (1, 2, 3, 4, 5, 6), allowed=("io.py",)),
         )),
    Rule("only_the_fixtures_cache_through_functools", "the_cache_rule_catches_each_violation",
         "Complexes, cones and maps memoize in one mechanism, `_Memo`; only the bundled "
         "fixtures, built once per process, cache through functools.", (
             Row("import", _CACHES,
                 "from functools import lru_cache\nimport functools\n"
                 "from functools import reduce, cache as memo\nimport lru_cache\n",
                 (1, 3), allowed=("fixtures.py",)),
             Row("name", _CACHES,
                 "import functools as ft\nfrom functools import cache as memo\n"
                 "@functools.lru_cache(maxsize=None)\ndef staircase(p, q): pass\n"
                 "class Complex:\n    @ft.cached_property\n    def paths(self): pass\n"
                 "@memo\ndef f(): pass\ncache = {}\nself._cached('paths', n, build)\n"
                 "other.lru_cache\n",
                 (3, 6, 8), allowed=("fixtures.py",)),
         )),
    Rule("derived_values_skip_the_checking_constructors",
         "the_constructor_rule_catches_each_violation",
         "Input is checked where it enters; modules that only derive values build chains and "
         "cochains through `_of` and characters through `_derived`.", (
             Row("call", ("Cochain", "Chain", "TensorChain", "DiffChar"),
                 "Cochain(K, 0, v)\nChain(K, 0, c)\nTensorChain(K, L, c)\nDiffChar(a, b)\n"
                 "characters.DiffChar(c, z)\nsimplicial.Chain(K, 0, c)\n"
                 "Cochain._of(K, 0, v)\nChain._of(K, 0, c)\n_derived(a, b, m)\n"
                 "K.chain(0, c)\nCochain.from_vector(K, 0, w)\n",
                 (1, 2, 3, 4, 5, 6),
                 scope=("cochain.py", "products.py", "fiber_integration.py")),
         )),
    Rule("relative_characters_and_maps_skip_the_checking_constructors",
         "the_trusted_build_rule_catches_each_violation",
         "relative builds no checked character or relative character, and fiber_integration "
         "no checked simplicial map.", (
             Row("call", ("RelChar", "DiffChar"),
                 "RelChar(cone, a, b, x, y)\nrelative.DiffChar(a, b)\nRelChar._of(s, p)\n"
                 "_derived(a, b, m)\ng.scale(0)\nSimplicialMap(K, L, vm)\n",
                 (1, 2), scope=("relative.py",)),
             Row("call", ("SimplicialMap",),
                 "SimplicialMap(K, L, vm)\nsimplicial.SimplicialMap(K, L, vm)\n"
                 "SimplicialMap._of(K, L, vm)\nRelChar(cone, a, b, x, y)\n",
                 (1, 2), scope=("fiber_integration.py",)),
         )),
    Rule("only_simplicial_builds_trusted_maps", "the_trusted_map_rule_catches_each_violation",
         "Only simplicial builds a trusted map: identities, composites, a product's inclusions "
         "and `ProductComplex._map_of`, the one coordinate rule for maps out of a product.", (
             Row("call", ("SimplicialMap._of",),
                 "def rebracket_map(flat, nested):\n"
                 "    return SimplicialMap._of(flat, nested, vm)\n"
                 "class ProductComplex:\n    def _projection(self, k):\n"
                 "        return simplicial.SimplicialMap._of(self, t, vm)\n"
                 "swap = SimplicialMap._of(total, target, vm)\nchecked = SimplicialMap(K, L, vm)\n"
                 "chain = Chain._of(K, 0, c)\nrule = P._map_of(L, image)\n"
                 "def compose_maps(f, g):\n    def h():\n        return SimplicialMap._of(f, g)\n"
                 "    return SimplicialMap._of(f, g)\ndef identity_map(K):\n"
                 "    return simplicial.SimplicialMap._of(K, K, vm)\n",
                 (2, 5, 6, 12, 15),
                 allowed=tuple(f"simplicial.py:{f} SimplicialMap._of" for f in (
                     "compose_maps", "identity_map", "ProductComplex._map_of",
                     "ProductComplex.include_at_right", "ProductComplex.include_at_left"))),
         )),
    Rule("one_group_law", "the_group_law_rule_catches_each_violation",
         "The group law lives in `LinearCombination` and `DirectSum`; no other class defines "
         "+, - or unary -, and none keeps a compatibility check of its own.", (
             Row("method", ("__add__", "__sub__", "__neg__"),
                 "class DirectSum:\n    def __add__(self, o): pass\n    def __neg__(self): pass\n"
                 "class RelChar(DirectSum):\n    def __add__(self, o): pass\n"
                 "    def __sub__(self, o): pass\n    def scale(self, n): pass\n"
                 "class FlatClass(DirectSum):\n    def __neg__(self): pass\n"
                 "def __add__(a, b): pass\n",
                 (5, 6, 9),
                 allowed=("simplicial.py:LinearCombination", "simplicial.py:DirectSum")),
             Row("method", ("_check_compatible",),
                 "class FlatClass(DirectSum):\n    def _check_compatible(self, o): pass\n"
                 "def _check_compatible(a, b): pass\n",
                 (2,)),
         )),
    Rule("no_module_reads_a_dense_view", "the_dense_view_rule_catches_each_violation",
         "Factorizations and matrices are read through their sparse storage: a dense view "
         "builds a rows x cols grid and forces the first columns of a lifted U.", (
             Row("attribute", ("U", "V", "D", "u_inv", "v_inv", "data"),
                 "snf.U\nsnf.V\nsnf.D\nsnf.u_inv\nsnf.v_inv\nA.data\nK.boundary_snf(1).U.rows\n"
                 "snf._u\nsnf._v_inv\nA.entries\nsnf.apply_u_inv(b)\ndata.draw(x)\n"
                 "def U(self): pass\n",
                 (1, 2, 3, 4, 5, 6, 7)),
         )),
    Rule("only_exact_linalg_reads_factorization_storage",
         "the_private_storage_rule_catches_each_violation",
         "Outside exact_linalg, factorizations, splittings and presentations are read through "
         "their methods, so a class is read only through `coordinates`.", (
             Row("attribute", ("_u", "_u_inv", "_v", "_v_inv", "_rows", "_cols", "_class_rows"),
                 "snf._u\nsnf._u_inv\nsnf._v\nsnf._v_inv\nsplit._rows\nsplit._cols\n"
                 "K.relation_snf(1)._u_inv[0]\nx = group._class_rows\n"
                 "snf.apply_v_inv(v)\nsplit.coordinates(v)\ngroup.torsion\n_rows = 1\nsnf._memo\n"
                 "def _u(self): pass\n",
                 (1, 2, 3, 4, 5, 6, 7, 8), allowed=("exact_linalg.py",)),
         )),
    Rule("only_the_elimination_updates_vectors_in_place",
         "the_in_place_rule_catches_each_violation",
         "The vectors a factorization holds are shared and read-only, so `_axpy` updates only "
         "the vectors `smith_normal_form` made itself, and only exact_linalg names the table "
         "of shared unit vectors.", (
             Row("name", ("_axpy",),
                 "def smith_normal_form(A):\n    def row_step(r, i, t):\n"
                 "        _axpy(L[r], t, L[i])\nclass CycleSplitting:\n    def lift(self, s):\n"
                 "        _axpy(u, 1, v)\n"
                 "def _combination(coeffs, vectors):\n    step = exact_linalg._axpy\n"
                 "_axpy(a, 2, b)\ndef _axpy(target, t, source):\n    pass\n_axpy = None\n",
                 (6, 8, 9), allowed=("exact_linalg.py:smith_normal_form",)),
             Row("name", ("_UNITS",),
                 "from diffchar.exact_linalg import _UNITS as units\nunits[3]\n"
                 "exact_linalg._UNITS.append({})\nx = K._units(4)\n_UNITS = []\n",
                 (2, 3), allowed=("exact_linalg.py",)),
         )),
    Rule("the_elimination_reads_the_traced_boundary_matrix",
         "the_boundary_read_rule_catches_each_violation",
         "A complex builds d_n on each call and keeps it nowhere: the factorizations read it "
         "once, through the traced `boundary_matrix`, the one caller of `_build_boundary`.", (
             Row("call", ("boundary_matrix",),
                 "class _Factorizations:\n    def relation_snf(self, n):\n        def build():\n"
                 "            return self.boundary_matrix(n)\n"
                 "        return other.boundary_matrix(n)\n    def boundary_snf(self, n):\n"
                 "        return self.boundary_matrix(n).rows\n    def splitting(self, n):\n"
                 "        def build():\n            return boundary_matrix(n)\n"
                 "def fundamental_cycle(K):\n    return K.boundary_matrix(d).entries\n",
                 (5, 7, 10), scope=("simplicial.py:_Factorizations",),
                 allowed=("simplicial.py:_Factorizations.relation_snf.build "
                          "self.boundary_matrix",)),
             Row("call", ("_build_boundary",),
                 "class _Factorizations:\n    def relation_snf(self, n):\n        def build():\n"
                 "            return self._build_boundary(n)\nK._build_boundary(2)\n"
                 "class Complex:\n    def boundary_matrix(self, n):\n        if n:\n"
                 "            return other._build_boundary(n)\n"
                 "        return self._build_boundary(n)\n",
                 (4, 5, 9),
                 allowed=("simplicial.py:Complex.boundary_matrix self._build_boundary",)),
         )),
    Rule("only_the_recorder_writes_check_entries", "the_recorder_rule_catches_each_violation",
         "Every verify check goes through one recorder, which keeps its witness, so no code in "
         "verify outside `_Recorder` names a \"pass\" key.", (
             Row("constant", ("'pass'",),
                 "class _Recorder:\n    def check(self, name):\n"
                 "        entry = {'name': name, 'pass': True}\n        entry['pass'] = False\n"
                 "checks.append({'name': n, 'pass': ok})\nentry['pass'] = False\n"
                 "done = dict([('name', n), ('pass', ok)])\nentry.update(passed=True)\n"
                 "class Other:\n    x = {'pass': 1}\nif ok:\n    pass\n",
                 (5, 6, 7, 10), scope=("verify.py",), allowed=("verify.py:_Recorder",)),
         )),
)

for _rule in RULES:
    globals().update(_tests(_rule))


def _sums_over_items(tree):
    """Calls sum(<comprehension>) whose comprehension iterates some x.items():
    every sparse product in `exact_linalg` goes through its loop kernels."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sum" and node.args
                and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))):
            continue
        if any(isinstance(g.iter, ast.Call) and isinstance(g.iter.func, ast.Attribute)
               and g.iter.func.attr == "items" for g in node.args[0].generators):
            yield node.lineno


def test_sparse_products_go_through_the_kernels():
    assert list(_sums_over_items(_tree(PACKAGE / "exact_linalg.py"))) == []


def test_the_kernel_rule_catches_each_violation():
    source = (
        "a = [sum(x * v[j] for j, x in row.items()) for row in rows]\n"
        "b = sum([x * a[i] for i, x in col.items()])\n"
        "c = sum(x for x in row.values())\nd = min((abs(x), c) for c, x in row.items())\n"
    )
    assert sorted(_sums_over_items(ast.parse(source))) == [1, 2]


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
    equal, from the parts each subclass declares: no subclass of it defines
    `__eq__` or `is_zero` or tests integral periods."""
    assert sorted(_own_equalities([_tree(path) for path in SOURCES])) == []


def test_the_equality_rule_catches_each_violation():
    simplicial = (
        "class DirectSum:\n    def __eq__(self, o): pass\n    def is_zero(self): pass\n"
        "class ConeChain(DirectSum):\n    def is_cycle(self): pass\n"
    )
    characters = (
        "class DiffChar(simplicial.DirectSum):\n    def __eq__(self, o): pass\n"
        "class TorsionChar(DiffChar):\n    def is_zero(self): pass\n"
        "class RelChar(DirectSum):\n    def _integral_on_cycles(self, v):\n"
        "        return self.cone.splitting(1).integral_periods(v)\n"
        "class FlatClass(DirectSum):\n    def _same(self, o):\n"
        "        return has_integral_periods(self.c - o.c)\n"
        "class Phased:\n    def __eq__(self, o): pass\n    def is_zero(self): pass\n"
    )
    trees = [ast.parse(simplicial), ast.parse(characters)]
    assert sorted(_own_equalities(trees)) == [
        (2, "DiffChar.__eq__"), (4, "TorsionChar.is_zero"),
        (7, "RelChar calls integral_periods"), (10, "FlatClass calls has_integral_periods"),
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
    for node, _, owner in _index(tree)[0]:
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


def test_each_sign_rule_is_written_once():
    """The face rule (the face without s[i] has sign (-1)^i) lives in
    `Complex._build_boundary` and the image rule (the parity of the
    permutation sorting an image) in `SimplicialMap._build_push`; every other
    operator reads their memoized tables."""
    found = sorted((path.name, what, owner) for path in SOURCES
                   for _, what, owner in _sign_rules(_tree(path)))
    assert found == [
        ("simplicial.py", "face sign loop", "Complex._build_boundary"),
        ("simplicial.py", "parity loop", "SimplicialMap._build_push"),
    ]


def test_the_sign_rule_catches_each_violation():
    source = (
        "def boundary(s, c):\n    return [s[:i] + s[i + 1 :] for i in range(len(s))]\n"
        "class Map:\n    def push(self, image):\n        sign = 1\n"
        "        for i in range(len(image)):\n            for j in range(i + 1, len(image)):\n"
        "                if image[i] > image[j]:\n                    sign *= -1\n"
        "def faces(s, sign):\n    for face in itertools.combinations(s, len(s) - 1):\n"
        "        yield face, sign\n        sign = -sign\n"
        "def fine(s, t, i, rhs):\n    head = s[:i] + s[i:]\n    tail = s[:i] + t[i + 1:]\n"
        "    for face in combinations(s, 2):\n        rhs = rhs - face\n"
        "    if s[0] > s[1]:\n        rhs = -i\n    for k in (1, 2):\n        rhs = -rhs\n"
    )
    assert sorted(_sign_rules(ast.parse(source))) == [
        (2, "face slicing", "boundary"), (8, "parity loop", "Map.push"),
        (11, "face sign loop", "faces"),
    ]


# A process loads only the modules it runs: each entry point imports these
# only in the functions that need them, and `__init__` imports none.
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
    assert {path.name for path in SOURCES} >= set(_DEFERRED)
    found = [f"{name}:{line}: {what}" for name, deferred in _DEFERRED.items()
             for line, what in _eager_imports(_tree(PACKAGE / name), deferred)]
    assert found == []


def test_the_deferred_import_rule_catches_each_violation():
    source = (
        "from diffchar.products import external_product\nimport diffchar.verify\n"
        "from diffchar import fixtures, relative\nfrom .holonomy import holonomy\n"
        "from . import fiber_integration as fi\nif True:\n    import diffchar.products\n"
        "class Handler:\n    from diffchar.relative import RelChar\n"
        "from diffchar.simplicial import Complex\nimport diffchar\nimport json\n"
        "def handler():\n    from diffchar.products import internal_product\n"
        "    import diffchar.verify\nlazy = lambda: __import__('diffchar.relative')\n"
    )
    assert sorted(_eager_imports(ast.parse(source), _DEFERRED["cli.py"])) == [
        (1, "module-level import of products"), (2, "module-level import of verify"),
        (3, "module-level import of relative"), (4, "module-level import of holonomy"),
        (5, "module-level import of fiber_integration"), (7, "module-level import of products"),
        (9, "module-level import of relative"),
    ]
    assert sorted(line for line, _ in _eager_imports(ast.parse(source), None)) == [
        1, 2, 3, 3, 4, 5, 7, 9, 10,
    ]


# Among the tests, only the stateful machine and the suite pins call an
# identity of `verify`, so no hand-picked instance of one grows back.
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
            callee = isinstance(node, ast.Call) and _dotted(node.func, {})
            if not callee:
                continue
            module, _, name = callee.rpartition(".")
            if (module in modules and name in identities) or (not module and name in names):
                yield owner, node.lineno, callee


def test_only_the_machine_and_the_suite_pins_call_verify_identities():
    identities = _identities(_tree(PACKAGE / "verify.py"))
    assert {"bilinearity", "iterated_fibers", "kernel_descends"} <= identities
    assert not identities & {"violation", "run_suite", "internal_product"}
    calls = {(path.name, owner, line, callee) for path in TESTS
             for owner, line, callee in _identity_calls(_tree(path), identities)}
    found = [f"{name}:{line}: {callee} in {owner}" for name, owner, line, callee in sorted(calls)
             if name not in _IDENTITY_CALLERS and owner not in _PENDING_INSTANCES.get(name, ())]
    assert found == []
    pending = {(name, owner) for name, owners in _PENDING_INSTANCES.items() for owner in owners}
    assert pending <= {(name, owner) for name, owner, _, _ in calls}


def test_the_identity_caller_rule_catches_each_violation():
    source = (
        "import diffchar.verify as v\nfrom diffchar import verify\n"
        "from diffchar.verify import naturality, violation, bilinearity as bl\n"
        "def test_restated(h, f, g, hf, fh, phi, cone):\n"
        "    verify.violation(verify.associativity(h, f, g, hf))\n"
        "    naturality(phi, h, f, hf)\n    assert bl(h, h, f, hf, fh)\n"
        "    v.iterated_fibers(h)\n    diffchar.verify.section_gate(h, cone)\n"
        "class TestInstances:\n    def test_one(self, h, tr, out):\n"
        "        list(verify.endpoint_quotient(h, tr, out))\n"
        "def test_not_an_identity(h, f, other):\n    verify.violation([(h, f)])\n"
        "    verify.run_suite('updown')\n    verify.internal_product(h, f)\n"
        "    other.naturality(h, f)\n    bilinearity(h, f)\n"
    )
    identities = {"associativity", "naturality", "bilinearity", "iterated_fibers",
                  "section_gate", "endpoint_quotient"}
    assert sorted(_identity_calls(ast.parse(source), identities)) == [
        ("TestInstances", 12, "verify.endpoint_quotient"),
        ("test_restated", 5, "verify.associativity"), ("test_restated", 6, "naturality"),
        ("test_restated", 7, "bl"), ("test_restated", 8, "v.iterated_fibers"),
        ("test_restated", 9, "diffchar.verify.section_gate"),
    ]
