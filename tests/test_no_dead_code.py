"""No dead functions.  Every module-level function of the package whose
name starts with an underscore is referenced by name from some module of
the package, outside its own body.  Every public one is read by name
from another function of the package, from a demo or from the benchmark
(a re-export in __init__.py is not a reader), or is listed in
UNREAD_PUBLIC with the reason it stays.  Every method of a class, dunders
aside, is read as an attribute in the same way (a bare name of the same
spelling, such as a local variable, is not a read), or is listed in
UNREAD_METHODS.
A function that nothing calls any more is deleted, not kept beside its
replacement.  seeds and cli call
no private name of qlaurent, so every product and division passes through
the public kernels, and inside seeds only _current_monomial reads
torus_product.  No module but __init__.py, which re-exports, imports
a name at its top level that it never reads.  The finite-type Cartan
matrices have one builder, cartan._finite_family, and no test or demo
writes a family out again."""
from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "braidseed"

# Public functions that no other function of the package, no demo and no
# benchmark reads, each with the reason it stays.
UNREAD_PUBLIC = {
    "bilinear_form": "the invariant form that ROADMAP item 1 gives a caller",
    "b_hl": "the window exchange matrix of ROADMAP item 6",
    "canonical_smallest_solution": "the test reference for solve_lambda",
    "in_lattice": "the lattice predicate; every query checks by _require_point",
    "permute_seed": "the seed relabelling of the test reference walk",
    "parse_report": "reads the JSON that emit_report writes",
    "reflect_root": "named in the benchmark's README, which stays as it is",
}

# Methods, as Class.method, that nothing of the package, no demo and no
# benchmark reads, each with the reason it stays.
UNREAD_METHODS = {
    "_Parser.error": "argparse calls it on a usage error",
    "QHalf.divide": "exact coefficient division, which wraps _divide; the tests check it",
    "QHalf.q_power": "the coefficient q^(k/2) by name; the tests build coefficients with it",
    "QHalf.shift": "the coefficient times q^(k/2); the tests' reference kernels read it",
    "QuantumLaurent.leading": "the grlex leading term; the tests' reference division reads it",
    "Report.section": "a report's section by name; the tests read reports through it",
}


def functions(tree: ast.Module) -> list:
    """The module-level function definitions."""
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def private_functions(tree: ast.Module) -> list:
    """The module-level private (not dunder) function definitions."""
    return [
        node
        for node in functions(tree)
        if node.name.startswith("_") and not node.name.startswith("__")
    ]


def name_counts(node: ast.AST, imports: bool = True, bare: bool = True) -> Counter:
    """How often each attribute and, when bare, each name and, when imports,
    each imported name is read within node."""
    counts = Counter()
    for child in ast.walk(node):
        if bare and isinstance(child, ast.Name):
            counts[child.id] += 1
        elif isinstance(child, ast.Attribute):
            counts[child.attr] += 1
        elif imports and isinstance(child, ast.alias):
            counts[child.name] += 1
    return counts


def unread(trees: dict, readers: list, definitions, **mode) -> list:
    """(module, label) for each (label, definition) of definitions(tree),
    for each tree of trees, whose name is read nowhere in trees and
    readers outside its own definition.  Each tree is counted once, and
    each definition once more, to take its own reads away."""
    total = sum((name_counts(tree, **mode) for tree in [*trees.values(), *readers]), Counter())
    return [
        (module, label)
        for module, tree in trees.items()
        for label, func in definitions(tree)
        if total[func.name] == name_counts(func, **mode)[func.name]
    ]


def unreferenced(sources: dict) -> list:
    """(module, function) for each private function that no module refers
    to outside the function's own definition."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    return unread(trees, [], lambda tree: [(f.name, f) for f in private_functions(tree)])


def unread_public(sources: dict, readers: dict) -> list:
    """(module, function) for each public function of sources that is not
    read by name, outside its own definition, in a module of sources other
    than __init__.py, nor in a module of readers.  Imports are not reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    trees.pop("__init__.py", None)
    return unread(
        trees,
        [ast.parse(text) for text in readers.values()],
        lambda tree: [(f.name, f) for f in functions(tree) if not f.name.startswith("_")],
        imports=False,
    )


def methods(tree: ast.Module) -> list:
    """(class name, definition) of each method of a module-level class,
    properties included and dunders excluded."""
    return [
        (top.name, node)
        for top in tree.body
        if isinstance(top, ast.ClassDef)
        for node in top.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def unread_methods(sources: dict, readers: dict) -> list:
    """(module, Class.method) for each method of sources that is not read
    as an attribute, outside its own definition, in a module of sources
    other than __init__.py, nor in a module of readers.  Imports and bare
    names are not reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    trees.pop("__init__.py", None)
    return unread(
        trees,
        [ast.parse(text) for text in readers.values()],
        lambda tree: [(f"{owner}.{f.name}", f) for owner, f in methods(tree)],
        imports=False,
        bare=False,
    )


def package_sources() -> dict:
    return {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}


def reader_sources() -> dict:
    """The demos and the benchmark, by path relative to the repository."""
    return {
        str(path.relative_to(ROOT)): path.read_text()
        for folder in ("demos", "perfbench")
        for path in sorted((ROOT / folder).glob("*.py"))
    }


def test_every_private_function_is_referenced():
    sources = package_sources()
    assert sum(len(private_functions(ast.parse(s))) for s in sources.values()) > 50
    assert unreferenced(sources) == []


def test_unreferenced_catches_dead_and_self_recursive_functions():
    sources = {
        "a.py": (
            "def _used():\n    return 1\n"
            "def _dead():\n    return _used()\n"
            "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
            "def __dunder__():\n    pass\n"
            "def public():\n    return 0\n"
        ),
        "b.py": "from .a import _imported\nimport a\nx = a._by_attribute\n",
        "c.py": "def _imported():\n    pass\ndef _by_attribute():\n    pass\n",
    }
    assert unreferenced(sources) == [("a.py", "_dead"), ("a.py", "_recursive")]


def test_every_public_function_has_a_reader_or_a_reason():
    sources = package_sources()
    public = [
        func.name
        for text in sources.values()
        for func in functions(ast.parse(text))
        if not func.name.startswith("_")
    ]
    assert len(public) > 50
    assert all(reason for reason in UNREAD_PUBLIC.values())
    # equality: a listed function that gains a reader or goes leaves the list
    unread = unread_public(sources, reader_sources())
    assert sorted(name for _, name in unread) == sorted(UNREAD_PUBLIC)


def test_every_method_has_a_reader_or_a_reason():
    sources = package_sources()
    assert sum(len(methods(ast.parse(s))) for s in sources.values()) > 40
    assert all(reason for reason in UNREAD_METHODS.values())
    # equality: a listed method that gains a reader or goes leaves the list
    unread = unread_methods(sources, reader_sources())
    assert sorted(name for _, name in unread) == sorted(UNREAD_METHODS)


def test_unread_methods_sees_attributes_properties_and_self_reads():
    sources = {
        "__init__.py": "from .a import C\n",
        "a.py": (
            "class C:\n"
            "    def __init__(self):\n        self.used()\n"
            "    def used(self):\n        return self._private\n"
            "    @property\n    def _private(self):\n        return 1\n"
            "    def recursive(self, n):\n        return self.recursive(n - 1)\n"
            "    def by_demo(self):\n        pass\n"
            "    def dead(self):\n        pass\n"
            "    def shadowed(self):\n        pass\n"
            "def dead():\n    pass\n"
        ),
        "b.py": "from .a import dead\ndef f(shadowed):\n    return shadowed + dead()\n",
    }
    readers = {"demos/d.py": "from braidseed import C\nC().by_demo()\nshadowed = 1\n"}
    # a function of the same name, defined or imported, is not a read, nor
    # is a local variable or a parameter that shadows a method's name
    assert unread_methods(sources, readers) == [
        ("a.py", "C.recursive"),
        ("a.py", "C.dead"),
        ("a.py", "C.shadowed"),
    ]


def test_unread_public_skips_exports_imports_and_self_reads():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": (
            "def called():\n    return 1\n"
            "def exported():\n    return called()\n"
            "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
            "def imported():\n    pass\n"
            "def by_demo():\n    pass\n"
            "def by_table():\n    pass\n"
            "def _private():\n    pass\n"
        ),
        "b.py": "from .a import imported\nTABLE = {'t': a.by_table}\n",
    }
    readers = {"demos/d.py": "from braidseed.a import by_demo\nby_demo()\n"}
    assert unread_public(sources, readers) == [
        ("a.py", "exported"),
        ("a.py", "recursive"),
        ("a.py", "imported"),
    ]


def unused_imports(text: str) -> list:
    """The names that a module's top-level imports bind and that the module
    never reads; a __future__ import binds nothing."""
    tree = ast.parse(text)
    bound = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return [name for name in bound if name not in read]


def test_every_module_level_import_is_read():
    sources = package_sources()
    sources.pop("__init__.py")
    assert len(sources) > 5
    unused = {m: names for m, text in sources.items() if (names := unused_imports(text))}
    assert unused == {}


def test_unused_imports_sees_aliases_attributes_and_annotations():
    text = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nimport re\n"
        "from typing import Optional, Sequence\nfrom .a import b, c as d\n"
        "Sequence = list\n"
        "def f(x: Optional[int]) -> None:\n    return j.dumps(os.sep), d\n"
    )
    assert unused_imports(text) == ["re", "Sequence", "b"]


def calls(sources: dict) -> dict:
    """module:function -> the names its body calls, directly or as an
    attribute, for each module-level function and method."""
    out = {}
    for module, text in sources.items():
        tree = ast.parse(text)
        for top in tree.body:
            for func in top.body if isinstance(top, ast.ClassDef) else [top]:
                if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out[f"{module}:{func.name}"] = {
                        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                        for node in ast.walk(func)
                        if isinstance(node, ast.Call)
                        and isinstance(node.func, (ast.Name, ast.Attribute))
                    }
    return out


def callers(sources: dict, name: str) -> set:
    """The module-level functions and methods, as module:function, whose
    bodies call name."""
    return {func for func, called in calls(sources).items() if name in called}


def test_the_mutation_rules_have_one_in_place_home():
    """seed_equivalence_report walks one mutable state and builds no seed
    per step, mutate_seed thaws, steps and freezes, and the tropical and
    exact mutation rules are reached only through the one in-place step:
    a forked copy of the rules adds a caller and fails here.  Each exact
    step and its exchange relation is one _checked_step, called by the
    walk, checked_mutation and exchange_check; it alone forms both sides
    of the relation, and the products that _current_monomial memoizes are
    stored only on the _SeedState that formed them."""
    sources = package_sources()
    table = calls(sources)  # the package parsed once, not once per name

    def callers_of(name):
        return {func for func, called in table.items() if name in called}

    step = {"seeds.py:mutate_seed", "seeds.py:_checked_step"}
    assert callers_of("_mutate_in_place") == step
    assert table["seeds.py:mutate_seed"] == {"_SeedState", "_mutate_in_place", "freeze"}
    checked = {
        "seeds.py:seed_equivalence_report",
        "seeds.py:checked_mutation",
        "seeds.py:exchange_check",
    }
    assert callers_of("_checked_step") == checked
    for seed_builder in ("mutate_seed", "permute_seed"):
        assert "seeds.py:seed_equivalence_report" not in callers_of(seed_builder)
    for rule in ("par_mutation", "right_divide", "_exchange_sum"):
        assert callers_of(rule) == {"seeds.py:_mutate_in_place"}, rule
    seeds = {"seeds.py": sources["seeds.py"]}
    assert callers(seeds, "shifted_sum") == {"seeds.py:_exchange_sum", "seeds.py:_checked_step"}
    assert "_exchange_holds" not in {name.split(":")[1] for name in table}
    # a memo is a new dict on every thaw and every step, never another
    # object's memo handed over
    assert memo_writers(sources) == {
        "seeds.py:__init__": ["Dict"],
        "seeds.py:_mutate_in_place": ["DictComp"],
    }


def readers(sources: dict, name: str) -> set:
    """module:owner for each owner whose code reads name, as a bare name or
    as an attribute: a module-level function or method (nested functions
    included), a class body outside its methods, or <module> for the
    module's other top-level statements.  Imports are not reads, so a name
    bound to an alias is read where the import names it, not at all, and
    the alias is read where it is used."""
    found = set()
    for module, text in sources.items():
        for top in ast.parse(text).body:
            if isinstance(top, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(top, ast.ClassDef):
                owners = [
                    (node.name, node)
                    for node in top.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
                rest = [node for node in top.body if node not in {n for _, n in owners}]
                owners.append((top.name, ast.Module(body=rest, type_ignores=[])))
            elif isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owners = [(top.name, top)]
            else:
                owners = [("<module>", top)]
            for owner, node in owners:
                if name_counts(node, imports=False)[name]:
                    found.add(f"{module}:{owner}")
    return found


def test_seeds_forms_exact_products_in_one_place():
    """Inside seeds only _current_monomial reads torus_product, so every
    exact product of a step is an exchange monomial multiplied out once
    into the state's memo.  The exchange check's left side X_k * mu_k(X_k)
    is the bar image of the step's numerator, and a product formed again
    anywhere else in seeds, called or passed on, fails here."""
    sources = package_sources()
    seeds = {"seeds.py": sources["seeds.py"]}
    assert readers(seeds, "torus_product") == {"seeds.py:_current_monomial"}
    assert readers(seeds, "bar") == {"seeds.py:_checked_step"}


def test_readers_sees_calls_aliases_attributes_and_class_bodies():
    sources = {
        "a.py": (
            "from .q import p, p as alias\n"
            "import q\n"
            "def by_name():\n    return p(1)\n"
            "def by_alias():\n    f = alias\n    return f(1)\n"
            "def passed_on():\n    return map(p, [])\n"
            "def nested():\n    def inner():\n        return q.p(1)\n    return inner\n"
            "def spelled_alike():\n    np = 1\n    return np\n"
            "class C:\n    held = p\n    def m(self):\n        return self.p\n"
            "    def other(self):\n        return 1\n"
            "TABLE = {1: p}\n"
        ),
    }
    assert readers(sources, "p") == {
        "a.py:by_name", "a.py:passed_on", "a.py:nested", "a.py:m", "a.py:C", "a.py:<module>"
    }
    assert readers(sources, "alias") == {"a.py:by_alias"}


def family_builders(sources: dict) -> list:
    """module:function for each function or method of sources whose name
    is that of a Cartan family builder: type_<x>, _type_<x> or
    bourbaki_<x>, with any leading underscores."""
    pattern = re.compile(r"_*(type|bourbaki)_\w+")
    return [
        f"{module}:{node.name}"
        for module, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and pattern.fullmatch(node.name)
    ]


def test_the_finite_families_have_one_home():
    """cartan._finite_family builds every finite-type Cartan matrix: preset
    reads it for each family name and the CLI for an inferred context.  A
    test or demo module that writes out a family again fails here."""
    sources = {
        str(path.relative_to(ROOT)): path.read_text()
        for folder in ("tests", "demos")
        for path in sorted((ROOT / folder).glob("*.py"))
    }
    assert len(sources) > 10
    assert family_builders(sources) == []
    assert callers(package_sources(), "_finite_family") == {
        "cartan.py:preset",
        "cli.py:_infer_a_type",
    }


def test_family_builders_sees_each_spelling_of_the_names():
    sources = {
        "a.py": (
            "def type_a(n):\n    pass\n"
            "def _type_d(n):\n    pass\n"
            "class C:\n    def bourbaki_e(self, n):\n        pass\n"
            "def w0_seed(name):\n    def __type_b():\n        pass\n"
            "def typed(n):\n    pass\n"
            "def type_(n):\n    pass\n"
        ),
    }
    # methods and nested functions count; typed and type_ are no family
    assert sorted(family_builders(sources)) == [
        "a.py:__type_b", "a.py:_type_d", "a.py:bourbaki_e", "a.py:type_a"
    ]


def memo_writers(sources: dict) -> dict:
    """module:function -> the node type of each value it assigns to a
    _products attribute, for each function and method that assigns one."""
    found = {}
    for module, text in sources.items():
        tree = ast.parse(text)
        for top in tree.body:
            for func in top.body if isinstance(top, ast.ClassDef) else [top]:
                if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    values = [
                        type(node.value).__name__
                        for node in ast.walk(func)
                        if isinstance(node, ast.Assign)
                        and any(
                            isinstance(t, ast.Attribute) and t.attr == "_products"
                            for t in node.targets
                        )
                    ]
                    if values:
                        found[f"{module}:{func.name}"] = values
    return found


def test_callers_sees_calls_by_name_and_by_attribute_in_methods():
    sources = {
        "a.py": (
            "def f():\n    return g()\n"
            "def h():\n    return g\n"
            "class C:\n    def m(self):\n        return mod.g(1)\n"
        ),
    }
    assert callers(sources, "g") == {"a.py:f", "a.py:m"}


def private_names(text: str) -> set:
    """The private (not dunder) names a module defines at its top level,
    functions, classes and constants, and as methods of its classes."""
    names = set()
    for top in ast.parse(text).body:
        for node in top.body if isinstance(top, ast.ClassDef) else [top]:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def private_kernel_callers(sources: dict) -> dict:
    """module:function -> the private qlaurent names it calls, for each
    function and method of seeds and cli that calls one."""
    kernel = private_names(sources["qlaurent.py"])
    found = {}
    for func, called in calls({m: sources[m] for m in ("seeds.py", "cli.py")}).items():
        if called & kernel:
            found[func] = called & kernel
    return found


def test_seeds_and_cli_reach_qlaurent_through_public_names_only():
    """Every product and division of the exact track runs inside the
    public torus_product and right_divide, which the benchmark's tracer
    wraps as the qlaurent.product and qlaurent.divide spans: a private
    kernel called from seeds or cli would hide its work in the caller."""
    sources = package_sources()
    assert {"_accumulate", "_wrap", "_image"} <= private_names(sources["qlaurent.py"])
    assert private_kernel_callers(sources) == {}


def test_private_kernel_callers_sees_imports_methods_and_attributes():
    sources = {
        "qlaurent.py": (
            "_ONE = {0: 1}\n"
            "def _kernel():\n    pass\n"
            "def public():\n    return _kernel()\n"
            "class Q:\n    @classmethod\n    def _wrap(cls):\n        pass\n"
            "    def __init__(self):\n        pass\n"
        ),
        "seeds.py": (
            "from .qlaurent import _kernel, public\n"
            "def by_name():\n    return _kernel()\n"
            "def by_method():\n    return Q._wrap()\n"
            "def public_only():\n    return public(), Q()\n"
        ),
        "cli.py": (
            "from . import qlaurent\n"
            "class C:\n    def m(self):\n        return qlaurent._kernel()\n"
        ),
    }
    assert private_names(sources["qlaurent.py"]) == {"_ONE", "_kernel", "_wrap"}
    assert private_kernel_callers(sources) == {
        "seeds.py:by_name": {"_kernel"},
        "seeds.py:by_method": {"_wrap"},
        "cli.py:m": {"_kernel"},
    }
