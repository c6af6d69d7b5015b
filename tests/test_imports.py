import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "mctab").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
MODULES = PACKAGE + TESTS
# what a program runs: the package, and the benchmark that wraps its names
PROGRAM = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))


def read_sources(paths) -> dict:
    return {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in paths}


def exported(tree: ast.Module) -> list:
    """The names a module lists in `__all__`."""
    return [
        name
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    ]


def unused_imports(source: str) -> list:
    """Names a module imports and never uses; `__all__` entries count as used."""
    tree = ast.parse(source)
    imported = {}
    used = set(exported(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    assert unused_imports("import os\nimport sys\nfrom a import b, c\nsys.exit(c)\n") == [
        (1, "os"),
        (3, "b"),
    ]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


def test_no_module_imports_a_name_it_does_not_use():
    found = {
        str(path.relative_to(ROOT)): unused
        for path in MODULES
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def references(tree: ast.AST) -> Counter:
    """How often each name is used: as a name, an attribute, or a string
    constant (`getattr`-style lookups, such as the benchmark's wrap tables)."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def defined_names(node: ast.stmt) -> list:
    """The names a top-level statement defines: a function or class, or the
    targets of an assignment other than dunder names such as `__all__`."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [
            n.id
            for t in targets
            for n in ast.walk(t)
            if isinstance(n, ast.Name) and not n.id.startswith("__")
        ]
    return []


def dead_definitions(sources: dict, defining: set) -> list:
    """Top-level functions, classes and assigned names of the `defining`
    modules that nothing outside their own statement refers to; `__all__`
    entries count as used."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used: Counter = Counter()
    for tree in trees.values():
        used.update(references(tree))
        used.update(exported(tree))
    return [
        (name, defined)
        for name in sorted(defining)
        for node in trees[name].body
        for defined in defined_names(node)
        if used[defined] <= references(node)[defined]
    ]


def test_dead_definitions_are_found():
    sources = {
        "lib": "def used(): pass\ndef recursive(): recursive()\nclass Unused: pass\n"
        "def exported(): pass\n__all__ = ['exported']\n__version__ = '1'\n"
        "UNUSED = object\nLIMIT: int = 3\nA, B = 0, 1\nSELF = SELF\n",
        "user": "from lib import used, LIMIT, A\nused(LIMIT, A)\n",
        "bench": "WRAPS = [('lib', 'Unused')]\n",
    }
    assert dead_definitions(sources, {"lib"}) == [
        ("lib", "recursive"),
        ("lib", "UNUSED"),
        ("lib", "B"),
        ("lib", "SELF"),
    ]
    assert dead_definitions({**sources, "bench": ""}, {"lib"}) == [
        ("lib", "recursive"),
        ("lib", "Unused"),
        ("lib", "UNUSED"),
        ("lib", "B"),
        ("lib", "SELF"),
    ]


def test_every_top_level_definition_is_referenced():
    """By the program: a package definition that only tests call is dead."""
    defining = {str(p.relative_to(ROOT)) for p in PACKAGE}
    assert dead_definitions(read_sources(PROGRAM), defining) == []


def test_every_test_helper_is_referenced():
    assert dead_definitions(read_sources(TESTS), {"tests/helpers.py"}) == []


def stored_attributes(tree: ast.Module) -> list:
    """(class, name) for each field of a `@dataclass` class and each
    attribute a class stores through `self`, in source order."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            found += [(cls.name, n.target.id) for n in cls.body
                      if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
        found += [(cls.name, n.attr) for n in ast.walk(cls)
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                  and isinstance(n.value, ast.Name) and n.value.id == "self"]
    return list(dict.fromkeys(found))


def unread_attributes(sources: dict, storing: set) -> list:
    """(module, class, name) for each attribute the `storing` modules store
    that no module reads as an attribute of anything."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [(name, cls, attr) for name in sorted(storing)
            for cls, attr in stored_attributes(trees[name]) if attr not in read]


def test_unread_attributes_are_found():
    sources = {
        "lib": "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n"
        "class B:\n    def __init__(self):\n        self.z = 1\n        self.w = 2\n"
        "        self.z += 1\n    def get(self):\n        return self.w\n",
        "user": "print(A(1).x)\n",
    }
    assert unread_attributes(sources, {"lib"}) == [("lib", "A", "y"), ("lib", "B", "z")]


# read only by callers outside the package: a positioned error's column
EXPOSED = [("src/mctab/problems.py", "ParseError", "col")]


def test_every_stored_attribute_is_read():
    storing = {str(p.relative_to(ROOT)) for p in PACKAGE}
    assert unread_attributes(read_sources(PROGRAM), storing) == EXPOSED


# what the checker shares with the prover: widening it is a change to the
# trust boundary, made here as well as in the checker's docstring
CHECKER_SURFACE = {
    "problems": {"EQ", "Clause", "Matrix", "ParseError", "_Parser", "format_literal",
                 "parse_problem"},
    "terms": {"App", "Literal", "Term", "Var", "literal_replace", "literal_subterms"},
}


def package_imports(tree: ast.Module) -> dict:
    """Package module -> the names a module imports from it, relative or not."""
    found: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("mctab")):
            module = (node.module or "").rpartition(".")[2] or "mctab"
            found.setdefault(module, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("mctab"):
                    found.setdefault(alias.name.rpartition(".")[2], set())
    return found


def docstring_surface(tree: ast.Module) -> dict:
    """The docstring's indented `module: name ...` block, continuation lines
    included, as module -> names."""
    listed: dict = {}
    lines = ast.get_docstring(tree).splitlines()
    for word in " ".join(l for l in lines if l.startswith("    ")).split():
        if word.endswith(":"):
            names = listed.setdefault(word[:-1], set())
        else:
            names.add(word)
    return listed


def loaded_modules(modules: str) -> set:
    """The names in `sys.modules` of a fresh interpreter after `import
    <modules>`.  `-S` skips the `site` module, whose `.pth` files may import
    modules of their own."""
    code = f"import sys, {modules}; print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return set(subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                              text=True, check=True).stdout.split())


def loaded_package_modules(module: str) -> set:
    """The package modules importing `module` loads: what it shares with the
    rest of the package at run time, not only in its import statements."""
    return {name for name in loaded_modules(module) if name.startswith("mctab")}


def test_checker_shares_exactly_the_names_its_docstring_lists():
    assert package_imports(ast.parse("from . import a\nfrom .b import c, d\nimport mctab.e\n"
                                     "from mctab.f import g\nimport os\n")) == {
        "mctab": {"a"}, "b": {"c", "d"}, "e": set(), "f": {"g"}}
    tree = ast.parse((ROOT / "src" / "mctab" / "checker.py").read_text(encoding="utf-8"))
    assert package_imports(tree) == docstring_surface(tree) == CHECKER_SURFACE
    assert loaded_package_modules("mctab.checker") == {
        "mctab", "mctab.checker", *(f"mctab.{name}" for name in CHECKER_SURFACE)}


def test_the_learner_imports_only_the_config_from_the_package():
    tree = ast.parse((ROOT / "src" / "mctab" / "gbt.py").read_text(encoding="utf-8"))
    assert set(package_imports(tree)) == {"config"}
    assert loaded_package_modules("mctab.gbt") == {"mctab", "mctab.config", "mctab.gbt"}


def test_importing_the_package_leaves_the_recursion_limit_alone():
    code = ("import sys; before = sys.getrecursionlimit(); import mctab, mctab.cli; "
            "print(before, sys.getrecursionlimit())")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out[0] == out[1]


def test_the_package_loads_only_the_standard_library():
    """Importing every module of the package loads no module from outside the
    standard library: mctab has no runtime dependencies."""
    modules = ", ".join(f"mctab.{p.stem}" for p in PACKAGE if p.stem != "__init__")
    top = {name.partition(".")[0] for name in loaded_modules(f"mctab, {modules}")}
    assert top - sys.stdlib_module_names == {"__main__", "mctab"}
