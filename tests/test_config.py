"""The suite's own pytest settings."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_stop_the_suite(tmp_path):
    # hypothesis's failure report imports libcst, which raises a third-party
    # DeprecationWarning inside pytest's report hook; under
    # filterwarnings = ["error"] that ended the pytest run with an
    # INTERNALERROR and hid every later test
    (tmp_path / "test_probe.py").write_text(PROBE)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT),
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout


def _unread_imports(tree):
    """Names a module imports but never reads, for one parsed module."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_no_module_imports_a_name_it_never_reads():
    # deletions leave imports behind; __init__ imports to re-export
    unread = {}
    for path in sorted((ROOT / "src" / "lame2").glob("*.py")):
        if path.name != "__init__.py":
            names = _unread_imports(ast.parse(path.read_text()))
            if names:
                unread[path.name] = names
    assert unread == {}


def test_the_import_scan_sees_an_unread_import():
    tree = ast.parse("import os\nfrom a import b, c as d\nprint(b)\n")
    assert _unread_imports(tree) == ["d", "os"]


def _unread_private(trees):
    """The _name functions, classes and module constants the parsed modules
    define and never read: no Name or attribute load spells them."""
    defined, read = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    return sorted(name for name in defined - read
                  if name.startswith("_") and not name.startswith("__"))


def test_every_private_helper_is_read():
    # deleting a helper's last caller leaves the helper behind
    trees = [ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "lame2").glob("*.py"))]
    assert _unread_private(trees) == []


def test_the_private_scan_sees_an_unread_helper():
    tree = ast.parse("_A = 1\n_B = 2\n__all__ = []\n"
                     "def _f():\n    return _A\n"
                     "def _g():\n    pass\n"
                     "class _C:\n    def _m(self):\n        self._n()\n"
                     "    def _n(self):\n        pass\n"
                     "def __eq__(a, b):\n    pass\n"
                     "print(_f)\n")
    assert _unread_private([tree]) == ["_B", "_C", "_g", "_m"]


def _own_nodes(fn):
    """The nodes of a function's body, less those of functions inside it."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _unread_locals(tree):
    """function.name for each name a function of the parsed module binds
    and neither it nor a function inside it reads; _names are exempt."""
    unread = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        bound = set()
        for node in _own_nodes(fn):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                bound.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)  # bound for a scope outside fn
        unread |= {f"{fn.name}.{name}" for name in bound - read
                   if not name.startswith("_")}
    return sorted(unread)


def test_every_local_is_read():
    # a value computed and dropped is work or surface nothing reads
    unread = {}
    for path in sorted((ROOT / "src" / "lame2").glob("*.py")):
        names = _unread_locals(ast.parse(path.read_text()))
        if names:
            unread[path.name] = names
    assert unread == {}


def test_the_local_scan_sees_an_unread_local():
    tree = ast.parse("def f(a, b):\n"
                     "    c, _d = g()\n"
                     "    for i in range(a):\n"
                     "        pass\n"
                     "    def inner():\n"
                     "        nonlocal e\n"
                     "        e = 1\n"
                     "        k = 2\n"
                     "    e = 0\n"
                     "    return [j for j in b], inner, e\n")
    assert _unread_locals(tree) == ["f.c", "f.i", "inner.k"]


def _private_functions(trees):
    """The _name functions and methods the parsed modules define."""
    return {node.name for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def _dropped_results(tree, private):
    """Lines of the parsed module where a tuple-unpack binds a _name from a
    direct call to one of the `private` functions: the callee computes a
    part of its result that this caller drops."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign)
                and isinstance(call := node.value, ast.Call)):
            continue
        callee = getattr(call.func, "id", getattr(call.func, "attr", None))
        names = [elt.value if isinstance(elt, ast.Starred) else elt
                 for target in node.targets if isinstance(target, ast.Tuple)
                 for elt in target.elts]
        if callee in private and any(isinstance(name, ast.Name)
                                     and name.id.startswith("_")
                                     for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_private_call_computes_what_its_caller_drops():
    # a private helper whose one caller drops part of its tuple, as
    # `factors, _rows = _distinct_degree(...)` did, does work nothing reads
    paths = sorted((ROOT / "src" / "lame2").glob("*.py"))
    trees = {path.name: ast.parse(path.read_text()) for path in paths}
    private = _private_functions(trees.values())
    assert [f"{name}:{line}" for name, tree in trees.items()
            for line in _dropped_results(tree, private)] == []


def test_the_dropped_result_scan_sees_a_dropped_result():
    tree = ast.parse("def _f():\n    return 1, 2\n"
                     "a, _b = _f()\n"
                     "*_c, d = obj._f()\n"
                     "e, _g = curve.coefficients()\n"
                     "h, _i = next(_f())\n"
                     "j, k = _f()\n")
    assert _dropped_results(tree, _private_functions([tree])) == [3, 4]


def _readers(trees, names):
    """{name: sorted "module:owner"} for each of `names`: the modules and
    top-level statements (functions, classes or <module>) that spell it as
    a name or an attribute."""
    places = {name: set() for name in names}
    for module, tree in trees.items():
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                name = getattr(node, "id", getattr(node, "attr", None))
                if name in places:
                    places[name].add(f"{module}:{owner}")
    return {name: sorted(owners) for name, owners in places.items()}


def test_orbits_is_the_one_root_lister():
    # every root in src/ comes from one split tree: _embed_gen built its own
    # rows and tree beside gf2._orbits until it read _orbits with its bound e
    paths = sorted((ROOT / "src" / "lame2").glob("*.py"))
    trees = {path.name: ast.parse(path.read_text()) for path in paths}
    assert _readers(trees, ["_split_once", "_traces"]) == {
        "_split_once": ["gf2.py:_orbits"], "_traces": ["gf2.py:_orbits"]}


def test_the_reader_scan_sees_a_second_root_lister():
    tree = ast.parse("def _split_once(g, trace):\n    pass\n"
                     "def _orbits(g):\n"
                     "    def split(f):\n"
                     "        return _split_once(f, trace)\n"
                     "    trace = _traces(g)\n"
                     "def _embed_gen(g):\n"
                     "    return min(_split_once(g, None))\n"
                     "class _C:\n"
                     "    def m(self):\n"
                     "        return gf2._traces(self)\n"
                     "lister = _traces\n")
    assert _readers({"m.py": tree}, ["_split_once", "_traces"]) == {
        "_split_once": ["m.py:_embed_gen", "m.py:_orbits"],
        "_traces": ["m.py:<module>", "m.py:_C", "m.py:_orbits"]}
