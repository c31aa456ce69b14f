"""The package ships only what its solvers and its CLI run.

Every module-level function, class and assignment in `src/vcwidth/`, and
every method, must be referenced somewhere in the package outside its own
definition, be exported through `__all__`, or be the CLI entry point
`main`. Dunder names are exempt: the interpreter calls them. A name that
only a test uses belongs in `tests/` (reference code in `spec.py`, helpers
in `genutil.py`).
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import vcwidth

PACKAGE = Path(vcwidth.__file__).parent


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(name, defining node) of every module-level def, class and assigned
    name, and of every method."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                out += [(item.name, item) for item in node.body
                        if isinstance(item, ast.FunctionDef)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out += [(t.id, node) for target in targets
                    for t in ast.walk(target) if isinstance(t, ast.Name)]
    return [(name, node) for name, node in out if not _is_dunder(name)]


def _references(tree, skip):
    """Names read as identifiers or attributes anywhere in `tree`, except
    inside the node `skip`."""
    refs = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return refs


def _exported(trees):
    names = set()
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                names |= set(ast.literal_eval(node.value))
    return names


def unreferenced_names():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    allowed = _exported(trees) | {"main"}
    unused = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            if name in allowed:
                continue
            if not any(name in _references(other, node)
                       for other in trees.values()):
                unused.append(f"{module}: {name}")
    return unused


def test_every_name_in_the_package_is_used_by_it():
    assert unreferenced_names() == []


def test_package_does_not_import_test_code():
    # nor numpy: the package runs on the standard library alone
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] in ("spec", "genutil", "tests",
                                               "numpy")
                           for m in modules), path.name


def _benchmark_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_layers_resolve_in_the_package():
    # `perfbench/run.py --trace 1` rebinds these names and fails on any
    # that is gone, so a rename in the package must show up here first
    spans = _benchmark_spans()
    homes = {}
    for name, (module, attr, cls) in spans.LAYERS.items():
        owner = importlib.import_module(f"vcwidth.{module}")
        if cls is not None:
            owner = getattr(owner, cls)
        assert callable(owner.__dict__.get(attr)), name
        homes.setdefault(attr, owner.__dict__[attr])
    for module, names in spans.REQUIRED_SITES.items():
        site = importlib.import_module(f"vcwidth.{module}")
        for attr in names:
            assert vars(site).get(attr) is homes[attr], f"{module}.{attr}"


def test_traced_stats_arguments_are_named_stats():
    # the traced run hands a fresh dict to the argument at this position
    # when the caller passed None, so it must be the stats parameter
    spans = _benchmark_spans()
    for name, position in spans._STATS_ARG.items():
        module, attr, cls = spans.LAYERS[name]
        owner = importlib.import_module(f"vcwidth.{module}")
        if cls is not None:
            owner = getattr(owner, cls)
        params = list(inspect.signature(owner.__dict__[attr]).parameters)
        assert params[position] == "stats", name
