"""Every name the package defines, private ones too, has a live caller
outside the tests.

A name stays in `src/srg2048` when the package's own modules (the CLI
among them), the benchmark child `srgbench/child.py` or the traced call
table in `srgbench/spans.py` refers to it.  A name only the tests call
belongs in `tests/oracles.py`, or nowhere.

The scan is qualified.  A bare name counts for the module-level name it
resolves to, in its own module or through an import from the package,
unless a local binding of an enclosing function shadows it.  An attribute
counts for a module-level name only as `<module>.<name>`; a method counts
for any attribute of its name.  The traced call table counts as
`{"<module>": ("<name>", ...)}`.  A reference made from inside a dead name
does not count, so the scan repeats until no new name dies.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(p for p in (ROOT / "src" / "srg2048").glob("*.py") if p.name != "__init__.py")
OUTSIDE = [ROOT / "srgbench" / "child.py", ROOT / "srgbench" / "spans.py"]


def _definitions(module, tree):
    """(label, key, nodes) of each module-level function, class and constant,
    keyed `module.name`, and of each method, labelled `module.Class.method`
    and keyed `*.method`.  `nodes` are the statements the name owns."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
            body = [*node.decorator_list, *node.bases, *(m for m in node.body if m not in methods)]
            yield f"{module}.{node.name}", f"{module}.{node.name}", body
            for m in methods:
                yield f"{module}.{node.name}.{m.name}", f"*.{m.name}", [m]
        elif isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", f"{module}.{node.name}", [node]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    yield f"{module}.{t.id}", f"{module}.{t.id}", [node]


def _locals(fn):
    """The names a function binds itself: its parameters, and its assignment,
    loop, `with`, `except` and nested `def` targets."""
    a = fn.args
    names = {x.arg for x in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if x}
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue  # a scope of its own
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _imports(tree, modules):
    """Local name -> key of each name a module imports as `from .module import name`."""
    return {
        alias.asname or alias.name: f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in modules
        for alias in node.names
    }


def _keys(node, modules, names, scopes=()):
    """The keys of the references under `node`; `names` maps each bare name
    the module can see to its key, and `scopes` holds the enclosing
    functions' local names."""
    if isinstance(node, ast.FunctionDef):
        scopes = [*scopes, _locals(node)]
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id in names and not any(node.id in s for s in scopes):
            yield names[node.id]
    elif isinstance(node, ast.Attribute):
        value = node.value
        if isinstance(value, ast.Name) and value.id in modules:  # coset_graph.build_graph
            yield f"{value.id}.{node.attr}"
        elif isinstance(value, ast.Attribute) and value.attr in modules:  # srg2048.cli.main
            yield f"{value.attr}.{node.attr}"
        yield f"*.{node.attr}"
    elif isinstance(node, ast.Dict):  # a call table {"module": ("name", ...)}
        for k, v in zip(node.keys, node.values):
            if isinstance(k, ast.Constant) and k.value in modules and isinstance(v, ast.Tuple):
                yield from (f"{k.value}.{e.value}" for e in v.elts if isinstance(e, ast.Constant))
    for child in ast.iter_child_nodes(node):
        yield from _keys(child, modules, names, scopes)


def dead_names(package, outside):
    """Labels of the names in `package` (module name -> source) that no live
    reference reaches, in sorted order.  Every reference in `outside` (a list
    of sources) is live, and so is one from a package module's top level
    outside any name.  Dunder methods are called implicitly, so never dead."""
    trees = {m: ast.parse(src) for m, src in package.items()}
    defs = {m: list(_definitions(m, tree)) for m, tree in trees.items()}
    refs = []  # (label of the owning name, or None when always live; key)
    for tree in map(ast.parse, outside):
        refs += [(None, key) for key in _keys(tree, package, {})]
    for m, tree in trees.items():
        names = {key.split(".", 1)[1]: key for _, key, _ in defs[m] if key[0] != "*"}
        names.update(_imports(tree, package))
        owned = set()
        for label, key, nodes in defs[m]:
            owned.update(map(id, nodes))
            # a name's calls of itself keep nothing alive
            refs += [(label, k) for n in nodes for k in _keys(n, package, names) if k != key]
        for node in tree.body:
            if id(node) not in owned and not isinstance(node, ast.ClassDef):
                refs += [(None, key) for key in _keys(node, package, names)]
    keys = {label: key for d in defs.values() for label, key, _ in d if not key.startswith("*.__")}
    dead = set()
    while True:
        reached = {key for owner, key in refs if owner not in dead}
        newly = {label for label, key in keys.items() if label not in dead and key not in reached}
        if not newly:
            return sorted(dead)
        dead |= newly


def test_every_public_name_has_a_caller_outside_the_tests():
    package = {p.stem: p.read_text() for p in PACKAGE}
    labels = {label for m, src in package.items() for label, _, _ in _definitions(m, ast.parse(src))}
    assert {"cli.main", "coset_graph.Graph.bands", "gf2.VEC_LIMIT"} <= labels
    assert dead_names(package, [p.read_text() for p in OUTSIDE]) == []


SYNTHETIC = '''
def add(x):
    return x


def run(seen, x):
    {body}
'''


def test_scan_flags_a_name_reached_only_by_attribute_or_shadowed():
    caller = "import m\nm.run(set(), 1)\n"
    for body in ("seen.add(x)", "add = seen.add\n    add(x)"):
        assert dead_names({"m": SYNTHETIC.format(body=body)}, [caller]) == ["m.add"], body
    assert dead_names({"m": SYNTHETIC.format(body="add(x)")}, [caller]) == []
