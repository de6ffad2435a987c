"""Every public name the package defines has a caller outside the tests.

A name stays in `src/srg2048` when the package's own modules (the CLI
among them), the benchmark child `srgbench/child.py` or the traced call
table in `srgbench/spans.py` refers to it.  A name only the tests call
belongs in `tests/oracles.py`, or nowhere.  The scan is by name: a
loaded name, an attribute, or a string in the traced call table.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(p for p in (ROOT / "src" / "srg2048").glob("*.py") if p.name != "__init__.py")
CALLERS = [*PACKAGE, ROOT / "srgbench" / "child.py", ROOT / "srgbench" / "spans.py"]
# the paper's per-pair rule, public on purpose; its callees are referenced through it
KEPT = {"adjacent"}


def _referenced():
    names = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif path.name == "spans.py" and isinstance(node, ast.Constant):
                names.add(node.value)
    return names


def _defined(path):
    """(label, name) of each module-level function, class and constant, and of
    each method, labelled Class.method."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            yield node.name, node.name
            for m in node.body:
                if isinstance(m, ast.FunctionDef):
                    yield f"{node.name}.{m.name}", m.name
        elif isinstance(node, ast.FunctionDef):
            yield node.name, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, t.id) for t in targets if isinstance(t, ast.Name))


def test_every_public_name_has_a_caller_outside_the_tests():
    defined = [(f"{path.stem}.{label}", name) for path in PACKAGE for label, name in _defined(path)]
    assert {"cli.main", "coset_graph.Graph.neighbors", "gf2.VEC_LIMIT"} <= {d[0] for d in defined}
    referenced = _referenced() | KEPT
    unused = [label for label, name in defined if not name.startswith("_") and name not in referenced]
    assert unused == []
