"""Source hygiene: no module of the library imports a name it never uses."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fqg"

# (module, name) pairs imported on purpose without a use in the module.
ALLOWED = {
    # perfbench's tracer rebinds verify_axioms in every fqg module bound to
    # it, and perfbench/tests/test_harness.py asserts that duality is one
    ("duality.py", "verify_axioms"),
}


def _annotation_names(tree: ast.AST) -> set[str]:
    """Names read by string annotations such as -> "ba.AlgebraElement"."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            anns = [a.annotation for a in (args.posonlyargs + args.args + args.kwonlyargs
                                           + [args.vararg, args.kwarg]) if a is not None]
            anns.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            anns = [node.annotation]
        else:
            continue
        for ann in filter(None, anns):
            for sub in ast.walk(ann):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    out |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                            if isinstance(n, ast.Name)}
    return out


def _unused_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used - _annotation_names(tree)


def test_no_unused_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue                  # the package namespace re-exports its imports
        for name in sorted(_unused_imports(path)):
            if (path.name, name) not in ALLOWED:
                found.append(f"{path.name}: {name}")
    assert found == []


def test_scan_sees_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import os\n"
                   "import numpy as np\n"
                   "from math import pi, tau\n"
                   "def f(x: 'np.ndarray'):\n"
                   "    '''Mentions tau and os, which does not use them.'''\n"
                   "    return pi\n")
    assert _unused_imports(mod) == {"os", "tau"}
