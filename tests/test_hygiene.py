"""Source hygiene: no module of the library imports a name it never uses,
every function, class and method it defines is referenced somewhere, every
parameter it declares is read, importing it loads numpy but not scipy, and
every name of it that the benchmark harness reaches for still exists."""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fqg"

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


# -- unreferenced definitions ---------------------------------------------------

IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _docstring_ids(tree: ast.AST) -> set[int]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first.value))
    return out


def _references(tree: ast.AST) -> Counter:
    """Identifiers a tree reads: names, attributes, imported names, and the
    identifiers inside string literals other than docstrings (so that
    monkeypatch targets such as setattr(mod, "name") count)."""
    docs = _docstring_ids(tree)
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            out.update(IDENTIFIER.findall(node.value))
    return out


def _unreferenced(sources: list[Path], corpus: list[Path]) -> list[str]:
    """Functions, classes and methods defined in sources whose name is read
    nowhere in corpus outside their own definition.  Dunder methods are
    called implicitly and are skipped."""
    refs = Counter()
    for path in corpus:
        refs += _references(ast.parse(path.read_text(), filename=str(path)))
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if refs[node.name] - _references(node)[node.name] <= 0:
                found.append(f"{path.name}: {node.name}")
    return sorted(found)


def test_every_definition_is_referenced():
    corpus = sorted(p for top in ("src", "tests", "perfbench")
                    for p in (ROOT / top).rglob("*.py"))
    assert _unreferenced(sorted(SRC.glob("*.py")), corpus) == []


def test_scan_sees_an_unreferenced_definition(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text('class Box:\n'
                   '    def __len__(self):\n'
                   '        return 0\n'
                   '    def used(self):\n'
                   '        return 1\n'
                   '    def dead_method(self):\n'
                   '        return self.used()\n'
                   'def loop(n):\n'
                   '    return loop(n - 1) if n else Box()\n'
                   'def patched():\n'
                   '    """Mentions loop and mentioned, which does not use them."""\n'
                   'def mentioned():\n'
                   '    pass\n')
    use = tmp_path / "use.py"
    use.write_text('import mod\n'
                   'from mod import Box\n'
                   'Box().used()\n'
                   'def test(monkeypatch):\n'
                   '    monkeypatch.setattr(mod, "patched", None)\n')
    assert _unreferenced([mod], [mod, use]) == [
        "mod.py: dead_method", "mod.py: loop", "mod.py: mentioned"]


# -- unread parameters ---------------------------------------------------------------

def _unread_parameters(path: Path) -> list[str]:
    """Parameters of the functions and lambdas in path that their body never
    reads (nested functions count as the body).  self, cls and the
    parameters of dunder methods, whose signatures Python fixes, are
    skipped."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if name.startswith("__") and name.endswith("__"):
            continue
        args = node.args
        params = [a.arg for a in (args.posonlyargs + args.args + args.kwonlyargs
                                  + [args.vararg, args.kwarg]) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        reads = {n.id for stmt in body for n in ast.walk(stmt)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{path.name}: {name}({p})" for p in params
                  if p not in ("self", "cls", *reads)]
    return found


def test_no_unread_parameters():
    assert [f for path in sorted(SRC.glob("*.py")) for f in _unread_parameters(path)] == []


def test_scan_sees_an_unread_parameter(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text('class Box:\n'
                   '    def __exit__(self, *exc):\n'
                   '        return None\n'
                   '    def size(self, unit, tol=1e-9):\n'
                   '        """Mentions tol, which does not read it."""\n'
                   '        return unit\n'
                   'def outer(a, b, *rest, key=None, **opts):\n'
                   '    def inner():\n'
                   '        return a\n'
                   '    b = 2\n'
                   '    return inner, rest, (lambda x, y: x)\n')
    assert sorted(_unread_parameters(mod)) == [
        "mod.py: <lambda>(y)", "mod.py: outer(b)", "mod.py: outer(key)",
        "mod.py: outer(opts)", "mod.py: size(tol)"]


# -- runtime imports -----------------------------------------------------------------

def test_importing_fqg_loads_no_scipy():
    code = ("import sys, fqg, fqg.cli\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout
    assert out.strip() == "[]"


# -- the benchmark's hooks ----------------------------------------------------------

PERFBENCH = ROOT / "perfbench"


def _assigned_literal(path: Path, name: str):
    """The literal assigned to a module-level name of path, read without
    importing it."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


def _resolves(target: str) -> bool:
    """Whether 'pkg.mod:Class.attr' names an attribute that exists."""
    modname, _, path = target.partition(":")
    owner = importlib.import_module(modname)
    for part in path.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def _fqg_attributes_read(path: Path) -> set[str]:
    """'fqg.mod:attr' for every attribute path reads off a module it
    imports with `from fqg import mod [as alias]`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "fqg"
               for alias in node.names}
    return {f"fqg.{modules[node.value.id]}:{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def test_benchmark_hooks_resolve_in_fqg():
    """Every function perfbench's tracer wraps (SPAN_LAYERS), every fqg
    attribute its worker reads off a module, and
    BiInnerGroupModel.sign_patterns, which the worker's structure oracle
    reads, still exist, so a deletion that would crash a traced benchmark
    pass fails here first.  The perfbench files are only read."""
    targets = [t for ts in _assigned_literal(PERFBENCH / "tracer.py", "SPAN_LAYERS").values()
               for t in ts]
    targets += sorted(_fqg_attributes_read(PERFBENCH / "worker.py"))
    assert len(targets) > 30
    assert ".sign_patterns" in (PERFBENCH / "worker.py").read_text()
    targets.append("fqg.biinner:BiInnerGroupModel.sign_patterns")
    assert [t for t in targets if not _resolves(t)] == []


def test_benchmark_hook_scan_sees_a_missing_target():
    assert _resolves("fqg.multunitary:fixed_and_cofixed")
    assert not _resolves("fqg.multunitary:MultiplicativeUnitary.no_such_field")
    assert not _resolves("fqg.biinner:no_such_function")
