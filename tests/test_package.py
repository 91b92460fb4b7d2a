"""The package's public surface: every exported name exists, the README's
Library example runs as documented, and the package imports nothing outside
the standard library."""

import ast
import re
import sys
from pathlib import Path

import dp3
from dp3 import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_all_names_resolve():
    for name in dp3.__all__:
        assert getattr(dp3, name) is not None, name


def test_readme_library_snippet():
    text = README.read_text()
    library = text[text.index("## Library"):]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    assert "assert w * covering_monomial(4, False, scheme) == y4" in snippet
    exec(compile(snippet, str(README), "exec"), {})


#: CPython's built-in SHA-256 module is _sha256 up to 3.11 and _sha2 from
#: 3.12, and sys.stdlib_module_names lists only the running interpreter's
#: name; cli tries both, so both count as standard library here.
BUILTIN_SHA256 = {"_sha2", "_sha256"}


def test_only_standard_library_imports():
    """dp3 has no runtime dependencies: every module in src/dp3 imports only
    the standard library and dp3 itself, wherever the import statement is."""
    sources = sorted((ROOT / "src" / "dp3").glob("*.py"))
    assert len(sources) > 5
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, n) for n in names
                        if n.split(".")[0] not in sys.stdlib_module_names | BUILTIN_SHA256 | {"dp3"}]
    assert outside == []
    # the name this interpreter imports is its own standard library
    assert cli.sha256.__module__ in sys.stdlib_module_names


def test_imports_form_a_dag():
    """Every module imports the dp3 modules it needs at module level, so the
    import graph is acyclic by construction: an import of a dp3 module inside
    a function body is how a cycle hides.  Deferred standard-library imports
    are allowed."""
    deferred = set()
    for path in sorted((ROOT / "src" / "dp3").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    names = ["." * node.level + (node.module or "")]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                else:
                    continue
                deferred |= {(path.name, fn.name, n) for n in names
                             if n.startswith(".") or n.split(".")[0] == "dp3"}
    assert sorted(deferred) == []
