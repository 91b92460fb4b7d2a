"""The package's public surface: every exported name exists, and the
README's Library example runs as documented."""

import re
from pathlib import Path

import dp3

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_names_resolve():
    for name in dp3.__all__:
        assert getattr(dp3, name) is not None, name


def test_readme_library_snippet():
    text = README.read_text()
    library = text[text.index("## Library"):]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    assert "assert w * covering_monomial(4) == y4" in snippet
    exec(compile(snippet, str(README), "exec"), {})
