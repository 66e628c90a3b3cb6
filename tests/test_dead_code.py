"""Every function, method and class defined in the package is named
somewhere else in the package. A definition that nothing names is dead
code, or is kept alive only by tests."""

import ast
import re
from collections import Counter
from pathlib import Path

import anofuse

PACKAGE = Path(anofuse.__file__).parent


def test_every_definition_is_named_elsewhere_in_the_package():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    defined = Counter(node.name for src in sources for node in ast.walk(ast.parse(src))
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                           ast.ClassDef)))
    text = "\n".join(sources)
    unnamed = sorted(name for name, n_defs in defined.items()
                     if not (name.startswith("__") and name.endswith("__"))
                     and len(re.findall(rf"\b{name}\b", text)) <= n_defs)
    assert unnamed == []
