import ast
from pathlib import Path

import qpspec


def _exported(module):
    """``__all__``, or every public name of a module without one (the names
    ``from module import *`` takes)."""
    return getattr(module, "__all__",
                   [n for n in vars(module) if not n.startswith("_")])


def test_exports_exist_and_reexports_are_exported():
    # every name a module lists in __all__ exists, and the package root
    # re-exports only names that their module lists
    tree = ast.parse(Path(qpspec.__file__).read_text())
    stray = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            module = getattr(qpspec, node.module)
            stray += [f"{node.module}.{n} (listed, missing)"
                      for n in getattr(module, "__all__", ())
                      if not hasattr(module, n)]
            stray += [f"{node.module}.{a.name} (re-exported, not listed)"
                      for a in node.names if a.name not in _exported(module)]
    assert stray == []
