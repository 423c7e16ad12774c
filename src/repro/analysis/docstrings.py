"""Documentation hygiene rule (RA401), checked by :mod:`.checkers`.

Every public module opens with a docstring: the repo's docs describe
the layers, and the module docstring is where a reader lands next.
Modules whose filename starts with an underscore are exempt, except
``__init__.py`` and ``__main__.py``, the public face of a package.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Optional

#: dunder modules that are public API surface despite the underscore
_PUBLIC_DUNDERS = frozenset({"__init__", "__main__"})


def is_public_module(stem: str) -> bool:
    """True when a module filename names public API surface."""
    return not stem.startswith("_") or stem in _PUBLIC_DUNDERS


def missing_docstring(path: Path, tree: ast.Module) -> Optional[str]:
    """The RA401 message when a public module has no docstring."""
    if is_public_module(path.stem) and ast.get_docstring(tree) is None:
        return (f"public module `{path.name}` has no "
                f"docstring; open with one line saying what the module "
                f"is for (see docs/architecture.md for the layer map)")
    return None
