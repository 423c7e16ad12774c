"""RA601: the architecture-layer contract.

``docs/architecture.md`` draws the package layer map ("arrows point
down"); this module makes that diagram executable.  The allowed import
edges live in a ``[tool.repro.layers]`` table in ``pyproject.toml``::

    [tool.repro.layers]
    root = "repro"
    util = []
    topology = ["util"]
    core = ["pipeline", "topology", "obs", "util"]

Each key is a *layer* — the first dotted component under the root
package — and its value lists the layers its modules may import at
module scope.  ``"*"`` permits everything (used for the package root's
own modules and for glue layers like ``experiments``).  The table must
itself form a DAG; a cyclic table would make the contract vacuous, so
:func:`load_layer_config` rejects it with :class:`LayerConfigError`.

Two import forms are deliberately exempt, because they are the
sanctioned cycle-breaking idioms used throughout the tree:

* imports under ``if TYPE_CHECKING:`` (annotations only, no runtime
  edge), and
* function-scope (lazy) imports.

The checker therefore only sees the *runtime module-scope* edges that
:mod:`callgraph` recorded in ``ModuleFacts.internal_imports``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import (TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from .base import Violation
from .config import find_table, read_table

if TYPE_CHECKING:
    from .callgraph import ModuleFacts

_DEFAULT_ROOT = "repro"


class LayerConfigError(ValueError):
    """The ``[tool.repro.layers]`` table is malformed or cyclic."""


@dataclass(frozen=True)
class LayerConfig:
    """A validated layer map: layer -> layers it may import."""

    root: str
    allowed: Mapping[str, Tuple[str, ...]]
    source: str = "<memory>"

    def layer_of(self, module: str) -> Optional[str]:
        """Layer a dotted module belongs to, or None if outside root.

        ``repro.core.service`` -> ``core``; ``repro`` itself and
        top-level modules like ``repro.cli`` map to the root layer
        (named after the root package).  A module inside an
        *undeclared* subpackage keeps that subpackage's name, so
        :func:`check_layers` can flag it — adding a package without
        extending the layer table is itself a contract violation.
        """
        parts = module.split(".")
        if parts[0] != self.root:
            return None
        if len(parts) == 1:
            return self.root
        candidate = parts[1]
        if candidate in self.allowed:
            return candidate
        if len(parts) == 2:
            return self.root  # a top-level module file, not a package
        return candidate

    def permits(self, importer_layer: str, target_layer: str) -> bool:
        if importer_layer == target_layer:
            return True
        allowed = self.allowed.get(importer_layer)
        if allowed is None:
            return False
        return "*" in allowed or target_layer in allowed


def _validate(root: str, allowed: Dict[str, Tuple[str, ...]],
              source: str) -> LayerConfig:
    known = set(allowed) | {root}
    for layer, targets in allowed.items():
        for target in targets:
            if target == "*":
                continue
            if target not in known:
                raise LayerConfigError(
                    f"{source}: layer {layer!r} allows unknown layer "
                    f"{target!r} (declare it, even as an empty list)")
    # the table must be a DAG, ignoring "*" wildcard layers (a wildcard
    # layer sits at the top and cannot create a meaningful cycle below)
    edges: Dict[str, List[str]] = {
        layer: [t for t in targets if t != "*" and t != layer]
        for layer, targets in allowed.items() if "*" not in targets}
    state: Dict[str, int] = {}

    def visit(node: str, trail: List[str]) -> None:
        mark = state.get(node, 0)
        if mark == 1:
            cycle = " -> ".join(trail[trail.index(node):] + [node])
            raise LayerConfigError(
                f"{source}: [tool.repro.layers] is cyclic ({cycle}); "
                "a cyclic layer map cannot express an architecture")
        if mark == 2:
            return
        state[node] = 1
        for target in edges.get(node, ()):
            visit(target, trail + [node])
        state[node] = 2

    for layer in edges:
        visit(layer, [])
    return LayerConfig(root=root, allowed=dict(allowed), source=source)


def _layers_from_mapping(raw: Mapping[str, object],
                         source: str) -> LayerConfig:
    root = _DEFAULT_ROOT
    allowed: Dict[str, Tuple[str, ...]] = {}
    for key, value in raw.items():
        if key == "root":
            if not isinstance(value, str) or not value:
                raise LayerConfigError(
                    f"{source}: [tool.repro.layers] `root` must be a "
                    "non-empty string")
            root = value
            continue
        if not isinstance(value, (list, tuple)) or not all(
                isinstance(item, str) for item in value):
            raise LayerConfigError(
                f"{source}: layer {key!r} must map to a list of layer "
                "names")
        allowed[key] = tuple(value)
    if not allowed:
        raise LayerConfigError(
            f"{source}: [tool.repro.layers] declares no layers")
    return _validate(root, allowed, source)


def read_layers_table(pyproject: Path) -> Optional[LayerConfig]:
    """Load and validate ``[tool.repro.layers]`` from a pyproject file.

    Returns None when the file has no such table; raises
    :class:`LayerConfigError` when the table exists but is invalid.
    """
    return read_table(pyproject, "layers", _layers_from_mapping,
                      LayerConfigError)


def find_layer_config(start: Path) -> Optional[LayerConfig]:
    """Walk up from ``start`` to the nearest pyproject layer table."""
    return find_table(start, "layers", _layers_from_mapping,
                      LayerConfigError)


# -- the RA601 check ----------------------------------------------------------

def check_layers(modules: Sequence["ModuleFacts"],
                 config: LayerConfig) -> List[Violation]:
    """RA601 violations for every module-scope up-layer import."""
    violations: List[Violation] = []
    declared = set(config.allowed) | {config.root}
    for facts in modules:
        importer_layer = config.layer_of(facts.module)
        if importer_layer is None:
            continue
        for imp in facts.internal_imports:
            target_layer = config.layer_of(imp.target)
            if target_layer is None:
                continue
            if config.permits(importer_layer, target_layer):
                continue
            if importer_layer not in declared:
                detail = (f"layer {importer_layer!r} is not declared in "
                          f"[tool.repro.layers]")
            else:
                detail = (f"[tool.repro.layers] does not allow "
                          f"{importer_layer!r} -> {target_layer!r}")
            if not facts.is_suppressed(imp.lineno, "RA601"):
                violations.append(facts.violation(
                    imp, "RA601",
                    f"module-scope import of `{imp.target}` crosses the "
                    f"layer map: {detail}; use a TYPE_CHECKING or "
                    "function-scope import if this edge is a sanctioned "
                    "cycle-break"))
    return violations
