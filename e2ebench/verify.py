"""Output checks: stored per-seed references, digests and invariants.

Each workload reduces its outputs to a JSON-able *fingerprint* (headline
accuracies, per-window accuracies, or digests of probe answers).  A run
whose (workload, world size, seed) has a stored fingerprint is
``passed`` or ``failed`` against it; a run without one is
``unverified`` — its invariant checks still count failures, but nothing
vouches for the values themselves.  ``--record`` stores the run's
fingerprint as the reference for its seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

DEFAULT_REFERENCES = Path(__file__).resolve().parent / "references.json"

#: tolerance for stored floats; the program's outputs are deterministic,
#: this only absorbs last-digit differences between math libraries
REL_TOL = 1e-9
ABS_TOL = 1e-12


@dataclass
class Verdict:
    """Outcome of checking one run's outputs."""

    status: str  # passed | failed | unverified | recorded
    mismatches: List[str] = field(default_factory=list)


def load_references(path: Path) -> Dict[str, Any]:
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def save_references(path: Path, data: Dict[str, Any]) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def compare(expected: Any, actual: Any, where: str = "") -> List[str]:
    """Differences between two fingerprints (floats within tolerance)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out: List[str] = []
        for key in sorted(set(expected) | set(actual)):
            if key not in actual:
                out.append(f"{where}/{key}: missing")
            elif key not in expected:
                out.append(f"{where}/{key}: unexpected")
            else:
                out.extend(compare(expected[key], actual[key],
                                   f"{where}/{key}"))
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: {len(actual)} items, expected "
                    f"{len(expected)}"]
        out = []
        for index, (e, a) in enumerate(zip(expected, actual)):
            out.extend(compare(e, a, f"{where}[{index}]"))
        return out
    if (isinstance(expected, float) or isinstance(actual, float)) and (
            isinstance(expected, (int, float))
            and isinstance(actual, (int, float))):
        if math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{where}: {actual!r} != reference {expected!r}"]
    if expected != actual:
        return [f"{where}: {actual!r} != reference {expected!r}"]
    return []


class ReferenceBook:
    """The stored fingerprints, keyed by workload, world size and seed."""

    def __init__(self, path: Optional[Path] = None):
        self.path = path or DEFAULT_REFERENCES
        self.data = load_references(self.path)

    def lookup(self, workload: str, size: str, seed: int) -> Optional[Any]:
        return self.data.get(workload, {}).get(size, {}).get(str(seed))

    def check(self, workload: str, size: str, seed: int,
              fingerprint: Any) -> Verdict:
        expected = self.lookup(workload, size, seed)
        if expected is None:
            return Verdict("unverified")
        mismatches = compare(expected, fingerprint)
        return Verdict("failed" if mismatches else "passed", mismatches)

    def record(self, workload: str, size: str, seed: int,
               fingerprint: Any) -> Verdict:
        self.data.setdefault(workload, {}).setdefault(size, {})[
            str(seed)] = fingerprint
        save_references(self.path, self.data)
        return Verdict("recorded")


def digest(value: Any) -> str:
    """Short stable digest of a JSON-able value (floats exact)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def is_fraction(value: float) -> bool:
    return math.isfinite(value) and 0.0 <= value <= 1.0
