"""RNG-discipline rules (RA001–RA003), checked by :mod:`.checkers`.

The serial/parallel equivalence guarantee of
:class:`repro.perf.parallel.ParallelPipelineRunner` holds only while
every stochastic quantity is a pure function of ``(seed, inputs)``.
The stdlib's module-level ``random.*`` functions (RA001) and the legacy
``numpy.random.*`` global API (RA002) share one hidden process-global
generator whose state depends on call order, and therefore on worker
count; ``default_rng()`` / ``random.Random()`` without an explicit seed
(RA003) is seeded from OS entropy, different every run.
Explicitly-seeded generator instances are the repo's idiom:
``np.random.default_rng(mix64(hour, seed=self.seed))``.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Optional, Tuple

#: ``numpy.random`` attributes that construct explicit generator state
#: (allowed — though the constructors still need a seed, see RA003)
#: rather than touching the global RandomState.
_NUMPY_CONSTRUCTORS: FrozenSet[str] = frozenset({
    "default_rng", "Generator", "RandomState", "SeedSequence",
    "BitGenerator", "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})

#: constructors whose first argument (or ``seed=`` keyword) is the seed
#: and must be present and non-None.
_SEED_REQUIRED: FrozenSet[str] = frozenset({
    "numpy.random.default_rng", "numpy.random.RandomState",
    "numpy.random.SeedSequence", "numpy.random.PCG64",
    "numpy.random.PCG64DXSM", "numpy.random.Philox",
    "numpy.random.SFC64", "numpy.random.MT19937",
    "random.Random",
})


def _is_none(node: Optional[ast.expr]) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _has_explicit_seed(call: ast.Call) -> bool:
    """True when the call passes a non-None seed (positionally or by
    ``seed=``)."""
    if call.args and not _is_none(call.args[0]):
        return True
    for keyword in call.keywords:
        if keyword.arg == "seed" and not _is_none(keyword.value):
            return True
    return False


def _unseeded(call: ast.Call, dotted: str) -> Optional[Tuple[str, str]]:
    if dotted in _SEED_REQUIRED and not _has_explicit_seed(call):
        short = dotted.replace("numpy.random.", "")
        return ("RA003",
                f"`{short}` constructed without an explicit seed; derive "
                f"one with `repro.util.hashing.mix64(..., seed=...)` so "
                f"runs are reproducible")
    return None


def rng_finding(call: ast.Call, dotted: str) -> Optional[Tuple[str, str]]:
    """The ``(code, message)`` RA001–RA003 report for a call to the
    resolved name ``dotted``, or None when it is sound."""
    if dotted.startswith("numpy.random."):
        head = dotted[len("numpy.random."):].split(".")[0]
        if head in _NUMPY_CONSTRUCTORS:
            return _unseeded(call, f"numpy.random.{head}")
        return ("RA002",
                f"`{dotted}` draws from numpy's process-global "
                f"RandomState; construct a generator with "
                f"`default_rng(mix64(..., seed=...))` instead")
    if dotted.startswith("random."):
        head = dotted[len("random."):].split(".")[0]
        if head == "Random":
            return _unseeded(call, "random.Random")
        if head == "SystemRandom":
            return ("RA001",
                    "`random.SystemRandom` reads OS entropy and can "
                    "never be reproduced; use a seeded "
                    "`random.Random(...)` instance")
        return ("RA001",
                f"`{dotted}` uses the stdlib's process-global "
                f"generator; its state depends on call order and "
                f"worker count — use a seeded `random.Random(...)` "
                f"instance or `repro.util.hashing`")
    return None
