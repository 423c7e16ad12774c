"""End-to-end benchmark of the TIPSY reproduction.

Run from the repository root::

    python3 e2ebench/run.py --workload paper_eval --seed 1 --seconds 22 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with tracing and
``repro.obs`` off; ``--trace 1`` is the separate traced run that reports
the per-layer metrics and prints the attribution table.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--record`` stores this run's outputs as
the reference for its seed; ``--size small`` runs the same workloads on
``ScenarioParams.small`` worlds (the benchmark's own tests use it).
See ``e2ebench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_eval", "window_sweep", "serve_soak"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("medium", "small"),
                        default="medium")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--references", type=Path, default=None)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("e2ebench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from verify import ReferenceBook

    tracer = workloads.Tracer() if args.trace else None
    book = ReferenceBook(args.references)
    outcome = workloads.RUNNERS[args.workload](
        args.size, args.seed, args.seconds, tracer, book, args.record)
    for line in outcome.lines:
        print(line)
    statuses = sorted({verdict.status for verdict in outcome.verdicts})
    print(f"verification: {', '.join(statuses)} ({args.workload}, "
          f"{args.size} world, seed {args.seed})")
    for verdict in outcome.verdicts:
        for mismatch in verdict.mismatches[:10]:
            print(f"  mismatch: {mismatch}")
    units = (workloads.PER_LAYER_UNITS if args.trace
             else workloads.END_TO_END_UNITS)
    metrics = {}
    for name in units:
        value, unit = outcome.metrics[name]
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
