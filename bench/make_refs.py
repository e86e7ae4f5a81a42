"""Regenerate landau_refs.json, the decide workload's spec pool.

    python3 bench/make_refs.py

Draws balanced specs of dimension 1 to 3 from fixed seeds, entries at most 3
in dimensions 1 and 2 and at most 2 in dimension 3 (larger entries in
dimension 3 make single decisions take seconds), and records for each the
verdict fields of check_landau, the reference the benchmark checks against.
``work`` counts the constraints that Fourier-Motzkin elimination handles for
the spec, a deterministic measure of its cost by which the workload
stratifies its draws. Run it at the commit whose verdicts are to be the
reference, and commit the output.
"""

import json
import sys
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from qlucas import landau  # noqa: E402

from workloads import LANDAU_REFS, random_balanced_spec  # noqa: E402

POOL = ((1, 3, 240), (2, 3, 360), (3, 2, 240))  # (dim, entry bound, count)


def main() -> None:
    solve = landau._solve
    work = [0]

    def counting_solve(cons, nvars):
        cons = list(cons)
        work[0] += len(cons)
        return solve(cons, nvars)

    landau._solve = counting_solve
    specs = []
    try:
        for dim, hi, count in POOL:
            rng = Random(f"landau-pool-{dim}")
            for _ in range(count):
                spec = random_balanced_spec(rng, dim, hi)
                work[0] = 0
                report = landau.check_landau(spec)
                specs.append({
                    "dim": dim,
                    "e": [list(v) for v in spec.e],
                    "f": [list(v) for v in spec.f],
                    "integrality": report.integrality,
                    "criterion_D": report.criterion_D,
                    "min_value_overall": report.min_value_overall,
                    "min_value_on_D": report.min_value_on_D,
                    "num_cells": report.num_cells,
                    "work": work[0],
                })
    finally:
        landau._solve = solve
    lines = ",\n".join(json.dumps(s, separators=(",", ":")) for s in specs)
    LANDAU_REFS.write_text('{"specs": [\n' + lines + "\n]}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
