"""Print one SHA-256 per item of the output hash protocol.

Two trees, or one tree under two hash seeds, produce the same outputs
exactly when this script prints the same lines for them:

    PYTHONHASHSEED=0 python3 tools/output_digest.py > a.txt
    PYTHONHASHSEED=7 python3 tools/output_digest.py > b.txt
    cmp a.txt b.txt

``--src PATH`` imports ``slpkit`` from PATH (another checkout's ``src``)
instead of this checkout's.  The items:

* ``slp sweep --events`` on ex1.1, ex2.1 and ex3.1 at n in {64, 257, 509,
  512}: the CSV and the events JSON, classifications included;
* ``slp sweep -n 256 --events`` on the N = 12 families of the benchmark's
  sweep-n12 workload, seeds 1-3, cycles 0-4;
* every trace of every asymptotic fixture at three grid sizes (grid, values,
  counts, near flags and the ``repr`` of every event, so field types
  count) and the fixture's ``verify_asymptotic_theorem`` outcome;
* ``check_monotonicity`` and the trace on eight axis families, one of them
  through a flagged parameter on the grid (a "degenerate" event), and on
  one family whose declared axis contradicts its direction, so that it
  reports violations.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SWEEP_GRIDS = (64, 257, 509, 512)
FIXTURE_GRIDS = (64, 96, 129)


def _sha(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _sweep(main, workdir: Path, family: str, grid: int) -> str:
    family_path, csv_path, events_path = (workdir / name for name in ("f.json", "t.csv", "e.json"))
    family_path.write_text(family, encoding="utf-8")
    code = main(["sweep", "-f", str(family_path), "-n", str(grid), "-o", str(csv_path),
                 "--events", str(events_path)])
    return _sha(code, csv_path.read_bytes(), events_path.read_bytes())


def _trace_parts(tr) -> tuple:
    arrays = (tr.grid, tr.values, tr.counts, tr.near_singular)
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays) + (repr(tr.events),)


def _monotonicity_families(sk) -> dict:
    eq, eq4 = sk.fixtures.free_equation(), sk.fixtures._fixture_equation_n4()
    coupling = sk.validate_bc(np.array(sk.fixtures.COUPLING_BC))

    def contradicted(nu):  # q_2 = -nu on ex1.1: the eigenvalues fall along ("q", 2)
        return sk.Problem(sk.validate_equation([1.0, 1.0, 1.0], [0.0, -nu], [1.0, 1.0]),
                          sk.fixtures.ex11_bc(nu))

    return {
        "alpha": (sk.separated_angle_family(eq, "alpha", math.pi / 2, 0.0, 2.2), 65),
        "ex1.1": (sk.fixtures.builtin_family("ex1.1"), 129),
        "q": (sk.equation_axis_family(eq, sk.fixtures.ex11_bc(0.0), ("q", 1), 0.0, 5.0), 65),
        "f": (sk.equation_axis_family(eq4, sk.separated_matrix(0.4, 2.0), ("f", 4), 0.5, 3.0), 65),
        "w": (sk.equation_axis_family(eq, sk.fixtures.ex11_bc(0.2), ("w", 1), 0.3, 3.0), 65),
        "chart": (sk.chart_axis_family(eq, "O14", (0.0, 0.4, -0.3, 0.2), 3, -2.0, 2.0), 65),
        "inv_f": (sk.equation_axis_family(eq, sk.separated_matrix(0.3, 2.0), ("inv_f", 1), 0.4, 2.5), 65),
        "inv_f-flagged": (sk.equation_axis_family(eq4, coupling, ("inv_f", 0), -1.0, 1.0), 65),
        "contradicted-q": (sk.Family("axis", (2.0, 2.7), contradicted, axis=("q", 2)), 64),
    }


def digests() -> list:
    import slpkit as sk
    from slpkit.cli import main
    from slpkit.errors import SLPError
    from slpkit.fixtures import _asymptotic_checks

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import SweepN12

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for ex in ("ex1.1", "ex2.1", "ex3.1"):
            family = f'{{"kind": "builtin", "builtin": "{ex}"}}'
            for grid in SWEEP_GRIDS:
                lines.append((f"sweep {ex} n={grid}", _sweep(main, workdir, family, grid)))
        for seed in (1, 2, 3):
            workload = SweepN12(seed, workdir)
            for cycle in range(5):
                item = workload.cycle(cycle)[0]
                workload.prepare(item)
                family = (workdir / "family-n12.json").read_text(encoding="utf-8")
                lines.append((f"sweep-n12 seed={seed} cycle={cycle}",
                              _sweep(main, workdir, family, workload.grid)))
    for name in sk.ASYMPTOTIC_FIXTURES:
        parts = []
        for check in _asymptotic_checks(name):
            if check.explicit_limit is None:
                parts.extend(_trace_parts(sk.trace(check.family, grid)) for grid in FIXTURE_GRIDS)
        try:
            parts.append(sk.verify_asymptotic_theorem(name))
        except SLPError as exc:
            parts.append((type(exc).__name__, str(exc)))
        lines.append((f"fixture {name}", _sha(*parts)))
    for label, (family, grid) in _monotonicity_families(sk).items():
        report = sk.check_monotonicity(family, grid_size=grid)
        lines.append((f"monotonicity {label}", _sha(report, *_trace_parts(sk.trace(family, grid)))))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory to import slpkit from (default: this checkout's src)")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    for label, sha in digests():
        print(f"{sha}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
