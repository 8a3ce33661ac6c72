"""Command line: spectra, classifications, parameter sweeps, example checks.

Commands
--------
``slp spectrum -i problem.json [-o out.json]``
    Full spectrum of one problem as JSON.
``slp classify -i problem.json [--fixed eq|bc]``
    Discontinuity-set classification (all three cuts, or one side only).
``slp sweep -f family.json -n 512 -o trace.csv [--events events.json]``
    Eigenvalue curves over a parameter grid as CSV, singular-parameter
    events (with jump classification) as a JSON sidecar.
``slp verify-example --name ex1.1``
    Compare the engine against the built-in closed forms.

Exit codes: 0 ok, 1 verification failed, 2 validation error, 3 I/O or
parse error.  ``SLP_TOL_OVERRIDES`` (JSON object) retunes tolerances.
All outputs are deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import fixtures
from .charts import coupled_matrix, separated_matrix
from .discontinuity import classify_bc_side, classify_equation_side, classify_product
from .errors import BadLength, SLPError
from .families import (
    chart_affine_family,
    constant_family,
    coupled_axis_family,
    equation_affine_family,
    separated_angle_family,
)
from .model import Problem, validate_bc, validate_equation
from .spectra import eigenvalues, eigenvalues_many
from .tolerances import apply_overrides
from .tracing import classify_jump, trace


def _angle(obj) -> float:
    """An angle is either a plain number or {"pi_mult": x}; the latter
    represents rational multiples of pi exactly enough to land on the
    measure-zero singular sets."""
    if isinstance(obj, dict):
        return float(obj["pi_mult"]) * math.pi
    return float(obj)


def equation_from_json(obj) -> object:
    eq = validate_equation(obj["f"], obj["q"], obj["w"])
    if "N" in obj and int(obj["N"]) != eq.N:
        raise BadLength(f"declared N={obj['N']} but sequences give N={eq.N}")
    return eq


def equation_to_json(eq) -> dict:
    return {"N": eq.N, "f": list(eq.f), "q": list(eq.q), "w": list(eq.w)}


def bc_from_json(obj):
    if "matrix" in obj:
        m = [[complex(entry[0], entry[1]) for entry in row] for row in obj["matrix"]]
        return validate_bc(m)
    if "separated" in obj:
        sep = obj["separated"]
        return separated_matrix(_angle(sep["alpha"]), _angle(sep["beta"]))
    if "coupled" in obj:
        cpl = obj["coupled"]
        return coupled_matrix(_angle(cpl["gamma"]), cpl["K"])
    raise KeyError("bc object needs one of 'matrix', 'separated', 'coupled'")


def bc_to_json(bc) -> dict:
    return {
        "matrix": [[[z.real, z.imag] for z in row] for row in np.asarray(bc.matrix)]
    }


def problem_from_json(obj) -> Problem:
    return Problem(equation_from_json(obj["equation"]), bc_from_json(obj["bc"]))


def problem_to_json(problem: Problem) -> dict:
    return {
        "equation": equation_to_json(problem.equation),
        "bc": bc_to_json(problem.bc),
    }


def family_from_json(obj):
    kind = obj["kind"]
    if kind == "builtin":
        return fixtures.builtin_family(obj["builtin"])
    domain = obj.get("domain")
    if kind == "constant":
        return constant_family(problem_from_json(obj["problem"]), tuple(domain or (0.0, 1.0)))
    if kind == "equation-affine":
        fam = equation_affine_family(
            equation_from_json(obj["from"]),
            equation_from_json(obj["to"]),
            bc_from_json(obj["bc"]),
        )
    elif kind == "chart-affine":
        fam = chart_affine_family(
            equation_from_json(obj["equation"]), obj["chart"], obj["from"], obj["to"]
        )
    elif kind == "separated-angle":
        a, b = domain
        return separated_angle_family(
            equation_from_json(obj["equation"]), obj["axis"], _angle(obj["fixed"]),
            _angle(a), _angle(b),
        )
    elif kind == "coupled-sweep":
        a, b = domain
        return coupled_axis_family(
            equation_from_json(obj["equation"]), _angle(obj.get("gamma", 0.0)),
            obj["K"], obj["axis"], float(a), float(b),
        )
    else:
        raise KeyError(f"unknown family kind {kind!r}")
    if domain is not None:
        fam = dataclasses.replace(fam, domain=(float(domain[0]), float(domain[1])))
    return fam


def _complex_pair(z: complex) -> list:
    return [z.real, z.imag]


def _finite_or_none(x):
    """Unreachable sets carry an infinite distance; standard JSON has no
    token for it, so emit null."""
    return x if x is not None and math.isfinite(x) else None


def equation_side_to_json(c) -> dict:
    return {
        "mu1": _complex_pair(c.mu1),
        "mu2": _complex_pair(c.mu2),
        "case": c.case,
        "eta": c.eta,
        "membership": c.membership,
        "distance": _finite_or_none(c.distance),
        "reduced_form": c.reduced_form,
        "reduced_value": c.reduced_value,
    }


def bc_side_to_json(c) -> dict:
    return {
        "sets": sorted(c.sets),
        "sides": dict(sorted(c.sides.items())),
        "xi": c.xi,
        "distances": {k: _finite_or_none(v) for k, v in sorted(c.distances.items())},
    }


def product_to_json(c) -> dict:
    return {
        "sets": sorted(c.sets),
        "sides": dict(sorted(c.sides.items())),
        "in_singular_set": c.in_singular_set,
        "distances": {k: _finite_or_none(v) for k, v in sorted(c.distances.items())},
    }


def side_classification_to_json(sc) -> dict | None:
    if sc is None:
        return None
    return {
        "count": sc.count,
        "limit_count": sc.limit_count,
        "div_minus": sc.n_div_minus,
        "div_plus": sc.n_div_plus,
        "consistent": sc.consistent,
        "branches": [
            {
                "index": b.index,
                "kind": b.kind,
                "sign": b.sign,
                "shift": b.shift,
                "value": b.value,
                "target": b.target,
            }
            for b in sc.limits
        ],
    }


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(obj, path: str | None) -> None:
    # allow_nan=False keeps the output strict JSON; non-finite values are
    # sanitized to null before they reach here
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def cmd_spectrum(args) -> int:
    problem = problem_from_json(_load_json(args.input))
    spec = eigenvalues(problem)
    _emit(spec.to_json_dict(), args.output)
    return 0


def cmd_classify(args) -> int:
    problem = problem_from_json(_load_json(args.input))
    out: dict = {}
    distances: dict = {}
    if args.fixed != "eq":
        side = classify_equation_side(problem.bc, problem.equation)
        out["equation_side"] = equation_side_to_json(side)
        distances["equation_side"] = out["equation_side"]["distance"]
    if args.fixed != "bc":
        side = classify_bc_side(problem.equation, problem.bc)
        out["bc_side"] = bc_side_to_json(side)
        distances["bc_side"] = out["bc_side"]["distances"]
    if args.fixed is None:
        prod = classify_product(problem)
        out["product"] = product_to_json(prod)
        distances["product"] = out["product"]["distances"]
    out["distances"] = distances
    _emit(out, args.output)
    return 0


def cmd_sweep(args) -> int:
    family = family_from_json(_load_json(args.family))
    tr = trace(family, args.grid)
    k_max = tr.values.shape[0]
    with open(args.output, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["nu"] + [f"lambda_{n}" for n in range(k_max)] + ["count"])
        for i, nu in enumerate(tr.grid):
            row = [repr(float(nu))]
            for n in range(k_max):
                v = tr.values[n, i]
                row.append("" if math.isnan(v) else repr(float(v)))
            row.append(str(int(tr.counts[i])))
            writer.writerow(row)
    if args.events is not None:
        events = []
        for ev in tr.events:
            entry = {
                "nu": ev.nu,
                "kind": ev.kind,
                "bracket": list(ev.bracket),
                "count_at": ev.count_at,
                "count_left": None if ev.count_left is None else int(ev.count_left),
                "count_right": None if ev.count_right is None else int(ev.count_right),
            }
            try:
                jc = classify_jump(tr, ev.nu)
                entry["classification"] = {
                    "left": side_classification_to_json(jc.left),
                    "right": side_classification_to_json(jc.right),
                    "limit_values": list(jc.limit_values),
                }
            except SLPError as exc:
                entry["classification"] = {"error": str(exc)}
            events.append(entry)
        _emit(events, args.events)
    return 0


def cmd_verify_example(args) -> int:
    name = args.name
    family = fixtures.builtin_family(name)
    closed = fixtures.closed_form(name)
    grid = family.grid(256)
    spectra = eigenvalues_many([family.resolve(float(nu)) for nu in grid])
    max_err = 0.0
    mismatch = None
    for nu, spec in zip(grid, spectra):
        if isinstance(spec, Exception):
            raise spec
        got = spec.values()
        want = closed(float(nu))
        if len(got) != len(want):
            mismatch = f"count {len(got)} != {len(want)} at nu={float(nu)!r}"
            break
        if want:
            err = max(abs(g - w) for g, w in zip(got, want))
            max_err = max(max_err, err)
    ok = mismatch is None and max_err <= 1e-9
    status = "PASS" if ok else "FAIL"
    detail = mismatch if mismatch else f"max abs error {max_err:.3e} over {len(grid)} points"
    print(f"{name}: {detail} -> {status}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slp",
        description="Spectra and eigenvalue-branch analysis of self-adjoint "
        "discrete Sturm-Liouville problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="compute the full spectrum of one problem")
    p.add_argument("-i", "--input", required=True, help="problem JSON file")
    p.add_argument("-o", "--output", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("classify", help="discontinuity-set classification")
    p.add_argument("-i", "--input", required=True, help="problem JSON file")
    p.add_argument("--fixed", choices=("eq", "bc"), default=None,
                   help="hold this part fixed and classify only the other side")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep", help="trace eigenvalue curves along a family")
    p.add_argument("-f", "--family", required=True, help="family JSON file")
    p.add_argument("-n", "--grid", type=int, default=512, help="number of grid points")
    p.add_argument("-o", "--output", required=True, help="CSV output path")
    p.add_argument("--events", default=None, help="write singular-parameter events here")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify-example", help="check a built-in example against its closed form")
    p.add_argument("--name", required=True, help="ex1.1, ex2.1, or ex3.1")
    p.set_defaults(func=cmd_verify_example)
    return parser


def main(argv=None) -> int:
    raw = os.environ.get("SLP_TOL_OVERRIDES")
    if raw:
        try:
            overrides = json.loads(raw)
        except json.JSONDecodeError as exc:
            print(json.dumps({"error": "ParseError", "message": str(exc)}), file=sys.stderr)
            return 3
        try:
            apply_overrides(overrides)
        except (KeyError, ValueError) as exc:
            print(json.dumps({"error": "BadTolerances", "message": str(exc)}), file=sys.stderr)
            return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SLPError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except (json.JSONDecodeError, OSError, KeyError, TypeError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
