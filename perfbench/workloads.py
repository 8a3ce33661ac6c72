"""The four benchmark workloads: seeded inputs, the timed op, and the
output check of each op.

Inputs come only from ``(seed, cycle index)``, so a run is reproducible and
a cycle's inputs do not depend on how long the run lasts.  A workload is
consumed in whole cycles so that every op kind keeps its share.  ``run``
is the timed op and calls the package only through its public module
attributes (so the traced run's wrappers see every call); ``check`` is
untimed and raises ``CheckFailed`` with the name of the check that failed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import slpkit
import slpkit.cli
import slpkit.fixtures
import slpkit.oracles

SPECTRUM_NS = (4, 12, 32, 128, 512)
SWEEP_N2_EXAMPLES = ("ex1.1", "ex2.1", "ex3.1")
N12_GAMMA, N12_K12, N12_K21 = 0.9, 0.8, -0.4

# relative accuracy demanded of the engine: 1e-8 against the pencil and
# the oracle (engine errors reach about 2e-9 on N = 12 chart conditions),
# 1e-9 against the N = 2 closed forms and for event locations
SPECTRUM_TOL = 1e-8
CLOSED_FORM_TOL = 1e-9
EVENT_TOL = 1e-9


class CheckFailed(Exception):
    """Raised inside a check; its message names the failed check."""


class Workload:
    """Base of the workloads: ``prepare`` runs untimed before an op,
    ``outputs`` turns the op's return value into what ``check`` reads."""

    name = ""
    # typed package errors that mean a wrong result rather than a refusal
    check_exceptions: tuple = ()

    def in_envelope(self, item) -> bool:
        """Whether the package documents the op's input as supported
        (README, "Operating envelope": N <= 12)."""
        return True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def cycle(self, index: int) -> list:
        raise NotImplementedError

    def prepare(self, item) -> None:
        pass

    def run(self, item):
        raise NotImplementedError

    def outputs(self, item, result):
        return result

    def check(self, item, outputs) -> None:
        raise NotImplementedError


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _random_equation(rng, n: int):
    f = rng.uniform(0.5, 2.0, n + 1)
    q = rng.uniform(-1.0, 1.0, n)
    w = rng.uniform(0.5, 2.0, n)
    return f, q, w


def _separated(alpha: float, beta: float) -> np.ndarray:
    return np.array(
        [[math.cos(alpha), -math.sin(alpha), 0.0, 0.0],
         [0.0, 0.0, math.cos(beta), -math.sin(beta)]],
        dtype=complex,
    )


def _coupled(gamma: float, k) -> np.ndarray:
    return np.hstack([np.exp(1j * gamma) * np.asarray(k, dtype=float), -np.eye(2)])


def _chart(chart: str, coords) -> np.ndarray:
    r1, zr, zi, r2 = coords
    z = complex(zr, zi)
    zc = z.conjugate()
    rows = {
        "O13": [[1.0, r1, 0.0, zc], [0.0, z, -1.0, r2]],
        "O14": [[1.0, r1, zc, 0.0], [0.0, z, r2, 1.0]],
        "O23": [[r1, -1.0, 0.0, zc], [z, 0.0, -1.0, r2]],
        "O24": [[r1, -1.0, zc, 0.0], [z, 0.0, r2, 1.0]],
    }
    return np.array(rows[chart], dtype=complex)


def _invertible(rng) -> np.ndarray:
    while True:
        t = rng.uniform(-1.0, 1.0, (2, 2)) + 1j * rng.uniform(-1.0, 1.0, (2, 2))
        if abs(t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0]) > 0.3:
            return t


def _xi(f0: float) -> float:
    """Critical separated angle arctan(-1/f_0), shifted into [0, pi)."""
    x = math.atan(-1.0 / f0)
    return x + math.pi if f0 > 0 else x


def _problem_from_matrix(f, q, w, matrix):
    return slpkit.Problem(slpkit.validate_equation(f, q, w), slpkit.validate_bc(matrix))


# -- shared checks -------------------------------------------------------------


def _check_sorted_real(values) -> None:
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise CheckFailed("non_finite")
    if np.any(np.diff(v) < 0.0):
        raise CheckFailed("unsorted")


def _check_against_oracle(problem, values) -> None:
    """Compare a spectrum with the interpolation oracle.

    The oracle's polynomial (rebuilt from numeric evaluations of the
    recursion) fixes the count.  Its monomial roots are only good to about
    1e-4 at N = 12, so each simple eigenvalue is confirmed instead by a sign
    change of the oracle's own characteristic function across
    value +- SPECTRUM_TOL * max(1, |value|).
    """
    _check_sorted_real(values)
    try:
        poly = slpkit.oracles.gamma_by_interpolation(problem)
    except slpkit.errors.SLPError:
        raise CheckFailed("oracle_unavailable") from None
    if poly.trimmed().degree() != len(values):
        raise CheckFailed("oracle_count")
    probes = [slpkit.oracles.gamma_value(problem, x) for x in (0.1234, -0.8765, 1.7321)]
    top = max(probes, key=abs)
    phase = top / abs(top)

    def real_part(x):
        return (slpkit.oracles.gamma_value(problem, x) / phase).real

    v = np.asarray(values, dtype=float)
    for i, lam in enumerate(v):
        delta = SPECTRUM_TOL * max(1.0, abs(lam))
        close = (i > 0 and lam - v[i - 1] <= 4.0 * delta) or (
            i + 1 < len(v) and v[i + 1] - lam <= 4.0 * delta
        )
        if close:
            continue  # a multiple eigenvalue need not change sign
        if real_part(lam - delta) * real_part(lam + delta) > 0.0:
            raise CheckFailed("oracle_bracket")


def _separated_pencil(f, q, w, alpha, beta, drop_left, drop_right) -> np.ndarray:
    """Eigenvalues of the separated problem from a symmetric tridiagonal
    pencil, endpoint unknowns eliminated by the boundary rows; a row whose
    gate vanishes (the problem sits on the set) fixes y_1 = 0 or y_N = 0."""
    n = len(q)
    diag = f[:-1] + f[1:] + q
    off = -f[1:n]
    lo, hi = (1 if drop_left else 0), (n - 1 if drop_right else n)
    if not drop_left:
        gate = math.cos(alpha) + f[0] * math.sin(alpha)
        diag[0] -= f[0] * (math.sin(alpha) * f[0] / gate)
    if not drop_right:
        diag[-1] -= f[n] + math.cos(beta) / math.sin(beta)
    d, e, ww = diag[lo:hi], off[lo:hi - 1], w[lo:hi]
    s = 1.0 / np.sqrt(ww)
    m = np.diag(d * s * s) + np.diag(e * s[:-1] * s[1:], 1) + np.diag(e * s[:-1] * s[1:], -1)
    return np.linalg.eigvalsh(m)


# -- spectrum-corpus -----------------------------------------------------------


class SpectrumCorpus(Workload):
    """One op: validate raw (f, q, w) and a raw 2x4 matrix, then compute
    the spectrum.  A cycle holds six problems at each N in SPECTRUM_NS: one
    sits exactly on a discontinuity set (beta = pi, alpha = xi(f_0) or the
    C point), five are separated, coupled or chart conditions; a third are
    twisted by a random invertible complex 2x2 matrix."""

    name = "spectrum-corpus"

    def cycle(self, index: int) -> list:
        rng = _rng(self.seed, index)
        items = []
        for n in SPECTRUM_NS:
            kinds = ["on_set"] + [str(k) for k in rng.choice(["separated", "coupled", "chart"], 5)]
            for kind in kinds:
                items.append(self._problem(rng, n, kind))
        order = rng.permutation(len(items))
        return [items[i] for i in order]

    def _problem(self, rng, n: int, kind: str) -> dict:
        f, q, w = _random_equation(rng, n)
        item = {"group": f"N{n}", "N": n, "kind": kind, "f": f, "q": q, "w": w,
                "separated": None, "r": 2}
        if kind == "on_set":
            where = str(rng.choice(["beta_pi", "alpha_xi", "c_point"]))
            item["kind"] = where
            if where == "c_point":
                matrix = np.array([[1.0, 1.0 / f[0], 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]], dtype=complex)
                item["separated"] = (_xi(f[0]), math.pi, True, True)
                item["r"] = 0
            elif where == "beta_pi":
                alpha = rng.uniform(0.0, math.pi)
                matrix = _separated(alpha, math.pi)
                item["separated"] = (alpha, math.pi, False, True)
                item["r"] = 1
            else:
                beta = rng.uniform(0.05, math.pi - 0.05)
                matrix = _separated(_xi(f[0]), beta)
                item["separated"] = (_xi(f[0]), beta, True, False)
                item["r"] = 1
        elif kind == "separated":
            alpha, beta = rng.uniform(0.0, math.pi), math.pi - rng.uniform(0.0, math.pi)
            matrix = _separated(alpha, beta)
            item["separated"] = (alpha, beta, False, False)
        elif kind == "coupled":
            a = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0)
            b, c = rng.uniform(-2.0, 2.0, 2)
            matrix = _coupled(rng.uniform(0.0, math.pi), [[a, b], [c, (1.0 + b * c) / a]])
        else:
            chart = str(rng.choice(["O13", "O14", "O23", "O24"]))
            matrix = _chart(chart, rng.uniform(-2.0, 2.0, 4))
        if rng.uniform() < 1.0 / 3.0:
            matrix = _invertible(rng) @ matrix
        item["matrix"] = matrix
        return item

    def in_envelope(self, item) -> bool:
        return item["N"] <= 12

    def run(self, item):
        problem = _problem_from_matrix(item["f"], item["q"], item["w"], item["matrix"])
        return slpkit.eigenvalues(problem).values()

    def check(self, item, values) -> None:
        n = item["N"]
        if len(values) != n - 2 + item["r"]:
            raise CheckFailed("count")
        _check_sorted_real(values)
        if item["separated"] is not None:
            alpha, beta, drop_left, drop_right = item["separated"]
            ref = _separated_pencil(item["f"], item["q"], item["w"], alpha, beta,
                                    drop_left, drop_right)
            got = np.asarray(values, dtype=float)
            if np.any(np.abs(got - ref) > SPECTRUM_TOL * np.maximum(1.0, np.abs(ref))):
                raise CheckFailed("pencil")
        elif n <= 12:
            problem = _problem_from_matrix(item["f"], item["q"], item["w"], item["matrix"])
            _check_against_oracle(problem, values)


# -- sweeps --------------------------------------------------------------------


def _sweep(family_path: Path, grid: int, workdir: Path) -> int:
    return slpkit.cli.main([
        "sweep", "-f", str(family_path), "-n", str(grid),
        "-o", str(workdir / "trace.csv"), "--events", str(workdir / "events.json"),
    ])


def _read_sweep(workdir: Path):
    with open(workdir / "trace.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    table = [(float(r[0]), [float(x) for x in r[1:-1] if x], int(r[-1])) for r in rows]
    with open(workdir / "events.json", encoding="utf-8") as fh:
        events = json.load(fh)
    return table, events


def _events_near(events, nu: float, span: float) -> list:
    return [ev for ev in events if abs(ev["nu"] - nu) <= EVENT_TOL * span]


def _side(event, side):
    cls = event.get("classification", {})
    return cls.get(side) if isinstance(cls, dict) else None


class SweepN2(Workload):
    """One op: ``slp sweep -n 512 --events`` on a built-in N = 2 example;
    each cycle runs ex1.1, ex2.1 and ex3.1 once, in a seeded order."""

    name = "sweep-n2"
    grid = 512

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.paths = {}
        for ex in SWEEP_N2_EXAMPLES:
            path = workdir / f"family-{ex}.json"
            path.write_text(json.dumps({"kind": "builtin", "builtin": ex}), encoding="utf-8")
            self.paths[ex] = path

    def cycle(self, index: int) -> list:
        order = _rng(self.seed, index).permutation(len(SWEEP_N2_EXAMPLES))
        return [{"group": SWEEP_N2_EXAMPLES[i], "example": SWEEP_N2_EXAMPLES[i]} for i in order]

    def run(self, item):
        return _sweep(self.paths[item["example"]], self.grid, self.workdir)

    def outputs(self, item, exit_code):
        """The CSV rows and events the op wrote."""
        if exit_code != 0:
            raise CheckFailed("exit_code")
        return _read_sweep(self.workdir)

    def check(self, item, outputs) -> None:
        table, events = outputs
        spec = slpkit.fixtures.BUILTINS[item["example"]]
        closed = spec["closed"]
        if len(table) != self.grid:
            raise CheckFailed("grid")
        for nu, got, count in table:
            want = closed(nu)
            if len(got) != len(want) or count != len(want):
                raise CheckFailed("closed_form_count")
            for g, wv in zip(got, want):
                if abs(g - wv) > CLOSED_FORM_TOL * max(1.0, abs(wv)):
                    raise CheckFailed("closed_form")
        span = table[-1][0] - table[0][0]
        for nu_star in spec["singular"]:
            near = _events_near(events, nu_star, span)
            if not near:
                raise CheckFailed("singular_event")
            for side in ("left", "right"):
                sc = _side(near[0], side)
                if sc is None or not sc.get("consistent"):
                    raise CheckFailed("consistent")


class SweepN12(Workload):
    """One op: ``slp sweep -n 256 --events`` on a coupled-sweep family
    along k11 (gamma = 0.9, k12 = 0.8, k21 = -0.4) over
    [0.5, 1.5] * f_0 * k12, with a fresh seeded N = 12 equation per op."""

    name = "sweep-n12"
    grid = 256
    spot_checks = 4

    def cycle(self, index: int) -> list:
        rng = _rng(self.seed, index)
        f, q, w = _random_equation(rng, 12)
        t_star = f[0] * N12_K12
        k = [[t_star, N12_K12], [N12_K21, (1.0 + N12_K12 * N12_K21) / t_star]]
        family = {
            "kind": "coupled-sweep",
            "equation": {"f": f.tolist(), "q": q.tolist(), "w": w.tolist()},
            "gamma": N12_GAMMA, "K": k, "axis": "k11",
            "domain": [0.5 * t_star, 1.5 * t_star],
        }
        spots = sorted(int(i) for i in rng.choice(self.grid, self.spot_checks, replace=False))
        return [{"group": "coupled-k11", "family": family, "t_star": t_star, "spots": spots,
                 "f": f, "q": q, "w": w}]

    def prepare(self, item) -> None:
        (self.workdir / "family-n12.json").write_text(json.dumps(item["family"]), encoding="utf-8")

    def run(self, item):
        return _sweep(self.workdir / "family-n12.json", self.grid, self.workdir)

    outputs = SweepN2.outputs

    def check(self, item, outputs) -> None:
        table, events = outputs
        if len(table) != self.grid:
            raise CheckFailed("grid")
        lo, hi = item["family"]["domain"]
        near = _events_near(events, item["t_star"], hi - lo)
        if len(near) != 1:
            raise CheckFailed("event_count")
        left, right = _side(near[0], "left"), _side(near[0], "right")
        if left is None or right is None:
            raise CheckFailed("asymptotics")
        if (left["div_minus"], left["div_plus"], right["div_minus"], right["div_plus"]) != (1, 0, 0, 1):
            raise CheckFailed("asymptotics")
        if not (left["consistent"] and right["consistent"]):
            raise CheckFailed("consistent")
        for i in item["spots"]:
            nu, values, count = table[i]
            k = [[nu, N12_K12], [N12_K21, (1.0 + N12_K12 * N12_K21) / nu]]
            problem = _problem_from_matrix(item["f"], item["q"], item["w"], _coupled(N12_GAMMA, k))
            if count != len(values):
                raise CheckFailed("count")
            _check_against_oracle(problem, values)


# -- jump-asymptotics ----------------------------------------------------------


class JumpAsymptotics(Workload):
    """One op: ``verify_asymptotic_theorem`` on one named fixture; each
    cycle runs all six fixtures once, in a seeded order."""

    name = "jump-asymptotics"
    check_exceptions = ("PatternMismatch",)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.fixtures = tuple(slpkit.ASYMPTOTIC_FIXTURES)

    def cycle(self, index: int) -> list:
        order = _rng(self.seed, index).permutation(len(self.fixtures))
        return [{"group": self.fixtures[i], "fixture": self.fixtures[i]} for i in order]

    def run(self, item):
        return slpkit.verify_asymptotic_theorem(item["fixture"])

    def check(self, item, report) -> None:
        if not report.passed:
            raise CheckFailed("passed")


WORKLOADS = {w.name: w for w in (SpectrumCorpus, SweepN2, SweepN12, JumpAsymptotics)}
