"""Fixed-seed benchmark of slpkit: four closed-loop workloads, one client.

    python3 perfbench/run.py --workload spectrum-corpus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  ``--trace 0`` measures the
end-to-end metrics with no instrumentation.  ``--trace 1`` runs every op
twice on the same input, untraced and then traced, reports the per-layer
metrics of the traced ops and the tracing overhead (difference of the two
``group_p50_ms``), and writes the spans to ``.perfbench_work/``.

Times are calibrated for the host's speed (see ``calib.py``); the raw wall
times are printed beside them.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it holds every end-to-end metric with its
unit (null where it does not apply), the failure reasons and per-group
numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

# BLAS threads are pinned before numpy is ever imported, and the process-wide
# tolerance override is removed so that every run uses the defaults
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SLP_TOL_OVERRIDES", None)

import calib  # noqa: E402  (stdlib-only at import time)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOAD_NAMES = ("spectrum-corpus", "sweep-n2", "sweep-n12", "jump-asymptotics")
SPECTRUM_GROUPS = ("N4", "N12", "N32", "N128", "N512")
SETUP_SAMPLES = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "success_ratio": "fraction",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "group_p50_ms": "ms",
    "peak_rss_mb": "MB",
    **{f"solve_ms.{g}": "ms" for g in SPECTRUM_GROUPS},
    **{f"success_ratio.{g}": "fraction" for g in SPECTRUM_GROUPS},
}
# the metrics BENCHMARK.json gates: defined, nonzero and steady on every
# workload.  latency_p50_ms is not one of them: on spectrum-corpus the
# successful ops are two equal-sized clusters (N = 4 and N = 12), so their
# median falls in the gap between them and jumps from run to run.
GATED = ("setup_s", "ops_per_s", "success_ratio", "group_p50_ms", "peak_rss_mb")


class SetupError(Exception):
    pass


def setup(workload: str, seed: int, workdir: Path):
    """Import the package from this checkout and build the workload with
    its first cycle of inputs; this is what ``setup_s`` times."""
    if not (SRC / "slpkit" / "__init__.py").is_file():
        raise SetupError(f"no slpkit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import slpkit

    if Path(slpkit.__file__).resolve().parent != (SRC / "slpkit").resolve():
        raise SetupError(f"slpkit was imported from {slpkit.__file__}, not from {SRC}")
    import workloads

    wl = workloads.WORKLOADS[workload](seed, workdir)
    return wl, wl.cycle(0)


def probe_setup(workload: str, seed: int) -> None:
    """Child-process entry: time one cold set-up and print raw and
    calibrated seconds."""
    workdir = WORK / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        _, raw, cal = calib.calibrated_setup(lambda: setup(workload, seed, workdir))
        print(json.dumps([raw, cal]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_samples(workload: str, seed: int, n: int) -> list:
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


@dataclass
class Record:
    group: str
    raw_s: float  # wall time of the op, sampling excluded
    t0: float
    t1: float
    ok: bool
    reason: str | None
    traced: bool
    cycle: int = 0
    cal_s: float = 0.0  # raw_s at the nominal host speed


class Runner:
    """Closed loop over whole cycles of a workload, one op at a time."""

    def __init__(self, wl, first_cycle, tracer=None, probe=None):
        import slpkit.errors
        import slpkit.spectra
        import workloads

        self.wl = wl
        self.first = first_cycle
        self.tracer = tracer
        self.probe = probe
        self.typed_error = slpkit.errors.SLPError
        self.check_failed = workloads.CheckFailed
        # taken before any wrapper is installed
        self.cache_clear = getattr(slpkit.spectra.fundamental_solutions, "cache_clear", None)
        self.records: list = []
        self.incorrect = 0  # in-envelope failures and crashes
        self.cycles = 0
        self.group_counts: dict = {}  # group -> summed tracer base counts

    def run_op(self, item, traced=False, corrupt=None, cycle=0) -> Record:
        """Time one op, then check its output (untimed)."""
        self.wl.prepare(item)
        if self.cache_clear is not None:
            self.cache_clear()
        reason = None
        result = None
        crashed = False
        if traced:
            if self.probe is not None:
                self.probe.stop()
            before = self.tracer.base_counts()
            self.tracer.install()
            self.tracer.begin_op()
        h0 = self.probe.handler_s if self.probe is not None else 0.0
        t0 = time.perf_counter()
        try:
            result = self.wl.run(item)
        except self.typed_error as exc:
            reason = type(exc).__name__
            if reason in self.wl.check_exceptions:
                reason = f"check.{reason}"
        except Exception as exc:  # a crash in the package is a failed op
            reason = f"untyped.{type(exc).__name__}"
            crashed = True
        finally:
            t1 = time.perf_counter()
            sampled = (self.probe.handler_s - h0) if self.probe is not None else 0.0
            if traced:
                self.tracer.end_op()
                self.tracer.uninstall()
                sums = self.group_counts.setdefault(item["group"], dict.fromkeys(before, 0))
                for key, value in self.tracer.base_counts().items():
                    sums[key] += value - before[key]
                if self.probe is not None:
                    self.probe.start()
        if reason is None:
            try:
                outputs = self.wl.outputs(item, result)
                if corrupt is not None:
                    outputs = corrupt(item, outputs)
                self.wl.check(item, outputs)
            except self.check_failed as exc:
                reason = f"check.{exc}"
        if crashed or (reason is not None and self.wl.in_envelope(item)):
            self.incorrect += 1
        record = Record(item["group"], t1 - t0 - sampled, t0, t1, reason is None, reason,
                        traced, cycle)
        self.records.append(record)
        return record

    def loop(self, seconds: float, paired: bool) -> None:
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            for item in self.first if index == 0 else self.wl.cycle(index):
                self.run_op(item, cycle=index)
                if paired:
                    self.run_op(item, traced=True, cycle=index)
            index += 1
            if time.perf_counter() >= deadline:
                break
        self.cycles = index

    def calibrate(self) -> None:
        for r in self.records:
            r.cal_s = r.raw_s * (self.probe.factor(r.t0, r.t1) if self.probe else 1.0)


def _median_ms(times):
    return 1e3 * statistics.median(times) if times else None


def tail_latency(times):
    """Highest of TAIL_PERCENTILES with at least ten successful samples
    beyond it; None with fewer than 20 successes."""
    n = len(times)
    if n < 20:
        return None
    cuts = statistics.quantiles(sorted(times), n=1000, method="inclusive")
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) >= 1000.0:
            return {"value": 1e3 * cuts[int(round(p * 10)) - 1], "percentile": p, "samples": n}
    return None


def end_to_end(records, setup_s, peak_rss_mb, raw=False) -> dict:
    def dur(r):
        return r.raw_s if raw else r.cal_s

    ok_times = [dur(r) for r in records if r.ok]
    # throughput of each whole cycle, so that every op kind keeps its share
    rates = []
    for c in sorted({r.cycle for r in records}):
        mine = [r for r in records if r.cycle == c]
        rates.append(sum(r.ok for r in mine) / sum(dur(r) for r in mine))
    out = {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(rates) if rates else None,
        "success_ratio": len(ok_times) / len(records) if records else None,
        "latency_p50_ms": _median_ms(ok_times),
        "latency_tail_ms": tail_latency(ok_times),
        "group_p50_ms": None,
        "peak_rss_mb": peak_rss_mb,
    }
    medians = [_median_ms([dur(r) for r in records if r.ok and r.group == g])
               for g in sorted({r.group for r in records if r.ok})]
    if medians:
        out["group_p50_ms"] = statistics.median(medians)
    for g in SPECTRUM_GROUPS:
        mine = [r for r in records if r.group == g]
        out[f"solve_ms.{g}"] = _median_ms([dur(r) for r in mine if r.ok])
        out[f"success_ratio.{g}"] = sum(r.ok for r in mine) / len(mine) if mine else None
    return out


def group_summary(records) -> dict:
    out = {}
    for g in sorted({r.group for r in records}):
        mine = [r for r in records if r.group == g]
        out[g] = {"attempted": len(mine), "succeeded": sum(r.ok for r in mine),
                  "p50_ms": _median_ms([r.cal_s for r in mine if r.ok]),
                  "raw_p50_ms": _median_ms([r.raw_s for r in mine if r.ok])}
    return out


def failure_reasons(records) -> dict:
    out: dict = {}
    for r in records:
        if not r.ok:
            key = f"{r.group}:{r.reason}"
            out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))


def _fmt(value) -> str:
    if isinstance(value, dict):
        return f"{value['value']:.6g} (p{value['percentile']:g} of {value['samples']})"
    return "null" if value is None else f"{value:.6g}"


def print_table(workload, metrics, raw) -> None:
    print(f"# {workload}    (calibrated | raw)")
    for name, unit in E2E_UNITS.items():
        print(f"  {name:22s} {_fmt(metrics.get(name)):>26s} | {_fmt(raw.get(name)):>26s} {unit}")


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_per_point", "_per_solve", "_per_event")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore")
    if args.workload == "all":
        return run_all(args)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0

    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    try:
        try:
            (wl, first), setup_raw, setup_cal = calib.calibrated_setup(
                lambda: setup(args.workload, args.seed, workdir))
        except (SetupError, ImportError) as exc:
            print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            import tracer as tracer_mod

            tracer = tracer_mod.Tracer()
        probe = calib.SpeedProbe()
        runner = Runner(wl, first, tracer, probe)
        probe.sample()
        probe.start()
        try:
            runner.loop(args.seconds, paired=bool(args.trace))
        finally:
            probe.stop()
        probe.sample()
        runner.calibrate()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [[setup_raw, setup_cal]] + setup_samples(args.workload, args.seed, SETUP_SAMPLES - 1)
        spans_path = None
        if tracer is not None:
            # one file per workload, overwritten by the next traced run
            spans_path = WORK / f"spans-{args.workload}.jsonl"
            tracer.write_spans(spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = runner.records
    untraced = [r for r in records if not r.traced]
    e2e = end_to_end(untraced, statistics.median(s[1] for s in setups), peak_rss_mb)
    e2e_raw = end_to_end(untraced, statistics.median(s[0] for s in setups), peak_rss_mb, raw=True)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cycles": runner.cycles,
        "end_to_end": {k: {"value": e2e[k], "unit": u} for k, u in E2E_UNITS.items()},
        "end_to_end_raw": {k: {"value": e2e_raw[k], "unit": u} for k, u in E2E_UNITS.items()},
        "setup_samples_s": setups,
        "speed_samples": len(probe.costs),
        "kernel_ms_median": 1e3 * statistics.median(probe.costs),
        "failures": failure_reasons(records),
        "groups": group_summary(untraced),
    }
    if tracer is not None:
        traced = [r for r in records if r.traced]
        metrics = tracer.metrics(len(traced))
        p50_traced = end_to_end(traced, None, None)["group_p50_ms"]
        p50_plain = e2e["group_p50_ms"]
        overhead = p50_traced - p50_plain if None not in (p50_traced, p50_plain) else None
        metrics["bench.trace_overhead_ms"] = overhead
        metrics["bench.trace_overhead_ratio"] = overhead / p50_plain if overhead is not None else None
        detail["group_ratios"] = {g: tracer_mod.group_ratios(c)
                                  for g, c in sorted(runner.group_counts.items())}
        detail["other_fails"] = tracer.other_fails()
        detail["spans"] = len(tracer.spans)
        detail["spans_dropped"] = tracer.spans_dropped
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        units = {k: _layer_unit(k) for k in metrics}
    else:
        metrics = {k: e2e[k] for k in GATED}
        units = {k: E2E_UNITS[k] for k in GATED}
        print_table(args.workload, e2e, e2e_raw)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": runner.incorrect == 0,
        "attempted": len(records),
        "failed": sum(1 for r in records if not r.ok),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
    }))
    return 0


def run_all(args) -> int:
    """Run each workload in its own process and print its metrics."""
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        if args.trace:
            print(f"# {workload}")
            for name, m in result["metrics"].items():
                print(f"  {name:52s} {_fmt(m['value']):>14s} {m['unit']}")
        else:
            print("\n".join(lines[:-2]))
        print(f"  correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failures={detail['failures']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
