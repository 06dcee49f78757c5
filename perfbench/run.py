#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as a JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload closure --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``closure``, ``mc``, ``atpg`` and
``serve``.  Everything runs in this one process: serial engines, the
daemon in-process with ``workers=0`` and one keep-alive client.

``--trace 0`` sets the workload up ``SETUP_REPS`` times, then times
interleaved operations in whole rounds until ``--seconds`` seconds (and
at least ``MIN_OPS`` operations) have passed, and reports the
end-to-end metrics:

* ``setup_s`` — imports plus the median of the set-up repetitions
  (library load, netlist parse, compile and warm-up);
* ``peak_rss_mb`` — peak resident memory of this process;
* ``op_p50_ms`` / ``op_p90_ms`` — latency percentiles of one operation.

Every operation's output is checked against a second public route; a
check that disagrees, or an operation that raises, counts in ``failed``
(``op_fail_ratio`` is ``failed / attempted``, printed on the summary
line).  The last stdout line is the result object.

``--trace 1`` is the separate traced run that reports the per-layer
metrics (``layers.py``): the chosen workload runs a fixed number of
rounds twice, untraced and traced alternately, and the layers it does
not exercise are measured on one traced round of the workload that
does.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

#: Set-up repetitions per untraced run; ``setup_s`` takes their median.
SETUP_REPS = 3

#: Every untraced run times at least this many operations.
MIN_OPS = 20

#: Modules each workload imports, timed as part of its set-up.
MODULES = {
    "closure": ("repro.pvt", "repro.sta.compile", "repro.sta.incremental"),
    "mc": ("repro.stat", "repro.sta.analysis"),
    "atpg": ("repro.atpg", "repro.sta.simulate"),
    "serve": ("repro.server",),
}


class Log:
    """Latency and outcome of every operation of one timed phase."""

    def __init__(self) -> None:
        self.latency = []
        self.kinds = []
        self.failed = 0

    def by_kind(self):
        out = {}
        for kind, latency in zip(self.kinds, self.latency):
            out.setdefault(kind, []).append(latency)
        return out


def execute(op, log: Log, registry=None) -> None:
    """Time one operation, then check it; failures are counted, not raised.

    With a ``registry`` the operation runs traced: the registry is
    installed and the call is wrapped in a span named after its layer.
    """
    from repro import obs

    if registry is not None:
        obs.set_registry(registry)
    try:
        span = (
            registry.span(op.layer) if registry is not None
            else contextlib.nullcontext()
        )
        t0 = time.perf_counter()
        try:
            with span:
                value = op.run()
        finally:
            log.latency.append(time.perf_counter() - t0)
            log.kinds.append(op.kind)
        ok = bool(op.check(value))
    except Exception:  # noqa: BLE001 — a failed operation is a result
        traceback.print_exc(file=sys.stderr)
        ok = False
    finally:
        if registry is not None:
            obs.disable()
    if not ok:
        log.failed += 1
        print(f"operation {op.kind} failed its check", file=sys.stderr)


def run_timed(workload, seconds: float):
    """Untimed warm-up rounds, then whole rounds until ``seconds`` pass.

    Returns the warm-up log, its duration and the timed log.
    """
    ops = workload.ops()
    warm = Log()
    t0 = time.perf_counter()
    for _ in range(workload.WARM_ROUNDS):
        for op in iter(lambda: next(ops), None):
            execute(op, warm)
    warm_s = time.perf_counter() - t0
    log = Log()
    deadline = time.perf_counter() + seconds
    for op in ops:
        if op is not None:
            execute(op, log)
        elif len(log.latency) >= MIN_OPS and time.perf_counter() >= deadline:
            return warm, warm_s, log


def run_untraced(cls, seed, size, seconds) -> dict:
    from workloads import Probe, percentile

    for module in MODULES[cls.name]:
        importlib.import_module(module)
    import_s = time.perf_counter() - _STARTED
    reps = []
    workload = None
    setup_ok = True
    for _ in range(SETUP_REPS):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        t0 = time.perf_counter()
        workload = cls(seed, size)
        workload.build(Probe())
        reps.append(time.perf_counter() - t0)
        setup_ok = setup_ok and workload.setup_ok
    try:
        warm, warm_s, log = run_timed(workload, seconds)
        outputs = workload.outputs()
    finally:
        workload.close()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(warm.latency) + len(log.latency)
    failed = warm.failed + log.failed
    print(f"outputs {json.dumps(outputs, sort_keys=True)}")
    print(
        f"{cls.name}: {len(log.latency)} timed operations "
        f"({attempted} with warm-up), {failed} failed, "
        f"op_fail_ratio={failed / attempted:.6g}, "
        f"setup reps {', '.join(f'{r:.3f}' for r in reps)} s, "
        f"warm-up {warm_s:.3f} s, imports {import_s:.3f} s"
    )
    return {
        "correct": setup_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": (
                import_s + statistics.median(reps) + warm_s, "s"
            ),
            "peak_rss_mb": (rss_mb, "MB"),
            "op_p50_ms": (percentile(log.latency, 50) * 1e3, "ms"),
            "op_p90_ms": (percentile(log.latency, 90) * 1e3, "ms"),
        },
    }


def run_traced(cls, seed, size) -> dict:
    from repro import obs

    import layers
    from workloads import WORKLOADS, Probe, percentile

    for module in MODULES[cls.name]:
        importlib.import_module(module)
    metrics = {}
    attempted = failed = 0
    correct = True
    others = [w for w in WORKLOADS.values() if w is not cls]
    for wcls in [cls] + others:
        home = wcls is cls
        registry = obs.MetricsRegistry()
        probe = Probe(registry)
        obs.set_registry(registry)
        try:
            traced = wcls(seed, size)
            traced.build(probe)
            traced.trace_probes(probe)
        finally:
            obs.disable()
        plain = None
        if home:
            plain = wcls(seed, size)
            plain.build(Probe())
        plain_log, traced_log = Log(), Log()
        warm_plain, warm_traced = Log(), Log()
        try:
            timed = layers.TRACE_ROUNDS[wcls.name] if home else 1
            rounds = timed + wcls.WARM_ROUNDS
            traced_ops = traced.ops()
            plain_ops = plain.ops() if plain is not None else None
            while rounds:
                warming = rounds > timed
                # Both streams come from the same seed, so they end their
                # rounds on the same step.
                if plain_ops is not None:
                    op = next(plain_ops)
                    if op is not None:
                        execute(op, warm_plain if warming else plain_log)
                op = next(traced_ops)
                if op is None:
                    rounds -= 1
                else:
                    execute(
                        op, warm_traced if warming else traced_log, registry
                    )
        finally:
            traced.close()
            if plain is not None:
                plain.close()
        metrics.update(layers.layer_metrics(
            wcls.name, traced, probe, registry, traced_log, home
        ))
        if home:
            traced_p50 = percentile(traced_log.latency, 50)
            plain_p50 = percentile(plain_log.latency, 50)
            metrics["obs.trace_overhead_ratio"] = (
                traced_p50 / plain_p50, "ratio"
            )
            print(layers.kind_table(wcls.name, plain_log, traced_log))
        for log in (plain_log, traced_log, warm_plain, warm_traced):
            attempted += len(log.latency)
            failed += log.failed
        correct = correct and traced.setup_ok and (
            plain is None or plain.setup_ok
        )
    return {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("closure", "mc", "atpg", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small circuits for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import SIZES, WORKLOADS

    cls = WORKLOADS[args.workload]
    size = SIZES[args.size]
    if args.trace:
        result = run_traced(cls, args.seed, size)
    else:
        result = run_untraced(cls, args.seed, size, args.seconds)
    values = result.pop("metrics")
    for name, (value, _) in values.items():
        if not math.isfinite(value):
            print(f"error: metric {name} is {value}", file=sys.stderr)
            return 1
    result["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in values.items()
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
