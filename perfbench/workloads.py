"""The four benchmark workloads: closure, mc, atpg and serve.

Each workload is built from a seed and exposes an endless, interleaved
stream of :class:`Op` objects.  An operation is one user-level request
into one layer's public API; ``run`` is the timed call and ``check``
verifies its output (outside the timed region) against a second public
route that must agree bit for bit.

The stream comes in rounds, each ended by ``None``.  Every round asks
for the same work (the same gates, faults or circuits; the seed decides
order, sizes and Monte Carlo seeds), and a timed phase ends on a round
boundary.  On a shared 2-vCPU VM the number of rounds that fit in a run
varies by a third, and whole rounds keep the mix of cheap and expensive
requests — which is what the percentiles read — the same in every run.

Only public entry points are called, with default settings, except where
a workload documents otherwise: the closure workload builds its
incremental analyzer the way the sizing application
(``repro.sta.optimize.optimize_sizing``) does by default, on the level
engine, because the library-wide default engine spends up to 15 s on one
K=32 what-if batch on c7552s (2-vCPU VM).

Edited gates are a fixed set spread evenly over fan-out cone sizes:
re-timing cost spans two orders of magnitude across cones, and gates
drawn freely per seed moved the closure percentiles by a fifth to a
third between seeds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import random
import time
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

NS = 1e-9

#: K=32 what-if size ladder (geometric, 2**(1/6) steps from 0.5).
LADDER = tuple(round(0.5 * 2.0 ** (i / 6.0), 6) for i in range(32))

#: The four PVT corners of the closure workload's corner passes.
CORNER_NAMES = ("fast", "typ", "slow", "slow_derated")


@dataclasses.dataclass
class Op:
    """One timed request: ``check(run())`` must hold."""

    kind: str
    layer: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclasses.dataclass(frozen=True)
class Size:
    """Workload sizes: ``full`` is the benchmark, ``tiny`` the smoke test."""

    closure_circuits: tuple
    mc_circuits: tuple
    mc_samples: int
    atpg_circuit: str
    atpg_faults: int
    serve_circuits: tuple
    serve_mc_samples: int


SIZES = {
    "full": Size(
        closure_circuits=("c5315s", "c7552s"),
        mc_circuits=("c432s", "c880s"),
        mc_samples=256,
        atpg_circuit="c432s",
        atpg_faults=40,
        serve_circuits=("c432s", "c880s"),
        serve_mc_samples=32,
    ),
    "tiny": Size(
        closure_circuits=("c17", "c432s"),
        mc_circuits=("c17",),
        mc_samples=16,
        atpg_circuit="c17",
        atpg_faults=8,
        serve_circuits=("c17",),
        serve_mc_samples=8,
    ),
}


class Probe:
    """Times calls into a layer; in a traced run also records a span.

    ``times`` maps a layer name to the elapsed seconds of every call made
    through the probe, so per-layer set-up costs are measured from
    outside the program.
    """

    def __init__(self, registry=None) -> None:
        self.registry = registry
        self.times: Dict[str, List[float]] = {}

    @contextlib.contextmanager
    def __call__(self, layer: str):
        span = (
            self.registry.span(layer) if self.registry is not None
            else contextlib.nullcontext()
        )
        t0 = time.perf_counter()
        with span:
            yield
        self.times.setdefault(layer, []).append(time.perf_counter() - t0)


def percentile(values, q: float) -> float:
    """q-th percentile, linear interpolation between order statistics."""
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (rank - lo) * (ordered[hi] - ordered[lo])


def window_array(timings, lines) -> np.ndarray:
    """(lines, 2, 5) array of every window field, for bitwise comparison."""
    out = np.empty((len(lines), 2, 5))
    for i, line in enumerate(lines):
        timing = timings[line]
        for j, w in enumerate((timing.rise, timing.fall)):
            out[i, j] = (w.a_s, w.a_l, w.t_s, w.t_l, w.state)
    return out


def same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


def representative(gates: list, n: int) -> list:
    """The median gate of each of ``n`` equal slices of ``gates``.

    ``gates`` is sorted by fan-out cone size (:func:`gates_by_cone`).
    """
    n = max(1, min(n, len(gates)))
    return [gates[(2 * k + 1) * len(gates) // (2 * n)] for k in range(n)]


def gates_by_cone(circuit) -> List[str]:
    """Gates sorted by transitive fan-out size, which drives re-timing cost."""
    order = circuit.topological_order()
    cone: Dict[str, int] = {}
    for i, line in reversed(list(enumerate(order))):
        mask = 1 << i
        for sink in circuit.fanouts(line):
            mask |= cone[sink.output]
        cone[line] = mask
    return sorted(circuit.gates, key=lambda g: (bin(cone[g]).count("1"), g))


class Workload:
    """Common shape: ``build`` is one set-up, ``ops`` the request stream."""

    name = ""

    #: Untimed rounds before timing starts, for workloads whose engines
    #: keep caches from one round to the next (they count in ``setup_s``).
    WARM_ROUNDS = 0

    def __init__(self, seed: int, size: Size) -> None:
        self.size = size
        self.rng = random.Random(f"{self.name}:{seed}")
        #: False when a set-up cross-check already disagreed.
        self.setup_ok = True

    def build(self, probe: Probe) -> None:
        raise NotImplementedError

    def ops(self) -> Iterator[Optional[Op]]:
        """Endless operations; ``None`` ends each round."""
        raise NotImplementedError

    def outputs(self) -> Dict[str, float]:
        """Model outputs that must repeat exactly for a given seed."""
        raise NotImplementedError

    def close(self) -> None:
        """Release threads and sockets the workload holds."""

    def trace_probes(self, probe: Probe) -> None:
        """Time layer entry points the operations do not isolate.

        Runs in the traced run only, so it adds nothing to ``setup_s``.
        """

    def _load(self, probe: Probe, names) -> tuple:
        from repro.characterize.library import CellLibrary
        from repro.circuit import load_packaged_bench

        with probe("characterize.library"):
            library = CellLibrary.load_default()
        circuits = {}
        for name in names:
            with probe("circuit"):
                circuits[name] = load_packaged_bench(name)
        return library, circuits


# ----------------------------------------------------------------------
# closure
# ----------------------------------------------------------------------
class _ClosureCircuit:
    """Warm engines of one circuit in the closure stream."""

    def __init__(self, name, library, probe: Probe) -> None:
        from repro.circuit import load_packaged_bench
        from repro.pvt import STANDARD_CORNERS, CornerAnalyzer, scaled_library
        from repro.sta.analysis import PerfConfig, TimingAnalyzer
        from repro.sta.compile import LevelCompiledAnalyzer
        from repro.sta.incremental import IncrementalAnalyzer

        self.name = name
        # Passes read one copy of the netlist; committed edits write to
        # another, so a pass never sees a half-finished closure step.
        with probe("circuit"):
            self.circuit = load_packaged_bench(name)
            self.edited = load_packaged_bench(name)
        self.lines = list(self.circuit.lines)
        with probe("sta.compile"):
            self.level = LevelCompiledAnalyzer(self.circuit, library)
        corners = [STANDARD_CORNERS[c] for c in CORNER_NAMES]
        with probe("pvt"):
            self.corners = CornerAnalyzer(
                self.circuit, corners,
                [scaled_library(library, c) for c in corners],
            )
        with probe("sta.incremental"):
            self.incr = IncrementalAnalyzer(TimingAnalyzer(
                self.edited, library, perf=PerfConfig(engine="level"),
            ))
            self.incr.analyze()
        # Warm-up doubles as the reference every later pass must match.
        with probe("sta.compile.warmup"):
            base = self.level.analyze()
        self.base = window_array(base.timings, self.lines)
        self.max_arrival = base.output_max_arrival()
        with probe("pvt.warmup"):
            corner = self.corners.analyze()
        self.corner_ref = window_array(corner.merged.timings, self.lines)
        self.setup_arrival = corner.setup_arrival()
        self.setup_ok = same(
            window_array(self.incr.result().timings, self.lines), self.base
        )


class Closure(Workload):
    """In-process timing-closure stream on two large circuits."""

    name = "closure"

    #: The incremental engine memoizes the column slices of the cones it
    #: re-times, and every round edits the same gates.
    WARM_ROUNDS = 1

    def build(self, probe: Probe) -> None:
        self.library, _ = self._load(probe, ())
        self.circuits = [
            _ClosureCircuit(name, self.library, probe)
            for name in self.size.closure_circuits
        ]
        self.gates = {
            c.name: representative(gates_by_cone(c.edited), 6)
            for c in self.circuits
        }
        self.setup_ok = all(c.setup_ok for c in self.circuits)

    def outputs(self) -> Dict[str, float]:
        out = {}
        for c in self.circuits:
            out[f"{c.name}.max_arrival_s"] = c.max_arrival
            out[f"{c.name}.corner_setup_arrival_s"] = c.setup_arrival
        return out

    def _full(self, c) -> Op:
        from repro.sta.analysis import TimingAnalyzer

        return Op(
            "full_pass", "sta.analysis",
            lambda: TimingAnalyzer(c.circuit, self.library).analyze(),
            lambda r: same(window_array(r.timings, c.lines), c.base),
        )

    def _level(self, c) -> Op:
        return Op(
            "level_pass", "sta.compile", c.level.analyze,
            lambda r: same(window_array(r.timings, c.lines), c.base),
        )

    def _corner(self, c) -> Op:
        return Op(
            "corner_pass", "pvt", c.corners.analyze,
            lambda r: same(
                window_array(r.merged.timings, c.lines), c.corner_ref
            ),
        )

    def _step(self, c, gate) -> Iterator[Op]:
        """What-if read, then a committed write and its revert."""
        from repro.sta.incremental import TrialEdit

        original = c.edited.gates[gate].size
        k = self.rng.randrange(len(LADDER))
        trial = {}

        def whatif():
            result = c.incr.try_edits(
                [TrialEdit("resize", gate, s) for s in LADDER]
            )
            result.max_arrivals()
            trial["result"] = result
            return result

        def commit():
            c.edited.resize_gate(gate, LADDER[k])
            return c.incr.retime()

        def revert():
            c.edited.resize_gate(gate, original)
            return c.incr.retime()

        def column_k(result):
            # The what-if column must equal applying the edit for real.
            column = trial["result"].timings(k)
            return same(
                window_array(result.timings, c.lines),
                window_array(column, c.lines),
            )

        yield Op("whatif", "sta.incremental", whatif,
                 lambda r: r.n_trials == len(LADDER))
        yield Op("commit", "sta.incremental", commit, column_k)
        yield Op(
            "revert", "sta.incremental", revert,
            lambda r: same(window_array(r.timings, c.lines), c.base),
        )

    def ops(self) -> Iterator[Optional[Op]]:
        # Per circuit and round: a closure step (what-if, commit, revert)
        # on each of the six gates, around 2 level passes, 1 corner pass
        # and 1 full pass.  The incremental requests hold the median; the
        # passes and the largest cones hold the 90th percentile.
        while True:
            for c in self.circuits:
                gates = list(self.gates[c.name])
                self.rng.shuffle(gates)
                passes = [self._level(c), self._corner(c), self._level(c),
                          self._full(c)]
                for i, gate in enumerate(gates):
                    yield from self._step(c, gate)
                    if i % 2 and passes:
                        yield passes.pop(0)
                yield from passes
            yield None


# ----------------------------------------------------------------------
# mc
# ----------------------------------------------------------------------
class MonteCarlo(Workload):
    """Statistical STA: ``run_mc`` with distinct seeds, serial."""

    name = "mc"

    #: Every REPEAT-th request re-asks an earlier seed.
    REPEAT = 8

    def build(self, probe: Probe) -> None:
        from repro.sta.analysis import TimingAnalyzer

        self.library, self.circuits = self._load(probe, self.size.mc_circuits)
        self.nominal = {}
        for name, circuit in self.circuits.items():
            with probe("sta.analysis"):
                self.nominal[name] = TimingAnalyzer(
                    circuit, self.library
                ).analyze().output_max_arrival()
        self.answers: Dict[tuple, tuple] = {}
        self.first: Dict[str, float] = {}
        # Warm-up: one small request per circuit.
        for circuit in self.circuits.values():
            with probe("stat.warmup"):
                self._mc(circuit, 0, 8)

    def trace_probes(self, probe: Probe) -> None:
        from repro.stat.engine import MonteCarloEngine

        for circuit in self.circuits.values():
            with probe("stat.engine"):
                MonteCarloEngine(circuit, self.library)

    def _mc(self, circuit, seed, samples=None):
        from repro.stat import run_mc

        return run_mc(
            circuit, self.library, seed=seed,
            samples=samples or self.size.mc_samples, jobs=1,
        )

    def outputs(self) -> Dict[str, float]:
        return {f"{n}.mc_q95_s": q for n, q in sorted(self.first.items())}

    def _op(self, name, seed) -> Op:
        circuit = self.circuits[name]

        def check(result) -> bool:
            q = result.quantiles((0.5, 0.95, 0.99))
            values = (q[0.5], q[0.95], q[0.99])
            self.first.setdefault(name, q[0.95])
            earlier = self.answers.setdefault((name, seed), values)
            return (
                earlier == values
                and result.nominal_max == self.nominal[name]
                and all(np.isfinite(values))
                and values[0] <= values[1] <= values[2]
            )

        return Op(f"mc_{name}", "stat", lambda: self._mc(circuit, seed),
                  check)

    def ops(self) -> Iterator[Optional[Op]]:
        # A round is two requests on the first circuit and one on the
        # second, so the median and the 90th percentile each fall inside
        # one circuit's latencies instead of on the gap between them.
        names = list(self.circuits)
        names = names[:1] + names
        asked: Dict[str, List[int]] = {name: [] for name in names}
        n = 0
        while True:
            for name in names:
                n += 1
                if n % self.REPEAT == 0 and asked[name]:
                    seed = self.rng.choice(asked[name])
                else:
                    seed = self.rng.randrange(2 ** 31)
                    asked[name].append(seed)
                yield self._op(name, seed)
            yield None


# ----------------------------------------------------------------------
# atpg
# ----------------------------------------------------------------------
class Atpg(Workload):
    """Section-7 crosstalk ATPG with ITR, one fault per request."""

    name = "atpg"

    def build(self, probe: Probe) -> None:
        from repro.atpg import AtpgConfig, CrosstalkAtpg, generate_fault_list
        from repro.sta.analysis import TimingAnalyzer

        self.library, circuits = self._load(probe, (self.size.atpg_circuit,))
        self.circuit = circuits[self.size.atpg_circuit]
        # One fixed fault list; each round is a fresh test generator over
        # all of it in seeded order.  Per-fault cost spans two orders of
        # magnitude (2-vCPU VM: proved untestable 0-30 ms, aborted at the
        # backtrack limit 130-490 ms), so 4-fault slices put the median
        # on the wide aborted-cost spread and lists drawn per seed moved
        # it by a quarter between seeds.  With one fault per request the
        # median sits among untestable proofs and the 90th percentile
        # among aborted searches.
        self.faults = generate_fault_list(
            self.circuit, self.size.atpg_faults, seed=0,
            delta=0.5 * NS, window=0.4 * NS,
        )
        with probe("sta.analysis"):
            self.period = 0.85 * TimingAnalyzer(
                self.circuit, self.library
            ).analyze().output_max_arrival()
        self.config = AtpgConfig(backtrack_limit=48, period=self.period)
        with probe("atpg.init"):
            self.atpg = CrosstalkAtpg(
                self.circuit, self.library, config=self.config
            )
        # Warm-up; the first fault also builds the shared ITR baseline.
        with probe("atpg.warmup"):
            self.atpg.run_all(self.faults[:1])
        self.statuses: List[str] = []

    def outputs(self) -> Dict[str, float]:
        # The first 20 requests always run (see run.MIN_OPS).
        counted = self.statuses[:20]
        return {
            f"{self.circuit.name}.{s}_first_{len(counted)}": counted.count(s)
            for s in ("detected", "untestable", "aborted")
        }

    def _detects(self, fault, vector) -> bool:
        """Re-simulate a detected vector: late with the fault, else clean."""
        from repro.atpg import FaultySimulator
        from repro.sta.simulate import TimingSimulator

        threshold = self.period + self.atpg.config.detect_guard
        faulty = FaultySimulator(self.circuit, self.library, fault=fault)
        clean = TimingSimulator(self.circuit, self.library).run(vector)
        late = faulty.run(vector).events
        return any(
            late[po] is not None and late[po].arrival > threshold
            and (clean.events[po] is None
                 or clean.events[po].arrival <= threshold)
            for po in self.circuit.outputs
        )

    def _op(self, fault) -> Op:
        def check(summary) -> bool:
            (result,) = summary.results
            self.statuses.append(result.status)
            if result.status == "detected":
                return self._detects(fault, result.vector)
            return result.fault is fault and result.status in (
                "untestable", "aborted"
            )

        return Op("atpg_fault", "atpg",
                  lambda: self.atpg.run_all([fault]), check)

    def _init(self) -> Op:
        from repro.atpg import CrosstalkAtpg

        def run():
            self.atpg = CrosstalkAtpg(
                self.circuit, self.library, config=self.config
            )
            return self.atpg

        return Op("atpg_init", "atpg", run,
                  lambda atpg: atpg.period == self.period)

    def ops(self) -> Iterator[Optional[Op]]:
        while True:
            yield self._init()
            faults = list(self.faults)
            self.rng.shuffle(faults)
            for fault in faults:
                yield self._op(fault)
            yield None


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def canonical(result) -> str:
    return json.dumps(result, sort_keys=True, separators=(",", ":"))


class Serve(Workload):
    """The timing daemon in-process, one keep-alive client, closed loop."""

    name = "serve"

    #: The response memo and the sessions' incremental engines keep
    #: state across rounds, which edit the same gates.
    WARM_ROUNDS = 1

    CORNER_SETS = (["fast", "slow"], ["typ", "slow_derated"])

    def build(self, probe: Probe) -> None:
        from repro.server import (
            ServerClient, ServerConfig, ServerThread, SessionRegistry,
            validate_request,
        )

        self.library, circuits = self._load(probe, self.size.serve_circuits)
        # The in-process reference owns its own netlists.
        _, mirror = self._load(probe, self.size.serve_circuits)
        self.reference = SessionRegistry(self.library)
        for circuit in mirror.values():
            self.reference.register(circuit)
        with probe("server.start"):
            self.thread = ServerThread(
                circuits, ServerConfig(port=0, workers=0), library=self.library
            ).start()
        self.client = ServerClient("127.0.0.1", self.thread.port)
        self.names = list(circuits)
        self.gates = {
            name: representative(gates_by_cone(c), 14)
            for name, c in circuits.items()
        }
        self.dispatch_s: Dict[str, List[float]] = {}
        self.validate_s: List[float] = []
        self.overhead_s: List[float] = []
        self.max_arrival: Dict[str, float] = {}
        # Warm-up: every session, served and in-process, builds its
        # incremental analyzer, both corner engines and its Monte Carlo
        # engine.
        for name in self.names:
            warmup = [("slack", {"worst": 1}), ("mc", {"samples": 1})] + [
                ("corners", {"corners": corners, "lines": []})
                for corners in self.CORNER_SETS
            ]
            with probe("server.warmup"):
                for method, params in warmup:
                    result = self.client.result(name, method, params)
                    if method == "slack":
                        self.max_arrival[name] = result["clock_s"]
            for method, params in warmup:
                request = validate_request(
                    {"circuit": name, "method": method, "params": params}
                )
                self.reference.dispatch(name, method, request.params)
        self.values = iter(range(1, 2 ** 31))

    def close(self) -> None:
        self.client.close()
        self.thread.stop()

    def outputs(self) -> Dict[str, float]:
        return {
            f"{name}.max_arrival_s": value
            for name, value in sorted(self.max_arrival.items())
        }

    def _reference(self, payload: dict):
        """The same request through in-process ``SessionRegistry.dispatch``."""
        from repro.server import validate_request

        t0 = time.perf_counter()
        request = validate_request(payload)
        t1 = time.perf_counter()
        result = self.reference.dispatch(
            request.circuit, request.method, request.params
        )
        t2 = time.perf_counter()
        self.validate_s.append(t1 - t0)
        self.dispatch_s.setdefault(request.method, []).append(t2 - t1)
        return result, t2 - t1

    def _query(self, circuit: str, method: str, params: dict) -> Op:
        payload = {"circuit": circuit, "method": method, "params": params}

        def check(response) -> bool:
            body, elapsed = response
            if not body.get("ok"):
                return False
            result, dispatch_s = self._reference(payload)
            if not body.get("cached"):
                self.overhead_s.append(elapsed - dispatch_s)
            return canonical(body["result"]) == canonical(result)

        def run():
            t0 = time.perf_counter()
            body = self.client.query(circuit, method, params)
            return body, time.perf_counter() - t0

        return Op(method, "server", run, check)

    def _batch(self, circuit: str, gates: List[str]) -> Op:
        """One /v1/batch of what-ifs on ``gates``, the first one twice."""
        items = [self._edit(gate) for gate in gates]
        payloads = [
            {"circuit": circuit, "method": "whatif", "params": p}
            for p in items + items[:1]
        ]

        def check(body) -> bool:
            if not body.get("ok") or len(body["responses"]) != len(payloads):
                return False
            return all(
                canonical(resp["result"])
                == canonical(self._reference(payload)[0])
                for resp, payload in zip(body["responses"], payloads)
            )

        return Op("batch", "server",
                  lambda: self.client.batch(payloads), check)

    def _edit(self, gate: str) -> dict:
        value = 0.5 + next(self.values) * 1e-4
        return {"edits": [{"op": "resize", "line": gate, "value": value}]}

    def ops(self) -> Iterator[Optional[Op]]:
        # Per circuit and round: 4 memoized reads and a corners query, a
        # distinct what-if on each of the 14 gates, two /v1/batch
        # requests of 4 what-ifs with a duplicate, and a small Monte
        # Carlo query.  The what-ifs span the 23rd to the 86th percentile
        # and the batches the 86th to the 95th, so each reported
        # percentile falls inside one kind's latencies.
        r = 0
        while True:
            r += 1
            for circuit in self.names:
                gates = list(self.gates[circuit])
                batches = [gates[0::5][:3], gates[2::5][:3]]
                self.rng.shuffle(gates)
                reads = [
                    ("windows", {}), ("slack", {"worst": 5}),
                    ("windows", {}), ("path", {"kind": "max"}),
                    ("corners", {"corners": self.CORNER_SETS[r % 2]}),
                ]
                for i, gate in enumerate(gates):
                    if i % 3 == 0 and reads:
                        yield self._query(circuit, *reads.pop(0))
                    yield self._query(circuit, "whatif", self._edit(gate))
                    if i % 7 == 6 and batches:
                        yield self._batch(circuit, batches.pop())
                for read in reads:
                    yield self._query(circuit, *read)
                for batch in batches:
                    yield self._batch(circuit, batch)
                yield self._query(circuit, "mc", {
                    "samples": self.size.serve_mc_samples,
                    "seed": self.rng.randrange(2 ** 31),
                })
            yield None


WORKLOADS = {w.name: w for w in (Closure, MonteCarlo, Atpg, Serve)}
