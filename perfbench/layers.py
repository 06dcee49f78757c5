"""Per-layer metrics of the traced run.

Each layer is measured from outside: the benchmark times the calls it
makes into the layer's public functions (per-kind operation latencies
and the set-up probes of ``workloads.Probe``) and reads the counters
``repro.obs`` already keeps.  Counts and ratios come from a fixed number
of seeded rounds, so they repeat exactly for a given seed.

Which end-to-end metric each layer should move, and on which workload:

=============================  ==========================================
layer                          should move
=============================  ==========================================
circuit, characterize.library  ``setup_s`` on every workload
sta.compile                    ``op_p50_ms`` on closure; ``setup_s`` on
                               closure and serve
sta.analysis (default engine)  ``op_p90_ms`` on closure; ``op_p50_ms`` on
                               atpg
pvt                            ``op_p90_ms`` on closure
sta.incremental                ``op_p50_ms`` on closure; ``op_p90_ms`` on
                               serve
stat                           ``op_p50_ms`` and ``peak_rss_mb`` on mc
itr, atpg                      ``op_p50_ms`` and ``op_p90_ms`` on atpg
server                         ``op_p50_ms`` on serve
obs                            nothing (tracing cost stays visible)
=============================  ==========================================
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro import obs

from workloads import percentile

#: Rounds of the chosen workload, each run untraced and traced; the
#: other workloads run one traced round for the layers they own.
TRACE_ROUNDS = {"closure": 2, "mc": 6, "atpg": 2, "serve": 6}

#: Span layers whose self time is reported, by the workload that owns them.
SELF_TIME_LAYERS = {
    "closure": ("sta.analysis", "sta.compile", "pvt", "sta.incremental"),
    "mc": ("stat",),
    "atpg": ("atpg",),
    "serve": ("server",),
}

#: Methods of the served request mix.
SERVER_METHODS = ("windows", "slack", "path", "whatif", "corners", "mc")

Metrics = Dict[str, Tuple[float, str]]


def _count(registry, name: str) -> int:
    counter = registry.counters.get(name)
    return counter.value if counter is not None else 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p50_ms(values) -> float:
    return percentile(values, 50) * 1e3


def self_time_ms(registry, layers) -> Metrics:
    """Self time per layer, from ``repro.obs.chrome.self_time_profile``."""
    out = {f"self_ms.{layer}": 0.0 for layer in layers}
    for row in obs.self_time_profile(registry, top_k=len(registry.spans)):
        for layer in layers:
            if row["name"] == layer or row["name"].startswith(layer + "."):
                out[f"self_ms.{layer}"] += row["self_s"] * 1e3
                break
    return {name: (value, "ms") for name, value in out.items()}


def _closure(w, probe, registry, kinds) -> Metrics:
    compiled = [c.level.compiled for c in w.circuits]
    passes = _count(registry, "sta.compile.passes")
    retimed = _count(registry, "sta.incr.gates_retimed")
    return {
        "sta.compile.compile_s": (sum(probe.times["sta.compile"]), "s"),
        "sta.compile.pass_ms": (_p50_ms(kinds["level_pass"]), "ms"),
        "sta.compile.levels": (sum(c.n_levels for c in compiled), "count"),
        "sta.compile.groups": (sum(c.n_groups for c in compiled), "count"),
        "sta.compile.gates": (sum(c.n_gates for c in compiled), "count"),
        "sta.compile.columns_per_pass": (
            _ratio(_count(registry, "sta.compile.columns"), passes), "ratio"
        ),
        "sta.analysis.pass_ms": (_p50_ms(kinds["full_pass"]), "ms"),
        "sta.gates_evaluated": (
            _count(registry, "sta.gates_evaluated"), "count"
        ),
        "sta.corner_calls": (_count(registry, "sta.corner_calls"), "count"),
        "pvt.corner_pass_ms": (_p50_ms(kinds["corner_pass"]), "ms"),
        "pvt.corners_analyzed": (
            _count(registry, "pvt.corners_analyzed"), "count"
        ),
        "sta.incr.trial_batch_ms": (_p50_ms(kinds["whatif"]), "ms"),
        "sta.incr.retime_ms": (
            _p50_ms(kinds["commit"] + kinds["revert"]), "ms"
        ),
        "sta.incr.trials": (_count(registry, "sta.incr.trials"), "count"),
        "sta.incr.gates_retimed": (retimed, "count"),
        "sta.incr.patches": (_count(registry, "sta.incr.patches"), "count"),
        "sta.incr.full_rebuilds": (
            _count(registry, "sta.incr.full_rebuilds"), "count"
        ),
        "sta.incr.early_termination_ratio": (
            _ratio(_count(registry, "sta.incr.early_terminations"), retimed),
            "ratio",
        ),
    }


def _mc(w, probe, registry, kinds) -> Metrics:
    blocks = registry.histograms.get("stat.mc.block_s")
    return {
        "stat.mc_ms": (
            _p50_ms([t for k, v in kinds.items() for t in v]), "ms"
        ),
        "stat.engine_init_ms": (_p50_ms(probe.times["stat.engine"]), "ms"),
        "stat.mc.samples": (_count(registry, "stat.mc.samples"), "count"),
        "stat.mc.blocks": (_count(registry, "stat.mc.blocks"), "count"),
        "stat.mc.block_ms_p50": (blocks.percentile(50.0) * 1e3, "ms"),
    }


def _atpg(w, probe, registry, kinds) -> Metrics:
    decisions = _count(registry, "atpg.decisions")
    hits = _count(registry, "sta.memo.hits")
    return {
        # ITR re-times partial assignments through the default analyzer,
        # which is where its propagation memo pays.
        "sta.memo.hit_ratio": (
            _ratio(hits, hits + _count(registry, "sta.memo.misses")), "ratio"
        ),
        "atpg.op_ms": (_p50_ms(kinds["atpg_fault"]), "ms"),
        "atpg.init_ms": (_p50_ms(probe.times["atpg.init"]), "ms"),
        "atpg.decisions": (decisions, "count"),
        "atpg.backtracks": (_count(registry, "atpg.backtracks"), "count"),
        "atpg.prune_ratio": (
            _ratio(_count(registry, "atpg.itr_prunes"), decisions), "ratio"
        ),
        "atpg.detect_ratio": (
            _ratio(_count(registry, "atpg.detected"),
                   _count(registry, "atpg.faults")),
            "ratio",
        ),
        "itr.refinements": (_count(registry, "itr.refinements"), "count"),
        "itr.recomputed_gates": (
            _count(registry, "itr.recomputed_gates"), "count"
        ),
    }


def _serve(w, probe, registry, kinds) -> Metrics:
    out: Metrics = {}
    for method in SERVER_METHODS + ("batch",):
        out[f"server.request_ms.{method}"] = (_p50_ms(kinds[method]), "ms")
    for method in SERVER_METHODS:
        out[f"server.dispatch_ms.{method}"] = (
            _p50_ms(w.dispatch_s[method]), "ms"
        )
    requests = sum(
        c.value for name, c in registry.counters.items()
        if name.startswith("server.requests.")
    )
    batched = registry.histograms.get("server.batch.size")
    out.update({
        "server.overhead_ms": (_p50_ms(w.overhead_s), "ms"),
        "server.protocol.validate_us": (
            percentile(w.validate_s, 50) * 1e6, "us"
        ),
        "server.memo.hit_ratio": (
            _ratio(_count(registry, "server.memo.hits"), requests), "ratio"
        ),
        "server.batch.dedup_ratio": (
            _ratio(_count(registry, "server.batch.deduped"), batched.total),
            "ratio",
        ),
        "server.whatif.coalesce_ratio": (
            _ratio(_count(registry, "server.whatif.coalesced_requests"),
                   _count(registry, "server.requests.whatif")),
            "ratio",
        ),
    })
    return out


_HOME = {"closure": _closure, "mc": _mc, "atpg": _atpg, "serve": _serve}


def layer_metrics(name, workload, probe, registry, log, home) -> Metrics:
    """Per-layer metrics of one traced workload.

    ``home`` marks the workload the run was asked for; its set-up also
    supplies the netlist-parse and library-load times.
    """
    out = _HOME[name](workload, probe, registry, log.by_kind())
    out.update(self_time_ms(registry, SELF_TIME_LAYERS[name]))
    if home:
        out["circuit.parse_s"] = (sum(probe.times["circuit"]), "s")
        out["characterize.library_load_s"] = (
            sum(probe.times["characterize.library"]), "s"
        )
        out.update(self_time_ms(
            registry, ("circuit", "characterize.library")
        ))
    return out


def kind_table(name, plain, traced) -> str:
    """Per-kind p50 next to the workload percentiles, untraced and traced."""
    lines = [f"{name}: per-kind p50 (ms), untraced / traced"]
    p, t = plain.by_kind(), traced.by_kind()
    for kind in sorted(t):
        lines.append(
            f"  {kind:<14} n={len(t[kind]):<4} "
            f"{_p50_ms(p[kind]):10.3f} {_p50_ms(t[kind]):10.3f}"
        )
    for q in (50, 90):
        lines.append(
            f"  {'op_p%d' % q:<14} n={len(traced.latency):<4} "
            f"{percentile(plain.latency, q) * 1e3:10.3f} "
            f"{percentile(traced.latency, q) * 1e3:10.3f}"
        )
    return "\n".join(lines)
