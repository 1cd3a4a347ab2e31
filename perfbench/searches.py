"""The in-process workload: ``search``.

A closed loop over :meth:`SearchEngine.step`: each step starts when the
previous one returns.  A run executes complete searches back to back,
on seeds derived from the workload seed, until ``--seconds`` have
passed; the first seed runs twice, so every run checks that a search
repeats its result fingerprint.

In a traced run the first seed runs three times: once cold, once warm
and untraced, once traced; the wall-time gap between the last two (same
seed, same work) is the tracing overhead.  Per-layer numbers come from
the traced searches.
"""

from __future__ import annotations

import gc
import pickle
import statistics
import sys
import time
import traceback
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core import (
    H2ONas,
    SearchConfig,
    shutdown_pools,
)
from repro.core.engine import run_stage_task
from repro.data import CtrTaskConfig, CtrTeacher
from repro.searchspace import DlrmSpaceConfig, dlrm_search_space
from repro.service.jobs import platform_performance_fn, result_payload
from repro.supernet import DlrmSuperNetwork, DlrmSupernetConfig

from . import measure
from .outcome import Outcome
from .tracing import Tracer, TracedProxy, maybe_span, traced

NUM_TABLES = 2
NUM_CORES = 4
#: the search: long enough for the policy to converge inside one search
#: (explore phase all cache misses, exploit phase mostly hits)
SEARCH_STEPS = 150
#: weight-only warmup steps draw 4 distinct uniform candidates each: the
#: slowest steps of a search, and the ones its tail percentile measures
SEARCH_WARMUP = 20
SEARCH_POLICY_LR = 30.0
SEARCH_PLATFORM = "tpu_v4"
DIST_WORKERS = 2
#: mean reward over this many final steps is a search's final reward
FINAL_WINDOW = 10
#: traced runs trace from this search on; the ones before it run
#: the first seed cold, then warm and untraced as the overhead baseline
TRACE_FROM = 2
#: step-time tail percentile; a run continues past --seconds until at
#: least 10 steps lie beyond it
TAIL_PERCENTILE = 95.0


def derived_seeds(seed: int, repeats: int) -> Iterator[int]:
    """The run's search seeds: the first one ``repeats`` times, then
    fresh ones."""
    base = seed * 1000
    for _ in range(repeats - 1):
        yield base
    index = 0
    while True:
        yield base + index
        index += 1


def dlrm_space():
    return dlrm_search_space(
        DlrmSpaceConfig(num_tables=NUM_TABLES, num_dense_stacks=2)
    )


def new_supernet(seed: int) -> DlrmSuperNetwork:
    return DlrmSuperNetwork(DlrmSupernetConfig(num_tables=NUM_TABLES, seed=seed))


def new_batch_source(seed: int):
    teacher = CtrTeacher(
        CtrTaskConfig(num_tables=NUM_TABLES, batch_size=64, seed=seed)
    )
    return teacher.next_batch


def traced_performance_fn(performance_fn, tracer: Optional[Tracer]):
    if tracer is None:
        return performance_fn
    return TracedProxy(
        performance_fn,
        tracer,
        methods={"price_batch": "hardware.sim"},
        call="hardware.sim",
    )


def _score_counts(qualities, drawn, batches, groups) -> Dict[str, float]:
    passes = len(groups) if groups is not None else len(drawn)
    return {"supernet.passes": passes, "supernet.candidates": len(drawn)}


def _map_counts(results, fn, items) -> Dict[str, float]:
    if fn is not run_stage_task:
        return {}
    return {
        "engine.tasks": len(items),
        "engine.ipc_bytes": sum(
            len(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL))
            for task in items
        ),
    }


def instrument(engine, tracer: Tracer) -> None:
    """Span the engine's calls into the data, controller, eval-runtime,
    supernet and engine-backend layers (the performance fn is wrapped
    before construction, see :func:`traced_performance_fn`)."""
    engine.pipeline = TracedProxy(
        engine.pipeline,
        tracer,
        methods={"next_shard": "data.fetch"},
        counts={"next_shard": lambda batches, *a, **k: {"data.batches": len(batches)}},
    )
    engine.controller = TracedProxy(
        engine.controller,
        tracer,
        methods={"sample_many": "controller.sample", "update": "controller.update"},
    )
    engine.runtime = TracedProxy(
        engine.runtime, tracer, methods={"price_many": "eval.price"}
    )
    engine.backend = TracedProxy(
        engine.backend, tracer, methods={"map": None}, counts={"map": _map_counts}
    )
    engine.score_shard = traced(
        tracer, "supernet.score", engine.score_shard, _score_counts
    )
    engine.accumulate_shard_gradient = traced(
        tracer, "supernet.weight_update", engine.accumulate_shard_gradient
    )
    engine.optimizer_step = traced(
        tracer, "supernet.weight_update", engine.optimizer_step
    )


class SearchRun:
    """One complete search: its timings, result and trace."""

    def __init__(self, seed: int, setup_s: float, tracer: Optional[Tracer]):
        self.seed = seed
        self.setup_s = setup_s
        self.tracer = tracer
        self.step_s: List[float] = []
        self.wall_s = 0.0
        self.peak_rss_mb = 0.0
        self.failed_steps = 0
        self.result = None
        self.payload: Optional[Dict[str, Any]] = None
        self.tape: Dict[str, int] = {}

    @property
    def final_reward(self) -> float:
        rewards = self.payload["rewards"] if self.payload else []
        window = rewards[-FINAL_WINDOW:]
        return sum(window) / len(window) if window else float("nan")


def drive(engine, space, steps: int, run: SearchRun) -> SearchRun:
    """Step ``engine`` to completion, timing every ``step()`` call.

    Garbage from earlier searches is collected, the freed heap handed
    back to the system and the peak-memory mark restarted first, so
    ``run.peak_rss_mb`` is this search's peak.
    """
    gc.collect()
    measure.trim_heap()
    measure.reset_peak_rss()
    tracer = run.tracer
    history = []
    started = time.perf_counter()
    for step in range(steps):
        began = time.perf_counter()
        try:
            with maybe_span(tracer, "engine.step"):
                record = engine.step(step)
        except Exception:  # a failed step is reported, not fatal
            traceback.print_exc(file=sys.stderr)
            run.failed_steps = steps - step
            break
        run.step_s.append(time.perf_counter() - began)
        history.append(record)
    run.wall_s = time.perf_counter() - started
    run.peak_rss_mb = measure.peak_rss_mb()
    if not run.failed_steps:
        run.result = engine.build_result(history)
        run.payload = result_payload(space, run.result)
    tape_stats = getattr(engine.supernet, "tape_stats", None)
    run.tape = dict(tape_stats()) if tape_stats is not None else {}
    return run


def run_search(seed: int, backend: str, tracer: Optional[Tracer]) -> SearchRun:
    """The paper's loop: a simulator-priced single-step DLRM search."""
    started = time.perf_counter()
    space = dlrm_space()
    _, performance_fn, objectives = platform_performance_fn(space, SEARCH_PLATFORM)
    nas = H2ONas(
        space=space,
        supernet=new_supernet(seed),
        batch_source=new_batch_source(seed),
        performance_fn=traced_performance_fn(performance_fn, tracer),
        objectives=objectives,
        config=SearchConfig(
            steps=SEARCH_STEPS,
            num_cores=NUM_CORES,
            warmup_steps=SEARCH_WARMUP,
            policy_lr=SEARCH_POLICY_LR,
            seed=seed,
            backend=backend,
            workers=DIST_WORKERS if backend == "distributed" else None,
        ),
    )
    engine = nas.search_algorithm
    run = SearchRun(seed, time.perf_counter() - started, tracer)
    if tracer is not None:
        instrument(engine, tracer)
    return drive(engine, space, SEARCH_STEPS, run)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def stage_seconds(runs: List[SearchRun]) -> Dict[str, float]:
    """The program's own per-stage wall time, summed over ``runs``."""
    return measure.merge(
        [r.result.eval_stats.stage_seconds for r in runs if r.result is not None]
    )


def layer_metrics(runs: List[SearchRun]) -> Dict[str, float]:
    """Per-layer metrics of traced searches, per search."""
    count = len(runs)
    selfs = measure.merge([r.tracer.self_seconds() for r in runs])
    calls = measure.merge([r.tracer.calls() for r in runs])
    counts = measure.merge([dict(r.tracer.counts) for r in runs])
    stats = [r.result.eval_stats for r in runs if r.result is not None]
    hits = sum(s.cache_hits for s in stats)
    misses = sum(s.cache_misses for s in stats)
    tape = measure.merge([r.tape for r in runs])
    return {
        "data.batches": counts.get("data.batches", 0.0) / count,
        "data.fetch_s": selfs.get("data.fetch", 0.0) / count,
        "controller.sample_s": selfs.get("controller.sample", 0.0) / count,
        "controller.update_s": selfs.get("controller.update", 0.0) / count,
        "eval.candidates_priced": sum(s.candidates_priced for s in stats) / count,
        "eval.cache_hit_ratio": measure.ratio(hits, hits + misses),
        "eval.price_s": selfs.get("eval.price", 0.0) / count,
        "hardware.sim_calls": calls.get("hardware.sim", 0) / count,
        "hardware.sim_s": selfs.get("hardware.sim", 0.0) / count,
        "hardware.sim_ms_per_call": 1e3
        * measure.ratio(selfs.get("hardware.sim", 0.0), calls.get("hardware.sim", 0)),
        "supernet.score_s": selfs.get("supernet.score", 0.0) / count,
        "supernet.passes_per_candidate": measure.ratio(
            counts.get("supernet.passes", 0.0), counts.get("supernet.candidates", 0.0)
        ),
        "supernet.weight_update_s": selfs.get("supernet.weight_update", 0.0) / count,
        "nn.tape_hit_ratio": measure.ratio(
            tape.get("hits", 0), tape.get("hits", 0) + tape.get("misses", 0)
        ),
        "engine.tasks": counts.get("engine.tasks", 0.0) / count,
        "engine.ipc_bytes": counts.get("engine.ipc_bytes", 0.0) / count,
    }


def supernet_seconds(run: SearchRun) -> float:
    """Score plus weight-update span time of one traced search."""
    selfs = run.tracer.self_seconds()
    return selfs.get("supernet.score", 0.0) + selfs.get("supernet.weight_update", 0.0)


#: which traced layer spans each program stage's wall time should match
STAGE_LAYERS = {
    "sample": ("controller.sample",),
    "fetch_shard": ("data.fetch",),
    "score": ("supernet.score",),
    "price": ("eval.price", "hardware.sim"),
    "reward": (),
    "policy_update": ("controller.update",),
    "weight_update": ("supernet.weight_update",),
}


def attribution_report(runs: List[SearchRun]) -> Tuple[List[str], Dict[str, Any]]:
    """Traced self times beside the program's ``eval_stats.stage_seconds``,
    per search."""
    count = len(runs)
    stages = stage_seconds(runs)
    selfs = measure.merge([r.tracer.self_seconds() for r in runs])
    lines = [
        f"per-layer attribution, seconds per search ({count} traced):",
        f"  {'stage':<14} {'stage_seconds':>13} {'traced self':>12}  layers",
    ]
    rows = {}
    for stage, layers in STAGE_LAYERS.items():
        if stage not in stages:
            continue
        program = stages[stage] / count
        spans = sum(selfs.get(layer, 0.0) for layer in layers) / count
        rows[stage] = {"stage_seconds": program, "traced_self_s": spans, "layers": list(layers)}
        lines.append(
            f"  {stage:<14} {program:>13.4f} {spans:>12.4f}  {'+'.join(layers) or '-'}"
        )
    engine_self = selfs.get("engine.step", 0.0) / count
    lines.append(f"  {'(engine.step self)':<28} {engine_self:>12.4f}")
    return lines, rows


def step_metrics(step_s: List[float], candidates: int, window_s: float) -> Dict[str, float]:
    return {
        "latency_p50_ms": 1e3 * np.percentile(step_s, 50),
        "latency_tail_ms": 1e3 * np.percentile(step_s, TAIL_PERCENTILE),
        "throughput_per_s": candidates / window_s,
    }


def step_report(out: Outcome, step_s: List[float], window_s: float, candidates: int,
                final_reward: float) -> None:
    n = len(step_s)
    out.report += [
        f"candidates_per_s = {candidates / window_s:.3f} candidates/s "
        f"({candidates} candidates in {window_s:.2f} s)",
        f"step_p50_ms = {1e3 * np.percentile(step_s, 50):.3f} ms (n={n})",
    ]
    for q in (90.0, TAIL_PERCENTILE):
        out.report.append(
            f"step_p{q:g}_ms = {1e3 * np.percentile(step_s, q):.3f} ms "
            f"(n={n}, {measure.beyond(n, q)} beyond)"
        )
    out.report.append(f"final_reward = {final_reward:.6f} reward")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def search_workload(seed: int, seconds: float, trace: bool) -> Outcome:
    """The paper's loop on the serial backend, plus an untimed
    distributed twin of the first seed after the measured window."""
    out = Outcome()
    runs: List[SearchRun] = []
    # the first seed runs twice (three times traced) before fresh seeds
    min_runs = TRACE_FROM + 1 if trace else 2
    seeds = derived_seeds(seed, min_runs)
    started = time.perf_counter()
    try:
        needed = measure.min_samples(TAIL_PERCENTILE)
        while (
            len(runs) < min_runs
            or time.perf_counter() - started < seconds
            or sum(len(r.step_s) for r in runs) < needed
        ):
            index = len(runs)
            tracer = Tracer(f"search:{seed}:{index}") if trace and index >= TRACE_FROM else None
            runs.append(run_search(next(seeds), "serial", tracer))
        window_s = time.perf_counter() - started
        # The same seed on 2 loopback distributed workers: results must be
        # bit-identical, and (traced) it is where core.engine fan-out and
        # transport are measured.
        twin_tracer = Tracer(f"search:{seed}:distributed") if trace else None
        twin = run_search(runs[0].seed, "distributed", twin_tracer)
    finally:
        shutdown_pools()

    for run in runs + [twin]:
        out.attempted += SEARCH_STEPS
        out.failed += run.failed_steps
    done = [r for r in runs if r.payload is not None]
    first, again = runs[0], runs[1]
    out.check(
        f"search: fingerprint repeats for seed {first.seed}",
        first.payload is not None
        and again.payload is not None
        and first.payload["fingerprint"] == again.payload["fingerprint"],
    )
    out.check(
        "search: the distributed twin's fingerprint and final_reward equal the serial search's",
        first.payload is not None
        and twin.payload is not None
        and first.payload["fingerprint"] == twin.payload["fingerprint"]
        and first.final_reward == twin.final_reward,
    )
    if not done:
        return out

    step_s = [s for r in runs for s in r.step_s]
    candidates = NUM_CORES * len(step_s)
    final_reward = sum(r.final_reward for r in done) / len(done)
    out.metrics = {
        "setup_s": statistics.median([r.setup_s for r in runs]),
        **step_metrics(step_s, candidates, window_s),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
    }
    out.report.append(
        f"searches = {len(runs)} x {SEARCH_STEPS} steps, seeds {[r.seed for r in runs]}"
    )
    out.report.append(f"fingerprint[{first.seed}] = {first.payload and first.payload['fingerprint']}")
    step_report(out, step_s, window_s, candidates, final_reward)
    out.report.append(
        f"distributed twin (seed {twin.seed}, {DIST_WORKERS} loopback workers, untimed): "
        f"wall {twin.wall_s:.3f} s against {first.wall_s:.3f} s serial"
    )

    if trace:
        traced_runs = [r for r in runs if r.tracer is not None and r.result is not None]
        out.tracers = [r.tracer for r in traced_runs] + [twin_tracer]
        out.layers = layer_metrics(traced_runs)
        twin_counts = twin_tracer.counts
        out.layers.update({
            "controller.final_reward": final_reward,
            "trace.overhead_pct": 100.0 * (runs[TRACE_FROM].wall_s / again.wall_s - 1.0),
            "engine.tasks": twin_counts.get("engine.tasks", 0.0),
            "engine.ipc_bytes": twin_counts.get("engine.ipc_bytes", 0.0),
            "engine.remote_overhead_s": supernet_seconds(twin)
            - supernet_seconds(runs[TRACE_FROM]),
        })
        lines, rows = attribution_report(traced_runs)
        out.report += lines
        if twin.result is not None:
            twin_lines, twin_rows = attribution_report([twin])
            out.report += [line.replace("per-layer attribution", "distributed twin")
                           for line in twin_lines]
            rows = {"serial": rows, "distributed": twin_rows}
        out.trace_extra["stage_attribution"] = rows
    return out
