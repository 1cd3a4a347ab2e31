"""The ``serve`` workload: an open loop against a ``repro serve`` daemon.

The run spawns several daemons as subprocesses, one after another, and
times each spawn until its first successful ``ping``.  Each daemon runs
one untimed warm-up job, then serves its share of the schedule: a
single-threaded generator submits small ``dlrm_quickstart`` jobs on a
fixed schedule (due times computed up front, never from completions),
one connection at a time.  Job seeds come from a small
pool, so specs repeat across tenants.  Each job is timed from its due
time to the ``finished_at`` stamp in its record, so a stall that delays
later submissions still counts against them; the generator reports how
late it ran.  Every results payload must equal ``one_shot_payload`` of
its spec.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.service import (
    AdmissionClosedError,
    DaemonUnavailableError,
    JobSpec,
    QuotaExceededError,
    ServiceClient,
    ServiceError,
    TERMINAL_STATES,
    one_shot_payload,
)

from . import measure
from .outcome import Outcome
from .tracing import Tracer, maybe_span

#: offered load: about a fifth of the daemon's capacity for these jobs
#: (a job runs about 0.2 s), so turnaround measures service time plus
#: ordinary queueing, not a backlog that grows whenever the host slows
RATE_JOBS_PER_S = 1.0
MAX_CONCURRENT = 2
JOB_STEPS = 4
TENANTS = 4
#: job seeds come from a small pool, so specs repeat across tenants
SEED_POOL = 8
#: turnaround tail: the highest percentile with >= 10 of the run's
#: ~50 jobs (50 s at 1 job/s) beyond it
TAIL_PERCENTILE = 80.0
#: the schedule is split evenly over this many daemons, spawned one
#: after another: each spawn is a setup_s sample and each daemon's peak
#: memory a peak_rss_mb sample (a daemon's resident set settles at a
#: level that differs from one daemon to the next)
DAEMONS = 3
#: after the last submission, how long jobs may take to finish
DRAIN_TIMEOUT_S = 90.0
POLL_S = 0.02
FINAL_WINDOW = 10


class Daemon:
    """A ``repro serve`` subprocess rooted in ``spool``."""

    def __init__(self, root: pathlib.Path, spool: pathlib.Path, socket_path: str):
        self.spool = spool
        self.log = open(spool.parent / f"{spool.name}.log", "wb")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--spool", str(spool),
                "--socket", socket_path,
                "--max-concurrent", str(MAX_CONCURRENT),
                "--backend", "serial",
            ],
            cwd=str(root),
            env=env,
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        self.client = ServiceClient(socket_path, timeout=60.0)
        deadline = started + 60.0
        while True:
            try:
                self.client.ping()
                break
            except DaemonUnavailableError:
                if self.process.poll() is not None or time.perf_counter() > deadline:
                    self.stop()
                    raise RuntimeError(f"daemon did not come up (see {self.log.name})")
                time.sleep(0.005)
        self.setup_s = time.perf_counter() - started

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


def open_loop(client: ServiceClient, jobs: List[Dict[str, Any]], tracer: Optional[Tracer],
              traced_from: int) -> None:
    """Submit ``jobs`` on their schedule; fills in ids, lateness, errors."""
    base_perf = time.perf_counter() + 0.05
    base_wall = time.time() + 0.05
    for position, job in enumerate(jobs):
        offset = position / RATE_JOBS_PER_S
        due = base_perf + offset
        job["due_wall"] = base_wall + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        job["late_s"] = sent - due
        try:
            with maybe_span(tracer if job["index"] >= traced_from else None, "service.submit"):
                record = client.submit(job["tenant"], job["spec"])
            job["job_id"] = record["job_id"]
        except (QuotaExceededError, AdmissionClosedError) as error:
            job["rejected"] = error.code
        except ServiceError as error:
            job["error"] = f"{error.code}: {error}"
        job["rtt_s"] = time.perf_counter() - sent


def await_jobs(client: ServiceClient, jobs: List[Dict[str, Any]]) -> None:
    """Poll every admitted job until it is terminal; records its record."""
    pending = [job for job in jobs if "job_id" in job]
    deadline = time.perf_counter() + DRAIN_TIMEOUT_S
    while pending and time.perf_counter() < deadline:
        still = []
        for job in pending:
            record = client.status(job["job_id"])
            if record["state"] in TERMINAL_STATES:
                job["record"] = record
            else:
                still.append(job)
        pending = still
        if pending:
            time.sleep(POLL_S)


def warm_up(client: ServiceClient, spec: Dict[str, Any]) -> bool:
    """Run one untimed job, so the daemon's lazy imports are done before
    its share of the schedule; True if it finished ``done``."""
    job = {"job_id": client.submit("warm-up", spec)["job_id"]}
    await_jobs(client, [job])
    return job.get("record", {}).get("state") == "done"


def job_summary(spool: pathlib.Path, job_id: str) -> Dict[str, Any]:
    path = spool / "runs" / job_id / "telemetry" / "summary.json"
    return json.loads(path.read_text()) if path.exists() else {}


def summary_total(summaries: List[Dict[str, Any]], name: str) -> float:
    """Sum of a counter, or of a histogram's observations, over every
    label series of every job summary."""
    total = 0.0
    for summary in summaries:
        for cell in summary.get("counters", {}).get(name, {}).values():
            total += cell
        for cell in summary.get("histograms", {}).get(name, {}).values():
            total += cell["total"]
    return total


#: per-layer metrics read from the jobs' own telemetry (per job)
SUMMARY_LAYERS = {
    "data.batches": "pipeline.batches",
    "data.fetch_s": "span.fetch_shard",
    "controller.sample_s": "span.sample",
    "controller.update_s": "span.policy_update",
    "eval.price_s": "span.price",
    "supernet.score_s": "span.score",
    "supernet.weight_update_s": "span.weight_update",
    "checkpoint.saves": "checkpoint.saves",
    "checkpoint.save_s": "checkpoint.save_seconds",
}


def serve_workload(seed: int, seconds: float, trace: bool, workdir: pathlib.Path,
                   root: pathlib.Path) -> Outcome:
    out = Outcome()
    rng = random.Random(seed)
    seeds = [seed * 1000 + i for i in range(SEED_POOL)]
    count = max(measure.min_samples(TAIL_PERCENTILE), int(round(seconds * RATE_JOBS_PER_S)))
    jobs = [
        {
            "index": index,
            "tenant": f"tenant-{rng.randrange(TENANTS)}",
            "spec": {
                "kind": "dlrm_quickstart",
                "steps": JOB_STEPS,
                "seed": rng.choice(seeds),
                "checkpoint_every": 1,
            },
        }
        for index in range(count)
    ]
    tracer = Tracer(f"serve:{seed}") if trace else None
    # Traced runs trace the second half of the schedule; the first half
    # is the untraced baseline of the tracing overhead.
    traced_from = count // 2 if trace else count

    setups, rss_peaks, spans, warm = [], [], [], []
    for index in range(DAEMONS):
        share = jobs[index * count // DAEMONS:(index + 1) * count // DAEMONS]
        spool = workdir / f"spool{index}"
        daemon = Daemon(root, spool, os.path.relpath(workdir / f"d{index}.sock"))
        try:
            setups.append(daemon.setup_s)
            warm.append(warm_up(daemon.client, jobs[0]["spec"]))
            open_loop(daemon.client, share, tracer, traced_from)
            await_jobs(daemon.client, share)
            rss_peaks.append(measure.peak_rss_mb(daemon.process.pid))
            for job in share:
                if job.get("record", {}).get("state") == "done":
                    job["results"] = daemon.client.results(job["job_id"])
                    job["summary"] = job_summary(spool, job["job_id"])
        finally:
            daemon.stop()
        finished = [job["record"]["finished_at"] for job in share if "results" in job]
        if finished:
            spans.append(max(finished) - share[0]["due_wall"])

    references = {
        s: one_shot_payload(JobSpec.from_dict({**jobs[0]["spec"], "seed": s}))
        for s in sorted({job["spec"]["seed"] for job in jobs})
    }
    done = [job for job in jobs if "results" in job]
    rejected = [job for job in jobs if "rejected" in job]
    out.attempted += len(jobs)
    out.failed += len(jobs) - len(done)
    for spec_seed, reference in references.items():
        same = [job for job in done if job["spec"]["seed"] == spec_seed]
        out.check(
            f"serve: all {len(same)} done jobs of seed {spec_seed} equal one_shot_payload",
            all(job["results"] == reference for job in same),
        )
    out.check(f"serve: every daemon's warm-up job is done ({sum(warm)}/{DAEMONS})", all(warm))
    lateness = [job["late_s"] for job in jobs]
    out.check(
        "serve: the generator kept its schedule (no send later than one interval)",
        max(lateness) < 1.0 / RATE_JOBS_PER_S,
    )
    for job in jobs:
        if "error" in job:
            print(f"serve: job failed to submit: {job['error']}", file=sys.stderr)
        elif "job_id" in job and "results" not in job:
            print(f"serve: {job['job_id']} ended {job.get('record', {}).get('state')}: "
                  f"{job.get('record', {}).get('error')}", file=sys.stderr)
    if not done:
        return out

    turnaround = [job["record"]["finished_at"] - job["due_wall"] for job in done]
    # each daemon's first due time -> its last finish, summed over daemons
    span_s = sum(spans)
    rewards = [job["results"]["rewards"][-FINAL_WINDOW:] for job in done]
    final_reward = sum(sum(r) / len(r) for r in rewards) / len(rewards)
    n = len(turnaround)
    tail = TAIL_PERCENTILE
    out.metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": 1e3 * np.percentile(turnaround, 50),
        "latency_tail_ms": 1e3 * np.percentile(turnaround, tail),
        "throughput_per_s": len(done) / span_s,
        "peak_rss_mb": statistics.median(rss_peaks),
    }
    out.report += [
        f"offered load = {RATE_JOBS_PER_S} jobs/s open loop, {count} jobs of {JOB_STEPS} steps "
        f"(checkpoint_every=1), {TENANTS} tenants, seeds {seeds}, "
        f"--max-concurrent {MAX_CONCURRENT}",
        f"{DAEMONS} daemons, each serving a third of the schedule after one warm-up job",
        f"daemon spawn to first ping = " + ", ".join(f"{s:.3f}" for s in setups) + " s",
        f"daemon peak memory = " + ", ".join(f"{mb:.1f}" for mb in rss_peaks) + " MB",
        f"generator lateness p50 = {1e3 * np.percentile(lateness, 50):.3f} ms, "
        f"max = {1e3 * max(lateness):.3f} ms",
        f"turnaround_p50_s = {np.percentile(turnaround, 50):.4f} s (n={n})",
        f"turnaround_p{tail:g}_s = {np.percentile(turnaround, tail):.4f} s "
        f"(n={n}, {measure.beyond(n, tail)} beyond)",
        f"jobs_per_s = {len(done) / span_s:.4f} jobs/s",
        f"rejected = {len(rejected)}, failed_ratio = {measure.ratio(out.failed, out.attempted):.4f}",
        f"final_reward = {final_reward:.6f} reward",
    ]

    if trace:
        out.tracers = [tracer]
        records = [job["record"] for job in done]
        summaries = [job["summary"] for job in done]
        hits = sum(job["results"]["cache_hits"] for job in done)
        misses = sum(job["results"]["cache_misses"] for job in done)
        rtts = [job["rtt_s"] for job in jobs[traced_from:]]
        untraced = [t for job, t in zip(done, turnaround) if job["index"] < traced_from]
        traced_turn = [t for job, t in zip(done, turnaround) if job["index"] >= traced_from]
        out.layers = {
            name: summary_total(summaries, metric) / n
            for name, metric in SUMMARY_LAYERS.items()
        }
        run_s = [r["finished_at"] - r["started_at"] for r in records]
        out.layers.update({
            "eval.candidates_priced": (hits + misses) / n,
            "eval.cache_hit_ratio": measure.ratio(hits, hits + misses),
            "service.submit_rtt_ms": 1e3 * statistics.median(rtts),
            "service.queue_wait_p50_s": statistics.median(
                [r["started_at"] - r["submitted_at"] for r in records]
            ),
            "service.run_p50_s": statistics.median(run_s),
            "service.rejected": float(len(rejected)),
            "controller.final_reward": final_reward,
        })
        if untraced and traced_turn:
            out.layers["trace.overhead_pct"] = 100.0 * (
                statistics.median(traced_turn) / statistics.median(untraced) - 1.0
            )
        rows = [
            ("run (started_at -> finished_at), mean", sum(run_s) / n),
            ("  search steps (span.step)", summary_total(summaries, "span.step") / n),
        ]
        rows += [
            (f"    {stage} (span.{stage})", summary_total(summaries, "span." + stage) / n)
            for stage in ("sample", "fetch_shard", "score", "price", "reward",
                          "policy_update", "weight_update")
        ]
        rows += [
            (f"  checkpoint saves x{out.layers['checkpoint.saves']:.1f} "
             "(checkpoint.save_seconds)", out.layers["checkpoint.save_s"]),
            ("queue wait p50", out.layers["service.queue_wait_p50_s"]),
            ("submit round trip p50", 1e-3 * out.layers["service.submit_rtt_ms"]),
        ]
        lines = [
            f"per-layer attribution, seconds per job ({n} jobs): job records "
            "beside the jobs' own telemetry",
            *(f"  {label:<46} {value:>9.4f}" for label, value in rows),
        ]
        out.report += lines
        out.trace_extra["jobs"] = [
            {k: job.get(k) for k in ("tenant", "spec", "job_id", "due_wall", "late_s",
                                     "rtt_s", "record", "rejected")}
            for job in jobs
        ]
    return out
