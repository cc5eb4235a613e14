"""The benchmark's two workloads and the metrics they report.

Every workload reports every end-to-end metric, so each name has one
definition that holds for both (see ``perfbench/README.md``):

* ``img_per_s`` — images completed per second with the system saturated.
* ``batch_ms_p50`` — wall time of one engine pass.
* ``latency_ms_p50`` — request latency from the time the request was due,
  at the nominal load.
* ``goodput_rps`` — images completed within the latency limit per
  scheduled second, at the overload rate.
* ``max_rps_within_slo`` — the highest offered rate whose requests meet
  the latency limit (99% within ``LIMIT_S``, shed and failed ones missing).
* ``setup_s`` and ``peak_rss_mb``.

The engine workload is a closed loop with one caller, so its nominal load
is its saturation load and its offered rate is its completion rate: its
latency metric equals its batch metric, and its goodput and maximum rate
are its within-limit completion rate.
"""

from __future__ import annotations

import gc
import itertools
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro import deploy
from repro.deploy import deployment as deploy_impl
from repro.engine import PIPELINE_COUNTERS
from repro.engine import optimizer as optimizer_mod
from repro.engine import program as program_mod
from repro.serving import (AdmissionController, DynamicBatcher, FleetServer,
                           OpenLoopPacer, ProcessFleetBackend, Request,
                           poisson_arrivals)
from repro.serving import server as server_mod

from spans import SpanRecorder

#: p99 latency limit, measured from each request's due time
LIMIT_S = 0.025
SLO_QUANTILE = 0.99
NOMINAL_RPS = 2000.0
OVERLOAD_RPS = 12000.0
#: ascending maximum-rate search ladder, its rungs back to back in each cycle
LADDER_RPS = (5000.0, 7000.0, 9000.0, 10000.0, 11000.0, 12000.0, 13000.0, 14000.0,
              16000.0)
#: idle scheduled time between phases, so one phase's backlog drains
GAP_S = 0.1
#: nominal-rate lead-in at the start of every serve
WARMUP_S = 0.1
#: scheduled seconds of one nominal / ladder / overload cycle (one serve)
CYCLE_S = 2.5
#: share of the run the traced run spends serving the process backend
PROCESS_SHARE = 0.1
#: closed-loop block length of the engine workload
BLOCK_S = 1.0
FLEET_MODELS = ("lenet_nano", "mobilenet_v1_nano")
FLEET_IMAGE_SIZE = 8
ENGINE_MODEL = "mobilenet_v1_nano"
ENGINE_IMAGE_SIZE = 16
BATCH = 8
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: measured and printed with the run's notes, but too unsteady on a shared
#: host to be end-to-end metrics (see README.md)
UNGATED = ("batch_ms_p99", "latency_ms_p99")
#: distinct images per model; requests reuse them, so each completed
#: request is checked against the in-process codes of its own image
IMAGE_POOL = 256
ENGINE_BATCH_POOL = 16


@dataclass
class Result:
    """What one workload run produced."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: dict


def iqm(values) -> float:
    """Interquartile mean: the mean of the middle half of the values.

    Used to combine per-block and per-cycle values.  The host's speed moves
    between states lasting seconds, so a median over blocks jumps between
    states while a mean moves smoothly with the time spent in each; an
    occasional stalled block (a collector pause, a preempted core) is
    dropped with the outer quarters.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def _quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ---------------------------------------------------------------------- #
# Per-layer wrappers
# ---------------------------------------------------------------------- #
def _request_arg(args, result):
    return args[1].request_id


def _popped_requests(args, result):
    return [req.request_id for req in result] if result else []


def compile_targets():
    """The names ``deploy.compile`` calls, one span name per phase."""
    return [
        (deploy, "compile", "deploy.compile", None, None),
        (server_mod, "deploy_compile", "deploy.compile", None, None),
        (deploy_impl, "quantize_static", "quant.calibrate", None, None),
        (deploy_impl, "lower_graph", "engine.plan.lower", None, None),
        (deploy_impl, "optimize_plan", "engine.optimizer.optimize", None, None),
        (optimizer_mod, "autotune_engine", "engine.optimizer.step_autotune", None, None),
        (program_mod, "compile_tape", "engine.program.tape_compile", None, None),
        (program_mod.TapeProgram, "autotune", "engine.program.tape_autotune", None, None),
        (deploy.Deployment, "save", "deploy.artifact_save", None, None),
    ]


def serving_targets():
    """The serving layers' public names, one span name each."""
    return [
        (FleetServer, "serve", "serving.server.serve", None, None),
        (AdmissionController, "consider", "serving.admission.consider",
         _request_arg, None),
        (DynamicBatcher, "push", "serving.batcher.push", _request_arg, None),
        (DynamicBatcher, "pop_batch", "serving.batcher.pop_batch",
         _popped_requests, None),
        (server_mod, "run_partial_groups", "engine.runner.run_partial_groups",
         None, None),
        (ProcessFleetBackend, "run", "serving.procfleet.run", None,
         lambda result: result[2]),
        (ProcessFleetBackend, "start", "serving.procfleet.start", None, None),
        (ProcessFleetBackend, "close", "serving.procfleet.close", None, None),
        (ProcessFleetBackend, "fault_stats", "serving.procfleet.fault_stats", None,
         lambda result: result),
    ]


def _p(values, q, scale=1.0) -> float:
    return _quantile(values, q) * scale if values else 0.0


def tape_metrics(profiles: list[tuple[float, object]]) -> dict:
    """Tape time per pass by op kind, weighted over ``(weight, profile)``."""
    groups = {"fill": 0.0, "gemm": 0.0, "chain": 0.0, "pool": 0.0, "other": 0.0}
    instructions = 0.0
    for weight, profile in profiles:
        instructions += weight * len(profile.steps)
        for step in profile.steps:
            kind = step.op
            key = ("fill" if "fill" in kind else "gemm" if "gemm" in kind
                   else "chain" if kind == "chain" else "pool" if "pool" in kind
                   else "other")
            groups[key] += weight * step.mean_ms
    metrics = {f"engine.program.{key}_ms": (value, "ms") for key, value in groups.items()}
    metrics["engine.program.tape_ms"] = (sum(groups.values()), "ms")
    metrics["engine.program.instructions"] = (instructions, "count")
    return metrics


def compile_metrics(recorder: SpanRecorder, setups: int, counters: dict) -> dict:
    """Compile-phase seconds per set-up, and pipeline counter deltas."""
    names = {
        "quant.calibrate_s": "quant.calibrate",
        "engine.plan.lower_s": "engine.plan.lower",
        "engine.optimizer.optimize_s": "engine.optimizer.optimize",
        "engine.optimizer.step_autotune_s": "engine.optimizer.step_autotune",
        "engine.program.tape_compile_s": "engine.program.tape_compile",
        "engine.program.tape_autotune_s": "engine.program.tape_autotune",
        "deploy.artifact_save_s": "deploy.artifact_save",
    }
    metrics = {metric: (sum(recorder.durations(span)) / setups, "s")
               for metric, span in names.items()}
    for key, value in counters.items():
        metrics[f"engine.counters.{key}"] = (float(value), "count")
    return metrics


# ---------------------------------------------------------------------- #
# engine_offline
# ---------------------------------------------------------------------- #
def _compile_engine() -> deploy.Deployment:
    config = deploy.CompileConfig(image_size=ENGINE_IMAGE_SIZE,
                                  runtime=deploy.RuntimeConfig(batch_size=BATCH))
    return deploy.compile(ENGINE_MODEL, config)


def _closed_loop(dep, batches, references, blocks: int, state: dict):
    """Run ``Deployment.run`` back to back for ``blocks`` blocks of ``BLOCK_S``.

    Returns each block's call times; every call's codes are checked.
    """
    per_block: list[list[float]] = []
    for _ in range(blocks):
        times: list[float] = []
        block_end = time.perf_counter() + BLOCK_S
        while time.perf_counter() < block_end:
            index = state["calls"] % len(batches)
            start = time.perf_counter()
            out = dep.run(batches[index])
            times.append(time.perf_counter() - start)
            if not np.array_equal(out.codes, references[index]):
                state["mismatches"] += 1
            state["calls"] += 1
        per_block.append(times)
    return per_block


def _closed_loop_metrics(per_block) -> dict:
    """Per-block rates and percentiles, combined over blocks by :func:`iqm`."""
    img_per_s = iqm(BATCH * len(block) / sum(block) for block in per_block)
    within = iqm(BATCH * sum(1 for t in block if t <= LIMIT_S) / sum(block)
                 for block in per_block)
    p50 = iqm(_quantile(block, 0.5) for block in per_block) * 1e3
    return {
        "img_per_s": (img_per_s, "images/s"),
        "batch_ms_p50": (p50, "ms"),
        "latency_ms_p50": (p50, "ms"),
        "goodput_rps": (within, "req/s"),
        "max_rps_within_slo": (within, "req/s"),
    }


def _setup_engine():
    setup_times = []
    dep = None
    for _ in range(SETUP_REPEATS):
        dep = None
        start = time.perf_counter()
        dep = _compile_engine()
        warm = np.zeros(dep.input_shape)
        for _ in range(3):
            dep.run(warm)
        setup_times.append(time.perf_counter() - start)
    return dep, setup_times


def engine_offline(seed: int, seconds: float, recorder: SpanRecorder | None) -> Result:
    counters_before = PIPELINE_COUNTERS.snapshot()
    if recorder is None:
        dep, setup_times = _setup_engine()
    else:
        with recorder.installed(compile_targets()):
            dep, setup_times = _setup_engine()
    counters = PIPELINE_COUNTERS.delta(counters_before)

    rng = np.random.default_rng(seed)
    batches = [rng.standard_normal(dep.input_shape) for _ in range(ENGINE_BATCH_POOL)]
    # Output check: the tape must match the steps interpreter of the same
    # plan bit for bit on every seeded batch.
    steps_engine = dep.plan.bind(dep.input_shape, accumulate=dep.engine.accumulate,
                                 mode="steps")
    references = [steps_engine.run(batch).codes.copy() for batch in batches]
    tape_ok = all(np.array_equal(dep.run(batch).codes, ref)
                  for batch, ref in zip(batches, references))

    state = {"calls": 0, "mismatches": 0}
    blocks = max(2, round(seconds / BLOCK_S))
    notes = {"setup_repeats": SETUP_REPEATS, "tape_matches_steps": tape_ok}
    if recorder is None:
        per_block = _closed_loop(dep, batches, references, blocks, state)
        metrics = _closed_loop_metrics(per_block)
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        # Not an end-to-end metric: too unsteady to gate (see README.md).
        notes["batch_ms_p99"] = iqm(_quantile(block, 0.99) for block in per_block) * 1e3
    else:
        # Untraced and traced blocks alternate; the overhead is the median
        # of the per-pair ratios of their median call times.
        ratios = []
        for _ in range(blocks // 2):
            base = _closed_loop(dep, batches, references, 1, state)[0]
            with recorder.installed([(dep, "run", "deploy.Deployment.run", None, None)]):
                traced = _closed_loop(dep, batches, references, 1, state)[0]
            ratios.append(_quantile(traced, 0.5) / _quantile(base, 0.5))
        metrics = tape_metrics([(1.0, dep.profile(batches[0], repeats=50, level="tape"))])
        metrics.update(compile_metrics(recorder, SETUP_REPEATS, counters))
        metrics["bench.trace_overhead_pct"] = ((statistics.median(ratios) - 1.0) * 100, "%")
    notes["calls"] = state["calls"]
    return Result(correct=tape_ok and state["mismatches"] == 0, attempted=state["calls"],
                  failed=state["mismatches"], metrics=metrics, notes=notes)


# ---------------------------------------------------------------------- #
# fleet_thread_open
# ---------------------------------------------------------------------- #
@dataclass
class Phase:
    kind: str            # "nominal" | "ladder" | "overload"
    rate: float
    duration_s: float
    first: int           # request index range [first, last)
    last: int


def _add_arrivals(requests, image_index, offset: float, rate: float, duration: float,
                  rng: np.random.Generator, pools: dict, ids) -> float:
    """Append Poisson arrivals at ``rate`` over ``[offset, offset + duration)``.

    ``ids`` numbers requests across the whole run, so ids stay unique
    across its serves (the traced run keys spans by them).
    """
    times = offset + poisson_arrivals(rate, duration, rng)
    models = rng.integers(0, len(FLEET_MODELS), size=times.size)
    picks = rng.integers(0, IMAGE_POOL, size=times.size)
    for arrival, model_index, pick in zip(times, models, picks):
        model = FLEET_MODELS[model_index]
        requests.append(Request(request_id=next(ids), model=model,
                                arrival_s=float(arrival), image=pools[model][pick],
                                deadline_s=LIMIT_S))
        image_index.append(int(pick))
    return offset + duration


def build_cycle(cycle_s: float, rng: np.random.Generator, pools: dict, ids):
    """One cycle's open-loop stream of ``cycle_s`` scheduled seconds.

    A short nominal-rate lead-in (served and checked, feeding no metric),
    then the nominal rate, the ascending ladder and the overload rate.  An
    idle gap follows the lead-in, the nominal phase, the ladder and the
    overload phase, so one phase's backlog drains before the next; the
    ladder's rungs follow each other directly.  Returns the requests, the
    phases and each request's image-pool index.
    """
    usable = cycle_s - WARMUP_S - 4 * GAP_S
    plan = [("nominal", NOMINAL_RPS, 0.3 * usable)]
    plan += [("ladder", rate, 0.48 * usable / len(LADDER_RPS)) for rate in LADDER_RPS]
    plan.append(("overload", OVERLOAD_RPS, 0.22 * usable))
    requests: list[Request] = []
    image_index: list[int] = []
    phases: list[Phase] = []
    offset = _add_arrivals(requests, image_index, 0.0, NOMINAL_RPS, WARMUP_S, rng,
                           pools, ids) + GAP_S
    for position, (kind, rate, duration) in enumerate(plan):
        first = len(requests)
        offset = _add_arrivals(requests, image_index, offset, rate, duration, rng, pools,
                               ids)
        phases.append(Phase(kind, rate, duration, first, len(requests)))
        following = plan[position + 1][0] if position + 1 < len(plan) else None
        if not (kind == following == "ladder"):
            offset += GAP_S
    return requests, phases, image_index


def _nominal_stream(seconds: float, rng: np.random.Generator, pools: dict, ids):
    requests: list[Request] = []
    image_index: list[int] = []
    _add_arrivals(requests, image_index, 0.0, NOMINAL_RPS, seconds, rng, pools, ids)
    return requests, image_index


def _due_latency(req: Request, outcome) -> float | None:
    """Seconds from the request's due time to its completion."""
    if not outcome.completed:
        return None
    return outcome.release_s + outcome.latency_s - req.arrival_s


def _attainment(reqs, outcomes) -> float:
    """Share of requests completed within the limit (misses included)."""
    within = 0
    for req in reqs:
        latency = _due_latency(req, outcomes[req.request_id])
        if latency is not None and latency <= LIMIT_S:
            within += 1
    return within / len(reqs) if reqs else 1.0


def max_rate_within_slo(requests, rungs: list[Phase], outcomes) -> float:
    """Highest rate of one ladder sweep meeting the limit, interpolated.

    A rung meets the limit when 99% of its requests complete within it,
    and its backlog is not growing when the last quarter of its requests
    meets it too; its attainment is the lower of the two shares.  The rate
    is the highest passing rung's offered rate, interpolated linearly
    toward the next rung (when that one fails) at the 99% crossing.  A
    lower rung failing on a transient stall does not end the sweep.
    """
    measured = []
    for phase in rungs:
        reqs = requests[phase.first:phase.last]
        tail = reqs[len(reqs) * 3 // 4:]
        attained = min(_attainment(reqs, outcomes), _attainment(tail, outcomes))
        measured.append((len(reqs) / phase.duration_s, attained))
    passing = [i for i, (_, attained) in enumerate(measured) if attained >= SLO_QUANTILE]
    if not passing:
        return 0.0
    top = passing[-1]
    rate, attained = measured[top]
    if top + 1 < len(measured):
        next_rate, next_attained = measured[top + 1]
        share = (attained - SLO_QUANTILE) / (attained - next_attained)
        rate += (next_rate - rate) * share
    return rate


def _pass_times_ms(requests, outcomes) -> dict[str, list[float]]:
    """Per-model wall times of the engine passes that ran on a backlog.

    The one dispatch worker claims its next pass as soon as one ends when
    requests are waiting.  A pass all of whose requests were released
    before the previous pass completed therefore started at that
    completion, and the gap between the two completions is its wall time
    (claim, staging, execution and bookkeeping).  Passes that found the
    queue empty are skipped: their gap includes idle time.
    """
    passes: dict[float, list] = {}
    for req in requests:
        outcome = outcomes[req.request_id]
        if outcome.completed:
            finish = round(outcome.release_s + outcome.latency_s, 7)
            entry = passes.setdefault(finish, [req.model, outcome.release_s])
            entry[1] = max(entry[1], outcome.release_s)
    ordered = sorted(passes)
    times: dict[str, list[float]] = {model: [] for model in FLEET_MODELS}
    for earlier, later in zip(ordered, ordered[1:]):
        model, last_release = passes[later]
        if last_release <= earlier:
            times[model].append((later - earlier) * 1e3)
    return times


class FleetStats:
    """End-to-end fleet metrics, accumulated one cycle at a time.

    Each cycle's nominal percentiles, overload rates, ladder maximum and
    per-model pass-time percentiles are combined over cycles by
    :func:`iqm`; the two models' pass times are averaged with the 50/50
    mix weights.
    """

    def __init__(self) -> None:
        self.values: dict[str, list[float]] = {}
        self.table: dict[tuple, dict] = {}

    def _record(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def add(self, requests, phases: list[Phase], outcomes) -> None:
        nominal = next(p for p in phases if p.kind == "nominal")
        latencies = [lat for req in requests[nominal.first:nominal.last]
                     if (lat := _due_latency(req, outcomes[req.request_id])) is not None]
        self._record("latency_ms_p50", _p(latencies, 0.5, 1e3))
        self._record("latency_ms_p99", _p(latencies, 0.99, 1e3))
        overload = next(p for p in phases if p.kind == "overload")
        over = requests[overload.first:overload.last]
        self._record("img_per_s", sum(1 for r in over if outcomes[r.request_id].completed)
                     / overload.duration_s)
        self._record("goodput_rps",
                     _attainment(over, outcomes) * len(over) / overload.duration_s)
        self._record("max_rps_within_slo", max_rate_within_slo(
            requests, [p for p in phases if p.kind == "ladder"], outcomes))
        weight = 1.0 / len(FLEET_MODELS)
        passes = _pass_times_ms(requests, outcomes).values()
        self._record("batch_ms_p50", sum(weight * _p(t, 0.5) for t in passes))
        self._record("batch_ms_p99", sum(weight * _p(t, 0.99) for t in passes))
        for phase in phases:
            row = self.table.setdefault((phase.kind, phase.rate), {
                "phase": phase.kind, "rate_rps": phase.rate, "sent": 0, "completed": 0,
                "shed": 0, "failed": 0, "within_limit": 0})
            reqs = requests[phase.first:phase.last]
            status = [outcomes[req.request_id].status for req in reqs]
            row["sent"] += len(reqs)
            row["completed"] += status.count("completed")
            row["shed"] += status.count("shed")
            row["failed"] += status.count("failed")
            row["within_limit"] += round(_attainment(reqs, outcomes) * len(reqs))

    def metrics(self) -> dict:
        """The gated metrics; :data:`UNGATED` ones go to the run's notes."""
        units = {"img_per_s": "images/s", "goodput_rps": "req/s",
                 "max_rps_within_slo": "req/s"}
        return {name: (iqm(values), units.get(name, "ms"))
                for name, values in self.values.items() if name not in UNGATED}


def _reference_codes(server, pools) -> dict[str, np.ndarray]:
    """In-process ``Deployment.run_partial`` codes of every pool image."""
    references = {}
    for model in FLEET_MODELS:
        dep = server.cache.peek(model)
        pool = pools[model]
        references[model] = np.concatenate(
            [dep.run_partial(pool[i:i + BATCH]).codes for i in range(0, len(pool), BATCH)])
    return references


def _mismatches(requests, image_index, outcomes, references) -> int:
    return sum(1 for req, pick in zip(requests, image_index)
               if outcomes[req.request_id].completed
               and not np.array_equal(outcomes[req.request_id].codes,
                                      references[req.model][pick]))


def _make_server(backend: str, warm: bool = True) -> FleetServer:
    return FleetServer(list(FLEET_MODELS), batch_size=BATCH, image_size=FLEET_IMAGE_SIZE,
                       execution="real", backend=backend, workers=1, warm=warm)


def _setup_fleet(rng: np.random.Generator):
    setup_times = []
    server = None
    for _ in range(SETUP_REPEATS):
        server = None
        start = time.perf_counter()
        server = _make_server("thread")
        setup_times.append(time.perf_counter() - start)
    pools = {model: rng.standard_normal((IMAGE_POOL, *shape))
             for model, shape in server.input_shapes.items()}
    return server, setup_times, pools


def _serve(server, requests, interrupt):
    """One open-loop ``serve()``; the pre-built stream is kept out of the
    cyclic collector, since a live server never holds requests it has not
    yet received."""
    pacer = OpenLoopPacer(requests)
    interrupt.on_signal(pacer.abort)
    gc.collect()
    gc.freeze()
    try:
        report = server.serve(requests, pacing=pacer)
    finally:
        gc.unfreeze()
        interrupt.forget(pacer.abort)
    return report, {outcome.request_id: outcome for outcome in report.outcomes}


class Checks:
    """Attempted requests and the ones that failed or returned wrong codes."""

    def __init__(self, references) -> None:
        self.references = references
        self.attempted = self.failed = self.mismatches = 0

    def add(self, requests, image_index, outcomes) -> None:
        self.attempted += len(requests)
        self.mismatches += _mismatches(requests, image_index, outcomes, self.references)
        self.failed += sum(1 for outcome in outcomes.values() if outcome.failed)


def fleet_thread_open(seed: int, seconds: float, recorder: SpanRecorder | None,
                      interrupt) -> Result:
    rng = np.random.default_rng(seed)
    counters_before = PIPELINE_COUNTERS.snapshot()
    with recorder.installed(compile_targets()) if recorder else nullcontext():
        server, setup_times, pools = _setup_fleet(rng)
    counters = PIPELINE_COUNTERS.delta(counters_before)
    checks = Checks(_reference_codes(server, pools))

    # The traced run alternates untraced and traced cycles: the traced ones
    # give the per-layer numbers, the pair gives the trace overhead.
    stats, untraced = FleetStats(), FleetStats()
    layers = LayerStats() if recorder is not None else None
    cycles = max(2 if recorder else 1, round(seconds / CYCLE_S))
    ids = itertools.count()
    for cycle in range(cycles):
        traced = recorder is not None and cycle % 2 == 1
        requests, phases, image_index = build_cycle(CYCLE_S, rng, pools, ids)
        with recorder.installed(serving_targets()) if traced else nullcontext():
            report, outcomes = _serve(server, requests, interrupt)
        (untraced if recorder is not None and not traced else stats).add(
            requests, phases, outcomes)
        checks.add(requests, image_index, outcomes)
        if traced:
            layers.add(requests, outcomes, report)
    if recorder is not None:
        with recorder.installed(serving_targets()):
            _process_layer(server, pools, seconds, rng, ids, checks, interrupt)

    if recorder is None:
        metrics = stats.metrics()
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        faulted = False
    else:
        metrics = layers.metrics(recorder, server)
        metrics.update(process_metrics(recorder))
        profiles = [(1.0 / len(FLEET_MODELS),
                     server.cache.peek(model).profile(repeats=50, level="tape"))
                    for model in FLEET_MODELS]
        metrics.update(tape_metrics(profiles))
        metrics.update(compile_metrics(recorder, SETUP_REPEATS, counters))
        ratio = iqm(stats.values["latency_ms_p50"]) / iqm(untraced.values["latency_ms_p50"])
        metrics["bench.trace_overhead_pct"] = ((ratio - 1.0) * 100.0, "%")
        faulted = any(metrics[f"serving.procfleet.{key}"][0]
                      for key in ("respawns", "crashes", "timeouts"))
    notes = {"setup_repeats": SETUP_REPEATS, "cycles": cycles, "limit_ms": LIMIT_S * 1e3,
             "phases": list(stats.table.values()), "code_mismatches": checks.mismatches}
    if recorder is None:
        notes.update({name: iqm(stats.values[name]) for name in UNGATED})
    return Result(correct=checks.mismatches == 0 and checks.failed == 0 and not faulted,
                  attempted=checks.attempted, failed=checks.mismatches + checks.failed,
                  metrics=metrics, notes=notes)


def _process_layer(server, pools, seconds, rng, ids, checks, interrupt) -> None:
    """Serve a nominal-rate stream on ``backend="process"`` to trace procfleet.

    The process fleet reuses the thread fleet's compiled deployments, so
    it compiles nothing.
    """
    proc = _make_server("process", warm=False)
    for model in FLEET_MODELS:
        proc.cache.put(model, server.cache.peek(model))
    proc.warm_up()
    requests, image_index = _nominal_stream(PROCESS_SHARE * seconds, rng, pools, ids)
    _, outcomes = _serve(proc, requests, interrupt)
    checks.add(requests, image_index, outcomes)
    proc.close()


def process_metrics(recorder: SpanRecorder) -> dict:
    """``serving.procfleet.*`` from the wrapped backend calls.

    The supervisor counters must all read 0: served without a retry
    policy, a crash or a timeout raises out of ``serve()``.
    """
    tasks = recorder.durations("serving.procfleet.run")
    compute = recorder.samples.get("serving.procfleet.run", [])
    ipc = [task - work for task, work in zip(tasks, compute)]
    stats = recorder.samples.get("serving.procfleet.fault_stats", [])
    counts = {key: sum(s[key] for s in stats) for key in ("respawns", "crashes", "timeouts")}
    return {
        "serving.procfleet.task_ms_p50": (_p(tasks, 0.5, 1e3), "ms"),
        "serving.procfleet.task_ms_p99": (_p(tasks, 0.99, 1e3), "ms"),
        "serving.procfleet.compute_ms_p50": (_p(compute, 0.5, 1e3), "ms"),
        "serving.procfleet.ipc_ms_p50": (_p(ipc, 0.5, 1e3), "ms"),
        "serving.procfleet.ipc_ms_p99": (_p(ipc, 0.99, 1e3), "ms"),
        "serving.procfleet.tasks": (float(len(tasks)), "count"),
        "serving.procfleet.start_s": (
            statistics.median(recorder.durations("serving.procfleet.start")), "s"),
        "serving.procfleet.close_s": (
            statistics.median(recorder.durations("serving.procfleet.close")), "s"),
        "serving.procfleet.respawns": (float(counts["respawns"]), "count"),
        "serving.procfleet.crashes": (float(counts["crashes"]), "count"),
        "serving.procfleet.timeouts": (float(counts["timeouts"]), "count"),
    }


class LayerStats:
    """Per-layer numbers of the traced thread-fleet serves."""

    def __init__(self) -> None:
        self.admission: dict[str, int] = {}
        self.batches = self.filled = self.saved = 0
        self.utilization: list[float] = []
        self.lags_ms: list[float] = []

    def add(self, requests, outcomes, report) -> None:
        for key, value in report.metrics["admission"].items():
            self.admission[key] = self.admission.get(key, 0) + value
        for model in report.metrics["per_model"].values():
            self.batches += model["batches"]
            self.filled += model["mean_fill"] * model["batches"]
            self.saved += model["megabatch_saved_executions"]
        self.utilization.append(report.metrics["fleet"]["utilization"])
        self.lags_ms += [(outcomes[r.request_id].release_s - r.arrival_s) * 1e3
                         for r in requests if outcomes[r.request_id].release_s is not None]

    def metrics(self, recorder: SpanRecorder, server) -> dict:
        consider = recorder.durations("serving.admission.consider")
        pushed = {span[5]: span[3] for span in recorder.by_name("serving.batcher.push")}
        waits = [(span[3] - pushed[rid]) * 1e3
                 for span in recorder.by_name("serving.batcher.pop_batch")
                 for rid in span[5] if rid in pushed]
        partial = recorder.durations("engine.runner.run_partial_groups")
        cache = server.cache.stats()
        return {
            "serving.admission.consider_us_p50": (_p(consider, 0.5, 1e6), "us"),
            "serving.admission.decisions": (float(self.admission["considered"]), "count"),
            "serving.admission.shed_queue_full": (float(self.admission["shed_queue_full"]),
                                                  "count"),
            "serving.admission.shed_slo": (float(self.admission["shed_slo"]), "count"),
            "serving.admission.shed_preempted": (float(self.admission["preempted"]), "count"),
            "serving.batcher.queue_wait_ms_p50": (_p(waits, 0.5), "ms"),
            "serving.batcher.queue_wait_ms_p99": (_p(waits, 0.99), "ms"),
            "serving.batcher.mean_fill": (self.filled / self.batches, "requests"),
            "serving.server.megabatch_groups_per_pass": (
                self.batches / (self.batches - self.saved), "ratio"),
            "serving.server.dispatch_utilization": (statistics.fmean(self.utilization),
                                                    "ratio"),
            "engine.runner.run_partial_groups_ms_p50": (_p(partial, 0.5, 1e3), "ms"),
            "engine.runner.run_partial_groups_ms_p99": (_p(partial, 0.99, 1e3), "ms"),
            "serving.cache.hits": (float(cache["hits"]), "count"),
            "serving.cache.misses": (float(cache["misses"]), "count"),
            "serving.cache.compiles": (float(cache["misses"] - cache["disk_hits"]), "count"),
            "serving.workload.pacer_lag_ms_p99": (_p(self.lags_ms, 0.99), "ms"),
        }
