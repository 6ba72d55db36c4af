"""The processes of a benchmark run; ``run.py`` starts them.

``--mode setup`` builds the system under test, reports how long that took
since the parent started the process, and exits.  ``--mode run`` builds
it the same way, serves whole rounds of the workload from one
closed-loop client until ``--seconds`` of serving have passed, writes
every answer to a records file and prints its timings.  With
``--trace 1`` the client also times calls into each layer's public
functions on the same inputs, between operations, and prints those
instead.  ``--mode check`` then judges every recorded answer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from multiprocessing.reduction import ForkingPickler  # noqa: E402

from repro import (  # noqa: E402
    OptimizationContext,
    OptimizationService,
    Optimizer,
    check_finite,
    fingerprint,
    run_goo,
    validate_plan,
)
from repro.context.plancache import DEFAULT_CACHE_CAPACITY, replay_plan  # noqa: E402
from repro.context.store import DurableStore, TieredPlanCache  # noqa: E402
from repro.core.optimizer import run_dpconv  # noqa: E402
from repro.cost import CoutCostModel  # noqa: E402
from repro.errors import OptimizationError  # noqa: E402
from repro.service.sharded import ShardedService  # noqa: E402
from repro.service.sharded.router import ConsistentHashRouter  # noqa: E402
from repro.service.sharded.wire import WireRequest, WireResponse, strip_response  # noqa: E402

import check  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402

#: Every per-layer metric with its unit; a layer that is not on a
#: workload's path reads 0 there (README.md has the table).
LAYER_UNITS = {
    "core.optimize_ms": "ms",
    "core.ccps_enumerated": "count/query",
    "core.trees_created": "count/query",
    "core.bound_rejections": "count/query",
    "core.memo_entries": "count/query",
    "core.routed_dpconv": "count/round",
    "core.routing_regret_ms": "ms/round",
    "heuristics.goo_ms": "ms",
    "baselines.dpccp_ms": "ms",
    "baselines.dpconv_ms": "ms",
    "context.for_query_ms": "ms",
    "context.fingerprint_ms": "ms",
    "context.cache_get_ms": "ms",
    "context.replay_ms": "ms",
    "context.cache_hits": "count/round",
    "context.cache_misses": "count/round",
    "context.neighbour_hits": "count/round",
    "context.neighbour_suboptimal": "count/round",
    "context.store_open_ms": "ms",
    "context.store_appends": "count/round",
    "plans.validate_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.service_ms": "ms",
    "service.handoff_ms": "ms",
    "sharded.shard_ms": "ms",
    "sharded.unattributed_ms": "ms",
    "sharded.route_ms": "ms",
    "sharded.wire_encode_ms": "ms",
    "sharded.wire_decode_ms": "ms",
    "sharded.response_bytes": "bytes",
    "process.cpu_ms_per_query": "ms",
}

STORE_OPEN_REPEATS = 5
SHARD_READY_TIMEOUT = 60.0


def percentile(values, p):
    """Nearest-rank percentile of ``values`` (0 < p <= 100)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def mean(values):
    return statistics.fmean(values) if values else 0.0


def timed(function, *args, **kwargs):
    started = time.perf_counter()
    value = function(*args, **kwargs)
    return value, time.perf_counter() - started


def proc_cpu_seconds(pid):
    """User + system CPU seconds of another process, from /proc."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Answer:
    """What the client keeps of one served operation."""

    __slots__ = (
        "plan", "cost", "status", "rung", "degraded", "error",
        "hit", "queue_wait", "service_time", "latency",
    )

    def __init__(self, plan, cost, latency, response=None):
        self.plan = plan
        self.cost = cost
        self.latency = latency
        self.status, self.rung, self.degraded, self.error = "ok", "exact", False, None
        self.hit = False
        self.queue_wait = self.service_time = 0.0
        if response is not None:
            self.status, self.rung = response.status, response.rung
            self.degraded, self.error = response.degraded, response.error
            self.queue_wait = response.queue_wait_seconds
            self.service_time = response.service_seconds
            if response.result is not None:
                self.hit = response.result.stats.plan_cache_hits > 0


class System:
    """The system under test for one workload, built from its public API."""

    def __init__(self, workload, workdir, seed):
        self.workload = workload
        self.service = None
        self.shard_pid = None
        if not workload.warm:
            self.optimizer = Optimizer(cost_model_factory=workload.cost_model)
        elif not workload.sharded:
            self.service = OptimizationService(
                workers=1, store_path=str(workloads.warm_log_path(workdir, False)), seed=seed
            ).start()
        else:
            self.service = ShardedService(
                shards=1,
                workers_per_shard=1,
                plan_cache_capacity=DEFAULT_CACHE_CAPACITY,
                store_dir=str(workloads.warm_log_path(workdir, True).parent),
                seed=seed,
            ).start()
            deadline = time.monotonic() + SHARD_READY_TIMEOUT
            while self.service.healthz().shards_up < 1:
                if time.monotonic() > deadline:
                    raise RuntimeError("shard did not come up")
                time.sleep(0.002)
            self.shard_pid = self.service.healthz().shards[0].pid

    def serve(self, query):
        """Serve one operation; returns the raw result and the latency."""
        if self.service is None:
            return timed(self.optimizer.optimize, query)
        return timed(self.service.optimize, query)

    def close(self):
        if self.service is not None:
            if self.workload.sharded:
                self.service.shutdown(drain=True, timeout=30.0)
            else:
                self.service.shutdown(drain=True)
            self.service = None


class LayerTrace:
    """Per-layer timings and counts, taken around calls from this file."""

    def __init__(self, workload, workdir):
        self.workload = workload
        self.samples = {name: [] for name in LAYER_UNITS}
        self.routed = 0
        self.hits = 0
        self.replica = None
        self.router = None
        self.signature = None
        if workload.warm:
            replica_path = workdir / "replica.rpl"
            shutil.copyfile(workdir / "pristine.rpl", replica_path)
            self.replica = TieredPlanCache.open(str(replica_path))
            self.signature = self.replica.warm_keys()[0].rsplit("|", 1)[0]
            self.router = ConsistentHashRouter(range(1))

    def add(self, name, value):
        self.samples[name].append(value)

    def walk(self, index, op, raw, answer):
        """Time the layers of one served operation on the same query."""
        query = workloads.fresh_copy(op.query)
        context, seconds = timed(
            OptimizationContext.for_query, query, cost_model=self.workload.cost_model
        )
        self.add("context.for_query_ms", seconds * 1e3)
        _, seconds = timed(run_goo, query, context.builder)
        self.add("heuristics.goo_ms", seconds * 1e3)
        _, seconds = timed(self._validate, answer.plan, op.query)
        self.add("plans.validate_ms", seconds * 1e3)
        if not self.workload.warm:
            self._core(raw, answer.latency)
            return
        fp, seconds = timed(fingerprint, op.query)
        self.add("context.fingerprint_ms", seconds * 1e3)
        _, seconds = timed(self.router.route, fp.key, (0,))
        self.add("sharded.route_ms", seconds * 1e3)
        self.hits += answer.hit
        if answer.hit:
            entry, seconds = timed(self.replica.get, f"{self.signature}|{fp.key}")
            if entry is not None:
                self.add("context.cache_get_ms", seconds * 1e3)
                _, seconds = timed(replay_plan, entry.canonical_plan, fp.mapping, context)
                self.add("context.replay_ms", seconds * 1e3)
        else:
            optimizer = Optimizer(cost_model_factory=self.workload.cost_model)
            result, seconds = timed(optimizer.optimize, workloads.fresh_copy(op.query))
            self._core(result, seconds)
        self._wire(index, op, raw)
        self.add("service.queue_wait_ms", answer.queue_wait * 1e3)
        self.add("service.service_ms", answer.service_time * 1e3)
        shard_ms = (answer.queue_wait + answer.service_time) * 1e3
        self.add("service.handoff_ms", answer.latency * 1e3 - shard_ms)
        self.add("sharded.shard_ms", shard_ms)
        self.add("sharded.unattributed_ms", answer.latency * 1e3 - shard_ms)

    @staticmethod
    def _validate(plan, query):
        check_finite(plan)
        validate_plan(plan, query)

    def _core(self, result, seconds):
        self.add("core.optimize_ms", seconds * 1e3)
        self.add("core.ccps_enumerated", result.stats.ccps_enumerated)
        self.add("core.trees_created", result.stats.trees_created)
        self.add("core.bound_rejections", result.stats.bound_rejections)
        self.add("core.memo_entries", result.memo_entries)
        self.routed += result.pruning == "dpconv"

    def _wire(self, index, op, raw):
        request = WireRequest(request_id=index, query=op.query, seed=index)
        response = WireResponse(shard_id=0, request_id=index, response=strip_response(raw))
        started = time.perf_counter()
        request_bytes = ForkingPickler.dumps(request)
        response_bytes = ForkingPickler.dumps(response)
        encoded = time.perf_counter()
        pickle.loads(request_bytes)
        pickle.loads(response_bytes)
        decoded = time.perf_counter()
        self.add("sharded.wire_encode_ms", (encoded - started) * 1e3)
        self.add("sharded.wire_decode_ms", (decoded - encoded) * 1e3)
        self.add("sharded.response_bytes", len(response_bytes))

    def store_open_ms(self, workdir):
        """Median time to open (and recover) a copy of the warm log."""
        times = []
        for attempt in range(STORE_OPEN_REPEATS):
            path = workdir / f"open-{attempt}.rpl"
            shutil.copyfile(workdir / "pristine.rpl", path)
            cache, seconds = timed(TieredPlanCache.open, str(path))
            cache.close()
            times.append(seconds * 1e3)
        return statistics.median(times)

    def close(self):
        if self.replica is not None:
            self.replica.close()


def segment_entries(workload, workdir):
    path = workloads.warm_log_path(workdir, workload.sharded)
    store = DurableStore(str(path), writable=False)
    try:
        return len(store.records)
    finally:
        store.close()


def build_rounds(workload, seed):
    """The fixed warm set (or None) and a function from round index to ops."""
    if workload.warm:
        warm_set = workloads.WarmSet()
        return warm_set, lambda index: warm_set.round(seed, index)
    mix = workloads.COUT_ROUTING_MIX if workload.cout else workloads.COLD_HAAS_MIX
    pool = workloads.cold_pool(mix, seed)
    return None, lambda index: workloads.cold_round(pool, seed, index)


def run(args, workload, system, workdir):
    """Serve whole rounds for ``args.seconds``; answers go to a records file.

    Each round's answers are written out before the next round starts,
    outside the measured time, so the client holds one round at a time
    and the peak memory reported does not grow with the run's length.
    """
    _, make_round = build_rounds(workload, args.seed)
    trace = LayerTrace(workload, workdir) if args.trace else None
    entries_before = segment_entries(workload, workdir) if workload.warm else 0
    shard_cpu_before = proc_cpu_seconds(system.shard_pid) if system.shard_pid else 0.0

    latencies = []  # one list of latencies (ms) per round
    round_rates = []
    slowdowns = []  # the host's slowdown over each round (see hostspeed.py)
    cpu = 0.0
    serving = 0.0
    rounds = 0
    speed = hostspeed.Speedometer()
    traced = 0.0  # a traced run counts its tracing against --seconds too
    with open(workdir / "records.pkl", "wb") as records:
        while rounds == 0 or serving + traced < args.seconds:
            ops = make_round(rounds)
            answers = []
            unserved = 0.0  # time spent tracing or sampling the host speed
            round_started = time.perf_counter()
            for op in ops:
                cpu_started = time.process_time()
                raw, latency = system.serve(op.query)
                cpu += time.process_time() - cpu_started
                answer = Answer(raw.plan, raw.cost, latency, None if system.service is None else raw)
                answers.append(answer)
                unserved += speed.served(latency)
                if trace is not None:
                    walk_started = time.perf_counter()
                    trace.walk(rounds * len(ops) + len(answers), op, raw, answer)
                    walked = time.perf_counter() - walk_started
                    unserved += walked
                    traced += walked
            round_seconds = time.perf_counter() - round_started - unserved
            serving += round_seconds
            round_rates.append(len(ops) / round_seconds)
            slowdowns.append(speed.round_slowdown())
            rounds += 1
            latencies.append([answer.latency * 1e3 for answer in answers])
            pickle.dump(list(zip(ops, answers)), records)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    shard_cpu = 0.0
    if system.shard_pid:
        peak_rss_mb += proc_peak_rss_mb(system.shard_pid)
        shard_cpu = proc_cpu_seconds(system.shard_pid) - shard_cpu_before
    system.close()

    samples = sum(len(served) for served in latencies)
    result = {
        "rounds": rounds,
        "samples": samples,
        "round_rates": round_rates,
        "slowdowns": slowdowns,
    }
    if trace is None:
        # At the reference host speed: each round's rate times the host's
        # slowdown over it, each latency divided by it.
        every = [
            latency / slowdown
            for served, slowdown in zip(latencies, slowdowns)
            for latency in served
        ]
        result["metrics"] = {
            "throughput_qps": {
                "value": statistics.median(
                    rate * slowdown for rate, slowdown in zip(round_rates, slowdowns)
                ),
                "unit": "1/s",
            },
            "latency_p50_ms": {"value": statistics.median(every), "unit": "ms"},
            "latency_tail_ms": {
                "value": percentile(every, workload.tail_percentile),
                "unit": "ms",
            },
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        return result
    values = {name: mean(taken) for name, taken in trace.samples.items()}
    values["process.cpu_ms_per_query"] = (cpu + shard_cpu) * 1e3 / samples
    values["core.routed_dpconv"] = trace.routed / rounds
    if workload.warm:
        hits = trace.hits
        values["context.cache_hits"] = hits / rounds
        values["context.cache_misses"] = (samples - hits) / rounds
        values["context.store_appends"] = (
            segment_entries(workload, workdir) - entries_before
        ) / rounds
        values["context.store_open_ms"] = trace.store_open_ms(workdir)
    trace.close()
    result["layers"] = values
    return result


def read_rounds(workdir):
    """The recorded ``(op, answer)`` pairs, one list per round."""
    with open(workdir / "records.pkl", "rb") as records:
        while True:
            try:
                yield pickle.load(records)
            except EOFError:
                return


def check_records(args, workload, workdir):
    """Judge every recorded answer against DPccp on the query asked.

    Runs in its own process after the measured one has exited, so the
    reference computation shares neither its time nor its memory.
    """
    warm_set, _ = build_rounds(workload, args.seed)
    neighbour = warm_set.neighbour_served() if warm_set else []
    optima, dpccp_ms, dpconv_ms, facade_ms = {}, {}, {}, {}
    attempted = failed = 0
    unexpected = {}
    neighbour_hits = neighbour_suboptimal = rounds = 0
    for served in read_rounds(workdir):
        rounds += 1
        for op, answer in served:
            if op.ref not in optima:
                query = warm_set.reference_query(op) if warm_set else workloads.fresh_copy(op.query)
                optima[op.ref], seconds = timed(check.reference_optimum, query, workload.cost_model)
                dpccp_ms[op.ref] = seconds * 1e3
                if args.trace and not workload.warm:
                    try:
                        _, seconds = timed(run_dpconv, workloads.fresh_copy(op.query), CoutCostModel)
                        dpconv_ms[op.ref] = seconds * 1e3
                    except OptimizationError:
                        pass  # not eligible: DPconv answers only under C_out
            facade_ms.setdefault(op.ref, []).append(answer.latency * 1e3)
            problems = check.plan_problems(
                answer.plan, answer.cost, op.query, optima[op.ref], cout=workload.cout
            )
            if workload.warm:
                problems += check.response_problems(answer)
            if op.kind == "near" and neighbour[op.ref[1]] and answer.hit:
                neighbour_hits += 1
                neighbour_suboptimal += bool(problems)
            attempted += 1
            if problems:
                failed += 1
                if not (op.kind == "near" and check.optimum_only(problems)):
                    unexpected.setdefault(op.kind, problems)
    for kind, problems in unexpected.items():
        print(f"unexpected failure on a {kind} operation: {problems}", file=sys.stderr)
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed}
    if args.trace:
        result["layers"] = {
            "baselines.dpccp_ms": mean(list(dpccp_ms.values())),
            "baselines.dpconv_ms": mean(list(dpconv_ms.values())),
            "context.neighbour_hits": neighbour_hits / rounds,
            "context.neighbour_suboptimal": neighbour_suboptimal / rounds,
            # The facade's time per distinct query (median over rounds)
            # minus the faster baseline that answers under this cost model.
            "core.routing_regret_ms": 0.0 if workload.warm else sum(
                statistics.median(times) - min(dpccp_ms[ref], dpconv_ms.get(ref, math.inf))
                for ref, times in facade_ms.items()
            ),
        }
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run", "check"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument(
        "--started", type=float,
        help="time.monotonic() in the parent just before it started this process",
    )
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.mode == "check":
        print(json.dumps(check_records(args, workload, args.workdir)))
        return
    system = System(workload, args.workdir, args.seed)
    setup_s = time.monotonic() - args.started
    try:
        result = {"setup_s": setup_s}
        if args.mode == "run":
            result.update(run(args, workload, system, args.workdir))
    finally:
        system.close()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
