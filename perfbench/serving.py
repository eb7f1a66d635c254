"""The two serving passes every workload runs against a deployed fleet.

* **Open loop** — the workload's arrival schedule offered on the wall clock
  through the asyncio front end; gives ``decision_p50_ms`` and the
  reported tail.
* **Replay** — the same schedule replayed on the simulated clock through
  ``AlipayServer.replay_transactions(arrival_times_s=..., coalescer=...)``
  as fast as the program runs, on another, freshly set-up fleet; the
  schedule forms the batches, so the work is fixed and ``replay_rps`` only
  measures speed.

Both passes record the requests each flush carried, check that every
request is answered exactly once, in order, and hand the answers to the
workload's own output check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from harness import (
    check_answered_in_order,
    latency_metrics,
    measured,
    run_open_loop,
)

#: check(stack, answers, label, problems) -> report entries of the check.
OutputCheck = Callable[["Stack", Sequence[object], str, List[str]], Dict[str, object]]


@dataclass
class Stack:
    """One deployed system: the Alipay front end over its Model Server fleet."""

    alipay: object
    servers: List[object]
    hbase: object
    #: Seconds the offline T+1 cycle part of the set-up took.
    cycle_s: float
    extra: Dict[str, object] = field(default_factory=dict)
    #: The requests of each ``process_batch`` call of the last pass, in order.
    flushes: List[List[object]] = field(default_factory=list)


def record_flushes(stack: Stack) -> None:
    """Keep the requests of every flush the pass makes in ``stack.flushes``.

    Wraps ``process_batch`` on this front end only (each stack serves one
    pass); the coalescer calls it through the instance.  Costs one list copy
    per flush.
    """
    flushes: List[List[object]] = []
    process_batch = stack.alipay.process_batch

    def recording(requests, **kwargs):
        batch = list(requests)
        flushes.append(batch)
        return process_batch(batch, **kwargs)

    stack.alipay.process_batch = recording
    stack.flushes = flushes


def cache_counts(servers: Sequence[object]) -> Tuple[float, float]:
    """(hits, misses) summed over the fleet's private row caches."""
    hits = misses = 0.0
    for server in servers:
        stats = server.hbase.row_cache_stats()
        hits += stats["hits"]
        misses += stats["misses"]
    return hits, misses


def open_loop_pass(tracer, stack: Stack, transactions, arrival_s, coalescer,
                   check: OutputCheck, problems: List[str]) -> Tuple[Dict[str, float], Dict[str, object]]:
    from repro.serving.model_server import TransactionRequest

    requests = [TransactionRequest.from_transaction(txn) for txn in transactions]
    record_flushes(stack)
    before = cache_counts(stack.servers)
    result, _ = measured(tracer, "open_loop",
                         lambda: run_open_loop(stack.alipay, requests, arrival_s, coalescer))
    after = cache_counts(stack.servers)
    tracer.count("hbase.row_cache_hits", after[0] - before[0])
    tracer.count("hbase.row_cache_misses", after[1] - before[1])
    metrics, report = latency_metrics(result)
    program = stack.alipay.latency_report()
    report["program_latency_report_ms"] = {
        key: program[key] for key in ("count", "mean_ms", "p50_ms", "p99_ms")
    }
    with tracer.paused():
        check_answered_in_order(problems, "open loop", requests, result.served, result.completion_order)
        report.update(check(stack, result.served, "open loop", problems))
    return metrics, report


def replay_pass(tracer, stack: Stack, transactions, arrival_s, coalescer,
                check: OutputCheck, problems: List[str]) -> Tuple[float, Dict[str, object]]:
    record_flushes(stack)
    before = cache_counts(stack.servers)
    _, wall = measured(tracer, "replay", lambda: stack.alipay.replay_transactions(
        transactions, arrival_times_s=arrival_s, coalescer=coalescer, presorted=True,
    ))
    after = cache_counts(stack.servers)
    tracer.count("hbase.row_cache_hits", after[0] - before[0])
    tracer.count("hbase.row_cache_misses", after[1] - before[1])
    served = stack.alipay.served
    report: Dict[str, object] = {"replay_wall_s": wall}
    with tracer.paused():
        check_answered_in_order(problems, "replay", transactions, served)
        report.update({f"replay_{key}": value for key, value in check(stack, served, "replay", problems).items()})
    return len(transactions) / wall, report


def replay_reports(replays: Sequence[Tuple[float, Dict[str, object]]]) -> Dict[str, object]:
    """One report for several replay passes: each entry becomes a list."""
    merged: Dict[str, object] = {"replay_rps_each": [rps for rps, _ in replays]}
    for _, report in replays:
        for key, value in report.items():
            merged.setdefault(f"{key}_each", []).append(value)  # type: ignore[union-attr]
    return merged
