"""Workload ``serve_warm``: a small, fully published store under steady load.

300 accounts, every profile, embedding and aggregate row published; the
paper's full plan (52 basic features, 12 windowed 14-day aggregates, DeepWalk
and Structure2Vec blocks for both endpoints); 80 depth-3 GBDT trees; four
routed replicas with streaming write-through on.  Arrivals are evenly spaced
at 120 requests/s, inside the 50 ms limit, so coalesced batches hold about
one row and per-call costs dominate: the GBDT walk, plan assembly, HBase
hits and one write-through per event.

Checks:

* every request answered exactly once, in arrival order;
* each touched account's final HBase aggregate row equals the brute-force
  window over the event log as of its last write;
* each served probability equals (within ``PROBABILITY_TOLERANCE``) the
  reference tree walk over a vector assembled offline from the profiles,
  the trained embeddings and brute-force aggregate rows.  The rows are those
  as of the start of the request's own flush: the fleet scores a flush
  before it ingests any of it (micro-batch freshness), and every earlier
  flush's write-through must already be visible.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Dict, List

import numpy as np

from harness import (
    WorkloadResult,
    checksum,
    freeze_inputs,
    measured,
    median,
    peak_rss_mb,
    timed,
    transaction_record,
)
from reference import account_row, ensemble_of, event_time, events_by_account, row_mismatch
from serving import Stack, open_loop_pass, replay_pass, replay_reports
from worlds import (
    FEATURE_TABLE,
    FLEET_SIZE,
    TEST_DAY,
    WORLD_SEED,
    WINDOW_SECONDS,
    aggregation,
    fleet,
    history_of,
    hyperparameters,
    profile_records,
    reference_vectors,
    slice_of,
    small_world,
    unembedded_share,
    warm_imports,
)

RATE_PER_S = 120.0
SETUP_REPS = 3
#: Requests come from the days after the training cut, in event order.
REQUEST_DAYS = 6
PROBABILITY_TOLERANCE = 1e-12


def coalescer():
    from repro.serving.coalescer import CoalescerConfig

    return CoalescerConfig(max_batch=64, max_delay_ms=5.0)


def configuration():
    from repro.core.config import DetectorName, FeatureSetName, Table1Configuration

    return Table1Configuration(11, DetectorName.GBDT, FeatureSetName.BASIC_DW_S2V)


class AggregateTimeline:
    """Brute-force aggregate rows of every account at every request boundary.

    Before any request, an account's stored row is the published snapshot
    (the window over the history as of one second before test-day
    midnight).  Ingesting request *j* rewrites the rows of its payer and
    payee as of the event-time watermark at that moment.
    """

    def __init__(self, history, requests) -> None:
        self.history = events_by_account(history)
        self.requests = requests
        self.touches: Dict[str, List[int]] = defaultdict(list)
        self.watermark: List[float] = []
        mark = max(event_time(txn) for txn in history)
        for index, txn in enumerate(requests):
            self.touches[txn.payer_id].append(index)
            if txn.payee_id != txn.payer_id:
                self.touches[txn.payee_id].append(index)
            mark = max(mark, event_time(txn))
            self.watermark.append(float(mark))
        self._rows: Dict[tuple, Dict[str, object]] = {}

    def last_touch_before(self, account: str, boundary: int) -> int:
        touches = self.touches.get(account, [])
        position = bisect.bisect_left(touches, boundary)
        return touches[position - 1] if position else -1

    def row_before(self, account: str, boundary: int) -> Dict[str, object]:
        """The stored row of ``account`` once requests [0, boundary) are ingested."""
        last = self.last_touch_before(account, boundary)
        key = (account, last)
        row = self._rows.get(key)
        if row is None:
            history = self.history.get(account, [])
            if last < 0:
                row = account_row(history, account, as_of=TEST_DAY * 86_400 - 1,
                                  window_seconds=WINDOW_SECONDS)
            else:
                own = [self.requests[i] for i in self.touches[account] if i <= last]
                row = account_row(history + own, account, as_of=self.watermark[last],
                                  window_seconds=WINDOW_SECONDS)
            self._rows[key] = row
        return row


class Inputs:
    """Everything generated before any timed region.

    The world (history, and so the trained model and the published store)
    is fixed by ``WORLD_SEED``: the work a set-up or a request costs depends
    strongly on the trained trees' shapes, and a world per seed would make
    the spread across seeds that, not the program's speed.  ``seed`` draws
    the traffic: a random subset of the post-cut transfers, in event order.
    """

    def __init__(self, seed: int, seconds: float) -> None:
        self.world = small_world(WORLD_SEED, num_days=TEST_DAY + REQUEST_DAYS)
        self.dataset = slice_of(self.world)
        count = int(round(RATE_PER_S * seconds))
        candidates = sorted(
            self.world.transactions_in_days(TEST_DAY, TEST_DAY + REQUEST_DAYS),
            key=lambda txn: (event_time(txn), txn.transaction_id),
        )
        if len(candidates) < count:
            raise RuntimeError(f"world has {len(candidates)} requests, run needs {count}")
        chosen = np.sort(np.random.default_rng(seed).choice(len(candidates), size=count, replace=False))
        self.requests = [candidates[i] for i in chosen]
        self.arrival_s = [index / RATE_PER_S for index in range(count)]
        self.history = history_of(self.dataset)
        self.checksum = checksum(
            [transaction_record(txn) for txn in self.history + self.requests]
            + [tuple(self.arrival_s)]
            + profile_records(self.world.profiles)
        )


def build(inputs: Inputs) -> Stack:
    """Train, publish and deploy: the whole daily cycle, then the front end."""
    from repro.core.pipeline import OfflineTrainingPipeline
    from repro.hbase.client import HBaseClient
    from repro.serving.alipay import AlipayServer
    from repro.serving.router import ServingRouter

    def cycle():
        pipeline = OfflineTrainingPipeline(
            inputs.world.profiles_by_id, hyperparameters(WORLD_SEED),
            aggregation=aggregation(),
        )
        preparation = pipeline.prepare(inputs.dataset)
        bundle = pipeline.train(preparation, configuration())
        hbase = HBaseClient()
        servers = fleet(hbase)
        updater = pipeline.deploy_fleet(bundle, preparation, hbase, servers)
        return preparation, bundle, hbase, servers, updater

    (preparation, bundle, hbase, servers, updater), cycle_s = timed(cycle)
    alipay = AlipayServer(servers, feature_updater=updater, router=ServingRouter(FLEET_SIZE))
    return Stack(alipay=alipay, servers=servers, hbase=hbase, cycle_s=cycle_s,
                 extra={"preparation": preparation, "bundle": bundle})


def make_check(inputs: Inputs, timeline: AggregateTimeline):
    from repro.hbase.client import AGGREGATES_FAMILY

    requests = inputs.requests
    profiles = inputs.world.profiles_by_id

    def check(stack: Stack, served, label: str, problems: List[str]) -> Dict[str, object]:
        position = {txn.transaction_id: index for index, txn in enumerate(requests)}
        flush_start = np.full(len(requests), -1)
        for flush in stack.flushes:
            indices = [position[request.transaction_id] for request in flush]
            if indices != list(range(indices[0], indices[0] + len(indices))):
                problems.append(f"{label}: a flush carried requests out of arrival order")
                return {}
            flush_start[indices] = indices[0]
        if (flush_start < 0).any() or sum(len(flush) for flush in stack.flushes) != len(requests):
            problems.append(f"{label}: the flushes did not carry every request exactly once")
            return {}

        rows = [(timeline.row_before(txn.payer_id, start), timeline.row_before(txn.payee_id, start))
                for txn, start in zip(requests, flush_start)]
        bundle = stack.extra["bundle"]
        expected = ensemble_of(bundle.detector).predict_proba(reference_vectors(
            bundle.plan, requests, profiles, stack.extra["preparation"].embeddings, rows))
        answered = np.array([answer.response.fraud_probability for answer in served])
        wrong = int((np.abs(answered - expected) > PROBABILITY_TOLERANCE).sum())
        if wrong:
            problems.append(f"{label}: {wrong} probabilities differ from the reference walk "
                            "as of the start of their flush")

        bad_rows = []
        for account in timeline.touches:
            stored = stack.hbase.get(FEATURE_TABLE, account, AGGREGATES_FAMILY)
            mismatch = row_mismatch(stored, timeline.row_before(account, len(requests)))
            if mismatch:
                bad_rows.append(f"{account}: {mismatch}")
        if bad_rows:
            problems.append(f"{label}: {len(bad_rows)} final aggregate rows differ, e.g. {bad_rows[0]}")
        return {"requests_behind_others_in_flush": int((flush_start != np.arange(len(requests))).sum()),
                "aggregate_rows_checked": len(timeline.touches)}

    return check


def run(seed: int, seconds: float, tracer) -> WorkloadResult:
    warm_imports()
    inputs = Inputs(seed, seconds)
    timeline = AggregateTimeline(inputs.history, inputs.requests)
    check = make_check(inputs, timeline)
    freeze_inputs()
    problems: List[str] = []
    setups: List[float] = []
    cycles: List[float] = []

    def set_up() -> Stack:
        stack, seconds_taken = measured(tracer, "setup", lambda: build(inputs))
        setups.append(seconds_taken)
        cycles.append(stack.cycle_s)
        return stack

    stack = set_up()
    latency, report = open_loop_pass(tracer, stack, inputs.requests, inputs.arrival_s,
                                     coalescer(), check, problems)
    cold_share = unembedded_share(inputs.requests, stack.extra["preparation"].embeddings)
    del stack
    # Every further set-up serves one replay pass.
    replays = [replay_pass(tracer, set_up(), inputs.requests, inputs.arrival_s,
                           coalescer(), check, problems) for _ in range(SETUP_REPS - 1)]

    report.update(replay_reports(replays))
    report.update({
        "input_checksum": inputs.checksum,
        "cold_account_share": cold_share,
        "offered_rate_per_s": RATE_PER_S,
        "setup_s_each": setups,
        "offline_units": len(setups),
    })
    metrics = {
        "setup_s": median(setups),
        **latency,
        "replay_rps": median([rps for rps, _ in replays]),
        "t1_cycle_s": median(cycles),
        "peak_rss_mb": peak_rss_mb(),
    }
    return WorkloadResult(attempted=len(inputs.requests), failed=0, metrics=metrics,
                          problems=problems, report=report)
