"""Workload ``serve_cold_burst``: a million accounts, hot rows only, a flash sale.

A one-million-account ``ScalableWorldStream`` generates one day of traffic
on its diurnal curve with an evening flash sale (2.5x for two hours).  The
day is thinned evenly to 500 requests per measured second and compressed
into the run: each simulated hour gets 1/24 of the run, its requests evenly
spaced inside it, so the instantaneous rate follows the curve and peaks at
about three times the mean.  Only the 50,000 most active accounts' profile
rows are bulk-loaded; every other account is served neutral defaults.  The
model is the basic plan (no aggregates, no embeddings) trained on a fixed
small world; write-through is off.  Batches hold several rows, more in the
burst, and the working set dwarfs the row caches, so per-row costs dominate.

Every round of 1,000 requests carries the same six malformed requests at
fixed positions: NaN, infinite and negative amounts, hour 99, a
self-transfer and ``ip_risk_score = 7.0``.  They use accounts that exist in
no population, so their answers do not depend on the seed.  A malformed
request counts as failed when it is APPROVED: the serving path does not
validate its input today, and all six are approved.

Checks: every request answered exactly once, in order; each well-formed
request's probability equals the reference tree walk over its offline
basic-feature vector (published profiles for hot accounts, neutral defaults
for the rest) within ``PROBABILITY_TOLERANCE``.
"""

from __future__ import annotations

import math
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
from reference import ensemble_of
from serving import Stack, open_loop_pass, replay_pass, replay_reports
from worlds import (
    FEATURE_TABLE,
    FLEET_SIZE,
    TEST_DAY,
    WORLD_SEED,
    fleet,
    hyperparameters,
    profile_records,
    profile_rows,
    reference_vectors,
    slice_of,
    small_world,
    warm_imports,
)

NUM_ACCOUNTS = 1_000_000
TRANSFERS_PER_ACCOUNT_DAY = 0.015
HOT_ACCOUNTS = 50_000
MEAN_RATE_PER_S = 500.0
ROUND = 1000
MALFORMED_OFFSETS = (97, 263, 419, 571, 733, 887)
SETUP_REPS = 5
PROBABILITY_TOLERANCE = 1e-12


def coalescer():
    from repro.serving.coalescer import CoalescerConfig

    return CoalescerConfig(max_batch=128, max_delay_ms=4.0)


def malformed(round_index: int) -> List[object]:
    """The six malformed requests of one round (seed-independent content)."""
    from repro.datagen.schema import Transaction, TransactionChannel

    base = dict(
        day=0, hour=12, payer_id="malformed-payer", payee_id="malformed-payee", amount=120.0,
        channel=TransactionChannel.APP, trans_city="city_001", device_id="malformed-device",
        is_new_device=False, ip_risk_score=0.1, payer_recent_txn_count=0,
        payer_recent_amount=0.0, payee_recent_inbound_count=0, is_fraud=False,
        label_available_day=0,
    )
    faults = [
        {"amount": math.nan},
        {"amount": math.inf},
        {"amount": -50.0},
        {"hour": 99},
        {"payee_id": "malformed-payer"},
        {"ip_risk_score": 7.0},
    ]
    return [
        Transaction(transaction_id=f"malformed-r{round_index:03d}-{k}", **{**base, **fault})
        for k, fault in enumerate(faults)
    ]


class Inputs:
    """The population, its day of traffic and the arrival schedule."""

    def __init__(self, seed: int, seconds: float) -> None:
        from repro.datagen.profiles import ProfileConfig
        from repro.datagen.stream import ScalableWorldStream
        from repro.datagen.transactions import ArrivalConfig, BurstSpec, WorldConfig

        stream = ScalableWorldStream(WorldConfig(
            profile=ProfileConfig(num_users=NUM_ACCOUNTS, num_communities=NUM_ACCOUNTS // 5000,
                                  fraudster_fraction=0.02, seed=seed),
            num_days=1,
            transactions_per_user_per_day=TRANSFERS_PER_ACCOUNT_DAY,
            arrival=ArrivalConfig(bursts=[BurstSpec(day=0, start_hour=19, duration_hours=2, amplitude=2.5)]),
            seed=seed,
        ))
        day = list(stream)
        rounds = max(1, int(round(MEAN_RATE_PER_S * seconds / ROUND)))
        count = rounds * ROUND
        if len(day) < count:
            raise RuntimeError(f"stream produced {len(day)} events, run needs {count}")
        chosen = [day[i] for i in np.linspace(0, len(day) - 1, count).round().astype(int)]
        per_hour = np.bincount([txn.hour for txn in chosen], minlength=24)
        seen = np.zeros(24, dtype=int)
        self.arrival_s: List[float] = []
        for txn in chosen:
            k = seen[txn.hour]
            seen[txn.hour] += 1
            self.arrival_s.append((txn.hour + (k + 0.5) / per_hour[txn.hour]) / 24.0 * seconds)
        self.malformed_index = set()
        for round_index in range(rounds):
            for offset, bad in zip(MALFORMED_OFFSETS, malformed(round_index)):
                position = round_index * ROUND + offset
                chosen[position] = bad
                self.malformed_index.add(position)
        self.requests = chosen
        order = np.argsort(stream.accounts.activity_level)[-HOT_ACCOUNTS:]
        hot = list(stream.accounts.iter_profiles(order))
        self.hot_rows = profile_rows(hot)
        self.train_world = small_world(WORLD_SEED, num_days=TEST_DAY + 1)
        self.dataset = slice_of(self.train_world)
        self.published = dict(self.train_world.profiles_by_id)
        self.published.update({profile.user_id: profile for profile in hot})
        self.checksum = checksum(
            [transaction_record(txn) for txn in self.requests]
            + [tuple(self.arrival_s)]
            + profile_records(hot)
            + profile_records(self.train_world.profiles)
        )


def build(inputs: Inputs) -> Stack:
    """Train and deploy the basic-plan model, then bulk-load the hot rows."""
    from repro.core.config import DetectorName, FeatureSetName, Table1Configuration
    from repro.core.pipeline import OfflineTrainingPipeline
    from repro.hbase.client import BASIC_FEATURES_FAMILY, HBaseClient
    from repro.serving.alipay import AlipayServer
    from repro.serving.router import ServingRouter

    def cycle():
        pipeline = OfflineTrainingPipeline(inputs.train_world.profiles_by_id, hyperparameters(WORLD_SEED))
        preparation = pipeline.prepare(inputs.dataset, need_deepwalk=False, need_structure2vec=False)
        bundle = pipeline.train(
            preparation, Table1Configuration(5, DetectorName.GBDT, FeatureSetName.BASIC))
        hbase = HBaseClient()
        servers = fleet(hbase)
        pipeline.deploy_fleet(bundle, preparation, hbase, servers)
        return bundle, hbase, servers

    (bundle, hbase, servers), cycle_s = timed(cycle)
    hbase.bulk_load(FEATURE_TABLE, BASIC_FEATURES_FAMILY, inputs.hot_rows, version=10_000)
    alipay = AlipayServer(servers, router=ServingRouter(FLEET_SIZE))
    return Stack(alipay=alipay, servers=servers, hbase=hbase, cycle_s=cycle_s, extra={"bundle": bundle})


def make_check(inputs: Inputs, approved_malformed: Dict[str, int]):
    from repro.serving.alipay import TransactionOutcome

    well_formed = [i for i in range(len(inputs.requests)) if i not in inputs.malformed_index]

    def check(stack: Stack, served, label: str, problems: List[str]) -> Dict[str, object]:
        bundle = stack.extra["bundle"]
        expected = ensemble_of(bundle.detector).predict_proba(reference_vectors(
            bundle.plan, [inputs.requests[i] for i in well_formed], inputs.published, {}))
        answered = np.array([served[i].response.fraud_probability for i in well_formed])
        wrong = int((np.abs(answered - expected) > PROBABILITY_TOLERANCE).sum())
        if wrong:
            problems.append(f"{label}: {wrong} probabilities differ from the reference walk")
        approved = sum(1 for i in inputs.malformed_index
                       if served[i].outcome is TransactionOutcome.APPROVED)
        approved_malformed[label] = approved
        return {"malformed_approved": approved}

    return check


def run(seed: int, seconds: float, tracer) -> WorkloadResult:
    warm_imports()
    inputs = Inputs(seed, seconds)
    approved: Dict[str, int] = {}
    check = make_check(inputs, approved)
    freeze_inputs()
    problems: List[str] = []
    setups: List[float] = []
    cycles: List[float] = []

    def set_up() -> Stack:
        stack, seconds_taken = measured(tracer, "setup", lambda: build(inputs))
        setups.append(seconds_taken)
        cycles.append(stack.cycle_s)
        return stack

    latency, report = open_loop_pass(tracer, set_up(), inputs.requests, inputs.arrival_s,
                                     coalescer(), check, problems)
    replays = [replay_pass(tracer, set_up(), inputs.requests, inputs.arrival_s,
                           coalescer(), check, problems)]
    for _ in range(SETUP_REPS - 2):
        set_up()

    cold = sum(1 for txn in inputs.requests
               if txn.payer_id not in inputs.published or txn.payee_id not in inputs.published)
    report.update(replay_reports(replays))
    report.update({
        "input_checksum": inputs.checksum,
        "cold_account_share": cold / len(inputs.requests),
        "mean_offered_rate_per_s": len(inputs.requests) / seconds,
        "malformed_requests": len(inputs.malformed_index),
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
    return WorkloadResult(attempted=len(inputs.requests), failed=approved["open loop"],
                          metrics=metrics, problems=problems, report=report)
