"""Workload ``t1_retrain``: the daily offline cycle, then the rotated fleet's first traffic.

Each cycle runs on fresh substrates (a MaxCompute client, an HBase cluster,
four empty Model Servers, a KunPeng-backed GBDT) and goes from the raw T+1
slice to a deployed fleet through public calls only:

1. ``OfflineTrainingPipeline(use_maxcompute=True, aggregation=...).prepare``
   runs the MapReduce edge job, DeepWalk and Structure2Vec;
2. ``TransactionAggregator.fit(..., engine="sql")`` runs the 14-day
   aggregate backfill as MaxCompute SQL over day partitions;
3. ``train(..., detector=DistributedGBDT(...))`` trains the GBDT on KunPeng;
4. ``deploy_fleet`` publishes to HBase, seeds the streaming engine and loads
   the fleet.

Each run makes three cycles.  Every workload reports every end-to-end
metric, so each deployed fleet then serves the post-cut traffic at 120
requests/s with write-through off (the first two in replays, the third
in the open loop) and is dropped: the answers must come from the published
snapshot.  The set-up is standing up the empty substrates plus the cycle
that deploys the fleet on them; ``t1_cycle_s`` is the cycle alone.

Checks: MapReduce edge weights and SQL-backfill rows equal the brute-force
references; test-day AUC of the reference walk is at least ``AUC_FLOOR``;
the published aggregate rows equal the brute-force window; every cycle
trains the same model; and each served probability equals the reference
walk over the vector built from the published snapshot.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from harness import WorkloadResult, freeze_inputs, measured, median, peak_rss_mb, timed
from reference import (
    auc,
    edge_weights,
    empty_row,
    ensemble_of,
    row_mismatch,
    window_rows,
)
from serve_warm import RATE_PER_S, Inputs, coalescer, configuration
from serving import Stack, open_loop_pass, replay_pass, replay_reports
from worlds import (
    FEATURE_TABLE,
    FLEET_SIZE,
    TEST_DAY,
    WORLD_SEED,
    WINDOW_SECONDS,
    aggregation,
    fleet,
    hyperparameters,
    reference_vectors,
    unembedded_share,
    warm_imports,
)

AUC_FLOOR = 0.75
PROBABILITY_TOLERANCE = 1e-12
#: Relative tolerance on amount sums between the SQL engine, which adds in
#: (event time, input position) order, and the reference's bucket order.
SQL_SUM_TOLERANCE = 1e-9
PUBLISHED_AS_OF = TEST_DAY * 86_400 - 1
#: Every cycle deploys a fleet: the last serves the open loop, each other
#: one a replay.
CYCLES = 3


def stand_up(inputs: Inputs) -> Dict[str, object]:
    """The empty substrates one cycle runs on."""
    from repro.core.pipeline import OfflineTrainingPipeline
    from repro.hbase.client import HBaseClient
    from repro.models.distributed import DistributedGBDT

    hp = hyperparameters(WORLD_SEED)
    hbase = HBaseClient()
    return {
        "pipeline": OfflineTrainingPipeline(inputs.world.profiles_by_id, hp,
                                            aggregation=aggregation(), use_maxcompute=True),
        "hbase": hbase,
        "servers": fleet(hbase),
        "detector": DistributedGBDT(num_trees=hp.gbdt_num_trees, max_depth=hp.gbdt_max_depth,
                                    subsample_rows=hp.gbdt_subsample,
                                    subsample_features=hp.gbdt_subsample, seed=hp.seed),
    }


def cycle(inputs: Inputs, parts: Dict[str, object]) -> Dict[str, object]:
    """Raw slice -> MapReduce edges, embeddings, SQL backfill, KunPeng GBDT -> fleet."""
    from repro.features.aggregation import TransactionAggregator

    pipeline = parts["pipeline"]
    preparation = pipeline.prepare(inputs.dataset)
    backfill = TransactionAggregator(aggregation()).fit(inputs.history, as_of_day=TEST_DAY, engine="sql")
    bundle = pipeline.train(preparation, configuration(), detector=parts["detector"])
    pipeline.deploy_fleet(bundle, preparation, parts["hbase"], parts["servers"])
    return {"preparation": preparation, "backfill": backfill, "bundle": bundle}


def build(inputs: Inputs) -> tuple:
    """The workload's set-up: empty substrates, then one timed cycle on them."""
    parts = stand_up(inputs)
    outputs, cycle_s = timed(lambda: cycle(inputs, parts))
    return parts, outputs, cycle_s


def check_cycle(inputs: Inputs, parts, outputs, reference_rows, problems: List[str]) -> Dict[str, object]:
    from repro.hbase.client import AGGREGATES_FAMILY

    edges_table = parts["pipeline"].maxcompute.get_table(f"edges_day{TEST_DAY}")
    edges = {(row["payer_id"], row["payee_id"]): row["weight"] for row in edges_table.rows()}
    if edges != edge_weights(inputs.dataset.network_transactions):
        problems.append("MapReduce edge weights differ from the brute-force count")

    backfill = outputs["backfill"]
    if backfill.account_ids() != sorted(reference_rows):
        problems.append("SQL backfill covers other accounts than the brute-force window")
    else:
        bad = [account for account in reference_rows
               if row_mismatch(backfill.hbase_row(account), reference_rows[account],
                               rel_tol=SQL_SUM_TOLERANCE)]
        if bad:
            problems.append(f"{len(bad)} SQL backfill rows differ, e.g. {bad[0]}")

    published = dict(parts["hbase"].scan(FEATURE_TABLE, AGGREGATES_FAMILY))
    bad = [account for account, row in published.items()
           if row_mismatch(row, reference_rows.get(account, empty_row()))]
    missing = set(reference_rows) - set(published)
    if bad or missing:
        problems.append(f"published aggregate snapshot: {len(bad)} rows differ, {len(missing)} missing")

    bundle = outputs["bundle"]
    test = parts["pipeline"].evaluate(outputs["preparation"], bundle)
    test_auc = auc(test.labels, ensemble_of(bundle.detector).predict_proba(test.values))
    if not test_auc >= AUC_FLOOR:
        problems.append(f"test-day AUC {test_auc:.3f} below the floor {AUC_FLOOR}")
    return {"test_day_auc": test_auc, "test_day_rows": int(test.num_rows),
            "published_aggregate_rows": len(published)}


def run(seed: int, seconds: float, tracer) -> WorkloadResult:
    from repro.serving.alipay import AlipayServer
    from repro.serving.router import ServingRouter

    warm_imports()
    inputs = Inputs(seed, seconds)
    reference_rows = window_rows(inputs.history, as_of=PUBLISHED_AS_OF, window_seconds=WINDOW_SECONDS)
    plan_rows = [(reference_rows.get(txn.payer_id, {}), reference_rows.get(txn.payee_id, {}))
                 for txn in inputs.requests]
    freeze_inputs()
    problems: List[str] = []
    setups: List[float] = []
    cycles: List[float] = []
    thresholds = set()
    report: Dict[str, object] = {}

    def check(stack: Stack, served, label: str, problems: List[str]) -> Dict[str, object]:
        bundle = stack.extra["bundle"]
        expected = ensemble_of(bundle.detector).predict_proba(reference_vectors(
            bundle.plan, inputs.requests, inputs.world.profiles_by_id,
            stack.extra["preparation"].embeddings, plan_rows))
        answered = np.array([answer.response.fraud_probability for answer in served])
        wrong = int((np.abs(answered - expected) > PROBABILITY_TOLERANCE).sum())
        if wrong:
            problems.append(f"{label}: {wrong} probabilities differ from the published snapshot's walk")
        return {}

    replays = []
    for index in range(CYCLES):
        (parts, outputs, cycle_s), setup_s = measured(tracer, "setup", lambda: build(inputs))
        setups.append(setup_s)
        cycles.append(cycle_s)
        stats = outputs["backfill"].last_backfill_stats
        tracer.count("sql_backfill.partitions_scanned", stats.partitions_scanned)
        tracer.count("sql_backfill.rows_scanned", stats.rows_scanned)
        tracer.count("kunpeng.rows_moved", parts["detector"].cluster.communication.values_transferred)
        thresholds.add(outputs["bundle"].threshold)
        stack = Stack(alipay=AlipayServer(parts["servers"], router=ServingRouter(FLEET_SIZE)),
                      servers=parts["servers"], hbase=parts["hbase"], cycle_s=cycle_s, extra=outputs)
        if index < CYCLES - 1:
            replays.append(replay_pass(tracer, stack, inputs.requests, inputs.arrival_s,
                                       coalescer(), check, problems))
        else:
            with tracer.paused():
                report.update(check_cycle(inputs, parts, outputs, reference_rows, problems))
            report["cold_account_share"] = unembedded_share(inputs.requests, outputs["preparation"].embeddings)
            latency, serve_report = open_loop_pass(tracer, stack, inputs.requests, inputs.arrival_s,
                                                   coalescer(), check, problems)
        del parts, outputs, stack
    if len(thresholds) != 1:
        problems.append("cycles on the same slice trained different models")

    report.update(serve_report)
    report.update(replay_reports(replays))
    report.update({
        "input_checksum": inputs.checksum,
        "t1_cycle_s_each": cycles,
        "setup_s_each": setups,
        "offered_rate_per_s": RATE_PER_S,
        "offline_units": len(cycles),
    })
    metrics = {
        "setup_s": median(setups),
        **latency,
        "replay_rps": median([rps for rps, _ in replays]),
        "t1_cycle_s": median(cycles),
        "peak_rss_mb": peak_rss_mb(),
    }
    return WorkloadResult(attempted=len(cycles) + len(inputs.requests), failed=0,
                          metrics=metrics, problems=problems, report=report)
