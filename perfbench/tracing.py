"""Span tracing from outside the program, and the per-layer metrics built on it.

:class:`Tracer` replaces public methods of the program's classes with
wrappers that record one span per call: name, start, end, parent span and
the run phase it happened in (a set-up, the open-loop pass, the replay
pass).  Batch spans also carry the request ids they serve.  Spans
stay in memory and are written out once, when the run ends.  Nothing inside
``src/`` is changed; :meth:`Tracer.uninstall` restores every method.

A span's self time is its duration minus the time its child spans cover.
Each span name belongs to one layer (``LAYER_OF``); a pass's wall time minus
the self time of every layer span inside it is the part the trace does not
explain, which :meth:`Tracer.accounting` reports per pass.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

# Span record fields.
NAME, START, END, PARENT, PHASE, PAYLOAD = range(6)

#: Phases whose spans are the serving work of a pass.
SERVING_PHASES = ("open_loop", "replay")
#: Phases whose spans are offline work: the set-ups, each one T+1 cycle.
OFFLINE_PHASES = ("setup",)

#: Layer of every span name (the issue's layers; ``glue`` is driver code
#: that calls into the layers and is not itself one).
LAYER_OF: Dict[str, str] = {
    "frontend.submit": "serving.async_server",
    "alipay.replay": "glue",
    "alipay.batch": "serving.alipay",
    "model_server.predict_batch": "serving.model_server",
    "plan.assemble": "features.plan",
    "feature_source.profiles": "serving.feature_source",
    "feature_source.embeddings": "serving.feature_source",
    "feature_source.aggregates": "serving.feature_source",
    "hbase.multi_get": "hbase",
    "hbase.put": "hbase",
    "hbase.bulk_load": "hbase",
    "model.predict": "models",
    "model.fit": "models",
    "streaming.observe": "serving.streaming",
    "features.assemble": "features",
    "features.seed_replay": "features",
    "pipeline.prepare": "glue",
    "pipeline.train": "glue",
    "pipeline.deploy": "glue",
    "maxcompute.load": "maxcompute",
    "maxcompute.mapreduce": "maxcompute",
    "maxcompute.sql": "maxcompute",
    "sql_backfill.fit": "glue",
    "sql_backfill.stage": "maxcompute",
    "nrl.deepwalk": "nrl",
    "nrl.structure2vec": "nrl",
    "kunpeng.compute": "kunpeng",
    "kunpeng.comm": "kunpeng",
}


def _rows(position: int) -> Callable:
    """Payload: the length of positional argument ``position``."""
    return lambda args, kwargs: len(args[position])


def _request_ids(args, kwargs) -> List[str]:
    return [request.transaction_id for request in args[1]]


def _first_id(args, kwargs) -> str:
    return args[1].transaction_id


def targets() -> List[Tuple[type, str, str, Optional[Callable], Tuple[str, ...]]]:
    """(class, method, span name, payload, parents under which to skip).

    Imported lazily so that importing this module needs no ``repro``.
    """
    from repro.core.pipeline import OfflineTrainingPipeline
    from repro.features.aggregation import TransactionAggregator
    from repro.features.assembler import FeatureAssembler
    from repro.features.plan import FeaturePlanExecutor
    from repro.features.sql_backfill import SQLBackfillEngine
    from repro.features.streaming import SlidingWindowAggregator
    from repro.hbase.client import HBaseClient
    from repro.kunpeng.cluster import KunPengCluster
    from repro.kunpeng.worker import WorkerNode
    from repro.maxcompute.client import MaxComputeClient
    from repro.models.distributed import DistributedGBDT
    from repro.models.gbdt import GradientBoostingClassifier
    from repro.nrl.deepwalk import DeepWalk
    from repro.nrl.structure2vec import Structure2Vec
    from repro.serving.alipay import AlipayServer
    from repro.serving.async_server import AsyncServingFrontEnd
    from repro.serving.feature_source import HBaseFeatureSource
    from repro.serving.model_server import ModelServer
    from repro.serving.streaming import StreamingFeatureUpdater

    found = [
        (AsyncServingFrontEnd, "submit_nowait", "frontend.submit", _first_id, ()),
        (AlipayServer, "replay_transactions", "alipay.replay", None, ()),
        (AlipayServer, "process_batch", "alipay.batch", _request_ids, ()),
        (ModelServer, "predict_batch", "model_server.predict_batch", _rows(1), ()),
        (FeaturePlanExecutor, "assemble", "plan.assemble", _rows(1), ()),
        (HBaseFeatureSource, "profiles_for", "feature_source.profiles", None, ()),
        (HBaseFeatureSource, "embedding_matrix", "feature_source.embeddings", None, ()),
        (HBaseFeatureSource, "aggregate_rows", "feature_source.aggregates", None, ()),
        (HBaseClient, "multi_get", "hbase.multi_get", _rows(2), ()),
        (HBaseClient, "bulk_load", "hbase.bulk_load", _rows(3), ()),
        # A bulk load is one span; its row-by-row puts are not traced.
        (HBaseClient, "put", "hbase.put", None, ("hbase.bulk_load",)),
        (GradientBoostingClassifier, "predict_proba", "model.predict", _rows(1), ()),
        (DistributedGBDT, "predict_proba", "model.predict", _rows(1), ()),
        (GradientBoostingClassifier, "fit", "model.fit", None, ()),
        (DistributedGBDT, "fit", "model.fit", None, ()),
        (StreamingFeatureUpdater, "observe_transaction", "streaming.observe", None, ()),
        (FeatureAssembler, "assemble", "features.assemble", _rows(1), ()),
        (SlidingWindowAggregator, "replay", "features.seed_replay", None, ()),
        (OfflineTrainingPipeline, "prepare", "pipeline.prepare", None, ()),
        (OfflineTrainingPipeline, "train", "pipeline.train", None, ()),
        (OfflineTrainingPipeline, "deploy_fleet", "pipeline.deploy", None, ()),
        (MaxComputeClient, "load_records", "maxcompute.load", None, ()),
        (MaxComputeClient, "submit_mapreduce", "maxcompute.mapreduce", None, ()),
        (MaxComputeClient, "submit_sql", "maxcompute.sql", None, ()),
        (TransactionAggregator, "fit", "sql_backfill.fit", None, ()),
        (SQLBackfillEngine, "stage_history", "sql_backfill.stage", None, ()),
        (DeepWalk, "fit", "nrl.deepwalk", None, ()),
        (Structure2Vec, "fit", "nrl.structure2vec", None, ()),
        (WorkerNode, "run", "kunpeng.compute", None, ()),
    ]
    found += [
        (KunPengCluster, method, "kunpeng.comm", None, ())
        for method in (
            "create_parameter", "pull_rows", "pull_row_block", "push_row_block",
            "accumulate_row_block", "reset_parameter", "pull_matrix",
            "push_gradients", "push_model_average", "scatter_data",
        )
    ]
    return found


class NullTracer:
    """The untraced run: phases, pauses and counters that record nothing."""

    def phase(self, name: str):
        return contextlib.nullcontext()

    def paused(self):
        return contextlib.nullcontext()

    def count(self, name: str, value: float) -> None:
        pass


class Tracer:
    """In-memory span recorder installed around the program's public calls."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self.passes: List[Tuple[str, float, float]] = []
        self._stack: List[int] = []
        self._phase = "none"
        self._enabled = True
        self._patches: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        for owner, method, name, payload, skip_under in targets():
            original = owner.__dict__[method]
            self._patches.append((owner, method, original))
            setattr(owner, method, self._wrap(original, name, payload, frozenset(skip_under)))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, method, original = self._patches.pop()
            setattr(owner, method, original)

    def _wrap(self, function: Callable, name: str, payload: Optional[Callable], skip_under) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self._enabled:
                return function(*args, **kwargs)
            parent = stack[-1] if stack else -1
            # Re-entrant calls (one KunPeng call routing to another) and
            # calls under a span that already covers them add no span.
            if parent >= 0 and (spans[parent][NAME] == name or spans[parent][NAME] in skip_under):
                return function(*args, **kwargs)
            record = [name, time.perf_counter(), 0.0, parent, self._phase,
                      payload(args, kwargs) if payload is not None else None]
            stack.append(len(spans))
            spans.append(record)
            try:
                return function(*args, **kwargs)
            finally:
                stack.pop()
                record[END] = time.perf_counter()

        return traced

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Tag the spans recorded inside with ``name``; record the pass wall."""
        previous, self._phase = self._phase, name
        start = time.perf_counter()
        try:
            yield
        finally:
            self.passes.append((name, start, time.perf_counter()))
            self._phase = previous

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing inside (the benchmark's own correctness checks)."""
        self._enabled = False
        try:
            yield
        finally:
            self._enabled = True

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + float(value)

    # ------------------------------------------------------------------
    def _self_times(self) -> np.ndarray:
        durations = np.array([span[END] - span[START] for span in self.spans])
        child_time = np.zeros(len(self.spans))
        for span, duration in zip(self.spans, durations):
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += duration
        return durations - child_time

    def accounting(self) -> List[Dict[str, object]]:
        """Per pass: wall time, self time per layer, and the unexplained rest."""
        self_times = self._self_times()
        rows = []
        for name, start, end in self.passes:
            layers: Dict[str, float] = {}
            for span, own in zip(self.spans, self_times):
                if start <= span[START] and span[END] <= end:
                    layer = LAYER_OF[span[NAME]]
                    layers[layer] = layers.get(layer, 0.0) + float(own)
            wall = end - start
            explained = sum(value for layer, value in layers.items() if layer != "glue")
            rows.append({
                "pass": name,
                "wall_s": wall,
                "layer_self_s": layers,
                "unexplained_s": wall - explained,
            })
        return rows

    def write(self, path: str, extra: Dict[str, object]) -> None:
        """Dump every span and the pass accounting as JSON (run end only)."""
        with open(path, "w") as handle:
            json.dump({
                "fields": ["name", "start", "end", "parent", "phase", "payload"],
                "spans": self.spans,
                "passes": self.passes,
                "counters": self.counters,
                "accounting": self.accounting(),
                **extra,
            }, handle)

    # ------------------------------------------------------------------
    def metrics(self, offline_units: int) -> Dict[str, float]:
        """The per-layer metrics (see BENCHMARK.json ``per_layer``).

        Serving metrics cover the open-loop and replay passes; offline
        metrics are per set-up (``offline_units`` of them).
        """
        self_times = self._self_times()
        spans = self.spans
        units = max(offline_units, 1)

        def select(name: str, phases: Sequence[str]) -> List[int]:
            return [i for i, span in enumerate(spans) if span[NAME] == name and span[PHASE] in phases]

        def busy(name: str, phases: Sequence[str] = SERVING_PHASES) -> float:
            return float(sum(spans[i][END] - spans[i][START] for i in select(name, phases)))

        def rows(name: str, phases: Sequence[str] = SERVING_PHASES) -> float:
            return float(sum(spans[i][PAYLOAD] for i in select(name, phases)))

        def per_unit(value: float, count: float, scale: float) -> float:
            return value / count * scale if count else 0.0

        def offline(name: str) -> float:
            return busy(name, OFFLINE_PHASES) / units

        def under(child: str, parent: str) -> float:
            return float(sum(
                spans[i][END] - spans[i][START]
                for i in select(child, OFFLINE_PHASES)
                if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == parent
            )) / units

        batches = select("alipay.batch", SERVING_PHASES)
        batch_rows = sum(len(spans[i][PAYLOAD]) for i in batches)
        submitted = {spans[i][PAYLOAD]: spans[i][START] for i in select("frontend.submit", ("open_loop",))}
        waits = [
            (spans[i][START] - submitted[request]) * 1000.0
            for i in select("alipay.batch", ("open_loop",))
            for request in spans[i][PAYLOAD]
            if request in submitted
        ]
        calls = select("model_server.predict_batch", SERVING_PHASES)
        call_ms = [(spans[i][END] - spans[i][START]) * 1000.0 for i in calls]
        predict_rows = rows("model_server.predict_batch")
        assemble_rows = rows("plan.assemble")
        model_rows = rows("model.predict")
        observed = len(select("streaming.observe", SERVING_PHASES))
        hits = self.counters.get("hbase.row_cache_hits", 0.0)
        misses = self.counters.get("hbase.row_cache_misses", 0.0)
        return {
            "coalescer.rows_per_flush": per_unit(batch_rows, len(batches), 1.0),
            "coalescer.wait_ms": float(np.mean(waits)) if waits else 0.0,
            "router.rows_per_predict": per_unit(predict_rows, len(calls), 1.0),
            "alipay.batch_self_ms": per_unit(float(sum(self_times[i] for i in batches)), len(batches), 1000.0),
            "model_server.busy_s": busy("model_server.predict_batch"),
            "model_server.call_p99_ms": float(np.percentile(call_ms, 99)) if call_ms else 0.0,
            "plan.assemble_busy_s": busy("plan.assemble"),
            "plan.assemble_us_per_row": per_unit(busy("plan.assemble"), assemble_rows, 1e6),
            "feature_source.profiles_busy_s": busy("feature_source.profiles"),
            "feature_source.embeddings_busy_s": busy("feature_source.embeddings"),
            "feature_source.aggregates_busy_s": busy("feature_source.aggregates"),
            "hbase.multi_get_busy_s": busy("hbase.multi_get"),
            "hbase.multi_get_rows": rows("hbase.multi_get"),
            "hbase.row_cache_hit_rate": per_unit(hits, hits + misses, 1.0),
            "hbase.put_busy_s": busy("hbase.put"),
            "hbase.puts": float(len(select("hbase.put", SERVING_PHASES))),
            "hbase.bulk_load_busy_s": offline("hbase.bulk_load"),
            "model.predict_busy_s": busy("model.predict"),
            "model.predict_us_per_row": per_unit(busy("model.predict"), model_rows, 1e6),
            "model.fit_busy_s": offline("model.fit"),
            "streaming.observe_busy_s": busy("streaming.observe"),
            "streaming.observe_us_per_event": per_unit(busy("streaming.observe"), observed, 1e6),
            "features.assemble_train_s": under("features.assemble", "pipeline.train"),
            "features.seed_replay_s": offline("features.seed_replay"),
            "maxcompute.edge_job_s": under("maxcompute.load", "pipeline.prepare")
            + under("maxcompute.mapreduce", "pipeline.prepare"),
            "sql_backfill.stage_s": offline("sql_backfill.stage"),
            "sql_backfill.query_s": under("maxcompute.sql", "sql_backfill.fit"),
            "sql_backfill.partitions_scanned": self.counters.get("sql_backfill.partitions_scanned", 0.0) / units,
            "sql_backfill.rows_scanned": self.counters.get("sql_backfill.rows_scanned", 0.0) / units,
            "nrl.deepwalk_fit_s": offline("nrl.deepwalk"),
            "nrl.structure2vec_fit_s": offline("nrl.structure2vec"),
            "kunpeng.comm_s": offline("kunpeng.comm"),
            "kunpeng.compute_s": offline("kunpeng.compute"),
            "kunpeng.rows_moved": self.counters.get("kunpeng.rows_moved", 0.0) / units,
            "trace.unexplained_share": self._unexplained_share(),
        }

    def _unexplained_share(self) -> float:
        """Share of the CPU-bound passes' wall time no layer span explains.

        The open-loop pass is left out: most of its wall time is the loop
        waiting for the next scheduled arrival.
        """
        rows = [row for row in self.accounting() if row["pass"] != "open_loop"]
        wall = sum(row["wall_s"] for row in rows)
        return sum(row["unexplained_s"] for row in rows) / wall if wall else 0.0
