"""Seeded inputs and system sizes shared by the workloads.

Everything a workload feeds the program is generated here from ``--seed``
before any timed region starts.  The system under test is sized so that one
set-up takes a few seconds on a 2-CPU machine: the GBDT keeps
``laptop_scale``'s 80 depth-3 trees, and the embedding models are cut down
(shorter, fewer walks; 16 dimensions) because at full ``laptop_scale``
DeepWalk alone takes over a minute on 2,000 accounts.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np

from reference import aggregation_features

#: Days of network history and of labelled training records per T+1 slice.
NETWORK_DAYS = 25
TRAIN_DAYS = 7
TEST_DAY = NETWORK_DAYS + TRAIN_DAYS
#: Aggregation look-back window (the paper's 14-day windowed aggregates).
WINDOW_DAYS = 14
WINDOW_SECONDS = float(WINDOW_DAYS * 86_400)
#: Seed of the world the models are trained on.  The trained system is the
#: same in every run; ``--seed`` draws the traffic it serves.
WORLD_SEED = 7
#: Model Server replicas behind the account-sharded router.
FLEET_SIZE = 4
FEATURE_TABLE = "titant_features"


def small_world(seed: int, *, num_days: int):
    """A fully generated world: 300 accounts, 1.5 transfers per account-day."""
    from repro.datagen import generate_world
    from repro.datagen.profiles import ProfileConfig
    from repro.datagen.transactions import WorldConfig

    return generate_world(WorldConfig(
        profile=ProfileConfig(num_users=300, num_communities=8, fraudster_fraction=0.03, seed=seed),
        num_days=num_days,
        transactions_per_user_per_day=1.5,
        seed=seed,
    ))


def slice_of(world):
    from repro.datagen import DatasetBuilder

    return DatasetBuilder(world, network_days=NETWORK_DAYS, train_days=TRAIN_DAYS).build(TEST_DAY)


def hyperparameters(seed: int):
    """``laptop_scale`` with cut-down DeepWalk and Structure2Vec."""
    from repro.core.config import ModelHyperparameters

    return ModelHyperparameters.laptop_scale(seed=seed).with_overrides(
        embedding_dimension=16,
        deepwalk_num_walks=5,
        deepwalk_walk_length=20,
        deepwalk_epochs=1,
        s2v_epochs=40,
    )


def aggregation():
    from repro.features.aggregation import AggregationConfig

    return AggregationConfig(window_days=WINDOW_DAYS)


def fleet(hbase):
    """Four Model Servers, each on its own HBase connection (private row cache)."""
    from repro.serving.model_server import ModelServer, ModelServerConfig

    return [
        ModelServer(hbase.connection(row_cache_ttl_s=3600.0), ModelServerConfig())
        for _ in range(FLEET_SIZE)
    ]


def history_of(dataset) -> List[object]:
    """The slice's pre-test-day events in event order (time, then id)."""
    from reference import event_time

    return sorted(
        dataset.network_transactions + dataset.train_transactions,
        key=lambda txn: (event_time(txn), txn.transaction_id),
    )


def reference_vectors(
    plan,
    transactions: Sequence[object],
    profiles: Mapping[str, object],
    embedding_sets: Mapping[str, object],
    aggregate_rows: Sequence[tuple] = (),
) -> np.ndarray:
    """Feature vectors laid out as ``plan`` documents, assembled offline.

    Basic block from the in-memory profiles (neutral defaults for unknown
    accounts), then the 12 aggregation columns from the given (payer row,
    payee row) pairs, then each embedding block per side from the trained
    embedding sets (zeros for unknown accounts).  No HBase row, streaming
    engine or plan executor is involved.
    """
    from repro.features.basic import BasicFeatureExtractor

    blocks = [BasicFeatureExtractor(dict(profiles)).extract(list(transactions), with_labels=False).values]
    if plan.aggregation is not None:
        blocks.append(np.array([
            aggregation_features(payer_row, payee_row, txn.payer_id)
            for txn, (payer_row, payee_row) in zip(transactions, aggregate_rows)
        ], dtype=np.float64).reshape(len(transactions), 12))
    for block in plan.embedding_blocks:
        for side in plan.sides:
            ids = [txn.payer_id if side == "payer" else txn.payee_id for txn in transactions]
            blocks.append(embedding_sets[block.set_name].lookup(ids))
    vectors = np.hstack(blocks)
    if vectors.shape[1] != plan.num_features:
        raise ValueError(f"assembled {vectors.shape[1]} columns, plan has {plan.num_features}")
    return vectors


def unembedded_share(transactions: Sequence[object], embedding_sets: Mapping[str, object]) -> float:
    """Share of transfers with an endpoint that has no published embedding
    row (every account of the small world has a published profile)."""
    embedded = set()
    for embeddings in embedding_sets.values():
        embedded.update(embeddings.node_ids())
    cold = sum(1 for txn in transactions if txn.payer_id not in embedded or txn.payee_id not in embedded)
    return cold / len(transactions)


def profile_rows(profiles) -> Dict[str, Dict[str, object]]:
    """Basic-feature HBase rows for profiles (the bulk-load format)."""
    return {
        profile.user_id: {
            "age": profile.age,
            "gender": profile.gender.value,
            "home_city": profile.home_city,
            "account_age_days": profile.account_age_days,
            "kyc_level": profile.kyc_level,
            "is_merchant": profile.is_merchant,
            "device_count": profile.device_count,
            "community": profile.community,
        }
        for profile in profiles
    }


def profile_records(profiles) -> List[tuple]:
    """Every profile's basic-feature row as a sorted tuple, for input checksums."""
    return [
        (account, tuple(sorted(row.items())))
        for account, row in sorted(profile_rows(profiles).items())
    ]


def warm_imports() -> None:
    """Import the program's modules before any timed set-up, so that the
    first set-up does not pay the interpreter's module loading."""
    import repro.core.pipeline  # noqa: F401
    import repro.models.distributed  # noqa: F401
    import repro.serving.alipay  # noqa: F401
    import repro.serving.async_server  # noqa: F401
    import repro.serving.router  # noqa: F401
    import repro.features.sql_backfill  # noqa: F401
