"""Hand-computed cases for the benchmark's reference computations.

Run with ``python -m pytest perfbench/test_reference.py -q``.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from reference import (
    ReferenceEnsemble,
    account_row,
    aggregation_features,
    auc,
    edge_weights,
    row_mismatch,
    window_rows,
)


def leaf(value):
    return SimpleNamespace(is_leaf=True, value=value, feature_index=None,
                           threshold=None, left=None, right=None)


def split(feature, threshold, left, right):
    return SimpleNamespace(is_leaf=False, value=0.0, feature_index=feature,
                           threshold=threshold, left=left, right=right)


def txn(payer, payee, amount, day, hour):
    return SimpleNamespace(payer_id=payer, payee_id=payee, amount=amount, day=day, hour=hour)


# ---------------------------------------------------------------------------
# Tree walk
# ---------------------------------------------------------------------------


def test_single_stump_score_and_probability():
    # score = 0.0 + 0.5 * (2.0 if x0 <= 1 else -2.0)
    model = ReferenceEnsemble([split(0, 1.0, leaf(2.0), leaf(-2.0))],
                              initial_score=0.0, learning_rate=0.5)
    rows = np.array([[0.0], [1.0], [1.5]])
    assert model.decision_function(rows).tolist() == [1.0, 1.0, -1.0]
    sigmoid_one = 1.0 / (1.0 + math.exp(-1.0))
    assert model.predict_proba(rows).tolist() == pytest.approx(
        [sigmoid_one, sigmoid_one, 1.0 - sigmoid_one], abs=1e-15)


def test_two_level_tree_and_sum_over_trees():
    # tree 1: x1 <= 0 ? (x0 <= 5 ? 1 : 2) : 3 ; tree 2: constant leaf 10
    tree1 = split(1, 0.0, split(0, 5.0, leaf(1.0), leaf(2.0)), leaf(3.0))
    model = ReferenceEnsemble([tree1, leaf(10.0)], initial_score=-1.0, learning_rate=0.1)
    rows = np.array([[4.0, -1.0], [6.0, 0.0], [0.0, 2.0]])
    # -1 + 0.1*leaf1 + 0.1*10
    expected = [-1.0 + 0.1 * 1.0 + 0.1 * 10.0,
                -1.0 + 0.1 * 2.0 + 0.1 * 10.0,
                -1.0 + 0.1 * 3.0 + 0.1 * 10.0]
    assert model.decision_function(rows).tolist() == expected


def test_nan_goes_right_and_score_is_clipped():
    model = ReferenceEnsemble([split(0, 0.0, leaf(100.0), leaf(-100.0))],
                              initial_score=0.0, learning_rate=1.0)
    rows = np.array([[np.nan], [-1.0]])
    assert model.decision_function(rows).tolist() == [-100.0, 100.0]
    probabilities = model.predict_proba(rows)
    assert probabilities[0] == 1.0 / (1.0 + math.exp(30.0))
    assert probabilities[1] == 1.0 / (1.0 + math.exp(-30.0))


# ---------------------------------------------------------------------------
# Windowed aggregates
# ---------------------------------------------------------------------------


def test_window_is_left_open_right_closed():
    day = 86_400
    events = [
        txn("a", "b", 1.0, 0, 0),   # t = 0: exactly at the window start, excluded
        txn("a", "c", 2.0, 0, 1),   # t = 3600
        txn("a", "b", 4.0, 1, 0),   # t = 86400 == as_of, included
        txn("a", "b", 8.0, 1, 1),   # after as_of, excluded
    ]
    row = account_row(events, "a", as_of=float(day), window_seconds=float(day))
    assert row["out_count"] == 2.0
    assert row["out_amount_sum"] == 6.0
    assert row["out_amount_mean"] == 3.0
    assert row["out_amount_max"] == 4.0
    assert row["distinct_payees"] == 2.0
    assert row["night_fraction"] == 1.0  # hours 1 and 0 are night hours
    assert row["in_count"] == 0.0 and row["payers"] == frozenset()


def test_payee_side_and_new_payer_set():
    events = [
        txn("a", "m", 10.0, 0, 12),
        txn("b", "m", 30.0, 0, 13),
        txn("a", "m", 20.0, 0, 23),
    ]
    row = account_row(events, "m", as_of=86_399.0, window_seconds=86_400.0)
    assert row["in_count"] == 3.0
    assert row["in_amount_sum"] == 60.0
    assert row["in_amount_mean"] == 20.0
    assert row["in_amount_max"] == 30.0
    assert row["distinct_payers"] == 2.0
    assert row["payers"] == frozenset({"a", "b"})
    assert row["out_count"] == 0.0 and row["night_fraction"] == 0.0


def test_sums_fold_per_hour_bucket_then_across_buckets():
    # Same-hour amounts are added first: (1e16 + 1.0) + 1.0 inside hour 1
    # gives 1e16 (each 1.0 is lost), then hour 2 adds -1e16 -> 0.0.  A plain
    # left fold in the other bucket order would give 2.0.
    events = [txn("a", "x", 1e16, 0, 1), txn("a", "x", 1.0, 0, 1),
              txn("a", "x", 1.0, 0, 1), txn("a", "x", -1e16, 0, 2)]
    row = account_row(events, "a", as_of=86_399.0, window_seconds=86_400.0)
    assert row["out_amount_sum"] == 0.0


def test_window_rows_covers_only_accounts_active_in_window():
    events = [txn("a", "b", 1.0, 0, 5), txn("c", "d", 1.0, 3, 5)]
    rows = window_rows(events, as_of=86_399.0, window_seconds=86_400.0)
    assert sorted(rows) == ["a", "b"]
    assert rows["b"]["in_count"] == 1.0


def test_row_mismatch_tolerates_only_sum_fields():
    base = account_row([txn("a", "b", 1.0, 0, 5)], "a", as_of=86_399.0,
                       window_seconds=86_400.0)
    nudged = dict(base, out_amount_sum=1.0 + 1e-13)
    assert row_mismatch(nudged, base, rel_tol=1e-9) == ""
    assert row_mismatch(nudged, base).startswith("out_amount_sum")
    assert row_mismatch(dict(base, out_count=2.0), base, rel_tol=1e-9).startswith("out_count")
    assert row_mismatch(dict(base, payers=frozenset({"z"})), base) == "payers differ"


def test_aggregation_features_read_payer_out_and_payee_in_sides():
    events = [txn("a", "m", 10.0, 0, 23), txn("b", "m", 30.0, 0, 13)]
    rows = window_rows(events, as_of=86_399.0, window_seconds=86_400.0)
    assert aggregation_features(rows["a"], rows["m"], "a") == [
        1.0, 10.0, 10.0, 10.0, 1.0, 1.0,   # a: one night transfer to m
        2.0, 40.0, 20.0, 30.0, 2.0, 0.0,   # m: two payers, a among them
    ]
    # A payee never paid by "c" makes "c" a new payer; missing rows are zeros.
    assert aggregation_features({}, rows["m"], "c")[-1] == 1.0
    assert aggregation_features({}, {}, "c") == [0.0] * 11 + [1.0]


# ---------------------------------------------------------------------------
# Edge weights and AUC
# ---------------------------------------------------------------------------


def test_edge_weights_count_directed_transfers():
    events = [txn("a", "b", 5.0, 0, 0), txn("a", "b", 7.0, 1, 0), txn("b", "a", 1.0, 2, 0)]
    assert edge_weights(events) == {("a", "b"): 2.0, ("b", "a"): 1.0}


def test_auc_hand_computed_with_ties():
    # positives score 0.9 and 0.5; negatives 0.5, 0.1.
    # pairs: (0.9>0.5) 1, (0.9>0.1) 1, (0.5=0.5) 0.5, (0.5>0.1) 1 -> 3.5 / 4
    assert auc([1, 1, 0, 0], [0.9, 0.5, 0.5, 0.1]) == 0.875
    assert auc([0, 1], [0.2, 0.8]) == 1.0
    with pytest.raises(ValueError):
        auc([1, 1], [0.1, 0.2])
