"""Reference computations the workloads check the program's outputs against.

Each function recomputes one result from first principles, without calling
the code path it checks:

* :class:`ReferenceEnsemble` walks a trained boosted-tree ensemble node by
  node over flattened arrays of its own (the program walks its trees
  recursively over index sets);
* :func:`window_rows` aggregates the raw event log per account over a
  left-open, right-closed event-time window by brute force (the program uses
  a bucketed streaming engine or windowed SQL);
* :func:`edge_weights` counts payer -> payee transfers by brute force (the
  program runs a MapReduce job);
* :func:`auc` is the Mann-Whitney rank statistic.

Every function is covered by hand-computed cases in ``test_reference.py``.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 24 * SECONDS_PER_HOUR

#: Scalar fields of a per-account aggregate row, plus the ``payers`` set.
ROW_FIELDS = (
    "out_count",
    "out_amount_sum",
    "out_amount_mean",
    "out_amount_max",
    "distinct_payees",
    "night_fraction",
    "in_count",
    "in_amount_sum",
    "in_amount_mean",
    "in_amount_max",
    "distinct_payers",
)

#: Fields whose value depends on the order floating-point amounts are added in.
SUM_FIELDS = ("out_amount_sum", "out_amount_mean", "in_amount_sum", "in_amount_mean")


# ---------------------------------------------------------------------------
# Boosted-tree ensemble walk
# ---------------------------------------------------------------------------


class ReferenceEnsemble:
    """A boosted binary-tree ensemble flattened into node arrays.

    ``roots`` are node objects exposing ``is_leaf``, ``value``,
    ``feature_index``, ``threshold``, ``left`` and ``right`` (the program's
    ``TreeNode`` fields).  A row goes left when ``x[feature] <= threshold``;
    NaN compares false and goes right.  The score is ``initial_score`` plus
    ``learning_rate * leaf value`` per tree, added tree by tree; the
    probability is the logistic of the score clipped to [-30, 30].
    """

    def __init__(self, roots: Sequence[object], *, initial_score: float, learning_rate: float):
        self.initial_score = float(initial_score)
        self.learning_rate = float(learning_rate)
        self.trees: List[Tuple[np.ndarray, ...]] = [self._flatten(root) for root in roots]

    @staticmethod
    def _flatten(root: object) -> Tuple[np.ndarray, ...]:
        feature: List[int] = []
        threshold: List[float] = []
        left: List[int] = []
        right: List[int] = []
        value: List[float] = []
        leaf: List[bool] = []
        pending = [(root, -1, False)]
        while pending:
            node, parent, is_right = pending.pop()
            index = len(value)
            if parent >= 0:
                (right if is_right else left)[parent] = index
            is_leaf = bool(node.is_leaf)
            leaf.append(is_leaf)
            value.append(float(node.value))
            feature.append(-1 if is_leaf else int(node.feature_index))
            threshold.append(0.0 if is_leaf else float(node.threshold))
            left.append(index)
            right.append(index)
            if not is_leaf:
                if node.left is None or node.right is None:
                    raise ValueError("split node without two children")
                pending.append((node.right, index, True))
                pending.append((node.left, index, False))
        return (
            np.asarray(feature, dtype=np.int64),
            np.asarray(threshold, dtype=np.float64),
            np.asarray(left, dtype=np.int64),
            np.asarray(right, dtype=np.int64),
            np.asarray(value, dtype=np.float64),
            np.asarray(leaf, dtype=bool),
        )

    def leaf_values(self, tree: int, rows: np.ndarray) -> np.ndarray:
        """Leaf value each row reaches in tree ``tree``."""
        feature, threshold, left, right, value, leaf = self.trees[tree]
        node = np.zeros(rows.shape[0], dtype=np.int64)
        positions = np.arange(rows.shape[0])
        while True:
            active = ~leaf[node]
            if not active.any():
                return value[node]
            at = node[active]
            goes_left = rows[positions[active], feature[at]] <= threshold[at]
            node[active] = np.where(goes_left, left[at], right[at])

    def decision_function(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        scores = np.full(rows.shape[0], self.initial_score)
        for tree in range(len(self.trees)):
            scores += self.learning_rate * self.leaf_values(tree, rows)
        return scores

    def predict_proba(self, rows: np.ndarray) -> np.ndarray:
        scores = self.decision_function(rows)
        return 1.0 / (1.0 + np.exp(-np.clip(scores, -30.0, 30.0)))


def ensemble_of(model: object) -> ReferenceEnsemble:
    """The reference walk over a fitted boosted-tree detector.

    The trained trees are only reachable through the detector's ``_trees``
    list; the walk reads their node fields and nothing else of the model.
    """
    trees = getattr(model, "_trees")
    if getattr(model, "objective", "logistic") != "logistic":
        raise ValueError("the reference walk covers the logistic objective only")
    return ReferenceEnsemble(
        [tree.tree_ for tree in trees],
        initial_score=getattr(model, "_initial_score"),
        learning_rate=model.learning_rate,  # type: ignore[attr-defined]
    )


# ---------------------------------------------------------------------------
# Windowed per-account aggregates
# ---------------------------------------------------------------------------


def event_time(txn: object) -> int:
    """Seconds since day 0 of an hour-granular transaction."""
    return int(txn.day) * SECONDS_PER_DAY + int(txn.hour) * SECONDS_PER_HOUR  # type: ignore[attr-defined]


def is_night(hour: int) -> bool:
    return hour >= 22 or hour < 6


def empty_row() -> Dict[str, object]:
    row: Dict[str, object] = {name: 0.0 for name in ROW_FIELDS}
    row["payers"] = frozenset()
    return row


def account_row(
    events: Iterable[object], account: str, *, as_of: float, window_seconds: float
) -> Dict[str, object]:
    """One account's aggregate row over ``(as_of - window_seconds, as_of]``.

    ``events`` may hold any transactions; only those with ``account`` as
    payer or payee count.  Amount sums are folded per hour bucket in the
    order the events are given, then bucket by bucket in ascending time,
    starting from 0.0: a fixed, documented addition order, so a result can be
    compared exactly with an engine that adds in the same order and within a
    relative tolerance with one that does not.
    """
    start = as_of - window_seconds
    buckets: Dict[int, List[float]] = defaultdict(lambda: [0.0, 0.0])
    out_count = in_count = night = 0
    out_max = in_max = 0.0
    payees: set = set()
    payers: set = set()
    for txn in events:
        t = event_time(txn)
        if not start < t <= as_of:
            continue
        bucket = buckets[t - t % SECONDS_PER_HOUR]
        if txn.payer_id == account:  # type: ignore[attr-defined]
            out_count += 1
            bucket[0] += txn.amount  # type: ignore[attr-defined]
            out_max = max(out_max, txn.amount)  # type: ignore[attr-defined]
            night += is_night(txn.hour)  # type: ignore[attr-defined]
            payees.add(txn.payee_id)  # type: ignore[attr-defined]
        if txn.payee_id == account:  # type: ignore[attr-defined]
            in_count += 1
            bucket[1] += txn.amount  # type: ignore[attr-defined]
            in_max = max(in_max, txn.amount)  # type: ignore[attr-defined]
            payers.add(txn.payer_id)  # type: ignore[attr-defined]
    out_sum = in_sum = 0.0
    for key in sorted(buckets):
        out_sum += buckets[key][0]
        in_sum += buckets[key][1]
    return {
        "out_count": float(out_count),
        "out_amount_sum": out_sum,
        "out_amount_mean": out_sum / out_count if out_count else 0.0,
        "out_amount_max": out_max,
        "distinct_payees": float(len(payees)),
        "night_fraction": night / out_count if out_count else 0.0,
        "in_count": float(in_count),
        "in_amount_sum": in_sum,
        "in_amount_mean": in_sum / in_count if in_count else 0.0,
        "in_amount_max": in_max,
        "distinct_payers": float(len(payers)),
        "payers": frozenset(payers),
    }


def events_by_account(events: Iterable[object]) -> Dict[str, List[object]]:
    """Each account's events (as payer or payee), in the order given."""
    index: Dict[str, List[object]] = defaultdict(list)
    for txn in events:
        index[txn.payer_id].append(txn)  # type: ignore[attr-defined]
        if txn.payee_id != txn.payer_id:  # type: ignore[attr-defined]
            index[txn.payee_id].append(txn)  # type: ignore[attr-defined]
    return index


def window_rows(
    events: Sequence[object], *, as_of: float, window_seconds: float
) -> Dict[str, Dict[str, object]]:
    """Rows of every account with at least one event inside the window."""
    start = as_of - window_seconds
    inside = [txn for txn in events if start < event_time(txn) <= as_of]
    return {
        account: account_row(own, account, as_of=as_of, window_seconds=window_seconds)
        for account, own in events_by_account(inside).items()
    }


def row_mismatch(
    actual: Mapping[str, object], expected: Mapping[str, object], *, rel_tol: float = 0.0
) -> str:
    """'' when two aggregate rows agree, else the first differing field.

    Counts, maxima, fractions and the payer set must be equal; the amount
    sums and means may differ by ``rel_tol`` relative (0 demands equality).
    """
    for name in ROW_FIELDS:
        a = float(actual.get(name, 0.0))  # type: ignore[arg-type]
        b = float(expected.get(name, 0.0))  # type: ignore[arg-type]
        if name in SUM_FIELDS and rel_tol > 0.0:
            if not math.isclose(a, b, rel_tol=rel_tol, abs_tol=rel_tol):
                return f"{name}: {a!r} != {b!r}"
        elif a != b:
            return f"{name}: {a!r} != {b!r}"
    if frozenset(actual.get("payers", ())) != frozenset(expected.get("payers", ())):  # type: ignore[arg-type]
        return "payers differ"
    return ""


def aggregation_features(
    payer_row: Mapping[str, object], payee_row: Mapping[str, object], payer_id: str
) -> List[float]:
    """The 12 aggregation columns of one transfer, from its two account rows.

    Payer outbound fields, payee inbound fields, then 1.0 when the payer is
    not among the payee's in-window payers (a new payer), else 0.0.  A
    missing row reads as zeros with no payers.
    """
    return [
        float(payer_row.get("out_count", 0.0)),  # type: ignore[arg-type]
        float(payer_row.get("out_amount_sum", 0.0)),  # type: ignore[arg-type]
        float(payer_row.get("out_amount_mean", 0.0)),  # type: ignore[arg-type]
        float(payer_row.get("out_amount_max", 0.0)),  # type: ignore[arg-type]
        float(payer_row.get("distinct_payees", 0.0)),  # type: ignore[arg-type]
        float(payer_row.get("night_fraction", 0.0)),  # type: ignore[arg-type]
        float(payee_row.get("in_count", 0.0)),  # type: ignore[arg-type]
        float(payee_row.get("in_amount_sum", 0.0)),  # type: ignore[arg-type]
        float(payee_row.get("in_amount_mean", 0.0)),  # type: ignore[arg-type]
        float(payee_row.get("in_amount_max", 0.0)),  # type: ignore[arg-type]
        float(payee_row.get("distinct_payers", 0.0)),  # type: ignore[arg-type]
        0.0 if payer_id in payee_row.get("payers", ()) else 1.0,  # type: ignore[operator]
    ]


# ---------------------------------------------------------------------------
# Transaction-network edges and ranking quality
# ---------------------------------------------------------------------------


def edge_weights(events: Iterable[object]) -> Dict[Tuple[str, str], float]:
    """Weight of every payer -> payee edge: the number of transfers on it."""
    counts = Counter((txn.payer_id, txn.payee_id) for txn in events)  # type: ignore[attr-defined]
    return {pair: float(count) for pair, count in counts.items()}


def auc(labels: Sequence[float], scores: Sequence[float]) -> float:
    """Area under the ROC curve: P(score of a positive > score of a negative),
    ties counting one half (the Mann-Whitney U statistic over n+ * n-)."""
    labels = np.asarray(labels, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    positives = int((labels > 0.5).sum())
    negatives = labels.shape[0] - positives
    if positives == 0 or negatives == 0:
        raise ValueError("AUC needs both classes")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.shape[0], dtype=np.float64)
    sorted_scores = scores[order]
    start = 0
    while start < sorted_scores.shape[0]:
        stop = start
        while stop + 1 < sorted_scores.shape[0] and sorted_scores[stop + 1] == sorted_scores[start]:
            stop += 1
        ranks[order[start : stop + 1]] = (start + stop) / 2.0 + 1.0
        start = stop + 1
    positive_rank_sum = float(ranks[labels > 0.5].sum())
    return (positive_rank_sum - positives * (positives + 1) / 2.0) / (positives * negatives)
