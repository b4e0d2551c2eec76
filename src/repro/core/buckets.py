"""1-d score bucketing for simple-group construction (paper §3.2).

The grouping module splits the score range of each property into a set of
*non-overlapping buckets* ``β(p)``.  The paper lists several 1-d interval
splitting methods that outperform general clustering on ordered data:
Jenks natural-breaks optimization, k-means, Expectation Maximization and
kernel-density splitting.  All of them are implemented here from scratch
(no scikit-learn offline), plus the simpler quantile and equal-width
strategies used in ablations.

A :class:`Bucket` is a sub-interval of ``[0, 1]``; the buckets returned by
:func:`split_scores` always partition the full ``[0, 1]`` range: every
bucket is closed on the left and open on the right, except the last which
is closed on both sides — matching the paper's running example
``[0, 0.4) / [0.4, 0.65) / [0.65, 1]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidBucketError

#: Default labels assigned to buckets, indexed by bucket count then position.
_DEFAULT_LABELS: dict[int, tuple[str, ...]] = {
    1: ("all",),
    2: ("low", "high"),
    3: ("low", "medium", "high"),
    4: ("low", "medium-low", "medium-high", "high"),
    5: ("lowest", "low", "medium", "high", "highest"),
}

#: Buckets used for Boolean (0/1-valued) properties: "false" and "true".
BOOLEAN_SPLITS: tuple[float, ...] = (0.5,)


@dataclass(frozen=True)
class Bucket:
    """A score sub-range ``b ⊆ [0, 1]`` with a human-readable label.

    ``closed_hi`` marks whether the upper bound is inclusive; only the last
    bucket of a partition is.
    """

    lo: float
    hi: float
    label: str
    closed_hi: bool = False

    def __post_init__(self) -> None:
        if not (0.0 <= self.lo <= self.hi <= 1.0):
            raise InvalidBucketError(
                f"bucket bounds must satisfy 0 <= lo <= hi <= 1, "
                f"got [{self.lo}, {self.hi}]"
            )
        if self.lo == self.hi and not self.closed_hi:
            raise InvalidBucketError(
                f"degenerate half-open bucket [{self.lo}, {self.hi}) is empty"
            )

    def contains(self, score: float) -> bool:
        """Return whether ``score`` falls inside this bucket."""
        if self.closed_hi:
            return self.lo <= score <= self.hi
        return self.lo <= score < self.hi

    def __contains__(self, score: object) -> bool:
        return isinstance(score, (int, float)) and self.contains(float(score))

    def __str__(self) -> str:
        right = "]" if self.closed_hi else ")"
        return f"{self.label} [{self.lo:g}, {self.hi:g}{right}"


def partition_from_splits(
    splits: tuple[float, ...] | list[float],
    labels: tuple[str, ...] | None = None,
) -> tuple[Bucket, ...]:
    """Build a partition of ``[0, 1]`` from interior split points.

    ``splits`` are the strictly increasing interior boundaries; ``k`` splits
    yield ``k + 1`` buckets.  Labels default to low/medium/high-style names
    when a convention exists for that bucket count, else ``bucket-i``.
    """
    points = [float(s) for s in splits]
    if any(not 0.0 < s < 1.0 for s in points):
        raise InvalidBucketError(f"split points must lie in (0, 1): {points}")
    if sorted(set(points)) != points:
        raise InvalidBucketError(
            f"split points must be strictly increasing: {points}"
        )
    bounds = [0.0, *points, 1.0]
    count = len(bounds) - 1
    if labels is None:
        labels = _DEFAULT_LABELS.get(
            count, tuple(f"bucket-{i}" for i in range(count))
        )
    if len(labels) != count:
        raise InvalidBucketError(
            f"expected {count} labels for {count} buckets, got {len(labels)}"
        )
    return tuple(
        Bucket(bounds[i], bounds[i + 1], labels[i], closed_hi=(i == count - 1))
        for i in range(count)
    )


def assign_bucket_indices(
    buckets: tuple[Bucket, ...] | list[Bucket],
    scores: np.ndarray,
) -> np.ndarray | None:
    """Vectorized bucket assignment for a contiguous partition of [0, 1].

    When ``buckets`` tile ``[0, 1]`` left-closed/right-open (last bucket
    closed) — the invariant every :func:`partition_from_splits` output
    satisfies — one ``np.searchsorted`` over the sorted interior split
    boundaries assigns each score its bucket index, replacing the
    per-(user, bucket) ``Bucket.contains`` loop of the grouping module.
    Returns ``None`` when the buckets are not such a partition or a score
    falls outside ``[0, 1]``, in which case callers must fall back to
    per-bucket membership tests.
    """
    if not buckets:
        return None
    if (
        buckets[0].lo != 0.0
        or buckets[-1].hi != 1.0
        or not buckets[-1].closed_hi
    ):
        return None
    for left, right in zip(buckets, buckets[1:]):
        if left.hi != right.lo or left.closed_hi:
            return None
    scores = np.asarray(scores, dtype=float)
    if scores.size and (scores.min() < 0.0 or scores.max() > 1.0):
        return None
    boundaries = np.array([b.lo for b in buckets[1:]], dtype=float)
    return np.searchsorted(boundaries, scores, side="right")


def boolean_partition() -> tuple[Bucket, ...]:
    """The two-bucket partition used for true/false properties."""
    return partition_from_splits(BOOLEAN_SPLITS, labels=("false", "true"))


def is_boolean(scores: np.ndarray, tolerance: float = 1e-9) -> bool:
    """Detect 0/1-valued properties such as ``livesIn Tokyo``."""
    scores = np.asarray(scores, dtype=float)
    return bool(
        np.all((np.abs(scores) <= tolerance) | (np.abs(scores - 1.0) <= tolerance))
    )


# ---------------------------------------------------------------------------
# Splitting strategies.  Each takes (sorted unique scores, k) and returns
# interior split points in (0, 1).
# ---------------------------------------------------------------------------


def _midpoints_between_classes(
    sorted_scores: np.ndarray, assignment: np.ndarray
) -> list[float]:
    """Convert a class assignment over sorted scores into split points."""
    splits: list[float] = []
    for i in range(1, len(sorted_scores)):
        if assignment[i] != assignment[i - 1]:
            mid = float((sorted_scores[i - 1] + sorted_scores[i]) / 2.0)
            if 0.0 < mid < 1.0 and (not splits or mid > splits[-1]):
                splits.append(mid)
    return splits


def equal_width_splits(scores: np.ndarray, k: int) -> list[float]:
    """Split ``[0, 1]`` into ``k`` equally wide intervals (ignores data)."""
    return [i / k for i in range(1, k)]


def quantile_splits(scores: np.ndarray, k: int) -> list[float]:
    """Split at the empirical ``i/k`` quantiles of the score sample."""
    scores = np.sort(np.asarray(scores, dtype=float))
    splits: list[float] = []
    for i in range(1, k):
        q = float(np.quantile(scores, i / k))
        if 0.0 < q < 1.0 and (not splits or q > splits[-1]):
            splits.append(q)
    return splits


#: Cells per DP tile, so every temporary of a tile stays within 64 KiB of
#: float64.  Whole-layer ``(n + 1)²`` temporaries (601 × 601) ran slower
#: and raised a cold serving pass's peak RSS from 79 to 88 MiB.
_JENKS_TILE_CELLS = 8192


def _jenks_layer_tile(
    prefix: np.ndarray,
    prefix_sq: np.ndarray,
    prev_cost: np.ndarray,
    first: int,
    lo: int,
    hi: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Best last-class start for every end ``j`` in ``[lo, hi)``.

    Cell ``(i, j)`` for ``first <= i < hi - 1`` is ``prev_cost[i] +
    ssd(values[i:j])``, evaluated exactly as the scalar DP does:
    ``prefix_sq[j] - prefix_sq[i] - total * total / count``.  Cells with
    ``i >= j`` (empty classes, ``0/0``) are masked to ``+inf`` and the
    first minimum over ascending ``i`` wins, as ``np.argmin`` picks it.
    Returns ``(cost, start)`` per end.
    """
    # One row per end j, one column per start i: the long axis is the
    # contiguous one, so each numpy pass runs a few long inner loops.
    ends = slice(lo, hi)
    starts = slice(first, hi - 1)
    # count = j - i is exact as a float, so dividing by it gives the same
    # quotient as dividing by the integer.
    count = np.arange(lo, hi, dtype=float)[:, None] - np.arange(
        first, hi - 1.0
    )
    total = prefix[ends, None] - prefix[starts]
    candidates = prefix_sq[ends, None] - prefix_sq[starts]
    total *= total
    with np.errstate(divide="ignore", invalid="ignore"):
        total /= count
    candidates -= total
    candidates += prev_cost[starts]
    # Only the columns i >= lo hold empty-class cells.
    tail = slice(max(lo - first, 0), None)
    candidates[:, tail][count[:, tail] <= 0] = np.inf
    best = np.argmin(candidates, axis=1)
    return candidates[np.arange(hi - lo), best], best + first


def jenks_splits(scores: np.ndarray, k: int) -> list[float]:
    """Jenks natural-breaks optimization [Jenks 1967] via exact DP.

    Minimizes the total within-class sum of squared deviations (Fisher's
    dynamic program, O(k·n²)).  Large samples are deterministically
    down-sampled to keep the DP tractable; with ordered 1-d data this
    changes break positions negligibly.

    ``cost[c][j]`` is the best SSD splitting ``values[:j]`` into ``c``
    classes.  Layer 1 is closed-form (one class starting at 0), each
    middle layer is evaluated in column tiles of at most
    ``_JENKS_TILE_CELLS`` cells, and the last layer only at ``j = n``,
    the one cell the boundary recovery reads.
    """
    values = np.sort(np.asarray(scores, dtype=float))
    if len(values) > 600:
        idx = np.linspace(0, len(values) - 1, 600).round().astype(int)
        values = values[idx]
    n = len(values)
    k = min(k, len(np.unique(values)))
    if k <= 1 or n <= 1:
        return []

    prefix = np.concatenate([[0.0], np.cumsum(values)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(values**2)])

    cost = np.full((k + 1, n + 1), np.inf)
    back = np.zeros((k + 1, n + 1), dtype=int)
    cost[0, 0] = 0.0
    # Layer 1: cost[0] is inf past index 0, so the only finite candidate
    # is the class values[0:j] and back[1] stays 0.
    ends = np.arange(1, n + 1)
    totals = prefix[ends] - prefix[0]
    cost[1, ends] = cost[0, 0] + (
        prefix_sq[ends] - prefix_sq[0] - totals * totals / ends
    )
    for c in range(2, k):
        lo = c
        while lo <= n:
            # Ends [lo, lo + w) need the rows i in [c - 1, lo + w - 1):
            # the widest tile has (skew + w) * w <= _JENKS_TILE_CELLS.
            skew = lo - c
            root = math.isqrt(skew * skew + 4 * _JENKS_TILE_CELLS)
            hi = min(lo + max((root - skew) // 2, 1), n + 1)
            cost[c, lo:hi], back[c, lo:hi] = _jenks_layer_tile(
                prefix, prefix_sq, cost[c - 1], c - 1, lo, hi
            )
            lo = hi
    _, last_start = _jenks_layer_tile(
        prefix, prefix_sq, cost[k - 1], k - 1, n, n + 1
    )
    back[k, n] = last_start[0]

    # Recover class boundaries.
    assignment = np.zeros(n, dtype=int)
    j = n
    for c in range(k, 0, -1):
        i = back[c][j]
        assignment[i:j] = c - 1
        j = i
    return _midpoints_between_classes(values, assignment)


def kmeans1d_splits(
    scores: np.ndarray, k: int, max_iter: int = 100
) -> list[float]:
    """1-d k-means (Lloyd's algorithm with quantile seeding)."""
    values = np.sort(np.asarray(scores, dtype=float))
    k = min(k, len(np.unique(values)))
    if k <= 1:
        return []
    centers = np.quantile(values, [(2 * i + 1) / (2 * k) for i in range(k)])
    centers = np.unique(centers)
    for _ in range(max_iter):
        assignment = np.argmin(np.abs(values[:, None] - centers[None, :]), axis=1)
        new_centers = np.array(
            [
                values[assignment == c].mean() if np.any(assignment == c) else centers[c]
                for c in range(len(centers))
            ]
        )
        if np.allclose(new_centers, centers):
            break
        centers = new_centers
    assignment = np.argmin(np.abs(values[:, None] - centers[None, :]), axis=1)
    return _midpoints_between_classes(values, assignment)


def em_splits(scores: np.ndarray, k: int, max_iter: int = 200) -> list[float]:
    """1-d Gaussian-mixture EM; splits where responsibility flips."""
    values = np.sort(np.asarray(scores, dtype=float))
    k = min(k, len(np.unique(values)))
    if k <= 1:
        return []
    means = np.quantile(values, [(2 * i + 1) / (2 * k) for i in range(k)])
    sigmas = np.full(k, max(float(values.std()), 1e-3) / k)
    weights = np.full(k, 1.0 / k)
    for _ in range(max_iter):
        # E-step: responsibilities (k × n), guarding against underflow.
        diff = values[None, :] - means[:, None]
        log_pdf = (
            -0.5 * (diff / sigmas[:, None]) ** 2
            - np.log(sigmas[:, None])
            + np.log(weights[:, None] + 1e-300)
        )
        log_pdf -= log_pdf.max(axis=0, keepdims=True)
        resp = np.exp(log_pdf)
        resp /= resp.sum(axis=0, keepdims=True)
        # M-step.
        mass = resp.sum(axis=1) + 1e-12
        new_means = (resp @ values) / mass
        new_sigmas = np.sqrt(
            ((values[None, :] - new_means[:, None]) ** 2 * resp).sum(axis=1) / mass
        )
        new_sigmas = np.maximum(new_sigmas, 1e-4)
        new_weights = mass / mass.sum()
        if np.allclose(new_means, means, atol=1e-7):
            means, sigmas, weights = new_means, new_sigmas, new_weights
            break
        means, sigmas, weights = new_means, new_sigmas, new_weights
    order = np.argsort(means)
    means, sigmas, weights = means[order], sigmas[order], weights[order]
    diff = values[None, :] - means[:, None]
    log_pdf = (
        -0.5 * (diff / sigmas[:, None]) ** 2
        - np.log(sigmas[:, None])
        + np.log(weights[:, None] + 1e-300)
    )
    assignment = np.argmax(log_pdf, axis=0)
    return _midpoints_between_classes(values, assignment)


def kde_splits(scores: np.ndarray, k: int, grid_size: int = 512) -> list[float]:
    """Split at the deepest local minima of a Gaussian KDE of the scores.

    At most ``k - 1`` split points are returned; fewer when the density has
    fewer valleys (the data genuinely has fewer modes).
    """
    values = np.asarray(scores, dtype=float)
    if len(np.unique(values)) <= 1 or k <= 1:
        return []
    from scipy.stats import gaussian_kde

    try:
        kde = gaussian_kde(values)
    except np.linalg.LinAlgError:  # singular covariance: constant-ish data
        return []
    grid = np.linspace(0.0, 1.0, grid_size)
    density = kde(grid)
    interior = np.arange(1, grid_size - 1)
    minima = interior[
        (density[interior] < density[interior - 1])
        & (density[interior] <= density[interior + 1])
    ]
    if len(minima) == 0:
        # Unimodal density: fall back to quantile splits for determinism.
        return quantile_splits(values, k)
    # Keep the k-1 deepest valleys, in increasing score order.
    depth_order = minima[np.argsort(density[minima])][: k - 1]
    return sorted(float(grid[i]) for i in np.sort(depth_order))


#: Registry of splitting strategies accepted by :func:`split_scores`.
STRATEGIES: dict[str, Callable[[np.ndarray, int], list[float]]] = {
    "jenks": jenks_splits,
    "kmeans": kmeans1d_splits,
    "em": em_splits,
    "kde": kde_splits,
    "quantile": quantile_splits,
    "equal-width": equal_width_splits,
}


def split_scores(
    scores: np.ndarray,
    k: int = 3,
    strategy: str = "jenks",
    labels: tuple[str, ...] | None = None,
) -> tuple[Bucket, ...]:
    """Compute the bucket partition ``β(p)`` for one property's scores.

    Boolean-valued score vectors always get the false/true partition, since
    splitting 0/1 data by density is meaningless (paper Example 3.5 treats
    them as distinct group kinds).
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise InvalidBucketError("cannot bucket an empty score vector")
    if k < 1:
        raise InvalidBucketError(f"bucket count must be >= 1, got {k}")
    if is_boolean(scores):
        return boolean_partition()
    try:
        strategy_fn = STRATEGIES[strategy]
    except KeyError:
        raise InvalidBucketError(
            f"unknown bucketing strategy {strategy!r}; "
            f"choose from {sorted(STRATEGIES)}"
        ) from None
    splits = strategy_fn(scores, k)
    return partition_from_splits(tuple(splits), labels=labels)
