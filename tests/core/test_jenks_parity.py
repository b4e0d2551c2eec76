"""Differential tests: the tiled Jenks DP against the scalar oracle.

``jenks_splits`` evaluates each layer of Fisher's dynamic program over
column tiles.  It promises *the same splits*, float for float, as the
scalar DP below, which makes one numpy call per ``(c, j)`` cell: every
cell is the same expression in the same order, the argmin takes the
first minimum and empty-class cells are masked to ``+inf``.  These tests
pin that on adversarial inputs (ties, constants, ``n <= k``, the
600-point down-sample edge, exact 0.0/1.0 scores) and on the serve and
scale population shapes end to end through both grouping paths.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ColumnarProfiles,
    GroupingConfig,
    build_columnar_instance,
    build_simple_groups,
    columnar_to_repository,
)
from repro.core import buckets
from repro.core.buckets import _midpoints_between_classes, jenks_splits
from repro.datasets.synth import (
    generate_profile_columns,
    generate_profile_repository,
)


def jenks_splits_oracle(scores: np.ndarray, k: int) -> list[float]:
    """Fisher's DP with one vectorized argmin per ``(c, j)`` cell."""
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
    cost[0][0] = 0.0
    for c in range(1, k + 1):
        for j in range(c, n + 1):
            i = np.arange(c - 1, j)
            count = j - i
            total = prefix[j] - prefix[i]
            ssd = prefix_sq[j] - prefix_sq[i] - total * total / count
            candidates = cost[c - 1, i] + ssd
            best_pos = int(np.argmin(candidates))
            cost[c][j] = candidates[best_pos]
            back[c][j] = i[best_pos]

    assignment = np.zeros(n, dtype=int)
    j = n
    for c in range(k, 0, -1):
        i = back[c][j]
        assignment[i:j] = c - 1
        j = i
    return _midpoints_between_classes(values, assignment)


def _assert_same(scores, k):
    scores = np.asarray(scores, dtype=float)
    assert jenks_splits(scores, k) == jenks_splits_oracle(scores, k)


RATINGS = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Scores with exact 0.0 / 1.0 endpoints mixed into arbitrary values.
score_st = st.one_of(
    st.just(0.0),
    st.just(1.0),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(score_st, min_size=1, max_size=90), st.integers(2, 6))
def test_arbitrary_scores(scores, k):
    _assert_same(scores, k)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from(RATINGS), min_size=1, max_size=120),
    st.integers(2, 6),
)
def test_five_level_ratings(scores, k):
    _assert_same(scores, k)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(score_st, min_size=1, max_size=4),
    st.integers(1, 40),
    st.integers(2, 6),
    st.randoms(use_true_random=False),
)
def test_heavy_ties(pool, n, k, rnd):
    _assert_same([rnd.choice(pool) for _ in range(n)], k)


@settings(max_examples=30, deadline=None)
@given(score_st, st.integers(1, 50), st.integers(2, 6))
def test_constant_vectors(value, n, k):
    assert jenks_splits(np.full(n, value), k) == []
    _assert_same(np.full(n, value), k)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.data())
def test_n_at_most_k(k, data):
    scores = data.draw(st.lists(score_st, min_size=1, max_size=k))
    _assert_same(scores, k)


@pytest.mark.parametrize("n", (599, 600, 601, 1200))
@pytest.mark.parametrize("kind", ("uniform", "ratings", "endpoints"))
def test_downsample_edge(n, kind):
    rng = np.random.default_rng(n)
    if kind == "uniform":
        scores = rng.random(n)
    elif kind == "ratings":
        scores = rng.choice(RATINGS, size=n)
    else:
        endpoints = rng.integers(0, 2, n).astype(float)
        scores = np.where(rng.random(n) < 0.3, endpoints, rng.random(n))
    k = 2 + n % 5
    _assert_same(scores, k)


# -- end to end: both grouping paths, oracle swapped in --------------------


def _group_view(groups):
    return [
        (group.key, group.bucket, group.members) for group in groups
    ]


def _index_view(instance):
    index = instance.index
    return (
        instance.buckets,
        index.users,
        index.group_keys,
        *(
            getattr(index, name).tolist()
            for name in (
                "u_indptr", "u_indices", "g_indptr", "g_indices", "cov", "wei",
            )
        ),
    )


@pytest.fixture(scope="module")
def memo_oracle():
    """The oracle, memoized per (sorted scores, k) across both builds."""
    seen: dict[tuple[bytes, int], list[float]] = {}

    def oracle(scores, k):
        key = (np.sort(np.asarray(scores, dtype=float)).tobytes(), k)
        if key not in seen:
            seen[key] = jenks_splits_oracle(scores, k)
        return seen[key]

    return oracle


@pytest.mark.parametrize(
    "shape",
    (
        # perfbench serve-read / serve-ingest population.
        ("repository", 2000, 120, 25.0),
        # perfbench offline-scale population.
        ("columns", 20_000, 60, 8.0),
    ),
    ids=("serve", "scale"),
)
def test_grouping_paths_match_with_oracle_strategy(
    shape, memo_oracle, monkeypatch
):
    kind, users, properties, mean = shape
    if kind == "repository":
        repository = generate_profile_repository(
            n_users=users,
            n_properties=properties,
            mean_profile_size=mean,
            seed=3,
        )
        columns = ColumnarProfiles.from_repository(repository)
    else:
        columns = generate_profile_columns(users, properties, mean, seed=3)
        repository = columnar_to_repository(columns)
    grouping = GroupingConfig()

    def build():
        return (
            _group_view(build_simple_groups(repository, grouping)),
            _index_view(build_columnar_instance(columns, budget=8)),
        )

    tiled = build()
    monkeypatch.setitem(buckets.STRATEGIES, "jenks", memo_oracle)
    oracle = build()
    assert tiled[0] == oracle[0]
    assert tiled[1] == oracle[1]
