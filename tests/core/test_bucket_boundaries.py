"""Boundary agreement: every bucket-assignment path picks the same bucket.

A score is placed in a bucket in four places:

* :func:`~repro.core.buckets.assign_bucket_indices` — the searchsorted
  shortcut of both grouping paths;
* ``columnar._assign_fallback`` — the per-bucket masks of the columnar
  build when the shortcut declines;
* :meth:`Bucket.contains` — the dict grouping's fallback and the
  explanations;
* the frozen-bucket assignment inside
  :func:`~repro.core.updates.reassign_groups`, which places the users a
  delta upserts.

They must agree on every split value, both of its ``np.nextafter``
neighbours and the endpoints 0.0 and 1.0, for data-driven partitions and
``fixed_splits`` ones alike.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import UserProfile, UserRepository
from repro.core.buckets import (
    STRATEGIES,
    assign_bucket_indices,
    boolean_partition,
    partition_from_splits,
    split_scores,
)
from repro.core.columnar import _assign_fallback
from repro.core.groups import Group, GroupKey, GroupSet
from repro.core.updates import ProfileDelta, reassign_groups


def _probes(buckets) -> np.ndarray:
    points = [0.0, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0), 1.0]
    for bucket in buckets[1:]:
        split = bucket.lo
        points += [np.nextafter(split, 0.0), split, np.nextafter(split, 1.0)]
    return np.array(sorted(set(points)), dtype=float)


def _by_contains(buckets, probes) -> list[int]:
    return [
        next(i for i, b in enumerate(buckets) if b.contains(float(p)))
        for p in probes
    ]


def _by_reassign(buckets, probes) -> list[int]:
    """The bucket each probe's user joins when a delta upserts it."""
    groups = GroupSet()
    for bucket in buckets:
        groups.add(Group(GroupKey("p", bucket.label), frozenset(), bucket))
    users = [
        UserProfile(f"u{i}", {"p": float(p)}) for i, p in enumerate(probes)
    ]
    updated = reassign_groups(
        groups, UserRepository(users), ProfileDelta(upserts=tuple(users))
    )
    position = {b.label: i for i, b in enumerate(buckets)}
    joined: dict[str, list[int]] = {u.user_id: [] for u in users}
    for group in updated:
        for user_id in group.members:
            joined[user_id].append(position[group.key.bucket_label])
    assert all(len(found) == 1 for found in joined.values()), joined
    return [joined[u.user_id][0] for u in users]


def _assert_agree(buckets):
    probes = _probes(buckets)
    searched = assign_bucket_indices(buckets, probes)
    assert searched is not None
    searched = searched.tolist()
    assert _assign_fallback(buckets, probes).tolist() == searched
    assert _by_contains(buckets, probes) == searched
    assert _by_reassign(buckets, probes) == searched
    # A split value opens the bucket it bounds from below.
    for position, bucket in enumerate(buckets[1:], start=1):
        assert searched[probes.tolist().index(bucket.lo)] == position


SAMPLES = {
    "uniform": np.random.default_rng(0).random(400),
    "ratings": np.random.default_rng(1).choice(
        [0.0, 0.25, 0.5, 0.75, 1.0], size=300
    ),
    "skewed": np.round(np.random.default_rng(2).beta(0.5, 2.0, 500), 2),
}


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@pytest.mark.parametrize("sample", sorted(SAMPLES))
@pytest.mark.parametrize("k", (2, 3, 5))
def test_data_driven_partitions(strategy, sample, k):
    _assert_agree(split_scores(SAMPLES[sample], k=k, strategy=strategy))


@pytest.mark.parametrize(
    "splits",
    (
        (0.4, 0.65),
        (0.5,),
        (0.1, 0.2, 0.3, 0.9),
        (float(np.nextafter(0.0, 1.0)),),
        (float(np.nextafter(1.0, 0.0)),),
        (0.25, float(np.nextafter(0.25, 1.0))),
    ),
)
def test_fixed_split_partitions(splits):
    _assert_agree(partition_from_splits(splits))


def test_boolean_partition():
    _assert_agree(boolean_partition())


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                  exclude_max=True),
        min_size=0,
        max_size=6,
        unique=True,
    )
)
def test_arbitrary_fixed_splits(points):
    _assert_agree(partition_from_splits(tuple(sorted(points))))
