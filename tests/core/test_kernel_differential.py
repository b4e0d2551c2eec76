"""Differential tests for the one greedy kernel.

Every entry point that runs on :func:`repro.core.greedy.greedy_kernel`
must agree exactly with the pure-Python reference it replaces: eager vs
lazy, the id-pool, full-range and candidate-list array paths, the
customization row path, stochastic at ``sample_ratio=1``, both sharded
schemes at one shard, and the fair and clustered solvers against their
oracles.  Instances are drawn small and adversarial: tied weights, empty
groups, users in no group and budgets past the last positive gain, up to
budgets larger than the pool.

The wrap-safety case pins the kernel's ``-1`` retirement value: a
retired pick may later lose the weight of a group it belongs to, and a
large negative sentinel wraps around int64 on such a subtraction, after
which the same user is picked twice.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.constraints import (
    ClusterSpec,
    ConstraintSpec,
    clustered_select_oracle,
    constrained_select,
    fair_select_oracle,
    partition_rows,
)
from repro.constraints.clustered import clustered_select_rows
from repro.constraints.fair import fair_select_rows
from repro.core import (
    CustomizationFeedback,
    InstanceIndex,
    custom_select,
    greedy_select,
    instance_index,
    select_from_index,
)
from repro.core.errors import InfeasibleConstraintError, InvalidConstraintError
from repro.core.greedy import _greedy_lazy, select_sharded_streaming
from repro.core.groups import Group, GroupKey, GroupSet
from repro.core.instance import DiversificationInstance
from repro.core.profiles import UserProfile, UserRepository

# -- strategies -------------------------------------------------------------


@st.composite
def cases(draw):
    """A small instance, its repository and a budget.

    Group memberships may be empty, weights collide often, some users
    sit in no group, and the budget ranges past the population.
    """
    n_users = draw(st.integers(1, 9))
    users = [f"u{i:02d}" for i in range(n_users)]
    n_groups = draw(st.integers(0, 6))
    groups = []
    wei = {}
    cov = {}
    for g in range(n_groups):
        # Three properties, so floors and ceilings share a property.
        key = GroupKey(f"p{g % 3}", f"b{g}")
        members = draw(st.sets(st.sampled_from(users), max_size=n_users))
        groups.append(Group(key, frozenset(members)))
        wei[key] = draw(st.integers(1, 3))
        cov[key] = draw(st.integers(1, 2))
    budget = draw(st.integers(1, n_users + 3))
    instance = DiversificationInstance(
        groups=GroupSet(groups),
        wei=wei,
        cov=cov,
        budget=budget,
        population_size=n_users,
    )
    repository = UserRepository([UserProfile(u, {}) for u in users])
    pool = draw(st.lists(st.sampled_from(users), max_size=n_users + 2))
    return repository, instance, budget, pool


def _triple(result):
    return tuple(result.selected), tuple(result.gains), result.score


def _eager(repository, instance, budget, candidates=None):
    return _triple(
        greedy_select(
            repository, instance, budget, candidates=candidates,
            method="eager",
        )
    )


# -- the unconstrained entry points -----------------------------------------


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cases())
def test_unconstrained_entry_points_agree(case):
    repository, instance, budget, pool = case
    index = instance_index(instance)
    assert index.vectorizable
    grouped = list(index.users)

    eager = _eager(repository, instance, budget)
    assert _triple(
        greedy_select(repository, instance, budget, method="lazy")
    ) == eager
    for method, options in (
        ("matrix", {}),
        ("stochastic", {"sample_ratio": 1.0}),
        ("sharded", {"shards": 1}),
    ):
        # Id pools keep candidates in no group as zero-gain picks.
        assert _triple(
            greedy_select(
                repository, instance, budget, method=method, **options
            )
        ) == eager, method
        assert _triple(
            greedy_select(
                repository, instance, budget, candidates=pool,
                method=method, **options,
            )
        ) == _eager(repository, instance, budget, pool), method
        # The index knows only grouped users: full range and candidate
        # list both run over dense rows.
        assert _triple(
            select_from_index(index, budget, method=method, **options)
        ) == _eager(repository, instance, budget, grouped), method
        assert _triple(
            select_from_index(
                index, budget, method=method, candidates=pool, **options
            )
        ) == _eager(
            repository, instance, budget,
            [u for u in pool if u in index.user_pos],
        ), method

    assert _triple(
        select_sharded_streaming(index, budget, shards=1)
    ) == _eager(repository, instance, budget, grouped)

    if grouped:
        # Every repository user indexed: customization's row-set path.
        indexed = UserRepository([UserProfile(u, {}) for u in grouped])
        custom = custom_select(
            indexed, instance, CustomizationFeedback.none(), budget
        )
        assert _triple(custom.result) == _eager(
            indexed, instance, budget
        )


# -- the constrained solvers ------------------------------------------------


@st.composite
def fair_cases(draw):
    repository, instance, budget, pool = draw(cases())
    keys = sorted(instance.groups.keys, key=str)
    floors = draw(
        st.dictionaries(st.sampled_from(keys), st.integers(0, 2), max_size=3)
        if keys
        else st.just({})
    )
    ceilings = draw(
        st.dictionaries(st.sampled_from(keys), st.integers(0, 2), max_size=3)
        if keys
        else st.just({})
    )
    ceilings = {k: c for k, c in ceilings.items() if k not in floors}
    use_pool = draw(st.booleans())
    return repository, instance, budget, floors, ceilings, (
        pool if use_pool else None
    )


def _outcome(run):
    """``("ok", triple)`` or ``("infeasible",)`` — the message may name
    a different floor of equal deficit, the outcome may not differ."""
    try:
        return ("ok", run())
    except InfeasibleConstraintError:
        return ("infeasible",)


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(fair_cases())
def test_fair_matches_oracle(case):
    _repository, instance, budget, floors, ceilings, pool = case
    index = instance_index(instance)
    try:
        spec = ConstraintSpec.build(floors=floors, ceilings=ceilings)
        spec.validate_for_index(index)
    except InvalidConstraintError:
        assume(False)
    assume(not spec.is_empty)

    def native():
        return _triple(
            constrained_select(index, spec, budget, candidates=pool).result
        )

    def oracle():
        selected, gains, score = fair_select_oracle(
            instance, spec, budget,
            candidates=(
                None
                if pool is None
                else [u for u in set(pool) if u in index.user_pos]
            ),
        )
        return tuple(selected), tuple(gains), score

    assert _outcome(native) == _outcome(oracle)


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    cases(),
    st.sampled_from(["stratified", "kmeans"]),
    st.integers(1, 3),
)
def test_clustered_matches_oracle(case, method, k):
    _repository, instance, budget, _pool = case
    index = instance_index(instance)
    cluster_spec = ClusterSpec(method=method, k=k, seed=0)
    native = constrained_select(
        index, ConstraintSpec.build(clusters=cluster_spec), budget
    )
    partition = [
        (label, [str(index.users[r]) for r in rows])
        for label, rows in partition_rows(index, cluster_spec)
    ]
    selected, gains, score = clustered_select_oracle(
        instance, partition, budget
    )
    assert _triple(native.result) == (tuple(selected), tuple(gains), score)


# -- wrap safety of the retirement value ------------------------------------

HEAVY = (1 << 62) + 5


def _heavy_case():
    """One group of weight 2^62+5 whose single member is the first pick.

    ``a`` is also in a light group shared with ``b`` and ``c``; the
    heavy group is exhausted by ``a``'s own pick, so its weight is
    subtracted from the retired ``a``.  ``Σ wei·|G|`` still fits int64,
    so the index is vectorizable.
    """
    users = ("a", "b", "c", "d", "e", "f", "g")
    heavy = GroupKey("p0", "heavy")
    light = GroupKey("p1", "light")
    other = GroupKey("p1", "other")
    keys = (heavy, light, other)
    members = {
        heavy: ("a",),
        light: ("a", "b", "c"),
        other: ("c", "d", "e", "f", "g"),
    }
    weights = [HEAVY, 2, 1]
    cov = np.asarray([1, 1, 1], dtype=np.int64)
    user_pos = {u: i for i, u in enumerate(users)}
    g_indptr = np.cumsum([0] + [len(members[k]) for k in keys])
    g_indices = np.asarray(
        [user_pos[u] for k in keys for u in members[k]], dtype=np.int64
    )
    u_groups = [
        [g for g, k in enumerate(keys) if u in members[k]] for u in users
    ]
    u_indptr = np.cumsum([0] + [len(gs) for gs in u_groups])
    u_indices = np.asarray(
        [g for gs in u_groups for g in gs], dtype=np.int64
    )
    index = InstanceIndex.from_csr(
        users=users,
        group_keys=keys,
        u_indptr=u_indptr,
        u_indices=u_indices,
        g_indptr=g_indptr,
        g_indices=g_indices,
        cov=cov,
        weights=weights,
    )
    instance = DiversificationInstance(
        groups=GroupSet(Group(k, frozenset(members[k])) for k in keys),
        wei=dict(zip(keys, weights)),
        cov={k: int(c) for k, c in zip(keys, cov)},
        budget=4,
        population_size=len(users),
    )
    return index, instance


class TestRetirementWrapSafety:
    def test_index_is_vectorizable(self):
        index, _instance = _heavy_case()
        assert index.vectorizable

    @pytest.mark.parametrize("method", ["matrix", "stochastic"])
    def test_select_from_index_matches_lazy(self, method):
        index, instance = _heavy_case()
        lazy = _greedy_lazy(list(index.users), instance, 4, None)
        result = select_from_index(index, 4, method=method, sample_ratio=1.0)
        assert result.selected == lazy.selected
        assert result.gains == lazy.gains
        assert result.score == lazy.score
        assert len(set(result.selected)) == len(result.selected)

    def test_fair_matches_oracle(self):
        index, instance = _heavy_case()
        spec = ConstraintSpec.build(ceilings={GroupKey("p1", "other"): 1})
        rows, gains, score = fair_select_rows(index, spec, 4)
        selected, oracle_gains, oracle_score = fair_select_oracle(
            instance, spec, 4
        )
        assert [index.users[r] for r in rows] == selected
        assert gains == oracle_gains
        assert score == oracle_score
        assert len(set(rows)) == len(rows)

    def test_clustered_repair_matches_oracle(self):
        # ``a`` alone in a cluster that gets no seat; the other cluster
        # runs out of positive gain after one pick, so the two-seat
        # repair round picks ``a`` — and must not pick it twice.
        index, instance = _heavy_case()
        partition = [
            ("solo", np.asarray([0], dtype=np.int64)),
            ("rest", np.arange(1, 7, dtype=np.int64)),
        ]
        rows, gains, score, _solves, repair = clustered_select_rows(
            index, ClusterSpec(), 3, partition=partition
        )
        assert index.user_pos["a"] in repair
        selected, oracle_gains, oracle_score = clustered_select_oracle(
            instance,
            [(label, [index.users[r] for r in part]) for label, part in partition],
            3,
        )
        assert [index.users[r] for r in rows] == selected
        assert gains == oracle_gains
        assert score == oracle_score
        assert len(set(rows)) == len(rows)
