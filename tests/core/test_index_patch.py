"""Differential tests: a patched index equals a cold build.

After a profile delta, :func:`~repro.core.updates.refresh_instances`
splices the previous :class:`InstanceIndex` around the touched users'
rows (:meth:`InstanceIndex.patched`) and lets the other budgets share
the result's membership arrays (:meth:`InstanceIndex.reweighted`).
``InstanceIndex.build`` of the rebuilt instance is the oracle: every
array must match, with g-side rows compared as sets (their entry order
is unspecified), and every selection kind must pick the same users.

The incremental :func:`~repro.core.updates.reassign_groups` is pinned
the same way against :func:`reassign_groups_oracle`, the full scan it
replaced.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constraints import (
    ClusterSpec,
    ConstrainedSelectionResult,
    ConstraintSpec,
    constrained_select,
)
from repro.core import (
    GroupingConfig,
    InvalidInstanceError,
    build_simple_groups,
    instance_index,
    select_from_index,
)
from repro.core.groups import Group, GroupKey, GroupSet
from repro.core.index import (
    InstanceIndex,
    _segment_sums,
    attach_index,
    cached_index,
)
from repro.core.persistence import (
    load_index_npz,
    open_index_npz,
    save_index_npz,
)
from repro.core.profiles import UserProfile, UserRepository
from repro.core.updates import (
    IncrementalPodium,
    ProfileDelta,
    apply_delta_to_repository,
    reassign_groups,
    rebuild_instance,
    refresh_instances,
)
from repro.core.weights import (
    EBSWeights,
    IdenWeights,
    LBSWeights,
    PropCoverage,
    SingleCoverage,
)

BUDGETS = (2, 3)
LABELS = ("p0", "p1", "p2", "p3", "q0")

#: (weight scheme, coverage scheme, property prefix) per configuration;
#: the prefix configuration groups a restricted copy of the repository,
#: the way the service builds a ``property_prefixes`` configuration.
CONFIGS = {
    f"{w.__name__}-{c.__name__}": (w, c, None)
    for w in (IdenWeights, LBSWeights, EBSWeights)
    for c in (SingleCoverage, PropCoverage)
}
CONFIGS["prefix"] = (LBSWeights, SingleCoverage, "p")


def reassign_groups_oracle(
    groups: GroupSet, repository: UserRepository, delta: ProfileDelta
) -> GroupSet:
    """Full-scan reassignment: every group rebuilt from its members."""
    touched = delta.touched
    updated = GroupSet()
    for group in groups:
        members = set(group.members) - touched
        if group.bucket is not None:
            for user_id in touched - delta.removals:
                profile = repository.profile(user_id)
                label = group.key.property_label
                if label in profile and group.bucket.contains(
                    profile.score(label)
                ):
                    members.add(user_id)
        updated.add(
            Group(group.key, frozenset(members), group.bucket, group.label)
        )
    return updated


def g_rows(index: InstanceIndex) -> list[frozenset[int]]:
    return [
        frozenset(
            index.g_indices[index.g_indptr[g]:index.g_indptr[g + 1]].tolist()
        )
        for g in range(index.n_groups)
    ]


def assert_same_index(got: InstanceIndex, want: InstanceIndex) -> None:
    """Array-equal, dtypes included; g-rows compared as sets."""
    assert tuple(got.users) == want.users
    assert dict(got.user_pos) == want.user_pos
    assert got.group_keys == want.group_keys
    assert dict(got.group_pos) == want.group_pos
    for name in ("u_indptr", "u_indices", "g_indptr", "cov"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert got.g_indices.dtype == want.g_indices.dtype
    assert g_rows(got) == g_rows(want)
    assert got.vectorizable == want.vectorizable
    if want.vectorizable:
        assert np.array_equal(got.wei, want.wei)
        assert np.array_equal(got.initial_gains, want.initial_gains)
    else:
        assert got.wei is None and got.initial_gains is None


def _outcome(run):
    """A selection's users, score and report, or the error it raised."""
    try:
        result = run()
    except Exception as exc:  # noqa: BLE001 — both sides must agree
        return type(exc).__name__, str(exc)
    if isinstance(result, ConstrainedSelectionResult):
        return list(result.selected), result.result.score, result.to_dict()
    return list(result.selected), result.score


def fair_spec(index: InstanceIndex) -> ConstraintSpec | None:
    """Floor 1 on the largest group, ceiling 0 on the next largest."""
    sizes = np.diff(index.g_indptr)
    order = sorted(
        (g for g in range(index.n_groups) if sizes[g] > 0),
        key=lambda g: (-int(sizes[g]), str(index.group_keys[g])),
    )
    if len(order) < 2:
        return None
    return ConstraintSpec.build(
        floors={index.group_keys[order[0]]: 1},
        ceilings={index.group_keys[order[1]]: 0},
    )


def assert_same_selections(
    got: InstanceIndex, want: InstanceIndex, budget: int
) -> None:
    if not want.vectorizable:
        return
    assert _outcome(
        lambda: select_from_index(got, budget, method="matrix")
    ) == _outcome(lambda: select_from_index(want, budget, method="matrix"))
    specs = [
        ConstraintSpec(clusters=ClusterSpec("stratified", k=2)),
        ConstraintSpec(clusters=ClusterSpec("kmeans", k=2, seed=1)),
    ]
    fair = fair_spec(want)
    if fair is not None:
        specs.append(fair)
    for spec in specs:
        a = _outcome(lambda: constrained_select(got, spec, budget))
        b = _outcome(lambda: constrained_select(want, spec, budget))
        assert a == b, spec


def grouped(repository: UserRepository, prefix: str | None, config):
    """The configuration's group set, plus one complex group if any."""
    if prefix is not None:
        repository = UserRepository(
            p.restricted_to(x for x in p.properties if x.startswith(prefix))
            for p in repository
        )
    groups = build_simple_groups(repository, config)
    simple = list(groups)
    if len(simple) >= 2:
        # A bucket-less group: touched members leave it, nobody joins.
        groups.add(simple[0].intersect(simple[-1]))
    return groups


# -- strategies -------------------------------------------------------------

#: Scores on and around the fixed bucket boundaries (0.4, 0.65).
scores = st.sampled_from((0.0, 0.1, 0.4, 0.5, 0.65, 0.9, 1.0))


@st.composite
def profiles(draw, user_id: str) -> UserProfile:
    chosen = draw(st.lists(st.sampled_from(LABELS), unique=True, max_size=4))
    return UserProfile(user_id, {label: draw(scores) for label in chosen})


@st.composite
def scenarios(draw):
    n_users = draw(st.integers(2, 10))
    repository = UserRepository(
        draw(profiles(f"u{i:02d}")) for i in range(n_users)
    )
    live = list(repository.user_ids)
    fresh = iter(range(100))
    deltas = []
    for _ in range(draw(st.integers(1, 4))):
        upserts: dict[str, UserProfile] = {}
        removals: set[str] = set()
        for _ in range(draw(st.integers(1, 3))):
            op = draw(st.sampled_from(("rescore", "insert", "remove")))
            if op == "insert" or not live:
                user_id = f"n{next(fresh):02d}"
                upserts[user_id] = draw(profiles(user_id))
                continue
            user_id = draw(st.sampled_from(live))
            if user_id in upserts or user_id in removals:
                continue
            if op == "rescore":
                upserts[user_id] = draw(profiles(user_id))
            elif len(live) - len(removals) > 1:
                removals.add(user_id)
        live = [u for u in live if u not in removals] + [
            u for u in upserts if u not in live
        ]
        deltas.append(
            ProfileDelta(tuple(upserts.values()), frozenset(removals))
        )
    fixed = draw(st.booleans())
    config = (
        GroupingConfig(fixed_splits=(0.4, 0.65), drop_empty=False)
        if fixed
        else GroupingConfig()
    )
    return repository, deltas, config


# -- differential sweep -----------------------------------------------------


@pytest.mark.parametrize("name", sorted(CONFIGS))
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=scenarios())
def test_patched_index_equals_cold_build(name, scenario):
    weight_cls, coverage_cls, prefix = CONFIGS[name]
    repository, deltas, config = scenario
    weight, coverage = weight_cls(), coverage_cls()
    groups = grouped(repository, prefix, config)
    instances = {
        b: rebuild_instance(groups, repository, b, weight, coverage)
        for b in BUDGETS
    }
    instance_index(instances[BUDGETS[0]])
    for delta in deltas:
        repository = apply_delta_to_repository(repository, delta)
        updated = reassign_groups(groups, repository, delta)
        oracle = reassign_groups_oracle(groups, repository, delta)
        assert updated.keys == oracle.keys
        for group in groups:
            now = updated.group(group.key)
            assert now.members == oracle.group(group.key).members
            if delta.touched.isdisjoint(group.members) and (
                now.members == group.members
            ):
                assert now is group
        instances = refresh_instances(
            instances, updated, repository, delta, weight, coverage
        )
        groups = updated
        shared = None
        for budget, instance in instances.items():
            got = cached_index(instance)
            assert got is not None
            got.validate()
            want = InstanceIndex.build(instance)
            assert_same_index(got, want)
            assert_same_selections(got, want, budget)
            if shared is None:
                shared = got
            else:
                assert got.g_indices is shared.g_indices
                assert got.u_indices is shared.u_indices


# -- targeted cases ---------------------------------------------------------


def _setup(table2_repo, table2_groups, budget=2):
    groups = GroupSet(table2_groups)
    instance = rebuild_instance(groups, table2_repo, budget)
    return groups, instance, instance_index(instance)


def _step(repo, groups, instance, delta):
    repo = apply_delta_to_repository(repo, delta)
    updated = reassign_groups(groups, repo, delta)
    (refreshed,) = refresh_instances(
        {instance.budget: instance}, updated, repo, delta
    ).values()
    index = cached_index(refreshed)
    assert index is not None
    index.validate()
    assert_same_index(index, InstanceIndex.build(refreshed))
    return repo, updated, refreshed, index


class TestPatchedCases:
    def test_last_member_leaves_a_bucket(self, table2_repo, table2_groups):
        groups, instance, _ = _setup(table2_repo, table2_groups)
        nyc = GroupKey("livesIn NYC", "true")
        assert groups.group(nyc).members == {"Bob"}
        _, updated, _, index = _step(
            table2_repo, groups, instance,
            ProfileDelta(removals=frozenset({"Bob"})),
        )
        assert updated.group(nyc).size == 0
        gid = index.group_pos[nyc]
        assert index.g_indptr[gid] == index.g_indptr[gid + 1]
        assert "Bob" not in index.user_pos

    def test_rescore_reuses_the_id_maps(self, table2_repo, table2_groups):
        groups, instance, before = _setup(table2_repo, table2_groups)
        alice = table2_repo.profile("Alice").with_score(
            "avgRating Mexican", 0.1
        )
        *_, index = _step(
            table2_repo, groups, instance, ProfileDelta(upserts=(alice,))
        )
        assert index.users is before.users
        assert index.user_pos is before.user_pos
        assert index.group_pos is before.group_pos

    def test_user_in_no_group_is_left_out(self, table2_repo, table2_groups):
        groups, instance, _ = _setup(table2_repo, table2_groups)
        delta = ProfileDelta(
            upserts=(
                UserProfile("Zed", {"never seen": 0.5}),
                UserProfile("Amy", {"livesIn Tokyo": 1.0}),
            ),
            removals=frozenset({"Carol"}),
        )
        repo, _, _, index = _step(table2_repo, groups, instance, delta)
        assert "Zed" in repo and "Zed" not in index.user_pos
        assert index.users[:2] == ("Alice", "Amy")
        assert index.n_users == len(repo) - 1

    def test_delta_touching_no_row_shares_every_array(
        self, table2_repo, table2_groups
    ):
        groups, instance, before = _setup(table2_repo, table2_groups)
        *_, index = _step(
            table2_repo, groups, instance,
            ProfileDelta(upserts=(UserProfile("Zed", {"never seen": 1.0}),)),
        )
        assert index.u_indices is before.u_indices
        assert index.g_indices is before.g_indices

    @pytest.mark.parametrize("mapped", (True, False))
    def test_restored_checkpoint_patches_like_a_build(
        self, table2_repo, table2_groups, tmp_path, mapped
    ):
        """A snapshot-restored index (lazy ids when mapped) patches too."""
        groups, instance, index = _setup(table2_repo, table2_groups)
        path = tmp_path / "index.npz"
        save_index_npz(index, path)
        restored = open_index_npz(path) if mapped else load_index_npz(path)
        attach_index(instance, restored)
        repo = table2_repo
        for delta in (
            ProfileDelta(
                upserts=(
                    table2_repo.profile("Eve").with_score("livesIn NYC", 1.0),
                )
            ),
            ProfileDelta(
                upserts=(UserProfile("Abe", {"livesIn Tokyo": 1.0}),),
                removals=frozenset({"Carol"}),
            ),
        ):
            repo, groups, instance, _ = _step(repo, groups, instance, delta)

    def test_mismatched_group_set_is_rejected(
        self, table2_repo, table2_groups
    ):
        groups, instance, index = _setup(table2_repo, table2_groups)
        other = GroupSet(list(groups)[1:])
        with pytest.raises(ValueError, match="original order"):
            index.patched(other, frozenset({"Alice"}), instance)
        with pytest.raises(ValueError, match="original order"):
            index.patched(
                GroupSet(reversed(list(groups))), frozenset(), instance
            )

    def test_incremental_podium_never_rebuilds(
        self, table2_repo, table2_groups, monkeypatch
    ):
        podium = IncrementalPodium(
            table2_repo, GroupSet(table2_groups), budget=2
        )
        instance_index(podium.instance)

        def refuse(cls, instance):
            raise AssertionError("delta path re-encoded the index")

        monkeypatch.setattr(InstanceIndex, "build", classmethod(refuse))
        frank = UserProfile("Frank", {"livesIn Tokyo": 1.0})
        podium.update(ProfileDelta(upserts=(frank,)))
        podium.update(ProfileDelta(removals=frozenset({"Alice"})))
        index = cached_index(podium.instance)
        assert index is not None and "Frank" in index.user_pos
        monkeypatch.undo()
        assert_same_index(index, InstanceIndex.build(podium.instance))


class TestValidate:
    def test_built_index_is_valid(self, table2_repo, table2_groups):
        _, _, index = _setup(table2_repo, table2_groups)
        index.validate()

    @pytest.mark.parametrize(
        "field, corrupt",
        [
            ("u_indptr", lambda a: a[::-1].copy()),
            ("g_indices", lambda a: np.roll(a, 1)),
            ("cov", lambda a: a * 0),
            ("initial_gains", lambda a: a + 1),
        ],
    )
    def test_corruption_is_caught(
        self, table2_repo, table2_groups, field, corrupt
    ):
        from dataclasses import replace

        _, _, index = _setup(table2_repo, table2_groups)
        broken = replace(index, **{field: corrupt(getattr(index, field))})
        with pytest.raises(InvalidInstanceError, match="invariant"):
            broken.validate()

    def test_unsorted_users_are_caught(self, table2_repo, table2_groups):
        from dataclasses import replace

        _, _, index = _setup(table2_repo, table2_groups)
        users = tuple(reversed(index.users))
        broken = replace(
            index, users=users, user_pos={u: i for i, u in enumerate(users)}
        )
        with pytest.raises(InvalidInstanceError, match="ascending"):
            broken.validate()


@settings(max_examples=200, deadline=None)
@given(
    degrees=st.lists(st.integers(0, 3), max_size=8),
    data=st.data(),
)
def test_segment_sums_match_python_sums(degrees, data):
    """Empty rows anywhere (first, middle, trailing) sum to zero."""
    indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    values = np.asarray(
        data.draw(
            st.lists(
                st.integers(-(2**40), 2**40),
                min_size=int(indptr[-1]),
                max_size=int(indptr[-1]),
            )
        ),
        dtype=np.int64,
    )
    want = [
        int(values[indptr[i]:indptr[i + 1]].sum())
        for i in range(len(degrees))
    ]
    got = _segment_sums(values, indptr)
    assert got.dtype == np.int64
    assert got.tolist() == want
