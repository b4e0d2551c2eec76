"""Differential test for CUSTOM-DIVERSITY on the cached index.

``custom_select(method="matrix")`` derives the rescaled instance and its
index from the base instance's cached index (shared membership arrays
when every group stays active, one boolean gather otherwise) and selects
on dense rows or, when some user sits in no group, over an id pool.
``method="eager"`` is the paper-faithful oracle: the exact dict rescale
and Algorithm 1 over dict structures.  Both must agree on every field
of the result for adversarial feedback: the default and explicit
standard sets (strict, and covering ``G`` together with the priority
set), empty priority, must-have/must-not filters, tied weights, empty
groups, users in no group, weights whose rescale leaves int64, and
budgets past the pool.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    CustomizationFeedback,
    custom_select,
    explain_selection,
    instance_index,
)
from repro.core.customization import customized_index
from repro.core.errors import InfeasibleSelectionError
from repro.core.groups import Group, GroupKey, GroupSet
from repro.core.instance import DiversificationInstance
from repro.core.profiles import UserProfile, UserRepository

#: Small tied weights, plus one large enough that a priority rescale
#: pushes the derived index past int64 (the exact dict path).
WEIGHTS = st.sampled_from([1, 1, 2, 3, 2**40])


@st.composite
def cases(draw):
    """A small instance, its repository, a feedback and a budget."""
    n_users = draw(st.integers(1, 9))
    users = [f"u{i:02d}" for i in range(n_users)]
    n_groups = draw(st.integers(0, 6))
    groups, wei, cov = [], {}, {}
    for g in range(n_groups):
        key = GroupKey(f"p{g % 3}", f"b{g}")
        members = draw(st.sets(st.sampled_from(users), max_size=n_users))
        groups.append(Group(key, frozenset(members)))
        wei[key] = draw(WEIGHTS)
        cov[key] = draw(st.integers(1, 2))
    instance = DiversificationInstance(
        groups=GroupSet(groups),
        wei=wei,
        cov=cov,
        budget=draw(st.integers(1, n_users + 3)),
        population_size=n_users,
    )
    # Optionally drop the users in no group: the dense-row path needs
    # every repository user indexed.
    grouped = {u for g in groups for u in g.members}
    if draw(st.booleans()) and grouped:
        users = sorted(grouped)
    repository = UserRepository([UserProfile(u, {}) for u in users])

    keys = list(wei)
    subsets = st.frozensets(st.sampled_from(keys)) if keys else st.just(
        frozenset()
    )
    priority = draw(subsets)
    standard = draw(
        st.one_of(
            st.none(),  # the default G − G_d: every group stays active
            subsets,  # an explicit, usually strict, standard set
            st.just(frozenset(keys) - priority),  # explicit, covers G
        )
    )
    feedback = CustomizationFeedback(
        must_have=draw(subsets) if draw(st.booleans()) else frozenset(),
        must_not=draw(subsets) if draw(st.booleans()) else frozenset(),
        priority=priority,
        standard=standard,
    )
    budget = draw(st.integers(1, n_users + 3))
    return repository, instance, feedback, budget


def _fields(custom):
    return (
        custom.selected,
        custom.result.score,
        custom.result.gains,
        custom.priority_score,
        custom.standard_score,
        custom.refined_pool_size,
    )


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cases())
def test_matrix_customization_matches_eager(case):
    repository, instance, feedback, budget = case
    version = instance.groups.version
    base = instance_index(instance)
    try:
        oracle = custom_select(
            repository, instance, feedback, budget, method="eager"
        )
    except InfeasibleSelectionError:
        with pytest.raises(InfeasibleSelectionError):
            custom_select(repository, instance, feedback, budget)
        return
    custom = custom_select(repository, instance, feedback, budget)
    assert _fields(custom) == _fields(oracle)
    assert oracle.path == "exact"

    derived = customized_index(instance, feedback)
    assert derived is not None
    derived.validate()
    all_indexed = len(base.users) == len(repository)
    if not derived.vectorizable:
        assert custom.path == "exact"
    else:
        assert custom.path == ("rows" if all_indexed else "pool")
    active = feedback.priority | feedback.resolve_standard(instance.groups)
    if len(active) == len(base.group_keys):
        # Every group active: the derived index shares the base arrays.
        assert derived.u_indices is base.u_indices
        assert derived.g_indices is base.g_indices
        assert derived.group_keys is base.group_keys
    else:
        assert set(derived.group_keys) == active

    for result in (custom.result, oracle.result):
        assert explain_selection(result) == explain_selection(
            result, method="python"
        )
    # The base group set was shared or projected, never mutated.
    assert instance.groups.version == version
    assert instance_index(instance) is base
