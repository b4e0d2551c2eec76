"""Explanations of diversification results (paper §5, Def. 5.1).

Three complementary explanation types are produced:

* **Group explanation** — ``⟨label, wei(G), cov(G)⟩``: what the group is
  and how important it was to the selection.
* **User explanation** — the groups a selected user represents (why the
  user was picked).
* **Subset-group explanation** — ``⟨cov(G), |U ∩ G|⟩``: required versus
  actual coverage of a group by the whole subset.

:func:`explain_selection` assembles these into the payload behind the
prototype's explanation page (Fig. 2): per-user top-weight groups, the
fraction of top-weight groups covered, the full weighted group list with
covered flags, and per-property score distributions of population versus
subset.

Two implementations produce byte-identical payloads:

* ``method="index"`` (the default, :func:`explain_selection_index`)
  answers every membership question off the CSR
  :class:`~repro.core.index.InstanceIndex`: one ``group_hits`` segment
  sum yields all subset-group actuals and distribution subset counts,
  and user explanations are per-row CSR slices.  Only group *metadata*
  (labels, weights, coverage) is read from the dict-based instance —
  O(|G|) scalar lookups, never O(Σ_G |G|) member walks — so the path
  runs unchanged on a memory-mapped checkpoint index without
  materializing its lazy id sequence.
* ``method="python"`` is the dict-walking original, kept verbatim as
  the parity oracle (`tests/core/test_explanations.py`).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import PodiumError
from .greedy import SelectionResult
from .groups import GroupKey, GroupSet
from .index import InstanceIndex, instance_index
from .instance import DiversificationInstance
from .weights import Weight

#: Attribute under which the weight-dependent explanation state (the
#: weight order + memoized group explanations) is cached on an instance.
_EXPLAIN_CACHE_ATTR = "_podium_explain_cache"

#: Attribute under which the weight-independent state (the str(key) rank
#: of every dense group id + the group labels) is cached on a group set,
#: shared by every instance over it: the budgets of one configuration
#: and the customized views derived from them.
_EXPLAIN_RANKS_ATTR = "_podium_explain_ranks"

#: Attribute linking a derived instance to the one it was derived from.
_EXPLAIN_BASE_ATTR = "_podium_explain_base"


@dataclass(frozen=True)
class GroupExplanation:
    """Def. 5.1 group explanation: ``⟨l_G, wei(G), cov(G)⟩``."""

    key: GroupKey
    label: str
    weight: Weight
    coverage: int

    def as_tuple(self) -> tuple[str, Weight, int]:
        return (self.label, self.weight, self.coverage)


@dataclass(frozen=True)
class UserExplanation:
    """Def. 5.1 user explanation: the groups ``u`` represents."""

    user_id: str
    groups: tuple[GroupExplanation, ...]

    def top(self, k: int) -> tuple[GroupExplanation, ...]:
        """The user's ``k`` heaviest groups (what the UI's left pane shows)."""
        return tuple(
            sorted(self.groups, key=lambda g: (-g.weight, str(g.key)))[:k]
        )


@dataclass(frozen=True)
class SubsetGroupExplanation:
    """Def. 5.1 subset-group explanation: ``⟨cov(G), |U ∩ G|⟩``."""

    key: GroupKey
    label: str
    required: int
    actual: int

    @property
    def covered(self) -> bool:
        return self.actual >= self.required

    def as_tuple(self) -> tuple[int, int]:
        return (self.required, self.actual)


@dataclass(frozen=True)
class DistributionComparison:
    """Population-vs-subset score distribution for one property.

    This backs the right pane of Fig. 2: for each bucket of the property,
    the fraction of the population weight versus the subset weight that
    falls in it.
    """

    property_label: str
    bucket_labels: tuple[str, ...]
    population: tuple[float, ...]
    subset: tuple[float, ...]


@dataclass(frozen=True)
class SelectionExplanation:
    """Full explanation payload for a selection result."""

    group_explanations: tuple[GroupExplanation, ...]
    user_explanations: tuple[UserExplanation, ...]
    subset_group_explanations: tuple[SubsetGroupExplanation, ...]
    top_coverage_fraction: float
    distributions: tuple[DistributionComparison, ...] = field(default=())

    def for_user(self, user_id: str) -> UserExplanation:
        for ue in self.user_explanations:
            if ue.user_id == user_id:
                return ue
        raise KeyError(f"user {user_id!r} is not part of the selection")

    def covered(self) -> tuple[SubsetGroupExplanation, ...]:
        return tuple(e for e in self.subset_group_explanations if e.covered)

    def uncovered(self) -> tuple[SubsetGroupExplanation, ...]:
        return tuple(
            e for e in self.subset_group_explanations if not e.covered
        )


def inherit_explanations(
    derived: DiversificationInstance, base: DiversificationInstance
) -> None:
    """Let ``derived`` reuse ``base``'s memoized group explanations.

    Customization derives a rescaled instance per request that shares the
    base's group set and dense group ids but changes a few weights.  The
    first explanation of ``derived`` then takes every memoized
    :class:`GroupExplanation` of ``base`` whose weight and coverage did
    not change, instead of rebuilding all of them.
    """
    object.__setattr__(derived, _EXPLAIN_BASE_ATTR, base)


def _group_ranks(
    groups: GroupSet, idx: InstanceIndex
) -> tuple[np.ndarray, list]:
    """The str(key) rank of every dense group id, and the label slots.

    Cached on the group set for this index's group-key tuple, so every
    instance indexed over the same keys (``reweighted`` and identity
    ``restricted_scaled`` share the tuple) pays the O(|G| log |G|) string
    sort once.  str(key) determines the key's fields, so the order has no
    ties and matches the oracle's ``sorted(keys, key=str)`` exactly.
    Labels are filled lazily by the explanations that need them.
    """
    cached = groups.__dict__.get(_EXPLAIN_RANKS_ATTR)
    if (
        cached is not None
        and cached[0] == groups.version
        and cached[1] is idx.group_keys
    ):
        return cached[2], cached[3]
    group_keys = idx.group_keys
    str_order = sorted(range(idx.n_groups), key=lambda g: str(group_keys[g]))
    str_rank = np.empty(idx.n_groups, dtype=np.int64)
    str_rank[str_order] = np.arange(idx.n_groups, dtype=np.int64)
    labels: list = [None] * idx.n_groups
    setattr(
        groups,
        _EXPLAIN_RANKS_ATTR,
        (groups.version, group_keys, str_rank, labels),
    )
    return str_rank, labels


def _inherited_memo(
    instance: DiversificationInstance, idx: InstanceIndex
) -> list:
    """Group-explanation memo for ``instance``, seeded from its base.

    An entry is taken from the base instance's memo (see
    :func:`inherit_explanations`) when both indexes number the groups
    identically and the group's weight and coverage are unchanged — the
    memoized triple is then exactly the one this instance would build.
    """
    memo: list = [None] * idx.n_groups
    base = instance.__dict__.get(_EXPLAIN_BASE_ATTR)
    cached = None if base is None else base.__dict__.get(_EXPLAIN_CACHE_ATTR)
    if cached is None or cached[0] != base.groups.version:
        return memo
    base_idx, base_memo = cached[1], cached[3]
    if (
        base_idx.group_keys is not idx.group_keys
        or not (base_idx.vectorizable and idx.vectorizable)
    ):
        return memo
    same = (base_idx.wei == idx.wei) & (base_idx.cov == idx.cov)
    for gid in np.flatnonzero(same).tolist():
        memo[gid] = base_memo[gid]
    return memo


def explain_group(
    instance: DiversificationInstance, key: GroupKey
) -> GroupExplanation:
    """Build the Def. 5.1 explanation of a single group."""
    group = instance.groups.group(key)
    return GroupExplanation(
        key=key,
        label=group.label,
        weight=instance.wei[key],
        coverage=instance.cov[key],
    )


def explain_user(
    instance: DiversificationInstance, user_id: str
) -> UserExplanation:
    """Build the Def. 5.1 explanation of one selected user."""
    keys = sorted(instance.groups.groups_of(user_id), key=str)
    return UserExplanation(
        user_id=user_id,
        groups=tuple(explain_group(instance, k) for k in keys),
    )


def explain_subset_group(
    instance: DiversificationInstance,
    selected: Iterable[str],
    key: GroupKey,
) -> SubsetGroupExplanation:
    """Build the Def. 5.1 subset-group explanation ``⟨cov, |U ∩ G|⟩``."""
    group = instance.groups.group(key)
    selected_set = set(selected)
    return SubsetGroupExplanation(
        key=key,
        label=group.label,
        required=instance.cov[key],
        actual=len(group.members & selected_set),
    )


def compare_distributions(
    instance: DiversificationInstance,
    selected: Iterable[str],
    property_label: str,
) -> DistributionComparison:
    """Weight-share per bucket for population vs selected subset.

    Follows §8.2's group-bucket distribution construction:
    ``f_all(b) = wei(G_{p,b}) / Σ_b' wei(G_{p,b'})`` and the analogue for
    the subset restricted to each bucket's members.
    """
    selected_set = set(selected)
    buckets = instance.groups.buckets_of_property(property_label)
    buckets = sorted(
        buckets, key=lambda g: (g.bucket.lo if g.bucket else 0.0, g.label)
    )
    pop_weights = [instance.wei[g.key] for g in buckets]
    sub_weights = [float(len(g.members & selected_set)) for g in buckets]
    pop_total = sum(pop_weights) or 1.0
    sub_total = sum(sub_weights) or 1.0
    return DistributionComparison(
        property_label=property_label,
        bucket_labels=tuple(
            g.bucket.label if g.bucket else g.label for g in buckets
        ),
        population=tuple(w / pop_total for w in pop_weights),
        subset=tuple(w / sub_total for w in sub_weights),
    )


def explain_selection(
    result: SelectionResult,
    top_k: int = 200,
    distribution_properties: Iterable[str] = (),
    method: str = "index",
) -> SelectionExplanation:
    """Assemble the full explanation payload for ``result``.

    ``top_k`` bounds the "top-weight relevant groups" the coverage
    percentage is computed over, mirroring the middle pane of Fig. 2.
    ``method="index"`` (default) answers membership questions off the
    cached CSR index; ``method="python"`` walks the dict structures —
    both produce byte-identical payloads.
    """
    if method == "index":
        return explain_selection_index(
            result, top_k=top_k,
            distribution_properties=distribution_properties,
        )
    if method != "python":
        raise PodiumError(
            f"unknown explanation method {method!r}; use 'index' or 'python'"
        )
    instance = result.instance
    selected = list(result.selected)

    by_weight = sorted(
        instance.groups.keys,
        key=lambda k: (-instance.wei[k], str(k)),
    )
    top_keys = by_weight[:top_k]

    subset_groups = tuple(
        explain_subset_group(instance, selected, key) for key in by_weight
    )
    covered_top = sum(
        1
        for key in top_keys
        if explain_subset_group(instance, selected, key).covered
    )
    top_fraction = covered_top / len(top_keys) if top_keys else 1.0

    return SelectionExplanation(
        group_explanations=tuple(
            explain_group(instance, key) for key in by_weight
        ),
        user_explanations=tuple(
            explain_user(instance, user_id) for user_id in selected
        ),
        subset_group_explanations=subset_groups,
        top_coverage_fraction=top_fraction,
        distributions=tuple(
            compare_distributions(instance, selected, p)
            for p in distribution_properties
        ),
    )


def explain_selection_index(
    result: SelectionResult,
    top_k: int = 200,
    distribution_properties: Iterable[str] = (),
    index: InstanceIndex | None = None,
) -> SelectionExplanation:
    """Index-native :func:`explain_selection` (byte-identical payload).

    One ``group_hits`` segment sum over the CSR incidence yields every
    subset-group actual, the top-coverage fraction *and* the subset side
    of every distribution comparison; user explanations are per-row CSR
    slices resolved through ``user_pos`` (which on a memory-mapped
    checkpoint decodes only the looked-up ids, never the full sequence).
    The dict-based instance supplies labels, weights and coverage — O(1)
    metadata per group — so no membership set is ever intersected in
    Python.  Weights are taken from ``instance.wei`` directly, keeping
    the path exact for EBS big-ints the int64 index refuses to encode.

    ``index`` overrides the instance's cached index — the serving path
    passes the checkpoint-mapped index here.
    """
    instance = result.instance
    if instance is None:
        raise PodiumError(
            "explain_selection requires a result carrying its instance"
        )
    idx = instance_index(instance) if index is None else index
    selected = list(result.selected)
    groups = instance.groups
    wei, cov = instance.wei, instance.cov

    hits = idx.selection_hits(selected)
    group_keys = idx.group_keys

    str_rank, labels = _group_ranks(groups, idx)
    # Weight-dependent state — the weight-sorted order and the memoized
    # group-explanation objects — is cached on the instance (same
    # invalidation contract as the cached index: drop when the group set
    # mutates or the index is swapped), so a serving process explaining
    # many selections against one artifact sorts once.
    cached = instance.__dict__.get(_EXPLAIN_CACHE_ATTR)
    if (
        cached is not None
        and cached[0] == groups.version
        and cached[1] is idx
    ):
        _, _, by_weight, memo = cached
    else:
        if idx.vectorizable:
            assert idx.wei is not None
            by_weight = np.lexsort((str_rank, -idx.wei)).tolist()
        else:
            rank = str_rank.tolist()
            by_weight = sorted(
                range(idx.n_groups),
                key=lambda g: (-wei[group_keys[g]], rank[g]),
            )
        memo = _inherited_memo(instance, idx)
        object.__setattr__(
            instance,
            _EXPLAIN_CACHE_ATTR,
            (groups.version, idx, by_weight, memo),
        )

    def label_of(gid: int) -> str:
        cached = labels[gid]
        if cached is None:
            cached = groups.group(group_keys[gid]).label
            labels[gid] = cached
        return cached

    def group_explanation(gid: int) -> GroupExplanation:
        """Memoized Def. 5.1 group explanation, keyed by dense group id.

        The triple is user-independent, so one frozen object per group
        is shared between the group list and every user explanation —
        the oracle builds equal (``==``) copies instead.  Indexing by
        dense id keeps the hot per-membership lookups free of
        ``GroupKey`` hashing.
        """
        cached = memo[gid]
        if cached is None:
            key = group_keys[gid]
            cached = GroupExplanation(
                key=key,
                label=label_of(gid),
                weight=wei[key],
                coverage=cov[key],
            )
            memo[gid] = cached
        return cached

    top_gids = by_weight[:top_k]

    # idx.cov holds exactly instance.cov[key] per dense id (int64), so
    # requirements come off the array without re-hashing keys.
    required = idx.cov
    subset_groups = [
        SubsetGroupExplanation(
            key=group_keys[g],
            label=label_of(g),
            required=int(required[g]),
            actual=int(hits[g]),
        )
        for g in by_weight
    ]
    if top_gids:
        top = np.asarray(top_gids, dtype=np.int64)
        covered_top = int(np.count_nonzero(hits[top] >= required[top]))
        top_fraction = covered_top / len(top_gids)
    else:
        top_fraction = 1.0

    user_explanations = []
    for user_id in selected:
        pos = idx.user_pos.get(user_id)
        if pos is None:
            ordered = ()
        else:
            rows = np.asarray(idx.groups_of_row(int(pos)), dtype=np.int64)
            ordered = rows[np.argsort(str_rank[rows])]
        user_explanations.append(
            UserExplanation(
                user_id=user_id,
                groups=tuple(
                    group_explanation(int(g)) for g in ordered
                ),
            )
        )

    distributions = []
    for property_label in distribution_properties:
        buckets = sorted(
            groups.buckets_of_property(property_label),
            key=lambda g: (g.bucket.lo if g.bucket else 0.0, g.label),
        )
        pop_weights = [wei[g.key] for g in buckets]
        sub_weights = [
            float(int(hits[idx.group_pos[g.key]])) for g in buckets
        ]
        pop_total = sum(pop_weights) or 1.0
        sub_total = sum(sub_weights) or 1.0
        distributions.append(
            DistributionComparison(
                property_label=property_label,
                bucket_labels=tuple(
                    g.bucket.label if g.bucket else g.label for g in buckets
                ),
                population=tuple(w / pop_total for w in pop_weights),
                subset=tuple(w / sub_total for w in sub_weights),
            )
        )

    return SelectionExplanation(
        group_explanations=tuple(
            group_explanation(g) for g in by_weight
        ),
        user_explanations=tuple(user_explanations),
        subset_group_explanations=tuple(subset_groups),
        top_coverage_fraction=top_fraction,
        distributions=tuple(distributions),
    )
