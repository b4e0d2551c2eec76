"""Customization of diversification results (paper §6).

A :class:`CustomizationFeedback` carries the four group subsets of
Def. 6.1: must-have (``G₊``), must-not (``G₋``), priority coverage
(``G_d``) and standard coverage (``G_d?``).  Groups in none of the latter
two are ignored for coverage.

Solving CUSTOM-DIVERSITY (Def. 6.3) follows the paper's Prop. 6.5 proof:

1. filter the repository down to the refined user set ``U'``;
2. rescale weights so priority groups lexicographically dominate:
   ``score~(U) = score_{G_d}(U) · MAX_SCORE + score_{G_d?}(U)`` with
   ``MAX_SCORE`` exceeding any achievable standard score — computed as an
   exact Python integer scale, so the lexicographic order is never broken
   by floating-point rounding;
3. run the unchanged greedy algorithm on the rescaled instance.

The rescaled score remains submodular, monotone and non-negative
(Lemma 6.6), so the (1 − 1/e) guarantee carries over.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    InfeasibleSelectionError,
    InvalidBudgetError,
    InvalidFeedbackError,
)
from .explanations import inherit_explanations
from .greedy import (
    _ARRAY_METHODS,
    SelectionResult,
    greedy_kernel,
    greedy_select,
)
from .groups import GroupKey, GroupSet
from .index import InstanceIndex, attach_index, instance_index
from .instance import DiversificationInstance
from .profiles import UserRepository
from .scoring import subset_score
from .weights import Weight


@dataclass(frozen=True)
class CustomizationFeedback:
    """Def. 6.1 feedback: four group subsets steering the selection.

    ``priority`` and ``standard`` default to the paper defaults
    (``G_d = ∅``, ``G_d? = G``) when instantiated via
    :meth:`resolve_defaults`; a raw instance keeps ``standard=None`` to
    mean "everything not in priority".
    """

    must_have: frozenset[GroupKey] = frozenset()
    must_not: frozenset[GroupKey] = frozenset()
    priority: frozenset[GroupKey] = frozenset()
    standard: frozenset[GroupKey] | None = None

    @classmethod
    def none(cls) -> "CustomizationFeedback":
        """The empty feedback — CUSTOM-DIVERSITY degrades to BASE-DIVERSITY."""
        return cls()

    def validate(self, groups: GroupSet) -> None:
        """Ensure every referenced group exists in ``groups``."""
        for name, keys in (
            ("must_have", self.must_have),
            ("must_not", self.must_not),
            ("priority", self.priority),
            ("standard", self.standard or frozenset()),
        ):
            unknown = [k for k in keys if k not in groups]
            if unknown:
                raise InvalidFeedbackError(
                    f"{name} references unknown groups: "
                    f"{[str(k) for k in unknown[:3]]}"
                )

    def resolve_standard(self, groups: GroupSet) -> frozenset[GroupKey]:
        """Concrete ``G_d?``: the stored set, or ``G − G_d`` by default."""
        if self.standard is not None:
            return self.standard
        return frozenset(groups.keys) - self.priority


def refine_users(
    repository: UserRepository,
    groups: GroupSet,
    feedback: CustomizationFeedback,
) -> list[str]:
    """Compute the refined user set ``U'`` of Def. 6.3.

    For every property with at least one must-have bucket, a user must
    belong to *some* must-have bucket of that property (the paper's
    contradiction-avoidance rule); and a user must belong to no must-not
    group.  The rule itself lives in
    :mod:`repro.constraints.feasibility`, shared with the fair solver's
    floor/ceiling eligibility checks.
    """
    from ..constraints.feasibility import (
        eligible_user_filter,
        keys_by_property,
    )

    feedback.validate(groups)
    must_have_by_property = {
        label: set(keys)
        for label, keys in keys_by_property(feedback.must_have).items()
    }
    return [
        user_id
        for user_id in repository.user_ids
        if eligible_user_filter(
            groups.groups_of(user_id),
            feedback.must_not,
            must_have_by_property,
        )
    ]


def _refine_mask_index(
    index: InstanceIndex, feedback: CustomizationFeedback
) -> np.ndarray:
    """Refined user set ``U'`` as a boolean mask over dense rows.

    Must-not groups clear their members' bits with one row gather; each
    must-have property sets an "in some must-have bucket" mask the same
    way and AND-s it in.  Pure array work: no id string is decoded, so
    a memory-mapped index refines without touching its lazy id
    sequence.  Delegates to the shared
    :func:`repro.constraints.feasibility.eligibility_mask`, the same
    helper the fair solver's hard exclusions run on.
    """
    from ..constraints.feasibility import eligibility_mask, keys_by_property

    return eligibility_mask(
        index,
        forbidden=feedback.must_not,
        required_by_property=keys_by_property(feedback.must_have),
    )


def _refine_users_index(
    index: InstanceIndex,
    eligible: np.ndarray,
    repository: UserRepository,
    feedback: CustomizationFeedback,
) -> list[str]:
    """Vectorized :func:`refine_users` from the row mask ``eligible``.

    Users the index does not know sit in no group: they can never
    violate must-not and only pass when there is no must-have
    constraint — exactly the eager loop's semantics.  The returned pool
    preserves repository iteration order, like the eager
    implementation.  The fully-indexed serving path never calls this —
    it stays on dense rows (:func:`_refine_mask_index`); this id-string
    materialization exists only for repositories with users outside
    the index.
    """
    eligible_ids = {index.users[i] for i in np.flatnonzero(eligible)}
    if feedback.must_have:
        return [u for u in repository.user_ids if u in eligible_ids]
    indexed = index.user_pos
    return [
        u
        for u in repository.user_ids
        if u in eligible_ids or u not in indexed
    ]


def _exact_weight(weight: Weight) -> int | Fraction:
    """Lift a weight into exact arithmetic (floats become exact binary
    rationals, so no information is invented or lost)."""
    if isinstance(weight, int) and not isinstance(weight, bool):
        return weight
    if isinstance(weight, Fraction):
        return weight
    return Fraction(weight)


def _integer_weight_scale(
    standard_max: Weight, priority_weights: Iterable[Weight] = ()
) -> int:
    """An exact integer scale enforcing lexicographic priority dominance.

    With integer weights any positive priority-score difference is >= 1,
    so ``floor(standard_max) + 1`` suffices.  With non-integer weights
    the smallest positive difference between two priority scores is
    ``1/D`` where ``D`` is the lcm of the (exact rational) priority
    weights' denominators, so the scale is multiplied by ``D`` — the
    pre-scaling that keeps ``scale · Δpriority > standard_max`` exact
    instead of trusting float rounding.
    """
    denominator = 1
    for weight in priority_weights:
        exact = _exact_weight(weight)
        if isinstance(exact, Fraction):
            denominator = math.lcm(denominator, exact.denominator)
    if isinstance(standard_max, int):
        base = standard_max + 1
    else:
        base = math.floor(_exact_weight(standard_max)) + 1
    return base * denominator


def _exact_standard_max(
    instance: DiversificationInstance, standard: frozenset[GroupKey]
) -> Weight:
    """``Σ_{G in G_d?} wei(G)·cov(G)`` in exact arithmetic."""
    total: int | Fraction = 0
    for key in standard:
        total += _exact_weight(instance.wei[key]) * instance.cov[key]
    return total


def _customized_instance_exact(
    instance: DiversificationInstance,
    feedback: CustomizationFeedback,
) -> DiversificationInstance:
    """The dict path of :func:`customized_instance`: exact, any weights.

    The oracle the array derivation (:func:`_rescaled_view`) is pinned
    against, and the path for weights the int64 index refuses (EBS
    big-ints, floats).  Float weights are lifted into
    :class:`~fractions.Fraction` and the scale absorbs their common
    denominator.
    """
    feedback.validate(instance.groups)
    standard = feedback.resolve_standard(instance.groups)
    restricted = instance.restricted_to_groups(feedback.priority | standard)
    scale = _integer_weight_scale(
        _exact_standard_max(instance, standard),
        (instance.wei[k] for k in feedback.priority),
    )
    wei: dict[GroupKey, Weight] = {}
    for key in restricted.groups.keys:
        weight = _exact_weight(instance.wei[key])
        wei[key] = weight * scale if key in feedback.priority else weight
    return DiversificationInstance(
        groups=restricted.groups,
        wei=wei,
        cov=restricted.cov,
        budget=instance.budget,
        population_size=instance.population_size,
    )


@dataclass(frozen=True)
class _RescaledView:
    """CUSTOM-DIVERSITY's rescaled instance, derived from the base index.

    ``priority`` and ``standard`` are the dense ids of ``G_d`` and
    ``G_d?`` in ``base`` (the cached index of the unscaled instance);
    ``index`` is attached to ``instance`` as its cached index.
    """

    base: InstanceIndex
    index: InstanceIndex
    instance: DiversificationInstance
    priority: np.ndarray
    standard: np.ndarray


def _dense_ids(index: InstanceIndex, keys: frozenset[GroupKey]) -> np.ndarray:
    return np.fromiter(
        (index.group_pos[k] for k in keys), dtype=np.int64, count=len(keys)
    )


def _rescaled_view(
    instance: DiversificationInstance,
    feedback: CustomizationFeedback,
) -> _RescaledView | None:
    """Prop. 6.5's rescaling, computed once from the cached base index.

    The exact integer scale and every rescaled weight come from the base
    index's int64 ``wei``/``cov`` (as Python ints, so the priority
    products never wrap) — the same numbers the dict path computes.  They
    feed both the derived index (:meth:`InstanceIndex.restricted_scaled`)
    and the rescaled instance.  With the default ``G_d? = G − G_d`` the
    active set is all of ``G``: the view then shares the base group set,
    coverage map and every membership array, so nothing is re-encoded —
    the cost is O(|G|) Python work plus one vectorized pass for the
    derived index's initial gains.  Returns ``None`` when
    the base index is not vectorizable (EBS big-ints, float weights);
    callers take the exact dict path.  The derived index itself may still
    refuse to vectorize (a priority rescale past int64).
    """
    index = instance_index(instance)
    if not index.vectorizable:
        return None
    assert index.wei is not None
    feedback.validate(instance.groups)
    priority = _dense_ids(index, feedback.priority)
    if feedback.standard is None:
        in_standard = np.ones(index.n_groups, dtype=bool)
        in_standard[priority] = False
        active = np.ones(index.n_groups, dtype=bool)
    else:
        in_standard = np.zeros(index.n_groups, dtype=bool)
        in_standard[_dense_ids(index, feedback.standard)] = True
        active = in_standard.copy()
        active[priority] = True
    standard = np.flatnonzero(in_standard)
    standard_max = sum(
        w * c
        for w, c in zip(
            index.wei[standard].tolist(), index.cov[standard].tolist()
        )
    )
    scale = _integer_weight_scale(standard_max)
    weights = index.wei.tolist()
    for g in priority.tolist():
        weights[g] *= scale
    keys = index.group_keys
    if active.all():
        derived = index.restricted_scaled(np.arange(index.n_groups), weights)
        groups, cov = instance.groups, instance.cov
        wei = dict(instance.wei)
        for g in priority.tolist():
            wei[keys[g]] = weights[g]
    else:
        kept = np.flatnonzero(active)
        kept_weights = [weights[g] for g in kept.tolist()]
        derived = index.restricted_scaled(kept, kept_weights)
        restricted = instance.restricted_to_groups(derived.group_keys)
        groups, cov = restricted.groups, restricted.cov
        wei = dict(zip(derived.group_keys, kept_weights))
    rescaled = DiversificationInstance(
        groups=groups,
        wei=wei,
        cov=cov,
        budget=instance.budget,
        population_size=instance.population_size,
    )
    attach_index(rescaled, derived)
    inherit_explanations(rescaled, instance)
    return _RescaledView(
        base=index,
        index=derived,
        instance=rescaled,
        priority=priority,
        standard=standard,
    )


def customized_instance(
    instance: DiversificationInstance,
    feedback: CustomizationFeedback,
) -> DiversificationInstance:
    """Rescale ``instance`` so priority groups dominate lexicographically.

    Groups outside ``G_d ∪ G_d?`` are dropped entirely (their coverage is
    ignored per Def. 6.1); priority groups get their weight multiplied by
    ``MAX_SCORE``, an integer exceeding the best achievable standard
    score ``Σ_{G in G_d?} wei(G)·cov(G)``.

    All arithmetic is exact: integer weights stay integers (the common
    LBS/Iden/EBS case), while float weights are lifted into
    :class:`~fractions.Fraction` and the scale absorbs their common
    denominator, so the lexicographic order survives even adversarially
    close scores that float multiplication would collapse.  Vectorizable
    instances are derived from the cached index (:func:`_rescaled_view`,
    which also attaches the rescaled index); the rest take the dict path.
    """
    view = _rescaled_view(instance, feedback)
    if view is None:
        return _customized_instance_exact(instance, feedback)
    return view.instance


def customized_index(
    instance: DiversificationInstance,
    feedback: CustomizationFeedback,
) -> InstanceIndex | None:
    """The rescaled instance's sparse index, derived from the base index.

    The numbers are those :func:`customized_instance` materializes, so
    matrix selections over the derived index match the eager path bit for
    bit.  Returns ``None`` when the base index is not vectorizable (EBS
    big-ints, float weights); callers then fall back to the dict path.
    """
    view = _rescaled_view(instance, feedback)
    return None if view is None else view.index


def _tier_scores(
    instance: DiversificationInstance,
    feedback: CustomizationFeedback,
    view: _RescaledView | None,
    selected: tuple[str, ...],
) -> tuple[Weight, Weight]:
    """``score_{G_d}`` and ``score_{G_d?}`` of ``selected``.

    With a view this is one gather over the selected users' rows of the
    base index; otherwise each tier is scored on a dict restriction.
    """
    if view is not None:
        base = view.base
        assert base.wei is not None
        hits = base.selection_hits(selected)
        capped = base.wei * np.minimum(hits, base.cov)
        return int(capped[view.priority].sum()), int(
            capped[view.standard].sum()
        )
    return tuple(
        subset_score(instance.restricted_to_groups(keys), selected)
        if keys
        else 0
        for keys in (
            feedback.priority,
            feedback.resolve_standard(instance.groups),
        )
    )


@dataclass(frozen=True)
class CustomSelectionResult:
    """Outcome of a CUSTOM-DIVERSITY run with per-tier scores.

    ``priority_score`` and ``standard_score`` report ``score_{G_d}`` and
    ``score_{G_d?}`` separately (the lexicographic components), alongside
    the underlying :class:`SelectionResult` on the rescaled instance.
    ``path`` names the path that ran: ``"rows"`` (the kernel on dense
    rows), ``"pool"`` (the array kernel over an id pool: some repository
    user sits in no group) or ``"exact"`` (the dict path: weights beyond
    int64, or an eager/lazy run); the service counts every run off
    ``"rows"`` as a fallback.
    """

    result: SelectionResult
    feedback: CustomizationFeedback
    refined_pool_size: int
    priority_score: Weight
    standard_score: Weight
    path: str

    @property
    def selected(self) -> tuple[str, ...]:
        return self.result.selected


def custom_select(
    repository: UserRepository,
    instance: DiversificationInstance,
    feedback: CustomizationFeedback,
    budget: int | None = None,
    method: str = "matrix",
    rng: np.random.Generator | None = None,
) -> CustomSelectionResult:
    """Solve CUSTOM-DIVERSITY greedily (Prop. 6.5).

    The array methods (default ``"matrix"``) derive the rescaled instance
    and its index from the cached base index (:func:`_rescaled_view`) and
    refine ``U'`` as a boolean mask over the CSR incidence.  When every
    repository user is indexed, ``matrix`` then selects on dense rows
    with no candidate id list at all (``path="rows"``); otherwise the
    array kernel runs over the id pool (``"pool"``).  Weights beyond
    int64 and the eager/lazy methods take the exact dict path
    (``"exact"``).  Selections are identical to ``method="eager"`` for
    every feedback.

    Raises :class:`InfeasibleSelectionError` when the must-have/must-not
    filters eliminate every candidate.
    """
    view = (
        _rescaled_view(instance, feedback) if method in _ARRAY_METHODS else None
    )
    if view is None:
        feedback.validate(instance.groups)
        pool = refine_users(repository, instance.groups, feedback)
        rescaled = _customized_instance_exact(instance, feedback)
        path = "exact"
    else:
        eligible = _refine_mask_index(view.base, feedback)
        rescaled = view.instance
        if (
            method == "matrix"
            and view.index.vectorizable
            and view.base.n_users == len(repository)
        ):
            pool = np.flatnonzero(eligible)
            path = "rows"
        else:
            pool = _refine_users_index(
                view.base, eligible, repository, feedback
            )
            path = "pool" if view.index.vectorizable else "exact"
    if not len(pool):
        raise InfeasibleSelectionError(
            "customization feedback filtered out every user"
        )
    if path == "rows":
        assert view is not None
        result = _select_rows(view.index, pool, rescaled, budget, rng)
    else:
        result = greedy_select(
            repository,
            rescaled,
            budget=budget,
            candidates=pool,
            method=method,
            rng=rng,
        )
    priority_score, standard_score = _tier_scores(
        instance, feedback, view, result.selected
    )
    return CustomSelectionResult(
        result=result,
        feedback=feedback,
        refined_pool_size=len(pool),
        priority_score=priority_score,
        standard_score=standard_score,
        path=path,
    )


def _select_rows(
    index: InstanceIndex,
    rows: np.ndarray,
    rescaled: DiversificationInstance,
    budget: int | None,
    rng: np.random.Generator | None,
) -> SelectionResult:
    """Greedy over the dense ``rows`` of the derived index.

    Selects identically to the id-pool path: the rows ascend in user-id
    order (the index invariant), so the kernel over these row slots picks
    exactly what it picks over the id pool ``sorted(pool)``.  Only the
    winners' ids are decoded.
    """
    budget = rescaled.budget if budget is None else budget
    if budget < 1:
        raise InvalidBudgetError(f"budget must be >= 1, got {budget}")
    picked, gains, score = greedy_kernel(index, rows, budget, rng)
    return SelectionResult(
        selected=tuple(str(index.users[rows[p]]) for p in picked),
        score=score,
        gains=tuple(gains),
        instance=rescaled,
    )


def feedback_group_coverage(
    instance: DiversificationInstance,
    feedback: CustomizationFeedback,
    selected: Iterable[str],
    method: str = "index",
) -> float:
    """Fraction of priority groups covered by ``selected`` (Fig. 4 metric).

    ``method="index"`` (default) gathers hit counts at the priority
    groups' dense ids off the cached CSR index — one segment sum, no
    membership-set intersection; ``method="python"`` is the dict oracle.
    Both return the identical float (covered counts are exact integers).
    """
    if not feedback.priority:
        return 1.0
    if method == "index":
        index = instance_index(instance)
        hits = index.selection_hits(selected)
        ids = np.fromiter(
            (index.group_pos[k] for k in feedback.priority),
            dtype=np.int64,
            count=len(feedback.priority),
        )
        required = np.fromiter(
            (int(instance.cov[k]) for k in feedback.priority),
            dtype=np.int64,
            count=len(feedback.priority),
        )
        covered = int(np.count_nonzero(hits[ids] >= required))
        return covered / len(feedback.priority)
    if method != "python":
        raise InvalidFeedbackError(
            f"unknown coverage method {method!r}; use 'index' or 'python'"
        )
    selected_set = set(selected)
    covered = sum(
        1
        for key in feedback.priority
        if len(instance.groups.group(key).members & selected_set)
        >= instance.cov[key]
    )
    return covered / len(feedback.priority)
