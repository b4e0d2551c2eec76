"""Diversification instances (paper Def. 3.3).

A diversification instance is the triple ``(G, wei, cov)``.  Because the
Prop coverage scheme and the EBS weight scheme are defined in terms of the
budget ``B`` and the population size ``|U|``, an instance is built for a
concrete ``(repository, budget)`` pair; the materialized weight and
coverage maps are then immutable for the lifetime of the instance.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .errors import InvalidBudgetError, InvalidInstanceError
from .groups import GroupingConfig, GroupKey, GroupSet, build_simple_groups
from .profiles import UserRepository
from .weights import (
    CoverageMap,
    CoverageScheme,
    LBSWeights,
    SingleCoverage,
    Weight,
    WeightMap,
    WeightScheme,
)


@dataclass(frozen=True)
class DiversificationInstance:
    """The triple ``(G, wei, cov)`` plus the budget it was derived for.

    Attributes
    ----------
    groups:
        The group set ``G`` (possibly overlapping user groups).
    wei:
        Materialized group weights; every value is strictly positive.
    cov:
        Materialized required coverage counts; every value is >= 1.
    budget:
        The selection budget ``B`` the schemes were instantiated with.
    population_size:
        ``|U|`` at build time, kept for explanations and Prop coverage.
    """

    groups: GroupSet
    wei: WeightMap
    cov: CoverageMap
    budget: int
    population_size: int

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise InvalidBudgetError(f"budget must be >= 1, got {self.budget}")
        missing_w = [k for k in self.groups.keys if k not in self.wei]
        missing_c = [k for k in self.groups.keys if k not in self.cov]
        if missing_w or missing_c:
            raise InvalidInstanceError(
                f"instance is missing weights for {len(missing_w)} and "
                f"coverage for {len(missing_c)} groups"
            )
        bad_w = [k for k, w in self.wei.items() if w <= 0]
        if bad_w:
            raise InvalidInstanceError(
                f"weights must be strictly positive; offending keys: "
                f"{[str(k) for k in bad_w[:3]]}"
            )
        bad_c = [k for k, c in self.cov.items() if c < 1 or c != int(c)]
        if bad_c:
            raise InvalidInstanceError(
                f"coverage counts must be integers >= 1; offending keys: "
                f"{[str(k) for k in bad_c[:3]]}"
            )

    def weight(self, key: GroupKey) -> Weight:
        """``wei(G)`` for the group stored under ``key``."""
        return self.wei[key]

    def coverage(self, key: GroupKey) -> int:
        """``cov(G)`` for the group stored under ``key``."""
        return self.cov[key]

    def max_score(self) -> Weight:
        """Upper bound ``Σ_G wei(G)·cov(G)`` on any subset's score."""
        return sum(self.wei[k] * self.cov[k] for k in self.groups.keys)

    def restricted_to_groups(
        self, keys: Iterable[GroupKey]
    ) -> "DiversificationInstance":
        """Project the instance onto a subset of its groups.

        Used by customization: the priority and standard coverage scores
        are each computed on a restriction of the full instance.  The
        projection keeps ``keys`` in the order given.  Keeping every
        group shares this instance's group set and weight/coverage maps
        (instances are immutable), so no per-group copy is made.
        """
        keep = list(dict.fromkeys(keys))
        if len(keep) == len(self.groups) and all(
            k in self.groups for k in keep
        ):
            groups, wei, cov = self.groups, self.wei, self.cov
        else:
            groups = self.groups.subset(keep)
            wei = {k: self.wei[k] for k in keep}
            cov = {k: self.cov[k] for k in keep}
        return DiversificationInstance(
            groups=groups,
            wei=wei,
            cov=cov,
            budget=self.budget,
            population_size=self.population_size,
        )


def build_instance(
    repository: UserRepository,
    budget: int,
    groups: GroupSet | None = None,
    weight_scheme: WeightScheme | None = None,
    coverage_scheme: CoverageScheme | None = None,
    grouping: GroupingConfig | None = None,
) -> DiversificationInstance:
    """Assemble a diversification instance for ``repository`` and ``budget``.

    When ``groups`` is omitted, the grouping module computes the default
    simple groups (Def. 3.4).  The default schemes are LBS weights and
    Single coverage — the combination the paper's experiments focus on
    (§8.3).
    """
    if budget < 1:
        raise InvalidBudgetError(f"budget must be >= 1, got {budget}")
    if groups is None:
        groups = build_simple_groups(repository, grouping)
    weight_scheme = weight_scheme or LBSWeights()
    coverage_scheme = coverage_scheme or SingleCoverage()
    population_size = max(len(repository), 1)
    return DiversificationInstance(
        groups=groups,
        wei=weight_scheme.weights(groups, budget, population_size),
        cov=coverage_scheme.coverage(groups, budget, population_size),
        budget=budget,
        population_size=population_size,
    )
