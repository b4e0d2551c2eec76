"""User profiles and repositories (paper §3.1).

A user profile is a tuple ``D_u = <P_u, S_u>`` where ``P_u`` is the set of
property labels known for the user and ``S_u : P_u -> [0, 1]`` maps each
property to a normalized score.  A :class:`UserRepository` holds the
profiles of a population and maintains an inverted index from property
label to the users that carry it, which is what the grouping module and
the greedy selection algorithm traverse.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DuplicateUserError,
    EmptyRepositoryError,
    InvalidScoreError,
    UnknownPropertyError,
    UnknownUserError,
)

_SCORE_EPS = 1e-12


def _validate_score(label: str, score: float) -> float:
    value = float(score)
    if not (-_SCORE_EPS <= value <= 1.0 + _SCORE_EPS) or value != value:
        raise InvalidScoreError(
            f"score for property {label!r} must be in [0, 1], got {score!r}"
        )
    return min(max(value, 0.0), 1.0)


def _as_set(labels: Iterable[str]) -> set[str] | frozenset[str]:
    return labels if isinstance(labels, (set, frozenset)) else set(labels)


@dataclass(frozen=True)
class UserProfile:
    """Immutable profile ``D_u = <P_u, S_u>`` of a single user.

    Parameters
    ----------
    user_id:
        Unique identifier of the user within a repository.
    scores:
        Mapping from property label to its normalized score in ``[0, 1]``.
        The mapping is copied and frozen at construction time.
    """

    user_id: str
    scores: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        frozen = {
            str(label): _validate_score(label, score)
            for label, score in dict(self.scores).items()
        }
        object.__setattr__(self, "scores", frozen)

    @classmethod
    def _trusted(cls, user_id: str, scores: dict[str, float]) -> "UserProfile":
        """Wrap ``scores`` already validated by another profile, as is."""
        profile = object.__new__(cls)
        object.__setattr__(profile, "user_id", user_id)
        object.__setattr__(profile, "scores", scores)
        return profile

    @property
    def properties(self) -> frozenset[str]:
        """The set ``P_u`` of property labels known for this user."""
        return frozenset(self.scores)

    def has(self, label: str) -> bool:
        """Return whether property ``label`` is recorded for this user."""
        return label in self.scores

    def score(self, label: str) -> float:
        """Return ``S_u(label)``; raise if the property is unknown.

        Missing properties follow the open-world assumption (paper §3.1):
        absence means *unknown*, not false, hence no default is returned.
        """
        try:
            return self.scores[label]
        except KeyError:
            raise UnknownPropertyError(
                f"user {self.user_id!r} has no property {label!r}"
            ) from None

    def with_score(self, label: str, score: float) -> "UserProfile":
        """Return a copy of this profile with ``label`` set to ``score``."""
        merged = dict(self.scores)
        merged[str(label)] = score
        return UserProfile(self.user_id, merged)

    def without(self, labels: Iterable[str]) -> "UserProfile":
        """Return a copy with every property in ``labels`` removed."""
        drop = _as_set(labels)
        return UserProfile._trusted(
            self.user_id,
            {p: s for p, s in self.scores.items() if p not in drop},
        )

    def restricted_to(self, labels: Iterable[str]) -> "UserProfile":
        """Return a copy keeping only the properties in ``labels``.

        Score order is kept; pass a set to share it across profiles.
        """
        keep = _as_set(labels)
        return UserProfile._trusted(
            self.user_id,
            {p: s for p, s in self.scores.items() if p in keep},
        )

    def __len__(self) -> int:
        return len(self.scores)

    def __contains__(self, label: object) -> bool:
        return label in self.scores

    def __iter__(self) -> Iterator[str]:
        return iter(self.scores)


class UserRepository:
    """A population ``U`` of user profiles with a property inverted index.

    The repository is the substrate every other module operates on: the
    grouping module scans its per-property score arrays to compute buckets,
    and the selection algorithms traverse the user -> property and
    property -> users links (the bidirectional lists of paper §4).
    """

    def __init__(self, profiles: Iterable[UserProfile] = ()) -> None:
        self._profiles: dict[str, UserProfile] = {}
        self._index: dict[str, dict[str, float]] = {}
        for profile in profiles:
            self.add(profile)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_records(
        cls, records: Mapping[str, Mapping[str, float]]
    ) -> "UserRepository":
        """Build a repository from ``{user_id: {property: score}}``."""
        return cls(
            UserProfile(user_id, scores) for user_id, scores in records.items()
        )

    def add(self, profile: UserProfile) -> None:
        """Insert ``profile``; user ids must be unique."""
        if profile.user_id in self._profiles:
            raise DuplicateUserError(f"duplicate user id {profile.user_id!r}")
        self._profiles[profile.user_id] = profile
        for label, score in profile.scores.items():
            self._index.setdefault(label, {})[profile.user_id] = score
        # Drop the densified incidence cached by the vectorized distance
        # baseline (repro.core.index.property_incidence) — it is stale now.
        self.__dict__.pop("_property_incidence_cache", None)

    # -- basic access ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._profiles)

    def __iter__(self) -> Iterator[UserProfile]:
        return iter(self._profiles.values())

    def __contains__(self, user_id: object) -> bool:
        return user_id in self._profiles

    @property
    def user_ids(self) -> list[str]:
        """All user ids, in insertion order."""
        return list(self._profiles)

    @property
    def property_labels(self) -> list[str]:
        """All property labels seen in any profile, in first-seen order."""
        return list(self._index)

    def profile(self, user_id: str) -> UserProfile:
        """Return the profile of ``user_id``; raise if absent."""
        try:
            return self._profiles[user_id]
        except KeyError:
            raise UnknownUserError(f"unknown user id {user_id!r}") from None

    def support(self, label: str) -> int:
        """Return ``|p|``: the number of users carrying property ``label``."""
        return len(self._index.get(label, ()))

    def users_with(self, label: str) -> dict[str, float]:
        """Return ``{user_id: score}`` for every user carrying ``label``."""
        return dict(self._index.get(label, {}))

    def scores_for(self, label: str) -> tuple[list[str], np.ndarray]:
        """Return parallel ``(user_ids, scores)`` for property ``label``.

        The grouping module uses the score vector for 1-d bucketing.
        """
        entries = self._index.get(label)
        if not entries:
            raise UnknownPropertyError(f"no user has property {label!r}")
        ids = list(entries)
        return ids, np.fromiter(
            (entries[u] for u in ids), dtype=float, count=len(ids)
        )

    # -- statistics ---------------------------------------------------------

    def mean_profile_size(self) -> float:
        """Average ``|P_u|`` over the population."""
        if not self._profiles:
            raise EmptyRepositoryError("repository is empty")
        return sum(len(p) for p in self._profiles.values()) / len(self._profiles)

    def max_profile_size(self) -> int:
        """Maximum ``|P_u|`` over the population (0 when empty)."""
        return max((len(p) for p in self._profiles.values()), default=0)

    # -- derivation ----------------------------------------------------------

    def subset(self, user_ids: Iterable[str]) -> "UserRepository":
        """Return a new repository restricted to ``user_ids``."""
        return UserRepository(self.profile(u) for u in user_ids)

    def filter(self, predicate: Callable[[UserProfile], bool]) -> "UserRepository":
        """Return a new repository of the profiles satisfying ``predicate``."""
        return UserRepository(p for p in self if predicate(p))

    def without_properties(self, labels: Iterable[str]) -> "UserRepository":
        """Return a copy with ``labels`` removed from every profile.

        Used by the opinion-procurement simulation (paper §8.2) to hide the
        held-out destination's data from the selection algorithms.
        """
        drop = set(labels)
        return UserRepository(p.without(drop) for p in self)

    def matrix(
        self,
        labels: Iterable[str] | None = None,
        fill: float = 0.0,
    ) -> tuple[list[str], list[str], np.ndarray]:
        """Densify the repository into a ``len(U) × len(P)`` score matrix.

        Missing entries take ``fill``.  The clustering and distance-based
        baselines operate on this matrix.
        """
        cols = list(labels) if labels is not None else self.property_labels
        col_pos = {label: j for j, label in enumerate(cols)}
        rows = self.user_ids
        data = np.full((len(rows), len(cols)), fill, dtype=float)
        for i, user_id in enumerate(rows):
            for label, score in self._profiles[user_id].scores.items():
                j = col_pos.get(label)
                if j is not None:
                    data[i, j] = score
        return rows, cols, data

    def __repr__(self) -> str:
        return (
            f"UserRepository(users={len(self)}, "
            f"properties={len(self._index)})"
        )
