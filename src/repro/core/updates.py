"""Incremental repository updates (paper §9).

The paper contrasts Podium with manually-curated surveys: "our solution
applies to a given user repository as-is and may be easily executed
multiple times, e.g., to incorporate data updates".  Re-running the full
grouping module on every profile change is wasteful, so this module
applies a *profile delta* to an existing group set in place of a rebuild:

* bucket boundaries are kept frozen (they move slowly on large
  populations — re-bucket periodically, not per update);
* changed users are re-assigned to the frozen buckets;
* weights and coverage are re-materialized from the updated group sizes;
* the cached sparse index is patched around the touched users' rows
  instead of re-encoded (:func:`refresh_instances`).

:func:`apply_delta` returns new objects; nothing is mutated, so an
in-flight selection keeps a consistent snapshot.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from .errors import InvalidDeltaError, UnknownUserError
from .groups import Group, GroupingConfig, GroupSet
from .index import attach_index, cached_index
from .instance import DiversificationInstance
from .profiles import UserProfile, UserRepository
from .weights import CoverageScheme, LBSWeights, SingleCoverage, WeightScheme


@dataclass(frozen=True)
class ProfileDelta:
    """A batch of repository changes: upserts and removals.

    ``upserts`` replace a user's whole profile (or insert a new user);
    ``removals`` delete users.  A user id may appear in only one of the
    two collections.
    """

    upserts: tuple[UserProfile, ...] = ()
    removals: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        upsert_ids = {p.user_id for p in self.upserts}
        if len(upsert_ids) != len(self.upserts):
            counts: dict[str, int] = {}
            for profile in self.upserts:
                counts[profile.user_id] = counts.get(profile.user_id, 0) + 1
            dupes = sorted(u for u, c in counts.items() if c > 1)
            raise InvalidDeltaError(
                f"duplicate user ids in upserts: {dupes[:3]}"
            )
        clash = upsert_ids & self.removals
        if clash:
            raise InvalidDeltaError(
                f"user ids both upserted and removed: {sorted(clash)[:3]}"
            )

    @property
    def touched(self) -> frozenset[str]:
        """Every user id affected by this delta."""
        return frozenset(p.user_id for p in self.upserts) | self.removals


def profile_delta_to_dict(delta: ProfileDelta) -> dict[str, Any]:
    """Serialize a delta to the JSON interchange form.

    The same shape the service's ``/profiles/delta`` route accepts, so
    write-ahead-log records replay through one parser.
    """
    return {
        "upserts": {
            p.user_id: dict(p.scores) for p in delta.upserts
        },
        "removals": sorted(delta.removals),
    }


def profile_delta_from_dict(document: dict[str, Any]) -> ProfileDelta:
    """Rebuild a delta serialized by :func:`profile_delta_to_dict`."""
    upserts_raw = document.get("upserts") or {}
    if not isinstance(upserts_raw, dict):
        raise InvalidDeltaError(
            "delta field 'upserts' must map user ids to {property: score}"
        )
    removals_raw = document.get("removals") or []
    if not isinstance(removals_raw, (list, tuple)):
        raise InvalidDeltaError(
            "delta field 'removals' must be a list of user ids"
        )
    return ProfileDelta(
        upserts=tuple(
            UserProfile(str(user_id), scores)
            for user_id, scores in upserts_raw.items()
        ),
        removals=frozenset(str(u) for u in removals_raw),
    )


def apply_delta_to_repository(
    repository: UserRepository, delta: ProfileDelta
) -> UserRepository:
    """Return a new repository with the delta applied.

    Removals of unknown users raise; upserting an existing user replaces
    the profile wholesale (the derive pipeline recomputes aggregates).
    """
    for user_id in delta.removals:
        if user_id not in repository:
            raise UnknownUserError(f"cannot remove unknown user {user_id!r}")
    upserted = {p.user_id: p for p in delta.upserts}
    profiles = [
        upserted.pop(p.user_id, p)
        for p in repository
        if p.user_id not in delta.removals
    ]
    profiles.extend(upserted.values())
    return UserRepository(profiles)


def reassign_groups(
    groups: GroupSet,
    repository: UserRepository,
    delta: ProfileDelta,
) -> GroupSet:
    """Re-assign the delta's users to the existing (frozen) buckets.

    ``repository`` must already have the delta applied.  Group member
    sets shrink/grow; bucket boundaries, labels and keys are unchanged.
    Buckets that become empty are kept (weights of 0-size LBS groups are
    clamped by the instance builder below).

    A group the delta leaves alone — no touched member, and no upserted
    profile scoring into its bucket (so in particular every group whose
    property no upserted profile carries) — is reused as the same
    :class:`Group` object; only the other groups are rebuilt.  The cost
    is O(|groups| × |touched|) set probes plus those rebuilds.
    """
    touched = delta.touched
    upserted = {
        user_id: repository.profile(user_id)
        for user_id in touched - delta.removals
    }
    carried = {label for p in upserted.values() for label in p.properties}
    updated = GroupSet()
    for group in groups:
        label = group.key.property_label
        joiners = frozenset()
        if group.bucket is not None and label in carried:
            joiners = frozenset(
                user_id
                for user_id, profile in upserted.items()
                if label in profile
                and group.bucket.contains(profile.score(label))
            )
        if not joiners and touched.isdisjoint(group.members):
            updated.add(group)
            continue
        updated.add(
            Group(
                group.key,
                (group.members - touched) | joiners,
                group.bucket,
                group.label,
            )
        )
    return updated


def rebuild_instance(
    groups: GroupSet,
    repository: UserRepository,
    budget: int,
    weight_scheme: WeightScheme | None = None,
    coverage_scheme: CoverageScheme | None = None,
) -> DiversificationInstance:
    """Re-materialize weights/coverage on updated groups.

    Empty groups get a floor weight of 1 so the instance stays valid;
    they can never be covered and never attract the greedy (no members),
    so the floor is behaviour-neutral.
    """
    weight_scheme = weight_scheme or LBSWeights()
    coverage_scheme = coverage_scheme or SingleCoverage()
    population = max(len(repository), 1)
    wei = weight_scheme.weights(groups, budget, population)
    wei = {key: (value if value > 0 else 1) for key, value in wei.items()}
    cov = coverage_scheme.coverage(groups, budget, population)
    return DiversificationInstance(
        groups=groups,
        wei=wei,
        cov=cov,
        budget=budget,
        population_size=population,
    )


def refresh_instances(
    previous: Mapping[int, DiversificationInstance],
    groups: GroupSet,
    repository: UserRepository,
    delta: ProfileDelta,
    weight_scheme: WeightScheme | None = None,
    coverage_scheme: CoverageScheme | None = None,
) -> dict[int, DiversificationInstance]:
    """Rebuild one group set's instances after a delta, patching the index.

    ``previous`` maps budgets to the instances over the group set that
    ``groups`` was reassigned from.  Every budget gets a fresh instance
    from :func:`rebuild_instance`.  The sparse index is spliced once per
    group set: the first cached index is patched with the delta's
    touched users (:meth:`~repro.core.index.InstanceIndex.patched`) and
    the other budgets reweight the same membership arrays.  When no
    previous instance holds a current index, none is attached and the
    first selection pays a cold build.
    """
    source = next(filter(None, map(cached_index, previous.values())), None)
    patched = None
    refreshed: dict[int, DiversificationInstance] = {}
    for budget in previous:
        instance = rebuild_instance(
            groups, repository, budget, weight_scheme, coverage_scheme
        )
        if patched is not None:
            attach_index(instance, patched.reweighted(instance))
        elif source is not None:
            patched = source.patched(groups, delta.touched, instance)
            attach_index(instance, patched)
        refreshed[budget] = instance
    return refreshed


@dataclass
class IncrementalPodium:
    """Convenience wrapper holding (repository, groups, instance) in sync.

    ``update(delta)`` applies a batch and refreshes all three snapshots;
    ``rebucket()`` forces the periodic full grouping-module run.

    Bucket boundaries are frozen across updates and drift as the
    population changes, so a deterministic *rebucket trigger policy*
    bounds the drift: when the cumulative number of touched users since
    the last full grouping run reaches ``rebucket_threshold`` as a
    fraction of the current population, :meth:`update` re-runs the
    grouping module (with ``grouping``, the config reused by every
    triggered run) before returning.  The policy depends only on the
    delta sequence — no clocks, no randomness — so replaying the same
    deltas always rebuilds at the same points.  ``rebucket_threshold=None``
    (the default) disables the trigger and preserves the manual-only
    behaviour.
    """

    repository: UserRepository
    groups: GroupSet
    budget: int
    weight_scheme: WeightScheme = field(default_factory=LBSWeights)
    coverage_scheme: CoverageScheme = field(default_factory=SingleCoverage)
    rebucket_threshold: float | None = None
    grouping: GroupingConfig | None = None

    def __post_init__(self) -> None:
        if self.rebucket_threshold is not None and self.rebucket_threshold <= 0:
            raise InvalidDeltaError(
                f"rebucket_threshold must be positive, "
                f"got {self.rebucket_threshold}"
            )
        self.touched_since_rebucket = 0
        self.rebucket_count = 0
        self.instance = rebuild_instance(
            self.groups,
            self.repository,
            self.budget,
            self.weight_scheme,
            self.coverage_scheme,
        )

    def update(self, delta: ProfileDelta) -> None:
        """Apply a profile delta incrementally (frozen buckets).

        May end with a full grouping-module run when the touched-users
        fraction crosses :attr:`rebucket_threshold`.
        """
        self.repository = apply_delta_to_repository(self.repository, delta)
        self.groups = reassign_groups(self.groups, self.repository, delta)
        self.touched_since_rebucket += len(delta.touched)
        if self._rebucket_due():
            self.rebucket(self.grouping)
            return
        self.instance = refresh_instances(
            {self.budget: self.instance},
            self.groups,
            self.repository,
            delta,
            self.weight_scheme,
            self.coverage_scheme,
        )[self.budget]

    def _rebucket_due(self) -> bool:
        if self.rebucket_threshold is None:
            return False
        population = max(len(self.repository), 1)
        return self.touched_since_rebucket >= self.rebucket_threshold * population

    def rebucket(self, grouping=None) -> None:
        """Run the full grouping module again (periodic maintenance)."""
        from .groups import build_simple_groups

        self.groups = build_simple_groups(self.repository, grouping)
        self.touched_since_rebucket = 0
        self.rebucket_count += 1
        self.instance = rebuild_instance(
            self.groups,
            self.repository,
            self.budget,
            self.weight_scheme,
            self.coverage_scheme,
        )
