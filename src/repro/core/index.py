"""Integer-encoded sparse instance index for the vectorized backend.

The paper's §4 data structures (bidirectional user ↔ group links) are
dict/set based, which keeps the greedy loop readable but pays Python
object overhead per membership visit.  :class:`InstanceIndex` re-encodes
a :class:`~repro.core.instance.DiversificationInstance` once into dense
integer ids plus CSR-style incidence arrays so the selection hot paths
(`method="matrix"` in :func:`~repro.core.greedy.greedy_select`,
:func:`~repro.core.scoring.subset_score`,
:func:`~repro.core.scoring.covered_groups`) run as numpy array ops:

* users appearing in any group get dense ids ``0..n_users-1`` in sorted
  user-id order, so ``argmax`` over a gain vector breaks ties by minimal
  user id exactly like the eager/lazy implementations;
* the user → group and group → user incidence is stored twice as CSR
  (``indptr``/``indices``; indices are int32 whenever the id space fits,
  int64 otherwise) for O(degree) row slicing in both directions;
* ``wei``/``cov`` are materialized as dense int64 vectors.

EBS weights are exact Python integers ``(B + 1)^ord(G)`` that overflow
int64 at realistic ranks, and customized instances may carry non-integer
weights.  The index therefore computes the exact total incidence mass
``Σ_G wei(G)·|G|`` in Python-int arithmetic and only declares itself
:attr:`~InstanceIndex.vectorizable` when every weight is an ``int`` and
every partial sum a backend can form is representable in int64.  Callers
must honor the flag by falling back to the exact object-dtype paths —
correctness never depends on the backend.

The index is immutable and cached on the instance (instances are frozen
and documented immutable for their lifetime), so repeated selections,
scores and coverage queries share one build.  :meth:`InstanceIndex.build`
serves cold builds only: after a profile delta the previous index is
spliced into the new one (:meth:`InstanceIndex.patched`), and the other
budgets of the same group set share its membership arrays
(:meth:`InstanceIndex.reweighted`).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InvalidInstanceError
from .groups import Group, GroupKey
from .instance import DiversificationInstance
from .weights import Weight

#: Largest value an int64 cell may hold; sums bounded by this stay exact.
_INT64_MAX = np.iinfo(np.int64).max

#: Largest dense id an int32 CSR indices array may store.
_INT32_MAX = np.iinfo(np.int32).max

#: Attribute used to cache the built index on a (frozen) instance.  The
#: cached value is a ``(groups_version, index)`` pair so mutations of the
#: underlying group set invalidate the build.
_CACHE_ATTR = "_instance_index_cache"


def id_dtype(n: int) -> type:
    """Smallest integer dtype able to hold dense ids ``0..n-1``.

    CSR ``indices`` arrays dominate index memory at scale, so they are
    stored as int32 whenever the id space fits (halving their footprint);
    the int64 ``wei``/``cov`` accumulators and the exact big-int fallback
    are unaffected — only ids shrink, never arithmetic.
    """
    return np.int32 if n <= _INT32_MAX else np.int64


def _segment_sums(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Exact int64 per-row sums of a CSR value array (empty rows -> 0)."""
    starts = np.asarray(indptr[:-1])
    sums = np.zeros(len(starts), dtype=np.int64)
    # ``reduceat`` needs every start inside ``values``: only trailing
    # empty rows start at the end, so they are left at zero; an empty
    # row elsewhere would read one element and is zeroed afterwards.
    live = int(np.searchsorted(starts, len(values)))
    if live:
        sums[:live] = np.add.reduceat(values, starts[:live], dtype=np.int64)
        sums[starts == np.asarray(indptr[1:])] = 0
    return sums


def _weights_and_coverage(
    instance: DiversificationInstance, group_keys: tuple[GroupKey, ...]
) -> tuple[list, np.ndarray]:
    """Raw weights and int64 coverage of ``instance``, in dense group order."""
    cov = np.fromiter(
        (int(instance.cov[k]) for k in group_keys),
        dtype=np.int64,
        count=len(group_keys),
    )
    return [instance.wei[k] for k in group_keys], cov


@dataclass(frozen=True)
class InstanceIndex:
    """Dense-id sparse view of one diversification instance.

    Attributes
    ----------
    users:
        Every user appearing in at least one group, sorted ascending —
        the dense user id is the position in this tuple.
    user_pos:
        Inverse map ``user_id -> dense id``.
    group_keys:
        Dense group id -> :class:`GroupKey`, in group-set iteration order.
    group_pos:
        Inverse map ``GroupKey -> dense group id``.
    u_indptr / u_indices:
        CSR rows per user listing the dense ids of its groups.
    g_indptr / g_indices:
        CSR rows per group listing the dense ids of its members.  The
        order of the entries inside one row is unspecified (:meth:`build`
        follows frozenset order, :meth:`patched` appends joiners), so
        every consumer treats a row as a set.
    cov:
        Required coverage per group (int64).
    wei:
        Group weights as int64, or ``None`` when not vectorizable.
    initial_gains:
        Per-user marginal gain of the empty subset (every group active),
        or ``None`` when not vectorizable.
    vectorizable:
        True iff all weights are Python ints and ``Σ_G wei(G)·|G|`` fits
        int64, so every partial sum the array backend forms is exact.
    """

    users: tuple[str, ...]
    user_pos: dict[str, int]
    group_keys: tuple[GroupKey, ...]
    group_pos: dict[GroupKey, int]
    u_indptr: np.ndarray
    u_indices: np.ndarray
    g_indptr: np.ndarray
    g_indices: np.ndarray
    cov: np.ndarray
    wei: np.ndarray | None
    initial_gains: np.ndarray | None
    vectorizable: bool

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_groups(self) -> int:
        return len(self.group_keys)

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, instance: DiversificationInstance) -> "InstanceIndex":
        """Encode ``instance`` into dense ids and CSR incidence arrays."""
        groups = list(instance.groups)
        group_keys = tuple(g.key for g in groups)
        users = tuple(sorted({u for g in groups for u in g.members}))
        user_pos = {u: i for i, u in enumerate(users)}
        n_users, n_groups = len(users), len(groups)

        # Group -> user CSR.  The only Python-level pass over the raw
        # membership data is the id -> dense-id lookup; everything after
        # runs as array ops.
        sizes = np.fromiter(
            (len(g.members) for g in groups), dtype=np.int64, count=n_groups
        )
        g_indptr = np.zeros(n_groups + 1, dtype=np.int64)
        np.cumsum(sizes, out=g_indptr[1:])
        total = int(g_indptr[-1])
        g_indices = np.fromiter(
            (user_pos[u] for g in groups for u in g.members),
            dtype=id_dtype(n_users),
            count=total,
        )

        # User -> group CSR: transpose the (group, user) entry list with a
        # stable counting-style sort on the user column.
        entry_group = np.repeat(
            np.arange(n_groups, dtype=id_dtype(n_groups)), sizes
        )
        order = np.argsort(g_indices, kind="stable")
        u_indices = entry_group[order]
        degree = np.bincount(g_indices, minlength=n_users).astype(np.int64)
        u_indptr = np.zeros(n_users + 1, dtype=np.int64)
        np.cumsum(degree, out=u_indptr[1:])

        weights, cov = _weights_and_coverage(instance, group_keys)
        return cls.from_csr(
            users=users,
            group_keys=group_keys,
            u_indptr=u_indptr,
            u_indices=u_indices,
            g_indptr=g_indptr,
            g_indices=g_indices,
            cov=cov,
            weights=weights,
            user_pos=user_pos,
        )

    @classmethod
    def from_csr(
        cls,
        users: tuple[str, ...],
        group_keys: tuple[GroupKey, ...],
        u_indptr: np.ndarray,
        u_indices: np.ndarray,
        g_indptr: np.ndarray,
        g_indices: np.ndarray,
        cov: np.ndarray,
        weights: list | None,
        user_pos: Mapping[str, int] | None = None,
        group_pos: Mapping[GroupKey, int] | None = None,
    ) -> "InstanceIndex":
        """Assemble an index from pre-built CSR arrays.

        Every construction path lands here — :meth:`build`, the columnar
        path (arrays straight from triple columns), :meth:`patched` and
        :meth:`reweighted`.  ``weights`` are the raw per-group weights
        (``None`` for a known non-vectorizable index): the index is
        vectorizable iff every weight is a Python ``int`` and
        ``Σ_G wei(G)·|G|`` is representable in int64.
        """
        n_groups = len(group_keys)
        vectorizable = weights is not None and all(
            isinstance(w, int) and not isinstance(w, bool) for w in weights
        )
        if vectorizable:
            assert weights is not None
            # Exact Python-int bound on every partial sum any backend
            # forms: gains, scores and cumulative sums all total at most
            # Σ_G wei(G)·|G| (coverage caps only shrink terms).  An empty
            # group adds nothing to the mass, but its weight must still
            # fit the int64 ``wei`` array.
            sizes = np.diff(np.asarray(g_indptr)).tolist()
            mass = sum(w * size for w, size in zip(weights, sizes))
            vectorizable = mass <= _INT64_MAX and max(
                weights, default=0
            ) <= _INT64_MAX
        wei = initial_gains = None
        if vectorizable:
            wei = np.fromiter(weights, dtype=np.int64, count=n_groups)
            initial_gains = _segment_sums(wei[u_indices], u_indptr)
        if user_pos is None:
            # Callers whose ``users`` is an unchanged lazy sequence (a
            # mapped checkpoint) pass the id→row mapping through instead:
            # enumerating here would decode the whole id array.
            user_pos = {u: i for i, u in enumerate(users)}
        if group_pos is None:
            group_pos = {key: gid for gid, key in enumerate(group_keys)}
        return cls(
            users=users,
            user_pos=user_pos,
            group_keys=group_keys,
            group_pos=group_pos,
            u_indptr=u_indptr,
            u_indices=u_indices,
            g_indptr=g_indptr,
            g_indices=g_indices,
            cov=cov,
            wei=wei,
            initial_gains=initial_gains,
            vectorizable=vectorizable,
        )

    def reweighted(
        self, instance: DiversificationInstance
    ) -> "InstanceIndex":
        """This index's membership arrays under ``instance``'s weights.

        The budgets of one configuration share a group set, so their
        indexes differ only in ``wei``, ``cov`` and ``initial_gains``.
        ``instance`` must be built over a group set with this index's
        memberships; the returned index shares every membership array
        (and both id maps) with this one.
        """
        weights, cov = _weights_and_coverage(instance, self.group_keys)
        return InstanceIndex.from_csr(
            users=self.users,
            group_keys=self.group_keys,
            u_indptr=self.u_indptr,
            u_indices=self.u_indices,
            g_indptr=self.g_indptr,
            g_indices=self.g_indices,
            cov=cov,
            weights=weights,
            user_pos=self.user_pos,
            group_pos=self.group_pos,
        )

    def patched(
        self,
        groups: Iterable[Group],
        touched: Iterable[str],
        instance: DiversificationInstance,
    ) -> "InstanceIndex":
        """Index of ``instance`` derived by splicing the touched users' rows.

        ``groups`` is this index's group set after
        :func:`~repro.core.updates.reassign_groups` moved ``touched``:
        the same keys in the same order, with only the touched users'
        memberships changed.  The result equals
        ``InstanceIndex.build(instance)`` array for array, except that
        the entries inside a g-side row may come in another order (see
        ``g_indices``).  Cost: one pass over ``groups`` intersecting each
        member set with ``touched``, O(n) vector work for the degree
        array, and copies of the CSR arrays spliced around the touched
        rows — no argsort and no Python loop over untouched memberships:

        * a delta that only rescores grouped users reuses ``users`` and
          ``user_pos``; inserts and removals remap every kept dense id
          in one gather through an old→new id table;
        * u-side: the touched users' old rows are cut out and their new
          rows inserted at their sorted positions;
        * g-side: only the rows of groups a touched user left or joined
          are rebuilt — old entries dropped, new entries appended.
        """
        touched = frozenset(touched)
        keys = self.group_keys
        groups = list(groups)
        if len(groups) != len(keys) or any(
            g.key != k for g, k in zip(groups, keys)
        ):
            raise ValueError(
                "patched() needs the indexed group set's keys in their "
                "original order"
            )
        # Each touched user's new row: the groups it now belongs to.
        joined: dict[str, list[int]] = {}
        for gid, group in enumerate(groups):
            for user_id in touched & group.members:
                joined.setdefault(user_id, []).append(gid)
        old_pos = self.user_pos
        # Touched users present before or after, in id order (which is
        # dense-row order in both indexes), with their old rows.
        moved = sorted(u for u in touched if u in joined or u in old_pos)
        if not moved:
            return self.reweighted(instance)
        before = [old_pos.get(u) for u in moved]
        starts = [
            p if p is not None else bisect_left(self.users, u)
            for u, p in zip(moved, before)
        ]
        gone = [
            p
            for u, p in zip(moved, before)
            if p is not None and u not in joined
        ]
        added = [s for s, p in zip(starts, before) if p is None]

        n_old = self.n_users
        if gone or added:
            pieces: list = []
            cursor = 0
            for u, p, start in zip(moved, before, starts):
                pieces.append(self.users[cursor:start])
                if u in joined:
                    pieces.append((u,))
                cursor = start if p is None else start + 1
            pieces.append(self.users[cursor:])
            users = tuple(chain.from_iterable(pieces))
            user_pos: Mapping[str, int] = dict(zip(users, range(len(users))))
        else:
            users, user_pos = self.users, self.user_pos
        n_new = len(users)
        g_dtype = id_dtype(n_new)
        old_ids = np.arange(n_old, dtype=np.int64)
        new_of_old = (
            old_ids
            - np.searchsorted(np.asarray(gone, dtype=np.int64), old_ids)
            + np.searchsorted(
                np.asarray(added, dtype=np.int64), old_ids, side="right"
            )
        ).astype(g_dtype)
        cut = [p for p in before if p is not None]
        new_of_old[cut] = -1

        # u-side: splice each moved user's new row over its old one.
        u_dtype = self.u_indices.dtype
        u_parts = []
        cursor = 0
        for u, p, start in zip(moved, before, starts):
            lo = int(self.u_indptr[start])
            u_parts.append(self.u_indices[cursor:lo])
            if u in joined:
                u_parts.append(np.asarray(joined[u], dtype=u_dtype))
            cursor = int(self.u_indptr[start + 1]) if p is not None else lo
        u_parts.append(self.u_indices[cursor:])
        u_indices = np.concatenate(u_parts)
        degree = np.zeros(n_new, dtype=np.int64)
        kept = new_of_old >= 0
        degree[new_of_old[kept]] = np.diff(self.u_indptr)[kept]
        appended: dict[int, list[int]] = {}
        for user_id, gids in joined.items():
            row = user_pos[user_id]
            degree[row] = len(gids)
            for gid in gids:
                appended.setdefault(gid, []).append(row)
        u_indptr = np.zeros(n_new + 1, dtype=np.int64)
        np.cumsum(degree, out=u_indptr[1:])

        # g-side: rebuild only the rows a moved user left or joined.
        left = [self.groups_of_row(p) for p in cut]
        affected = np.unique(
            np.concatenate(
                [np.fromiter(appended, dtype=np.int64, count=len(appended))]
                + [np.asarray(row, dtype=np.int64) for row in left]
            )
        )
        source = (
            new_of_old[self.g_indices] if gone or added else self.g_indices
        )
        sizes = np.diff(self.g_indptr)
        g_parts = []
        cursor = 0
        for gid in affected.tolist():
            lo, hi = int(self.g_indptr[gid]), int(self.g_indptr[gid + 1])
            g_parts.append(source[cursor:lo])
            row = new_of_old[self.g_indices[lo:hi]]
            row = row[row >= 0]
            extra = np.asarray(appended.get(gid, ()), dtype=g_dtype)
            g_parts.extend((row, extra))
            sizes[gid] = len(row) + len(extra)
            cursor = hi
        g_parts.append(source[cursor:])
        g_indices = np.concatenate(g_parts).astype(g_dtype, copy=False)
        g_indptr = np.zeros(len(keys) + 1, dtype=np.int64)
        np.cumsum(sizes, out=g_indptr[1:])

        weights, cov = _weights_and_coverage(instance, keys)
        return InstanceIndex.from_csr(
            users=users,
            group_keys=keys,
            u_indptr=u_indptr,
            u_indices=u_indices,
            g_indptr=g_indptr,
            g_indices=g_indices,
            cov=cov,
            weights=weights,
            user_pos=user_pos,
            group_pos=self.group_pos,
        )

    def validate(self) -> None:
        """Check the index's structural invariants; raise if one fails.

        Cheap checks a test can afford after every patch or restore:
        both ``indptr`` arrays start at 0, are monotone and end at the
        entry count; ``users`` is strictly ascending with ``user_pos``
        its inverse (``group_pos`` likewise for ``group_keys``); every
        id is in range; the u-side and g-side hold the same (user,
        group) pairs, so each side is the other's transpose as a
        multiset per row; ``cov ≥ 1``; and ``initial_gains`` equals the
        per-user segment sums of ``wei``.  Raises
        :class:`~repro.core.errors.InvalidInstanceError`.
        """

        def check(ok: bool, what: str) -> None:
            if not ok:
                raise InvalidInstanceError(f"index invariant violated: {what}")

        n_users, n_groups = self.n_users, self.n_groups
        for side, indptr, indices, rows, bound in (
            ("u", self.u_indptr, self.u_indices, n_users, n_groups),
            ("g", self.g_indptr, self.g_indices, n_groups, n_users),
        ):
            check(len(indptr) == rows + 1, f"{side}_indptr length")
            check(int(indptr[0]) == 0, f"{side}_indptr[0] != 0")
            check(
                bool(np.all(np.diff(indptr) >= 0)), f"{side}_indptr monotone"
            )
            check(int(indptr[-1]) == len(indices), f"{side}_indptr[-1]")
            check(
                len(indices) == 0
                or (int(indices.min()) >= 0 and int(indices.max()) < bound),
                f"{side}_indices in range",
            )
        users = list(self.users)
        check(
            all(a < b for a, b in zip(users, users[1:])),
            "users strictly ascending",
        )
        check(
            len(self.user_pos) == n_users
            and all(self.user_pos.get(u) == i for i, u in enumerate(users)),
            "user_pos is the inverse of users",
        )
        check(
            len(self.group_pos) == n_groups
            and all(
                self.group_pos.get(k) == i
                for i, k in enumerate(self.group_keys)
            ),
            "group_pos is the inverse of group_keys",
        )
        u_pairs = (
            np.repeat(np.arange(n_users), np.diff(self.u_indptr)),
            np.asarray(self.u_indices, dtype=np.int64),
        )
        g_pairs = (
            np.asarray(self.g_indices, dtype=np.int64),
            np.repeat(np.arange(n_groups), np.diff(self.g_indptr)),
        )
        u_order = np.lexsort((u_pairs[1], u_pairs[0]))
        g_order = np.lexsort((g_pairs[1], g_pairs[0]))
        check(
            all(
                np.array_equal(a[u_order], b[g_order])
                for a, b in zip(u_pairs, g_pairs)
            ),
            "u-side and g-side are transposes",
        )
        check(len(self.cov) == n_groups, "cov length")
        check(bool(np.all(np.asarray(self.cov) >= 1)), "cov >= 1")
        check(
            (self.wei is None) == (not self.vectorizable)
            and (self.initial_gains is None) == (not self.vectorizable),
            "wei/initial_gains present iff vectorizable",
        )
        if self.vectorizable:
            assert self.wei is not None and self.initial_gains is not None
            check(len(self.wei) == n_groups, "wei length")
            check(
                np.array_equal(
                    self.initial_gains,
                    _segment_sums(self.wei[self.u_indices], self.u_indptr),
                ),
                "initial_gains are the segment sums of wei",
            )

    def restricted_scaled(
        self, group_dense_ids: np.ndarray, weights: list
    ) -> "InstanceIndex":
        """Derived index over a group subset with replacement weights.

        The customization path (paper §6) restricts an instance to the
        active groups ``G_d ∪ G_d?`` (``group_dense_ids``, strictly
        ascending) and rescales priority weights; ``weights`` (exact
        Python ints, parallel to ``group_dense_ids``) replace the
        originals.  No membership is re-encoded:

        * keeping every group (the default feedback's ``G_d ∪ (G − G_d)``)
          shares every membership array, ``cov`` and both id maps with
          this index, exactly like :meth:`reweighted`;
        * a strict subset is one gather of the user-side entries through
          a renumbering table (kept groups keep their relative order,
          dropped ones map to ``-1`` and are filtered out, so each user
          row keeps its surviving entries in place — rows are sets to
          every consumer, see ``g_indices``) plus one contiguous gather
          of the kept group rows.  No argsort.

        The user id space is kept whole — users left with no active group
        have empty rows and zero initial gain, which selects identically
        to absent users.
        """
        group_dense_ids = np.asarray(group_dense_ids, dtype=np.int64)
        m = len(group_dense_ids)
        if m == self.n_groups:
            return InstanceIndex.from_csr(
                users=self.users,
                group_keys=self.group_keys,
                u_indptr=self.u_indptr,
                u_indices=self.u_indices,
                g_indptr=self.g_indptr,
                g_indices=self.g_indices,
                cov=self.cov,
                weights=weights,
                user_pos=self.user_pos,
                group_pos=self.group_pos,
            )
        renumber = np.full(self.n_groups, -1, dtype=id_dtype(m))
        renumber[group_dense_ids] = np.arange(m)
        mapped = renumber[self.u_indices]
        u_indices = mapped[mapped >= 0]
        g_indices = self.g_indices[
            np.repeat(renumber >= 0, np.diff(self.g_indptr))
        ]
        u_indptr = np.zeros(self.n_users + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(g_indices, minlength=self.n_users), out=u_indptr[1:]
        )
        g_indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(self.row_sizes(group_dense_ids), out=g_indptr[1:])
        return InstanceIndex.from_csr(
            users=self.users,
            group_keys=tuple(self.group_keys[g] for g in group_dense_ids),
            u_indptr=u_indptr,
            u_indices=u_indices,
            g_indptr=g_indptr,
            g_indices=g_indices,
            cov=self.cov[group_dense_ids],
            weights=weights,
            user_pos=self.user_pos,
        )

    def take_rows(self, rows: np.ndarray) -> "InstanceIndex":
        """Small eager sub-index over a subset of user rows.

        The streaming sharded backend's merge round runs here: the union
        of shard winners (≤ 2·shards·budget rows) is gathered out of the
        — possibly memory-mapped — parent index into a self-contained
        index whose resident size is O(union), never O(n).  Groups are
        kept whole (same keys, coverage and weights) with membership
        restricted to ``rows``, so every gain the merge round computes
        equals the parent's gain for the same candidate: greedy over a
        ``take_rows`` union is exactly greedy over the parent restricted
        to that union.  ``rows`` must be ascending so the sub-index keeps
        the sorted-by-id row order the argmax tie-break rides on.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) and (np.diff(rows) <= 0).any():
            raise ValueError("take_rows requires strictly ascending rows")
        users = tuple(str(self.users[int(r)]) for r in rows)
        degrees = (self.u_indptr[rows + 1] - self.u_indptr[rows]).astype(
            np.int64
        )
        u_indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(degrees, out=u_indptr[1:])
        if int(u_indptr[-1]):
            u_indices = np.concatenate(
                [
                    self.u_indices[self.u_indptr[r]:self.u_indptr[r + 1]]
                    for r in rows
                ]
            )
        else:
            u_indices = np.empty(0, dtype=self.u_indices.dtype)
        entry_user = np.repeat(
            np.arange(len(rows), dtype=id_dtype(max(len(rows), 1))), degrees
        )
        order = np.argsort(u_indices, kind="stable")
        g_indices = entry_user[order]
        g_indptr = np.zeros(self.n_groups + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(
                np.asarray(u_indices, dtype=np.int64),
                minlength=self.n_groups,
            ),
            out=g_indptr[1:],
        )
        weights = (
            [int(w) for w in self.wei] if self.wei is not None else None
        )
        return InstanceIndex.from_csr(
            users=users,
            group_keys=self.group_keys,
            u_indptr=u_indptr,
            u_indices=np.asarray(u_indices),
            g_indptr=g_indptr,
            g_indices=g_indices,
            cov=np.array(self.cov, dtype=np.int64),
            weights=weights,
        )

    # -- row access --------------------------------------------------------

    def groups_of_row(self, user_dense_id: int) -> np.ndarray:
        """Dense group ids of one user's memberships (a CSR row view)."""
        lo, hi = self.u_indptr[user_dense_id], self.u_indptr[user_dense_id + 1]
        return self.u_indices[lo:hi]

    def members_of_rows(self, group_dense_ids: np.ndarray) -> np.ndarray:
        """Concatenated member ids of several groups (parallel to repeats)."""
        if group_dense_ids.size == 0:
            return np.empty(0, dtype=self.g_indices.dtype)
        return np.concatenate(
            [
                self.g_indices[self.g_indptr[g]:self.g_indptr[g + 1]]
                for g in group_dense_ids
            ]
        )

    def row_sizes(self, group_dense_ids: np.ndarray) -> np.ndarray:
        """Member counts of several groups."""
        return self.g_indptr[group_dense_ids + 1] - self.g_indptr[group_dense_ids]

    # -- vectorized scoring ------------------------------------------------

    def selection_mask(self, user_ids: Iterable[str]) -> np.ndarray:
        """Boolean membership vector over dense user ids."""
        mask = np.zeros(self.n_users, dtype=bool)
        for user_id in user_ids:
            pos = self.user_pos.get(user_id)
            if pos is not None:
                mask[pos] = True
        return mask

    def group_hits(self, mask: np.ndarray) -> np.ndarray:
        """``|U ∩ G|`` per group for a selection mask, as int64."""
        return _segment_sums(
            mask[self.g_indices].astype(np.int64), self.g_indptr
        )

    def selection_hits(self, user_ids: Iterable[str]) -> np.ndarray:
        """``|U ∩ G|`` per group, touching only the selected users' rows.

        Same exact counts as ``group_hits(selection_mask(user_ids))``,
        but O(Σ_u deg(u)) over the selection instead of a pass over the
        full incidence — for a budget-sized selection that is a few
        hundred entries, not millions.  On a memory-mapped index only
        the selected rows' pages fault in.  Duplicate and unknown ids
        contribute nothing, exactly like the mask path.
        """
        rows = {self.user_pos.get(u) for u in user_ids}
        rows.discard(None)
        if not rows:
            return np.zeros(self.n_groups, dtype=np.int64)
        parts = [self.groups_of_row(r) for r in rows]
        counts = np.bincount(
            np.concatenate(parts), minlength=self.n_groups
        )
        return counts.astype(np.int64, copy=False)

    def subset_score(self, user_ids: Iterable[str]) -> Weight:
        """Exact ``score_G`` of a subset; requires :attr:`vectorizable`."""
        assert self.wei is not None
        hits = self.group_hits(self.selection_mask(user_ids))
        return int(np.sum(self.wei * np.minimum(hits, self.cov)))

    def covered_group_keys(self, user_ids: Iterable[str]) -> set[GroupKey]:
        """Keys of groups with at least ``cov(G)`` selected members."""
        hits = self.group_hits(self.selection_mask(user_ids))
        covered = np.flatnonzero(hits >= self.cov)
        return {self.group_keys[g] for g in covered}

    def membership_matrix(self, group_dense_ids: Iterable[int]) -> np.ndarray:
        """Dense boolean rows-per-group × dense-user membership matrix.

        The vectorized intrinsic metrics expand a handful of large groups
        into masks once, then answer every pairwise intersection question
        with one matrix product instead of Python set arithmetic.
        """
        rows = list(group_dense_ids)
        matrix = np.zeros((len(rows), self.n_users), dtype=bool)
        for r, gid in enumerate(rows):
            lo, hi = self.g_indptr[gid], self.g_indptr[gid + 1]
            matrix[r, self.g_indices[lo:hi]] = True
        return matrix


def instance_index(instance: DiversificationInstance) -> InstanceIndex:
    """Build (or fetch the cached) :class:`InstanceIndex` of ``instance``.

    Instances are frozen dataclasses, so the index is computed once and
    stashed on the instance; every selection backend, score and coverage
    query then shares one build.  The group set an instance wraps *is*
    mutable, however (``GroupSet.add`` replaces groups in place), so the
    cache records the group set's version at build time and rebuilds
    whenever the set has mutated since — the same invalidation contract
    :func:`property_incidence` has with ``UserRepository.add``.
    """
    index = cached_index(instance)
    if index is None:
        index = InstanceIndex.build(instance)
        attach_index(instance, index)
    return index


def cached_index(instance: DiversificationInstance) -> InstanceIndex | None:
    """The index cached on ``instance`` if still current; never builds."""
    cached = instance.__dict__.get(_CACHE_ATTR)
    if cached is not None and cached[0] == instance.groups.version:
        return cached[1]
    return None


def attach_index(
    instance: DiversificationInstance, index: InstanceIndex
) -> None:
    """Install a pre-built ``index`` as ``instance``'s cached index.

    Used by paths that already hold the index — a columnar build handing
    out its lazily materialized instance view, or an ``.npz`` checkpoint
    loaded next to a persisted instance — so selections over the instance
    skip the re-encode entirely.
    """
    object.__setattr__(
        instance, _CACHE_ATTR, (instance.groups.version, index)
    )


#: Attribute caching the densified incidence on a repository; the
#: repository invalidates it whenever a profile is added.
_INCIDENCE_CACHE_ATTR = "_property_incidence_cache"


def property_incidence(
    repository,
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """User × property boolean incidence of a repository, densified.

    Returns ``(user_ids, incidence, sizes)`` where ``incidence[i, j]`` is
    1.0 iff user ``i`` (repository order) carries property ``j``
    (``property_labels`` order) and ``sizes[i] = |P_u|``.  The matrix is
    float64 so ``incidence @ incidence[i]`` yields exact pairwise
    intersection counts (0/1 partial sums stay below 2**53): the product
    the distance baseline uses in place of per-pair Python set
    intersections.  Scores are irrelevant here — a property present with
    score 0.0 still counts as carried (open-world semantics, §3.1).

    The result is cached on the repository and invalidated by
    :meth:`~repro.core.profiles.UserRepository.add`, so repeated
    selections over one population share a single densification.
    """
    cached = repository.__dict__.get(_INCIDENCE_CACHE_ATTR)
    if cached is not None:
        return cached
    user_ids = repository.user_ids
    labels = repository.property_labels
    position = {label: j for j, label in enumerate(labels)}
    incidence = np.zeros((len(user_ids), len(labels)), dtype=np.float64)
    for i, user_id in enumerate(user_ids):
        for label in repository.profile(user_id).properties:
            incidence[i, position[label]] = 1.0
    built = (user_ids, incidence, incidence.sum(axis=1).astype(np.int64))
    repository.__dict__[_INCIDENCE_CACHE_ATTR] = built
    return built
