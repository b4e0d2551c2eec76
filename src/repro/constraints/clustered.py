"""Clustered greedy: budget-split coverage maximization per cluster.

"Maximizing diversity over clustered data" (Zhang & Gionis) motivates
the mode: partition the users, give every cluster a budget share, and
diversify within each cluster so no region of the population is
starved.  The pipeline here:

1. **partition** — ``method="stratified"`` uses the buckets of the
   highest-membership property (plus a remainder cluster for users
   carrying none of them), computed straight off the CSR index;
   ``method="kmeans"`` clusters the dense user × group membership
   matrix with the baselines package's k-means under a fixed seed.
2. **apportion** — the budget is split across clusters by
   largest-remainder proportional apportionment (the same
   :func:`~repro.baselines.stratified.proportional_apportionment` the
   stratified baseline uses), capped at cluster size.
3. **solve per cluster** — the requested array backend
   (matrix/sharded/stochastic) with the cluster's rows as the greedy
   kernel's candidate slots on the parent index: exactly the parent
   greedy restricted to the cluster, with no sub-index built.
   Trailing zero-gain picks are trimmed: a cluster whose coverage value
   is exhausted hands its remaining seats back as slack.
4. **repair** — slack seats are reassigned globally by marginal gain
   conditioned on everything already selected, so no budget is wasted
   on zero-value picks while another cluster still has value left.
   The repair round is :func:`~repro.core.greedy.greedy_kernel` started
   from the coverage the cluster picks left (its ``remaining``).

With a single cluster the pipeline degenerates to plain matrix greedy:
the solve is the whole pool, and the trimmed zero-gain tail is re-picked
by the repair round in the same minimal-user-id order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.clustering import kmeans
from ..baselines.stratified import proportional_apportionment
from ..core.greedy import _select_slots, greedy_kernel
from ..core.index import InstanceIndex
from ..core.instance import DiversificationInstance
from ..core.scoring import CoverageState
from ..core.weights import Weight
from .spec import ClusterSpec


@dataclass(frozen=True)
class ClusterSolve:
    """One cluster's share of a clustered selection."""

    label: str
    size: int
    seats: int
    rows: tuple[int, ...]
    gains: tuple[int, ...]


def partition_rows(
    index: InstanceIndex, cluster_spec: ClusterSpec
) -> list[tuple[str, np.ndarray]]:
    """Partition every dense row into labelled, ascending, disjoint sets.

    Deterministic for a given ``(index, cluster_spec)`` — the property
    the service's per-spec partition cache relies on.
    """
    if cluster_spec.method == "stratified":
        return _stratified_partition(index)
    return _kmeans_partition(index, cluster_spec)


def _stratified_partition(
    index: InstanceIndex,
) -> list[tuple[str, np.ndarray]]:
    """Buckets of the highest-membership property, plus a remainder.

    Ties on total membership break on the lexicographically smallest
    property label.  Users in several buckets of the chosen property
    (possible only for non-bucket group structures) go to the smallest
    dense group id, keeping the result a partition.
    """
    totals: dict[str, int] = {}
    for gid, key in enumerate(index.group_keys):
        size = int(index.g_indptr[gid + 1] - index.g_indptr[gid])
        totals[key.property_label] = (
            totals.get(key.property_label, 0) + size
        )
    if not totals:
        return [("all", np.arange(index.n_users, dtype=np.int64))]
    variable = min(totals, key=lambda p: (-totals[p], p))
    assignment = np.full(index.n_users, -1, dtype=np.int64)
    labelled: list[tuple[str, int]] = []
    for gid, key in enumerate(index.group_keys):
        if key.property_label != variable:
            continue
        members = index.members_of_rows(np.asarray([gid], dtype=np.int64))
        members = np.asarray(members, dtype=np.int64)
        fresh = members[assignment[members] < 0]
        assignment[fresh] = len(labelled)
        labelled.append((f"{variable}::{key.bucket_label}", gid))
    clusters = [
        (label, np.flatnonzero(assignment == position))
        for position, (label, _gid) in enumerate(labelled)
    ]
    rest = np.flatnonzero(assignment < 0)
    if rest.size:
        clusters.append((f"{variable}::<rest>", rest))
    return [(label, rows) for label, rows in clusters if rows.size]


def _kmeans_partition(
    index: InstanceIndex, cluster_spec: ClusterSpec
) -> list[tuple[str, np.ndarray]]:
    """Seeded k-means over the dense user × group membership matrix."""
    if index.n_users == 0:
        return []
    data = index.membership_matrix(range(index.n_groups)).T.astype(
        np.float64
    )
    k = min(cluster_spec.k, index.n_users)
    fitted = kmeans(
        data, k, rng=np.random.default_rng(cluster_spec.seed)
    )
    clusters = [
        (f"kmeans-{c}", np.flatnonzero(fitted.labels == c))
        for c in range(k)
    ]
    return [(label, rows) for label, rows in clusters if rows.size]


def _trim_zero_tail(
    rows: list[int], gains: list[int]
) -> tuple[list[int], list[int]]:
    """Drop trailing zero-gain picks — their seats return as slack."""
    keep = len(gains)
    while keep and gains[keep - 1] == 0:
        keep -= 1
    return rows[:keep], gains[:keep]


def _row_hits(index: InstanceIndex, rows: list[int]) -> np.ndarray:
    """``|S ∩ G|`` per group for a dense-row selection."""
    if not rows:
        return np.zeros(index.n_groups, dtype=np.int64)
    parts = [
        np.asarray(index.groups_of_row(r), dtype=np.int64) for r in rows
    ]
    return np.bincount(
        np.concatenate(parts), minlength=index.n_groups
    ).astype(np.int64)


def clustered_select_rows(
    index: InstanceIndex,
    cluster_spec: ClusterSpec,
    budget: int,
    rows: np.ndarray | None = None,
    *,
    method: str = "matrix",
    partition: list[tuple[str, np.ndarray]] | None = None,
    shards: int = 4,
    jobs: int | None = 1,
    shard_seed: int = 0,
    epsilon: float = 0.1,
    sample_ratio: float | None = None,
) -> tuple[list[int], list[int], int, list[ClusterSolve], list[int]]:
    """Clustered greedy over dense rows.

    Returns ``(picked_rows, gains, score, cluster_solves, repair_rows)``
    where ``picked_rows`` concatenates the per-cluster picks (partition
    order) and the repair picks, ``gains`` are the per-solve realized
    gains (within-cluster for the cluster picks, globally conditioned
    for the repair picks) and ``score`` is the *exact* combined
    ``score_G`` of the whole selection.  Deterministic — per-cluster
    solves and the repair round all run without an rng.

    ``partition`` lets callers supply a precomputed (cached) partition;
    it must come from :func:`partition_rows` on the same index.
    """
    assert index.wei is not None
    if partition is None:
        partition = partition_rows(index, cluster_spec)
    if rows is not None:
        pool = np.asarray(rows, dtype=np.int64)
        partition = [
            (label, np.intersect1d(cluster, pool))
            for label, cluster in partition
        ]
        partition = [
            (label, cluster) for label, cluster in partition if cluster.size
        ]
    else:
        pool = np.arange(index.n_users, dtype=np.int64)
    sizes = [int(cluster.size) for _label, cluster in partition]
    seats = proportional_apportionment(sizes, budget)

    picked: list[int] = []
    gains: list[int] = []
    solves: list[ClusterSolve] = []
    for (label, cluster), share in zip(partition, seats):
        if share == 0:
            solves.append(
                ClusterSolve(label, int(cluster.size), 0, (), ())
            )
            continue
        positions, cluster_gains, _ = _select_slots(
            index, cluster, share, method, None,
            shards, jobs, shard_seed, epsilon, sample_ratio,
        )
        solve_rows, solve_gains = _trim_zero_tail(
            [int(cluster[p]) for p in positions], cluster_gains
        )
        solves.append(
            ClusterSolve(
                label,
                int(cluster.size),
                share,
                tuple(solve_rows),
                tuple(solve_gains),
            )
        )
        picked.extend(solve_rows)
        gains.extend(solve_gains)

    repair: list[int] = []
    slack = budget - len(picked)
    if slack > 0:
        leftover = pool[~np.isin(pool, picked)]
        if leftover.size:
            # Conditioned on the cluster picks: the kernel starts from
            # the coverage they left, so every repair gain is the true
            # marginal gain relative to the combined selection.
            hits = _row_hits(index, picked)
            remaining = np.maximum(index.cov - hits, 0)
            positions, repair_gains, _ = greedy_kernel(
                index, leftover, slack, remaining=remaining
            )
            repair = [int(leftover[p]) for p in positions]
            picked.extend(repair)
            gains.extend(repair_gains)

    hits = _row_hits(index, picked)
    score = int(np.sum(index.wei * np.minimum(hits, index.cov)))
    return picked, gains, score, solves, repair


def clustered_select_oracle(
    instance: DiversificationInstance,
    partition: list[tuple[str, list[str]]],
    budget: int,
) -> tuple[list[str], list[Weight], Weight]:
    """Pure-Python clustered greedy over the dict-based instance.

    The exact-parity twin of :func:`clustered_select_rows` with
    ``method="matrix"``: the same largest-remainder apportionment, an
    eager per-cluster greedy with the trailing zero-gain trim, and a
    conditioned eager repair round — all on dict/set structures, no
    arrays.  ``partition`` carries user-id lists (the id-decoded output
    of :func:`partition_rows`, or any partition under test).
    """
    seats = proportional_apportionment(
        [len(members) for _label, members in partition], budget
    )
    selected: list[str] = []
    gains: list[Weight] = []
    for (_label, members), share in zip(partition, seats):
        if share == 0:
            continue
        state = CoverageState(instance)
        pool = sorted(members)
        marg: dict[str, Weight] = {
            u: state.marginal_gain(u) for u in pool
        }
        remaining = set(pool)
        cluster_gains: list[Weight] = []
        cluster_picks: list[str] = []
        for _ in range(share):
            if not remaining:
                break
            best = max(marg[u] for u in remaining)
            chosen = min(u for u in remaining if marg[u] == best)
            remaining.discard(chosen)
            cluster_gains.append(state.add(chosen))
            for key in state.last_exhausted():
                weight = instance.wei[key]
                for member in instance.groups.group(key).members:
                    if member in remaining:
                        marg[member] -= weight
            cluster_picks.append(chosen)
        while cluster_gains and cluster_gains[-1] == 0:
            cluster_gains.pop()
            cluster_picks.pop()
        selected.extend(cluster_picks)
        gains.extend(cluster_gains)

    slack = budget - len(selected)
    if slack > 0:
        state = CoverageState(instance)
        for user in selected:
            state.add(user)
        taken = set(selected)
        leftover = sorted(
            u
            for _label, members in partition
            for u in members
            if u not in taken
        )
        for _ in range(slack):
            if not leftover:
                break
            best = max(state.marginal_gain(u) for u in leftover)
            chosen = min(
                u for u in leftover if state.marginal_gain(u) == best
            )
            leftover.remove(chosen)
            gains.append(state.add(chosen))
            selected.append(chosen)

    final = CoverageState(instance)
    for user in selected:
        final.add(user)
    return selected, gains, final.score
