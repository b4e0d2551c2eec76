"""Greedy user selection — Algorithm 1 of the paper (§4).

Two interchangeable implementations are provided:

* :func:`greedy_select` with ``method="eager"`` follows the paper line by
  line: it maintains every candidate's marginal contribution
  ``marg_{u,U}`` and, whenever a group's remaining coverage hits zero,
  subtracts the group's weight from the contribution of its other members
  (Algorithm 1, line 10).  Complexity
  ``O(B · max_G |G| · max_u degree(u))`` per Prop. 4.4.
* ``method="lazy"`` is the standard lazy-greedy accelerant for monotone
  submodular objectives: stale upper bounds sit in a max-heap and are only
  refreshed when popped.  It returns a subset with the same score
  guarantee and is typically much faster on large, overlapping group sets.
* ``method="matrix"`` runs the same eager recurrence over the
  integer-encoded sparse index (:mod:`repro.core.index`): candidates'
  marginal gains live in one int64 vector, the best pick is an ``argmax``
  and exhausted-group decrements are scattered through CSR incidence
  arrays.  When the instance's weights cannot be represented exactly in
  int64 (EBS big-ints, non-integer weights), it transparently falls back
  to the exact lazy path — correctness never depends on the backend.
  Every array backend, and the fair and clustered constraint solvers,
  runs this recurrence through one function, :func:`greedy_kernel`.

All three achieve the (1 − 1/e) approximation of Prop. 4.4 because the
score function is monotone submodular for every weight/coverage choice,
and all three select *identical sequences* when ``rng`` is None.

Two additional backends trade a little quality guarantee for scale:

* ``method="sharded"`` is the GreeDi two-round scheme [Mirzasoleiman et
  al., "Distributed submodular maximization"]: partition the candidates
  into S shards (deterministic under ``shard_seed``), solve each shard
  with the matrix backend (fanned out over a fork-warmed process pool,
  see :mod:`repro.core.sharding`), then run one exact greedy over the
  union of the ≤ S·B shard picks.  Worst-case guarantee
  (1 − 1/e)/min(S, B)·OPT, but on partitionable instances the measured
  quality ratio vs exact greedy is near 1 (tracked by
  ``repro bench --suite scale``).  ``shards=1`` reproduces the matrix
  selections exactly — the final round restricted to greedy's own output
  re-picks the same sequence.
* ``method="stochastic"`` is lazier-than-lazy stochastic greedy
  [Mirzasoleiman et al., AAAI'15]: each step evaluates marginals only on
  a uniform random sample of ``⌈(n/B)·ln(1/ε)⌉`` remaining candidates,
  giving (1 − 1/e − ε) in expectation at O(n·ln(1/ε)) total marginal
  evaluations.  ``sample_ratio=1.0`` degenerates to the exact
  deterministic greedy for any rng.

Both fall back to the exact lazy path on non-vectorizable instances,
like ``matrix``.  :func:`select_from_index` exposes the vectorized
backends directly on an :class:`~repro.core.index.InstanceIndex`, so the
columnar construction path can select without ever materializing
dict-based ``UserRepository``/``GroupSet`` objects.

Ties between candidates with equal marginal gain are broken
deterministically by user id unless an ``rng`` is supplied, in which case
they are broken uniformly at random — the controlled randomness the paper
mentions in §10.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBudgetError, PodiumError
from .index import InstanceIndex, _segment_sums, instance_index
from .instance import DiversificationInstance
from .profiles import UserRepository
from .scoring import CoverageState
from .sharding import solve_shards
from .weights import Weight

#: Backends that run on the array kernel (:func:`greedy_kernel`).
_ARRAY_METHODS = ("matrix", "sharded", "stochastic")


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a selection run.

    Attributes
    ----------
    selected:
        User ids in the order they were picked.
    score:
        Final ``score_G`` of the subset.
    gains:
        Realized marginal gain of each pick, parallel to ``selected``.
    instance:
        The diversification instance the selection ran against (used by
        explanations and metrics downstream).  ``None`` for selections
        produced straight from an :class:`InstanceIndex`
        (:func:`select_from_index`), where no dict-based instance was
        ever materialized.
    """

    selected: tuple[str, ...]
    score: Weight
    gains: tuple[Weight, ...]
    instance: DiversificationInstance | None = None

    def __post_init__(self) -> None:
        if len(self.selected) != len(self.gains):
            raise PodiumError("selected and gains must be parallel")

    def __len__(self) -> int:
        return len(self.selected)

    def __contains__(self, user_id: object) -> bool:
        return user_id in self.selected


def _resolve_candidates(
    repository: UserRepository, candidates: list[str] | None
) -> list[str]:
    if candidates is None:
        return repository.user_ids
    # A repeated id is one candidate: a pool is a set of users.
    return list(dict.fromkeys(u for u in candidates if u in repository))


def _pick_tie(
    tied: list[str], rng: np.random.Generator | None
) -> str:
    if rng is None or len(tied) == 1:
        return min(tied)
    return tied[int(rng.integers(len(tied)))]


def greedy_select(
    repository: UserRepository,
    instance: DiversificationInstance,
    budget: int | None = None,
    candidates: list[str] | None = None,
    method: str = "eager",
    rng: np.random.Generator | None = None,
    *,
    shards: int = 4,
    jobs: int | None = 1,
    shard_seed: int = 0,
    epsilon: float = 0.1,
    sample_ratio: float | None = None,
) -> SelectionResult:
    """Select up to ``budget`` users maximizing ``score_G`` greedily.

    Parameters
    ----------
    repository:
        The population ``U`` to select from.
    instance:
        The diversification instance ``(G, wei, cov)``.
    budget:
        Bound ``B`` on the subset size; defaults to ``instance.budget``.
    candidates:
        Optional pre-filtered candidate pool (CUSTOM-DIVERSITY passes the
        refined user set ``U'`` here); ids absent from the repository are
        ignored.
    method:
        ``"eager"`` (paper Algorithm 1), ``"lazy"`` (heap accelerant),
        ``"matrix"`` (vectorized sparse backend with exact fallback),
        ``"sharded"`` (GreeDi two-round over ``shards`` user shards) or
        ``"stochastic"`` (per-step sampled marginals).
    rng:
        Optional generator for random tie-breaking (eager/lazy/matrix and
        the sharded merge round) or for per-step candidate sampling
        (stochastic; defaults to a seed-0 generator so runs are
        reproducible by default).
    shards / jobs / shard_seed:
        Sharded backend only: shard count, worker processes for the
        shard solves and the seed of the deterministic user → shard
        permutation.
    epsilon / sample_ratio:
        Stochastic backend only: the guarantee slack ε fixing the sample
        size ``⌈(n/B)·ln(1/ε)⌉``, or an explicit sample fraction of the
        pool overriding it (``1.0`` → exact deterministic greedy).
    """
    budget = instance.budget if budget is None else budget
    if budget < 1:
        raise InvalidBudgetError(f"budget must be >= 1, got {budget}")
    pool = _resolve_candidates(repository, candidates)
    if method == "eager":
        return _greedy_eager(pool, instance, budget, rng)
    if method == "lazy":
        return _greedy_lazy(pool, instance, budget, rng)
    if method not in _ARRAY_METHODS:
        raise PodiumError(
            f"unknown greedy method {method!r}; use 'eager', 'lazy', "
            f"'matrix', 'sharded' or 'stochastic'"
        )
    index = instance_index(instance)
    ordered = sorted(pool)
    if not index.vectorizable:
        # Exact big-int arithmetic: the lazy path, sharded or not (the
        # scheme, not the backend, is what shards).
        if method == "sharded":
            return _lazy_sharded(
                ordered, instance, budget, rng, shards, jobs, shard_seed
            )
        return _greedy_lazy(pool, instance, budget, rng)
    # Candidates in no group keep a -1 slot: zero-gain picks.
    slots = np.fromiter(
        (index.user_pos.get(u, -1) for u in ordered),
        dtype=np.int64,
        count=len(ordered),
    )
    picked, gains, score = _select_slots(
        index, slots, budget, method, rng,
        shards, jobs, shard_seed, epsilon, sample_ratio,
    )
    return SelectionResult(
        selected=tuple(ordered[p] for p in picked),
        score=score,
        gains=tuple(gains),
        instance=instance,
    )


def _greedy_eager(
    pool: list[str],
    instance: DiversificationInstance,
    budget: int,
    rng: np.random.Generator | None,
) -> SelectionResult:
    """Paper-faithful Algorithm 1 with explicit marg_{u,U} updates."""
    groups = instance.groups
    state = CoverageState(instance)
    # Line 2: initial marginal contribution of every candidate.
    marg: dict[str, Weight] = {u: state.marginal_gain(u) for u in pool}
    remaining = set(pool)
    gains: list[Weight] = []

    for _ in range(budget):
        if not remaining:  # Line 4: pool exhausted before the budget.
            break
        best = max(marg[u] for u in remaining)
        # Ascending id order, as lazy and matrix draw ties: ``remaining``
        # is a set of strings, whose order changes with the hash seed.
        tied = sorted(u for u in remaining if marg[u] == best)
        chosen = _pick_tie(tied, rng)  # Line 5 (+ tie policy).
        remaining.discard(chosen)  # Line 6.
        gains.append(state.add(chosen))
        # Lines 7-10: for every group the pick exhausted, its weight no
        # longer counts toward co-members' marginal contributions.
        for key in state.last_exhausted():
            weight = instance.wei[key]
            for member in groups.group(key).members:
                if member in remaining:
                    marg[member] -= weight

    return SelectionResult(
        selected=tuple(state.selected),
        score=state.score,
        gains=tuple(gains),
        instance=instance,
    )


def _greedy_lazy(
    pool: list[str],
    instance: DiversificationInstance,
    budget: int,
    rng: np.random.Generator | None,
) -> SelectionResult:
    """Lazy-greedy: heap of stale upper bounds, refreshed on pop.

    Heap priorities are exact ``(-gain, user_id)`` tuples (Python ints
    for EBS weights never pass through float, which would overflow for
    ``(B+1)^rank``).  Because marginal gains only shrink as the subset
    grows (submodularity), a stored priority is a lower bound of the true
    one; a popped entry whose refreshed priority equals its stored
    priority is therefore the global maximum — with ties resolved by
    user id, *exactly* like the eager implementation, so both methods
    select identical sequences when ``rng`` is None.
    """
    state = CoverageState(instance)
    heap: list[tuple[Weight, str]] = [
        (-state.marginal_gain(user_id), user_id) for user_id in pool
    ]
    heapq.heapify(heap)

    gains: list[Weight] = []
    while heap and len(state.selected) < budget:
        stored, user_id = heapq.heappop(heap)
        fresh = state.marginal_gain(user_id)
        if -fresh != stored:
            # Stale: re-insert with the exact current priority.
            heapq.heappush(heap, (-fresh, user_id))
            continue
        if rng is not None:
            # Randomized tie-breaking: gather every fresh candidate tied
            # on gain, pick uniformly, push the rest back.
            tied = [user_id]
            while heap and heap[0][0] == stored:
                other_priority, other = heapq.heappop(heap)
                other_fresh = state.marginal_gain(other)
                if -other_fresh == stored:
                    tied.append(other)
                else:
                    heapq.heappush(heap, (-other_fresh, other))
            chosen = tied[int(rng.integers(len(tied)))]
            for loser in tied:
                if loser != chosen:
                    heapq.heappush(heap, (stored, loser))
            gains.append(state.add(chosen))
            continue
        gains.append(state.add(user_id))

    return SelectionResult(
        selected=tuple(state.selected),
        score=state.score,
        gains=tuple(gains),
        instance=instance,
    )


def _lazy_sharded(
    ordered: list[str],
    instance: DiversificationInstance,
    budget: int,
    rng: np.random.Generator | None,
    shards: int,
    jobs: int | None,
    shard_seed: int,
) -> SelectionResult:
    """GreeDi with exact lazy solves, for non-vectorizable instances."""

    def solve(_index, part: np.ndarray) -> np.ndarray:
        shard = [ordered[p] for p in part]
        picks = _greedy_lazy(shard, instance, 2 * budget, None).selected
        return np.asarray(
            [bisect_left(ordered, u) for u in picks], dtype=np.int64
        )

    def merge(union: np.ndarray) -> SelectionResult:
        return _greedy_lazy([ordered[p] for p in union], instance, budget, rng)

    parts = permuted_parts(len(ordered), shards, shard_seed)
    return greedi(
        None, range(len(ordered)), parts, budget, jobs, merge, solve=solve
    )


def greedy_kernel(
    index: InstanceIndex,
    slots: range | np.ndarray,
    budget: int,
    rng: np.random.Generator | None = None,
    *,
    sample_size: int | None = None,
    sample_rng: np.random.Generator | None = None,
    remaining: np.ndarray | None = None,
    hook=None,
) -> tuple[list[int], list[Weight], int]:
    """Algorithm 1's array recurrence over candidate slots.

    Every array backend and constraint solver runs this one loop.  The
    candidates are *slots* in ascending user-id order: a contiguous
    ``range`` of dense rows, or an int64 array of dense rows in which
    ``-1`` marks a candidate in no group (a zero-gain pick).  Gains live
    in one int64 vector, a pick is an ``argmax`` (the first maximum is
    the minimal tied id — the eager tie-break), and every group the pick
    exhausts subtracts its weight from its other candidates in one
    ``np.subtract.at`` scatter.  Returns ``(positions, gains, score)``
    with positions into ``slots``; callers map them to rows or ids.

    A pick is *retired* by setting its gain to ``-1``; the scatter may
    push a retired slot lower, but never past the int64 minimum: after
    retirement a slot only loses weight it still held when retired, at
    most its gain then, which is ≤ ``Σ_G wei(G)·|G|`` ≤ int64 max on a
    vectorizable index.  Unretired gains stay ≥ 0, so "gain < 0" is the
    retired set — what the random tie-break and the stochastic sample
    (``sample_size`` of the unretired slots per step, drawn from
    ``sample_rng``; a sample covering them all is the exact argmax)
    see.  The range case allocates nothing ``n_users``-sized, so a
    memory-mapped index selects in O(range) memory.

    ``remaining`` is optional starting coverage (groups already covered
    by earlier picks); gains are then marginal to those picks.  ``hook``
    plugs in a feasibility policy: ``hook.retired`` lists dense rows
    retired before the first step, ``hook.feasible(step, n, slot_of)``
    returns a per-step feasibility mask over the ``n`` slots (or
    ``None``: every unretired slot) given ``slot_of`` mapping dense rows
    to slots (``-1``: not a candidate), and ``hook.picked(touched)``
    takes the pick's groups and returns dense rows to retire.  The loop
    stops early when no feasible slot remains.
    """
    assert index.wei is not None and index.initial_gains is not None
    if remaining is None:
        base = index.initial_gains
        remaining = np.array(index.cov, dtype=np.int64)
    else:
        remaining = np.array(remaining, dtype=np.int64)
        effective = np.where(remaining > 0, index.wei, 0).astype(np.int64)
        base = _segment_sums(effective[index.u_indices], index.u_indptr)
    n = len(slots)
    if isinstance(slots, range):
        lo = slots.start
        gain = np.asarray(base[lo:lo + n]).astype(np.int64)

        def row_of(slot: int) -> int:
            return lo + slot

        def slot_of(members: np.ndarray) -> np.ndarray:
            local = np.asarray(members, dtype=np.int64) - lo
            local[(local < 0) | (local >= n)] = -1
            return local
    else:
        rows = np.asarray(slots, dtype=np.int64)
        present = rows >= 0
        gain = np.zeros(n, dtype=np.int64)
        gain[present] = base[rows[present]]
        inverse = np.full(index.n_users, -1, dtype=np.int64)
        inverse[rows[present]] = np.flatnonzero(present)

        def row_of(slot: int) -> int:
            return int(rows[slot])

        def slot_of(members: np.ndarray) -> np.ndarray:
            return inverse[members]

    def retire(dense_rows: np.ndarray) -> None:
        retired = slot_of(dense_rows)
        gain[retired[retired >= 0]] = -1

    if hook is not None:
        retire(hook.retired)
    picked: list[int] = []
    gains: list[Weight] = []
    score = 0
    for step in range(budget):
        masked = gain
        if hook is not None:
            feasible = hook.feasible(step, n, slot_of)
            if feasible is not None:
                masked = np.where(feasible, gain, np.int64(-1))
        slot = _pick(masked, rng, sample_size, sample_rng)
        if slot < 0:
            break
        realized = int(masked[slot])
        gain[slot] = -1
        picked.append(slot)
        gains.append(realized)
        score += realized

        row = row_of(slot)
        if row < 0:
            continue
        touched = np.asarray(index.groups_of_row(row), dtype=np.int64)
        if hook is not None:
            retire(hook.picked(touched))
        hit = touched[remaining[touched] > 0]
        remaining[hit] -= 1
        exhausted = hit[remaining[hit] == 0]
        if exhausted.size:
            members = slot_of(index.members_of_rows(exhausted))
            weights = np.repeat(
                index.wei[exhausted], index.row_sizes(exhausted)
            )
            keep = members >= 0
            np.subtract.at(gain, members[keep], weights[keep])

    return picked, gains, score


def _pick(
    masked: np.ndarray,
    rng: np.random.Generator | None,
    sample_size: int | None,
    sample_rng: np.random.Generator | None,
) -> int:
    """The slot one kernel step picks, or ``-1`` when none is eligible.

    Returns before drawing from either generator when nothing is
    eligible, so a stopped run leaves the caller's generator where the
    last pick left it.
    """
    if sample_size is not None:
        candidates = np.flatnonzero(masked >= 0)
        if not candidates.size:
            return -1
        if sample_size < candidates.size:
            assert sample_rng is not None
            pick = sample_rng.choice(
                candidates.size, size=sample_size, replace=False
            )
            # Sorted sample keeps argmax ties on the minimal user id.
            candidates = candidates[np.sort(pick)]
        return int(candidates[int(np.argmax(masked[candidates]))])
    if not masked.size:
        return -1
    if rng is None:
        slot = int(np.argmax(masked))
        return slot if masked[slot] >= 0 else -1
    best = masked.max()
    if best < 0:
        return -1
    tied = np.flatnonzero(masked == best)
    return int(tied[int(rng.integers(tied.size))])


def permuted_parts(
    n: int, shards: int, shard_seed: int
) -> list[np.ndarray]:
    """Deterministically deal ``n`` slot positions into sorted shards.

    A seeded permutation deals positions round-robin so shard sizes
    differ by at most one and shard composition is independent of the
    original clustering of ids — the random partition GreeDi's analysis
    assumes.
    """
    if shards < 1:
        raise PodiumError(f"shards must be >= 1, got {shards}")
    shards = min(shards, n) or 1
    perm = np.random.default_rng(shard_seed).permutation(n)
    return [np.sort(perm[i::shards]) for i in range(shards)]


def _shard_slots(
    slots: range | np.ndarray, part: range | np.ndarray
) -> range | np.ndarray:
    """The slots at ``part``'s positions (a range stays a range)."""
    if isinstance(part, range):
        return slots[part.start:part.stop]
    if isinstance(slots, range):
        return part + slots.start
    return slots[part]


def greedi(
    index: InstanceIndex,
    slots: range | np.ndarray,
    parts: list,
    budget: int,
    jobs: int | None,
    merge,
    solve=None,
):
    """GreeDi two-round greedy [Mirzasoleiman et al., "Distributed
    submodular maximization"] that every sharded backend runs.

    ``parts`` are the shards as ascending positions into ``slots``
    (position arrays from :func:`permuted_parts`, or row ranges for the
    out-of-core path).  Round 1 runs :func:`greedy_kernel` on each shard
    for 2B picks — over-returning enriches the union and measurably
    lifts the merge round's quality for a ~2x round-1 cost — fanned out
    over forked workers by :func:`~repro.core.sharding.solve_shards`
    when ``jobs > 1``.  Round 2 is ``merge(union)`` on the sorted
    positions of every shard winner; its result is returned.  ``solve``
    replaces the round-1 shard solve (``solve(index, part)`` returning
    positions).  Round 1 is deterministic, so the union depends only on
    the shards, never on ``jobs``.

    With one shard the union is greedy's own 2B-pick run, whose first B
    picks are exactly the B-budget sequence; greedy re-run over a pool
    containing its own output re-picks the same sequence (each pick is
    still the max-gain, min-id candidate in any subset containing it),
    so an exact merge round reproduces the unsharded selection.
    """

    def winners(shard_index: InstanceIndex, part) -> np.ndarray:
        picked, _gains, _score = greedy_kernel(
            shard_index, _shard_slots(slots, part), 2 * budget
        )
        return np.asarray([part[p] for p in picked], dtype=np.int64)

    picks = solve_shards(solve or winners, index, parts, jobs=jobs)
    return merge(np.unique(np.concatenate(picks)))


def _stochastic_sample_size(
    n: int, budget: int, epsilon: float, sample_ratio: float | None
) -> int:
    """Per-step sample size ``⌈(n/B)·ln(1/ε)⌉``, clamped to ``[1, n]``."""
    if sample_ratio is not None:
        if not 0.0 < sample_ratio <= 1.0:
            raise PodiumError(
                f"sample_ratio must lie in (0, 1], got {sample_ratio}"
            )
        size = math.ceil(sample_ratio * n)
    else:
        if not 0.0 < epsilon < 1.0:
            raise PodiumError(f"epsilon must lie in (0, 1), got {epsilon}")
        size = math.ceil((n / budget) * math.log(1.0 / epsilon))
    return max(1, min(size, n))


def _select_slots(
    index: InstanceIndex,
    slots: range | np.ndarray,
    budget: int,
    method: str,
    rng: np.random.Generator | None,
    shards: int,
    jobs: int | None,
    shard_seed: int,
    epsilon: float,
    sample_ratio: float | None,
) -> tuple[list[int], list[Weight], int]:
    """One array backend over candidate slots; positions into ``slots``.

    ``"matrix"`` is one kernel run.  ``"stochastic"`` samples each step
    (``rng`` drives the sampling only, defaulting to a seed-0 generator
    so repeated calls reproduce; ties within a sample break on the
    minimal user id).  ``"sharded"`` is GreeDi over seeded-permutation
    shards with an exact merge round; ``rng`` only affects round-2
    tie-breaks.
    """
    if method == "sharded":

        def merge(union: np.ndarray):
            picked, gains, score = greedy_kernel(
                index, _shard_slots(slots, union), budget, rng
            )
            return [int(union[p]) for p in picked], gains, score

        parts = permuted_parts(len(slots), shards, shard_seed)
        return greedi(index, slots, parts, budget, jobs, merge)
    if method == "stochastic":
        size = _stochastic_sample_size(
            len(slots), budget, epsilon, sample_ratio
        )
        sample_rng = rng if rng is not None else np.random.default_rng(0)
        return greedy_kernel(
            index, slots, budget, sample_size=size, sample_rng=sample_rng
        )
    if method == "matrix":
        return greedy_kernel(index, slots, budget, rng)
    raise PodiumError(
        f"unknown index selection method {method!r}; use 'matrix', "
        f"'sharded' or 'stochastic'"
    )


def select_from_index(
    index: InstanceIndex,
    budget: int,
    method: str = "matrix",
    candidates: list[str] | None = None,
    rng: np.random.Generator | None = None,
    *,
    shards: int = 4,
    jobs: int | None = 1,
    shard_seed: int = 0,
    epsilon: float = 0.1,
    sample_ratio: float | None = None,
    instance: DiversificationInstance | None = None,
    constraints=None,
) -> SelectionResult:
    """Run a vectorized backend straight on an :class:`InstanceIndex`.

    This is the scale path's entry point: a columnar build (or a loaded
    ``.npz`` checkpoint) holds only the index, and selection should not
    force the dict-based instance into existence.  Only the array
    backends are available — the index must be :attr:`vectorizable`
    (columnar builds always are) — and the returned
    :class:`SelectionResult` carries ``instance=None`` unless the caller
    passes the dict-based ``instance`` the index encodes (the serving
    path does, so explanations can run on the result without the backend
    ever touching the dict structures).

    ``candidates`` defaults to every indexed user; ids the index does not
    know are ignored (they sit in no group, so they can never contribute).
    The full pool runs over dense rows directly and resolves only the
    winners' ids: on a memory-mapped index this keeps selection
    O(budget) in Python objects.

    ``constraints`` accepts a
    :class:`~repro.constraints.ConstraintSpec`; a non-empty spec routes
    the call through :func:`~repro.constraints.constrained_select` (the
    fair or clustered solver, composed with the requested ``method``)
    and returns its underlying :class:`SelectionResult` — callers that
    need the per-bound satisfaction report call ``constrained_select``
    directly.
    """
    if budget < 1:
        raise InvalidBudgetError(f"budget must be >= 1, got {budget}")
    if not index.vectorizable:
        raise PodiumError(
            "select_from_index requires a vectorizable index; big-int or "
            "non-integer weights need the dict-based greedy_select paths"
        )
    if constraints is not None and not constraints.is_empty:
        from ..constraints import constrained_select

        constrained = constrained_select(
            index,
            constraints,
            budget,
            method=method,
            candidates=candidates,
            rng=rng,
            shards=shards,
            jobs=jobs,
            shard_seed=shard_seed,
            epsilon=epsilon,
            sample_ratio=sample_ratio,
        )
        result = constrained.result
        if instance is not None:
            result = SelectionResult(
                selected=result.selected,
                score=result.score,
                gains=result.gains,
                instance=instance,
            )
        return result
    slots: range | np.ndarray
    if candidates is None:
        slots = range(index.n_users)
    else:
        ordered = sorted(u for u in set(candidates) if u in index.user_pos)
        slots = np.fromiter(
            (index.user_pos[u] for u in ordered),
            dtype=np.int64,
            count=len(ordered),
        )
    picked, gains, score = _select_slots(
        index, slots, budget, method, rng,
        shards, jobs, shard_seed, epsilon, sample_ratio,
    )
    return SelectionResult(
        selected=tuple(str(index.users[int(slots[p])]) for p in picked),
        score=score,
        gains=tuple(gains),
        instance=instance,
    )


def select_sharded_streaming(
    index: InstanceIndex,
    budget: int,
    *,
    shards: int = 4,
    jobs: int | None = 1,
    rng: np.random.Generator | None = None,
) -> SelectionResult:
    """GreeDi over contiguous row ranges of a (memory-mapped) index.

    The out-of-core twin of ``method="sharded"``: shards are row ranges
    ``[i·n/S, (i+1)·n/S)`` instead of a seeded permutation, so a forked
    worker touches only its own slice of the mapped CSR arrays (the
    fan-out re-opens the source checkpoint per worker when the index
    carries one).  Round 1 returns each shard's 2B winners as a compact
    int64 row array — no id strings cross the process boundary; round 2
    gathers the union into a small :meth:`InstanceIndex.take_rows`
    sub-index and runs the exact greedy on it.  Resident memory in the
    parent is O(union); in each worker, O(shard).

    Contiguous row ranges partition users by id order rather than
    randomly, so the GreeDi guarantee is the same worst case but the
    measured quality can differ from the permuted variant; the scale
    bench gates both against the 0.95 floor.  ``shards=1`` reproduces
    the matrix selections exactly (see :func:`greedi`).
    """
    if budget < 1:
        raise InvalidBudgetError(f"budget must be >= 1, got {budget}")
    if not index.vectorizable:
        raise PodiumError(
            "select_sharded_streaming requires a vectorizable index; "
            "big-int or non-integer weights need the dict-based "
            "greedy_select paths"
        )
    if shards < 1:
        raise PodiumError(f"shards must be >= 1, got {shards}")
    n = index.n_users
    shards = min(shards, n) or 1
    parts = [
        range(i * n // shards, (i + 1) * n // shards) for i in range(shards)
    ]

    def merge(union: np.ndarray):
        sub = index.take_rows(union)
        picked, gains, score = greedy_kernel(
            sub, range(sub.n_users), budget, rng
        )
        return [int(union[p]) for p in picked], gains, score

    rows, gains, score = greedi(index, range(n), parts, budget, jobs, merge)
    return SelectionResult(
        selected=tuple(str(index.users[r]) for r in rows),
        score=score,
        gains=tuple(gains),
        instance=None,
    )
