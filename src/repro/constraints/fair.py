"""Fair greedy: coverage maximization under floors and ceilings.

The solver runs the paper's eager greedy recurrence (Algorithm 1) with
a matroid-style feasibility check in front of every pick, in the spirit
of "Diverse Data Selection under Fairness Constraints" (Moumoulidou et
al.):

* **ceilings** — a candidate whose pick would push any constrained
  group past its ceiling is infeasible (``ceiling = 0`` groups are
  excluded outright, exactly customization's must-not rule).
* **floor reserve** — remaining budget is reserved for unmet floors.
  Floors are accounted per property: buckets of one property are
  disjoint (a user carries one bucket per property), so a property
  ``p`` with total unmet deficit ``need_p`` requires ``need_p``
  *distinct* future picks — but one pick can serve a bucket of *every*
  property simultaneously, so the reserve is enforced per property, not
  summed across properties.  A candidate ``u`` is feasible iff, for
  every property ``p``,
  ``need_p − reduction_p(u) ≤ budget − |S| − 1``
  where ``reduction_p(u)`` counts the unmet floor groups of ``p``
  containing ``u``.

The feasible-max-gain pick keeps the greedy exchange argument intact
within the feasible region; floors across *different* properties can in
adversarial overlap structures still dead-end, in which case the solver
raises :class:`InfeasibleConstraintError` naming the largest unmet
floor rather than returning a violating selection (heuristic
feasibility, diagnosed — never silent).  When every floor is met and no
candidate remains feasible (e.g. ceilings sum below the budget), the
solver stops early like an exhausted pool.

The solver is :func:`repro.core.greedy.greedy_kernel` with a fair
eligibility hook (:class:`_FairPolicy`): the kernel keeps the int64 gain
vector, the argmax with the first-max = minimal-user-id tie-break and
the ``np.subtract.at`` exhausted-group propagation; the hook adds the
floor reserve mask, retires the members of every group whose ceiling
the pick fills (ceiling-0 groups up front) and counts the picks per
group for the infeasibility diagnosis.  The pure-Python oracle
:func:`fair_select_oracle` matches it pick for pick.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import InfeasibleConstraintError
from ..core.greedy import greedy_kernel
from ..core.groups import GroupKey
from ..core.index import InstanceIndex
from ..core.instance import DiversificationInstance
from ..core.scoring import CoverageState
from ..core.weights import Weight
from .feasibility import eligibility_mask, keys_by_property
from .spec import ConstraintSpec


class _FairPolicy:
    """Fair eligibility hook for :func:`~repro.core.greedy.greedy_kernel`.

    A dense-id view of a spec's floors/ceilings against one index, plus
    the per-group pick counts the floor reserve and the ceilings read.
    """

    def __init__(
        self, index: InstanceIndex, spec: ConstraintSpec, budget: int
    ) -> None:
        self.index = index
        self.budget = budget
        floors = spec.floors
        self.floor_gids = np.fromiter(
            (index.group_pos[k] for k, _c in floors),
            dtype=np.int64,
            count=len(floors),
        )
        self.floor_req = np.fromiter(
            (c for _k, c in floors), dtype=np.int64, count=len(floors)
        )
        properties = sorted({k.property_label for k, _c in floors})
        prop_pos = {p: i for i, p in enumerate(properties)}
        self.floor_prop = np.fromiter(
            (prop_pos[k.property_label] for k, _c in floors),
            dtype=np.int64,
            count=len(floors),
        )
        self.n_props = len(properties)
        ceilings = spec.ceilings
        ceil_gids = np.fromiter(
            (index.group_pos[k] for k, _c in ceilings),
            dtype=np.int64,
            count=len(ceilings),
        )
        ceil_req = np.fromiter(
            (c for _k, c in ceilings), dtype=np.int64, count=len(ceilings)
        )
        # Per-group ceiling lookup; unconstrained groups get a limit no
        # selection can reach.
        self.ceil_limit = np.full(index.n_groups, np.iinfo(np.int64).max)
        self.ceil_limit[ceil_gids] = ceil_req
        self.counts = np.zeros(index.n_groups, dtype=np.int64)
        # Ceiling-0 groups are plain exclusions — the shared eligibility
        # helper customization's must-not rule also runs on.
        zero_keys = [index.group_keys[int(g)] for g in ceil_gids[ceil_req == 0]]
        self.retired = (
            np.flatnonzero(~eligibility_mask(index, forbidden=zero_keys))
            if zero_keys
            else np.empty(0, dtype=np.int64)
        )

    def deficit(self) -> np.ndarray:
        """Unmet part of every floor."""
        return np.maximum(self.floor_req - self.counts[self.floor_gids], 0)

    def feasible(self, step: int, n: int, slot_of) -> np.ndarray | None:
        """Floor reserve: the slots a tight property still admits."""
        if not self.n_props:
            return None
        floor_def = self.deficit()
        prop_def = np.bincount(
            self.floor_prop, weights=floor_def, minlength=self.n_props
        ).astype(np.int64)
        slots_after = self.budget - step - 1
        tight = np.flatnonzero(prop_def > slots_after)
        if not tight.size:
            return None
        feasible = np.ones(n, dtype=bool)
        for p in tight:
            unmet = self.floor_gids[(self.floor_prop == p) & (floor_def > 0)]
            reduction = np.zeros(n, dtype=np.int64)
            member_slots = slot_of(self.index.members_of_rows(unmet))
            np.add.at(reduction, member_slots[member_slots >= 0], 1)
            feasible &= reduction >= (int(prop_def[p]) - slots_after)
        return feasible

    def picked(self, touched: np.ndarray) -> np.ndarray:
        """Count the pick; the members of groups it fills are retired."""
        self.counts[touched] += 1
        newly_full = touched[self.counts[touched] == self.ceil_limit[touched]]
        return self.index.members_of_rows(newly_full)


def diagnose_floors(
    index: InstanceIndex,
    spec: ConstraintSpec,
    budget: int,
    rows: np.ndarray | None = None,
) -> None:
    """Raise a named :class:`InfeasibleConstraintError` for doomed floors.

    Upfront checks with actionable messages: a floor larger than the
    group's membership inside the candidate pool (covers empty groups),
    and one property's floors summing past the budget (its buckets are
    disjoint, so each unmet floor needs distinct picks).  Cross-property
    dead-ends that survive these checks are diagnosed at runtime by the
    solver itself.
    """
    pool_mask: np.ndarray | None = None
    if rows is not None:
        pool_mask = np.zeros(index.n_users, dtype=bool)
        pool_mask[rows] = True
    per_property: dict[str, int] = {}
    for key, required in spec.floors:
        gid = index.group_pos[key]
        members = index.members_of_rows(np.asarray([gid], dtype=np.int64))
        available = (
            len(members)
            if pool_mask is None
            else int(np.count_nonzero(pool_mask[members]))
        )
        if required > available:
            raise InfeasibleConstraintError(
                f"floor {required} for group {key} exceeds its "
                f"{available} candidate member(s)"
            )
        label = key.property_label
        per_property[label] = per_property.get(label, 0) + required
    for label, total in per_property.items():
        if total > budget:
            raise InfeasibleConstraintError(
                f"floors on property {label!r} sum to {total}, more than "
                f"the budget {budget} (its buckets are disjoint)"
            )


def _infeasible_deficit(
    policy: _FairPolicy, floor_def: np.ndarray
) -> InfeasibleConstraintError:
    """Name the unmet floor with the largest remaining deficit."""
    worst = int(np.argmax(floor_def))
    key = policy.index.group_keys[int(policy.floor_gids[worst])]
    return InfeasibleConstraintError(
        f"no feasible candidate remains while floor for group {key} is "
        f"short by {int(floor_def[worst])} member(s); relax the floors, "
        f"raise conflicting ceilings or increase the budget"
    )


def fair_select_rows(
    index: InstanceIndex,
    spec: ConstraintSpec,
    budget: int,
    rows: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    sample_size: int | None = None,
    sample_rng: np.random.Generator | None = None,
) -> tuple[list[int], list[Weight], int]:
    """Fair greedy over dense rows; returns ``(rows, gains, score)``.

    :func:`~repro.core.greedy.greedy_kernel` under the fair hook: the
    plain recurrence and tie-break, with each pick restricted to
    feasible candidates.  ``rows`` defaults to every row and must be
    strictly ascending.  ``sample_size`` restricts each step to a
    uniform sample of the *feasible* candidates (stochastic greedy over
    the feasible region); a sample covering them all degenerates to the
    exact argmax, so ``sample_ratio=1.0`` reproduces the deterministic
    fair selections for any ``sample_rng``.
    """
    slots = (
        range(index.n_users)
        if rows is None
        else np.asarray(rows, dtype=np.int64)
    )
    policy = _FairPolicy(index, spec, budget)
    diagnose_floors(index, spec, budget, rows)
    picked, gains, score = greedy_kernel(
        index, slots, budget, rng,
        sample_size=sample_size, sample_rng=sample_rng, hook=policy,
    )
    floor_def = policy.deficit()
    if int(floor_def.sum()) > 0:
        # No feasible candidate left, or the budget exhausted through a
        # reserve-accounting gap (overlapping floor groups inside one
        # property), with floors unmet: diagnose rather than return a
        # violating selection.  Met floors with nothing feasible left
        # (e.g. ceilings summing below the budget) stop early instead.
        raise _infeasible_deficit(policy, floor_def)
    return [int(slots[p]) for p in picked], gains, score


def fair_select_oracle(
    instance: DiversificationInstance,
    spec: ConstraintSpec,
    budget: int,
    candidates: list[str] | None = None,
) -> tuple[list[str], list[Weight], Weight]:
    """Pure-Python fair greedy over the dict-based instance.

    The exact-parity twin of :func:`fair_select_rows`: same feasibility
    rules evaluated per user with set arithmetic, same max-gain pick
    with the minimal-user-id tie-break, same diagnosed infeasibility.
    Deliberately does no array work — it is the oracle the parity sweep
    trusts, in the style of the eager/matrix backend pairing.
    """
    groups = instance.groups
    pool = sorted(
        candidates
        if candidates is not None
        else {u for g in groups for u in g.members}
    )
    floors = spec.floor_map
    ceilings = spec.ceiling_map
    members_of = {
        key: groups.group(key).members for key in {*floors, *ceilings}
    }
    pool_set = set(pool)
    per_property: dict[str, int] = {}
    for key, required in floors.items():
        available = len(members_of[key] & pool_set)
        if required > available:
            raise InfeasibleConstraintError(
                f"floor {required} for group {key} exceeds its "
                f"{available} candidate member(s)"
            )
        label = key.property_label
        per_property[label] = per_property.get(label, 0) + required
    for label, total in per_property.items():
        if total > budget:
            raise InfeasibleConstraintError(
                f"floors on property {label!r} sum to {total}, more than "
                f"the budget {budget} (its buckets are disjoint)"
            )
    floor_families = keys_by_property(sorted(floors, key=str))

    state = CoverageState(instance)
    marg: dict[str, Weight] = {u: state.marginal_gain(u) for u in pool}
    remaining = set(pool)
    counts: dict[GroupKey, int] = {key: 0 for key in {*floors, *ceilings}}
    selected: list[str] = []
    gains: list[Weight] = []

    def deficit(key: GroupKey) -> int:
        return max(0, floors[key] - counts[key])

    for _ in range(budget):
        prop_deficit = {
            label: sum(deficit(k) for k in keys)
            for label, keys in floor_families.items()
        }
        slots_after = budget - len(selected) - 1
        feasible: list[str] = []
        for user in remaining:
            blocked = any(
                counts[key] >= limit and user in members_of[key]
                for key, limit in ceilings.items()
            )
            if blocked:
                continue
            reserve_ok = True
            for label, keys in floor_families.items():
                if prop_deficit[label] <= slots_after:
                    continue
                reduction = sum(
                    1
                    for k in keys
                    if deficit(k) > 0 and user in members_of[k]
                )
                if prop_deficit[label] - reduction > slots_after:
                    reserve_ok = False
                    break
            if reserve_ok:
                feasible.append(user)
        if not feasible:
            unmet = [k for k in floors if deficit(k) > 0]
            if unmet:
                worst = max(unmet, key=lambda k: (deficit(k), str(k)))
                raise InfeasibleConstraintError(
                    f"no feasible candidate remains while floor for group "
                    f"{worst} is short by {deficit(worst)} member(s); "
                    f"relax the floors, raise conflicting ceilings or "
                    f"increase the budget"
                )
            break
        best = max(marg[u] for u in feasible)
        chosen = min(u for u in feasible if marg[u] == best)
        remaining.discard(chosen)
        gains.append(state.add(chosen))
        for key in counts:
            if chosen in members_of[key]:
                counts[key] += 1
        for key in state.last_exhausted():
            weight = instance.wei[key]
            for member in groups.group(key).members:
                if member in remaining:
                    marg[member] -= weight
        selected.append(chosen)

    unmet = [k for k in floors if deficit(k) > 0]
    if unmet:
        worst = max(unmet, key=lambda k: (deficit(k), str(k)))
        raise InfeasibleConstraintError(
            f"no feasible candidate remains while floor for group {worst} "
            f"is short by {deficit(worst)} member(s); relax the floors, "
            f"raise conflicting ceilings or increase the budget"
        )
    return selected, gains, state.score
