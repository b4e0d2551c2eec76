"""Streaming maintenance of a selection under profile deltas.

Re-running the full greedy after every ingested delta is wasteful: a
delta touches a handful of users, and the previous selection is almost
always still (near-)optimal.  :class:`StreamingMaintainer` keeps a
selection continuously valid with the repair rules of the streaming
submodular-maximization literature (sieve-streaming / swap-streaming):

* **drop** — selected users that vanish from the index (removed from the
  repository, or left every group after re-bucketing) are evicted;
* **fill** — free budget slots are refilled greedily (argmax marginal
  gain over the current coverage remainder, exactly the matrix greedy's
  step rule, so ties break on the minimal user id);
* **swap** — an outside candidate displaces the weakest selected member
  when its marginal gain on ``S \\ {m*}`` exceeds
  ``(1 + swap_margin) · contribution(m*)``.  The margin is the classic
  streaming-threshold trick: demanding strictly *more* than parity
  bounds the number of swaps per element and stops oscillation;
* **re-solve** — repair quality degrades as churn accumulates, so when
  the cumulative number of touched users since the last full solve
  reaches ``staleness_fraction`` of the population, the maintainer runs
  a fresh :func:`~repro.core.greedy.select_from_index` and resets.

Everything is vectorized against the :class:`InstanceIndex` CSR arrays;
a refresh costs O(degree) array work per repair step, not a full greedy
pass.  The ingest benchmark pins the resulting quality at ≥ 0.95 of the
from-scratch matrix greedy.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from ..core.errors import StorageError
from ..core.greedy import greedy_kernel, select_from_index
from ..core.index import InstanceIndex, _segment_sums

#: Safety cap on swap iterations per refresh: each swap strictly
#: increases the score by a (1 + margin) factor on the displaced
#: contribution, so convergence is fast; the cap only guards against
#: pathological float-free cycles that the strict inequality already
#: excludes.
_MAX_SWAPS_PER_REFRESH = 64


class StreamingMaintainer:
    """Keeps a budget-``B`` selection repaired across index refreshes.

    The maintainer owns no repository state: the serving layer hands it
    a fresh :class:`InstanceIndex` after each applied delta (cheap —
    index builds are already incremental-friendly and cached) together
    with the touched-user count, and reads back ``selection``.
    """

    def __init__(
        self,
        index: InstanceIndex,
        budget: int,
        swap_margin: float = 0.1,
        staleness_fraction: float = 0.25,
    ) -> None:
        if not index.vectorizable:
            raise StorageError(
                "StreamingMaintainer requires a vectorizable index"
            )
        if budget < 1:
            raise StorageError(f"budget must be >= 1, got {budget}")
        if swap_margin < 0:
            raise StorageError(
                f"swap_margin must be >= 0, got {swap_margin}"
            )
        if not 0 < staleness_fraction:
            raise StorageError(
                f"staleness_fraction must be positive, "
                f"got {staleness_fraction}"
            )
        self.budget = budget
        self.swap_margin = swap_margin
        self.staleness_fraction = staleness_fraction
        self.swaps = 0
        self.fills = 0
        self.drops = 0
        self.resolves = 0
        self.touched_since_solve = 0
        self._index = index
        self._solve()

    # -- public surface ----------------------------------------------------

    @property
    def selection(self) -> tuple[str, ...]:
        """The maintained user ids, in greedy-pick order."""
        return tuple(self._selected)

    @property
    def index(self) -> InstanceIndex:
        return self._index

    def score(self) -> int:
        """Exact score of the maintained selection on the current index."""
        return int(self._index.subset_score(self._selected))

    def refresh(self, index: InstanceIndex, touched: int = 0) -> None:
        """Adopt a new index (post-delta) and repair the selection.

        ``touched`` is the number of users the delta affected; it feeds
        the staleness trigger.  Repair order is drop → fill → swap so a
        removal's freed slot is refilled before swaps are evaluated.
        """
        if not index.vectorizable:
            raise StorageError(
                "StreamingMaintainer requires a vectorizable index"
            )
        self._index = index
        self.touched_since_solve += max(int(touched), 0)
        if self._stale():
            self._solve()
            return
        kept = [u for u in self._selected if u in index.user_pos]
        self.drops += len(self._selected) - len(kept)
        self._selected = kept
        self._fill()
        self._swap_pass()

    def stats(self) -> dict[str, Any]:
        return {
            "budget": self.budget,
            "selected": len(self._selected),
            "score": self.score(),
            "swaps": self.swaps,
            "fills": self.fills,
            "drops": self.drops,
            "resolves": self.resolves,
            "touched_since_solve": self.touched_since_solve,
        }

    # -- internals ---------------------------------------------------------

    def _stale(self) -> bool:
        population = max(self._index.n_users, 1)
        return self.touched_since_solve >= (
            self.staleness_fraction * population
        )

    def _solve(self) -> None:
        """Full from-scratch greedy (initial build and staleness resets)."""
        result = select_from_index(self._index, self.budget, method="matrix")
        self._selected = list(result.selected)
        self.touched_since_solve = 0
        self.resolves += 1

    def _remaining(self, selected: Iterable[str]) -> np.ndarray:
        """Per-group coverage still open under ``selected`` (int64 ≥ 0)."""
        index = self._index
        hits = index.group_hits(index.selection_mask(selected))
        return np.maximum(index.cov - hits, 0)

    def _gain_vector(self, remaining: np.ndarray) -> np.ndarray:
        """Marginal gain of every user against a coverage remainder.

        Adding a user gains each of its groups' weights once while the
        group still has open coverage: ``Σ_{G ∋ u} wei(G)·[rem(G) > 0]``,
        computed as one CSR segment sum.
        """
        index = self._index
        assert index.wei is not None
        live = np.where(remaining > 0, index.wei, np.int64(0))
        return _segment_sums(live[index.u_indices], index.u_indptr)

    def _fill(self) -> None:
        """Greedily refill free budget slots: the greedy kernel over the
        outsiders, started from the coverage the members leave open."""
        index = self._index
        free = self.budget - len(self._selected)
        if free <= 0:
            return
        outsiders = np.flatnonzero(~index.selection_mask(self._selected))
        picked, gains, _score = greedy_kernel(
            index, outsiders, free, remaining=self._remaining(self._selected)
        )
        for position, gain in zip(picked, gains):
            if gain <= 0:
                break  # nothing contributes; leave slots open
            self._selected.append(index.users[int(outsiders[position])])
            self.fills += 1

    def _contributions(self) -> list[int]:
        """``score(S) - score(S \\ {m})`` for every selected member."""
        return [
            int(
                self._index.subset_score(self._selected)
                - self._index.subset_score(
                    [u for u in self._selected if u != member]
                )
            )
            for member in self._selected
        ]

    def _swap_pass(self) -> None:
        """Swap-streaming repair: displace the weakest member while an
        outsider beats its contribution by the (1 + margin) threshold."""
        index = self._index
        for _ in range(_MAX_SWAPS_PER_REFRESH):
            if not self._selected:
                return
            contributions = self._contributions()
            weakest = int(np.argmin(contributions))
            weakest_user = self._selected[weakest]
            rest = [u for u in self._selected if u != weakest_user]
            remaining = self._remaining(rest)
            gain = self._gain_vector(remaining)
            gain[index.selection_mask(self._selected)] = -1
            row = int(np.argmax(gain))
            threshold = (1.0 + self.swap_margin) * contributions[weakest]
            if float(gain[row]) <= threshold:
                return
            self._selected[weakest] = index.users[row]
            self.swaps += 1
