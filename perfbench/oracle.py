"""Correctness: the benchmark's own mirror of the served state and checks.

The mirror holds a :class:`~repro.core.profiles.UserRepository` and one
frozen-bucket group set per grouping, and applies every acknowledged
delta through :func:`~repro.core.updates.apply_delta_to_repository` and
:func:`~repro.core.updates.reassign_groups`.  The expected answer of a
(configuration, budget) pair is the paper's eager greedy
(``greedy_select(..., method="eager")``) on that state, and the expected
fair answer is the pure-Python twin ``fair_select_oracle``.
"""

from __future__ import annotations

from typing import Any


class Mirror:
    """The repository and group sets the server should be serving."""

    def __init__(self, repository, configs: dict) -> None:
        from repro.core.groups import build_simple_groups
        from repro.core.profiles import UserRepository

        self.repository = repository
        self.configs = configs
        #: Configuration name -> key of the grouping it shares.
        self._grouping_of: dict[str, Any] = {}
        self.groups: dict[Any, Any] = {}
        for name, config in configs.items():
            key = (config.property_prefixes, config.grouping_config())
            self._grouping_of[name] = key
            if key in self.groups:
                continue
            source = repository
            if config.property_prefixes is not None:
                source = UserRepository(
                    profile.restricted_to(
                        label
                        for label in profile.properties
                        if config.matches_property(label)
                    )
                    for profile in repository
                )
            self.groups[key] = build_simple_groups(
                source, config.grouping_config()
            )

    def apply(self, document: dict) -> None:
        """Apply one acknowledged ``/profiles/delta`` body."""
        from repro.core.updates import apply_delta_to_repository, reassign_groups
        from repro.service.app import parse_profile_delta

        delta = parse_profile_delta(document)
        self.repository = apply_delta_to_repository(self.repository, delta)
        for key, groups in self.groups.items():
            self.groups[key] = reassign_groups(groups, self.repository, delta)

    def instance(self, name: str, budget: int):
        from repro.core.updates import rebuild_instance

        weight, coverage = self.configs[name].schemes()
        return rebuild_instance(
            self.groups[self._grouping_of[name]],
            self.repository,
            budget,
            weight,
            coverage,
        )

    def expected(self, name: str, budget: int) -> tuple[list[str], float]:
        """Eager greedy (Algorithm 1) on the mirrored state."""
        from repro.core.greedy import greedy_select

        result = greedy_select(
            self.repository, self.instance(name, budget), budget, method="eager"
        )
        return list(result.selected), float(result.score)

    def expected_fair(
        self, name: str, budget: int, block: dict
    ) -> tuple[list[str], float]:
        """The pure-Python fair greedy on the mirrored state."""
        from repro.constraints import ConstraintSpec, fair_select_oracle

        selected, _gains, score = fair_select_oracle(
            self.instance(name, budget), ConstraintSpec.from_dict(block), budget
        )
        return list(selected), float(score)


def check_response(kind: str, budget: int, status: int, payload: Any) -> str | None:
    """Why one timed ``/select`` response is wrong, or ``None`` if it is fine."""
    if status != 200:
        return f"status {status}"
    selected = payload.get("selected") if isinstance(payload, dict) else None
    if not isinstance(selected, list):
        return "no selection in the response"
    if len(selected) != budget:
        return f"{len(selected)} users selected for budget {budget}"
    if len(set(selected)) != len(selected):
        return "duplicate users in the selection"
    if kind == "fair" and not payload.get("constraints", {}).get("satisfied"):
        return "constrained selection does not satisfy its bounds"
    return None


def compare(label: str, served: tuple[list, float], expected: tuple[list, float]) -> str | None:
    """Why a served (selected, score) pair differs from the oracle's."""
    if list(served[0]) != list(expected[0]):
        return f"{label}: selected {served[0]} != oracle {expected[0]}"
    if float(served[1]) != float(expected[1]):
        return f"{label}: score {served[1]} != oracle {expected[1]}"
    return None
