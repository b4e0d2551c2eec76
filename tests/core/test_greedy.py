"""Unit tests for greedy Algorithm 1 (paper §4)."""

import numpy as np
import pytest

from repro.core import (
    GroupingConfig,
    InvalidBudgetError,
    PodiumError,
    build_instance,
    build_simple_groups,
    greedy_select,
    subset_score,
)
from repro.core.weights import EBSWeights, IdenWeights, PropCoverage
from repro.datasets.synth import generate_profile_repository


class TestRunningExample:
    def test_lbs_single_selects_alice_eve(self, table2_repo, table2_instance):
        result = greedy_select(table2_repo, table2_instance)
        assert set(result.selected) == {"Alice", "Eve"}
        assert result.score == 17
        assert result.gains == (10, 7)

    def test_iden_selects_alice_bob(self, table2_repo, table2_groups):
        """Example 3.8: Iden tends to eccentric users — Bob joins Alice."""
        instance = build_instance(
            table2_repo, budget=2, groups=table2_groups,
            weight_scheme=IdenWeights(),
        )
        result = greedy_select(table2_repo, instance)
        assert set(result.selected) == {"Alice", "Bob"}
        assert result.score == 11

    def test_full_budget_takes_everyone(self, table2_repo, table2_groups):
        instance = build_instance(table2_repo, budget=10, groups=table2_groups)
        result = greedy_select(table2_repo, instance, budget=10)
        assert set(result.selected) == set(table2_repo.user_ids)

    def test_budget_one(self, table2_repo, table2_instance):
        result = greedy_select(table2_repo, table2_instance, budget=1)
        assert result.selected in (("Alice",), ("Eve",))
        assert result.score == 10


class TestMethods:
    @pytest.mark.parametrize("seed", range(4))
    def test_eager_and_lazy_agree_on_score(self, seed):
        repo = generate_profile_repository(50, 30, 10.0, seed=seed)
        groups = build_simple_groups(repo, GroupingConfig())
        instance = build_instance(repo, budget=6, groups=groups)
        eager = greedy_select(repo, instance, method="eager")
        lazy = greedy_select(repo, instance, method="lazy")
        assert eager.score == lazy.score

    def test_lazy_handles_ebs_big_integers(self, table2_repo, table2_groups):
        instance = build_instance(
            table2_repo, budget=2, groups=table2_groups,
            weight_scheme=EBSWeights(),
        )
        result = greedy_select(table2_repo, instance, method="lazy")
        assert len(result.selected) == 2
        eager = greedy_select(table2_repo, instance, method="eager")
        assert result.score == eager.score

    def test_unknown_method_raises(self, table2_repo, table2_instance):
        with pytest.raises(PodiumError):
            greedy_select(table2_repo, table2_instance, method="bogus")


class TestParameters:
    def test_bad_budget_raises(self, table2_repo, table2_instance):
        with pytest.raises(InvalidBudgetError):
            greedy_select(table2_repo, table2_instance, budget=0)

    def test_candidates_restrict_pool(self, table2_repo, table2_instance):
        result = greedy_select(
            table2_repo, table2_instance, candidates=["Bob", "Carol"]
        )
        assert set(result.selected) <= {"Bob", "Carol"}

    def test_unknown_candidates_ignored(self, table2_repo, table2_instance):
        result = greedy_select(
            table2_repo, table2_instance, candidates=["Bob", "Ghost"]
        )
        assert result.selected == ("Bob",)

    def test_default_budget_is_instance_budget(self, table2_repo, table2_instance):
        result = greedy_select(table2_repo, table2_instance)
        assert len(result.selected) == table2_instance.budget

    def test_gains_sum_to_score(self, small_profile_repo, small_instance):
        result = greedy_select(small_profile_repo, small_instance)
        assert sum(result.gains) == result.score

    def test_gains_non_increasing(self, small_profile_repo, small_instance):
        """Greedy on a submodular objective yields non-increasing gains."""
        result = greedy_select(small_profile_repo, small_instance)
        gains = list(result.gains)
        assert gains == sorted(gains, reverse=True)


class TestTieBreaking:
    def test_deterministic_without_rng(self, table2_repo, table2_instance):
        runs = {
            greedy_select(table2_repo, table2_instance).selected
            for _ in range(5)
        }
        assert len(runs) == 1

    def test_rng_can_flip_first_pick(self, table2_repo, table2_instance):
        """Alice and Eve tie at 10; random tie-breaking explores both."""
        firsts = {
            greedy_select(
                table2_repo,
                table2_instance,
                rng=np.random.default_rng(seed),
            ).selected[0]
            for seed in range(30)
        }
        assert firsts == {"Alice", "Eve"}

    def test_rng_preserves_score(self, table2_repo, table2_instance):
        for seed in range(10):
            result = greedy_select(
                table2_repo,
                table2_instance,
                rng=np.random.default_rng(seed),
            )
            assert result.score == 17

    @pytest.mark.parametrize("repo_seed", range(4))
    def test_seeded_methods_draw_the_same_ties(self, repo_seed):
        """Iden weights on a coarse grouping tie most gains: every method
        draws a seeded tie from the candidates in ascending id order."""
        repo = generate_profile_repository(60, 8, 3.0, seed=repo_seed)
        instance = build_instance(repo, 15, weight_scheme=IdenWeights())
        for rng_seed in range(5):
            runs = {
                method: greedy_select(
                    repo, instance, 15, method=method,
                    rng=np.random.default_rng(rng_seed),
                )
                for method in ("eager", "lazy", "matrix")
            }
            picks = {(r.selected, r.gains) for r in runs.values()}
            assert len(picks) == 1, {m: r.selected for m, r in runs.items()}

    def test_seeded_eager_ignores_the_hash_seed(self):
        """String hashing is randomized per process; a seeded eager run
        must pick the same users under every ``PYTHONHASHSEED``."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        script = (
            "import numpy as np\n"
            "from repro.core import build_instance, greedy_select\n"
            "from repro.core.weights import IdenWeights\n"
            "from repro.datasets.synth import generate_profile_repository\n"
            "repo = generate_profile_repository(120, 12, 3.0, seed=7)\n"
            "instance = build_instance(repo, 20, weight_scheme=IdenWeights())\n"
            "print(greedy_select(repo, instance, 20, method='eager',\n"
            "      rng=np.random.default_rng(3)).selected)\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = set()
        for hash_seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, timeout=120, check=True,
            )
            outputs.add(done.stdout)
        assert len(outputs) == 1, outputs


class TestSelectionResult:
    def test_container_protocol(self, table2_repo, table2_instance):
        result = greedy_select(table2_repo, table2_instance)
        assert len(result) == 2
        assert "Alice" in result
        assert "Carol" not in result

    def test_mismatched_gains_rejected(self, table2_instance):
        from repro.core import SelectionResult

        with pytest.raises(PodiumError):
            SelectionResult(("a",), 1, (), table2_instance)


class TestQuality:
    @pytest.mark.parametrize("seed", range(3))
    def test_beats_random_on_average(self, seed):
        repo = generate_profile_repository(80, 50, 15.0, seed=seed)
        groups = build_simple_groups(repo, GroupingConfig())
        instance = build_instance(repo, budget=6, groups=groups)
        greedy_score = greedy_select(repo, instance).score
        rng = np.random.default_rng(seed)
        random_scores = []
        for _ in range(20):
            picked = rng.choice(repo.user_ids, size=6, replace=False)
            random_scores.append(subset_score(instance, picked.tolist()))
        assert greedy_score >= max(random_scores)

    def test_prop_coverage_supported(self, table2_repo, table2_groups):
        instance = build_instance(
            table2_repo, budget=4, groups=table2_groups,
            coverage_scheme=PropCoverage(),
        )
        result = greedy_select(table2_repo, instance)
        assert len(result.selected) == 4
        assert result.score == subset_score(instance, result.selected)
