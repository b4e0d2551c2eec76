"""Backend parity sweep: eager == lazy == matrix, every scheme combo.

The three greedy backends promise byte-identical ``selected``/``score``
sequences when ``rng`` is None, across every weight (Iden/LBS/EBS) ×
coverage (Single/Prop) combination — including EBS instances whose
``(B + 1)^rank`` weights overflow int64, where the matrix backend must
silently take the exact fallback path with no wrong scores.
"""

import numpy as np
import pytest

from repro.core import (
    GroupingConfig,
    build_instance,
    build_simple_groups,
    greedy_select,
    instance_index,
    subset_score,
)
from repro.core.weights import (
    EBSWeights,
    IdenWeights,
    LBSWeights,
    PropCoverage,
    SingleCoverage,
)
from repro.datasets.synth import generate_profile_repository

WEIGHTS = (IdenWeights, LBSWeights, EBSWeights)
COVERAGES = (SingleCoverage, PropCoverage)
BACKENDS = ("eager", "lazy", "matrix")


def _sweep_instance(weight_cls, coverage_cls, seed, n_users=60, budget=6):
    repo = generate_profile_repository(
        n_users=n_users, n_properties=30, mean_profile_size=10.0, seed=seed
    )
    groups = build_simple_groups(repo, GroupingConfig())
    instance = build_instance(
        repo,
        budget=budget,
        groups=groups,
        weight_scheme=weight_cls(),
        coverage_scheme=coverage_cls(),
    )
    return repo, instance


class TestParitySweep:
    @pytest.mark.parametrize("weight_cls", WEIGHTS)
    @pytest.mark.parametrize("coverage_cls", COVERAGES)
    @pytest.mark.parametrize("seed", (0, 1))
    def test_backends_select_identical_sequences(
        self, weight_cls, coverage_cls, seed
    ):
        repo, instance = _sweep_instance(weight_cls, coverage_cls, seed)
        results = {
            backend: greedy_select(repo, instance, method=backend)
            for backend in BACKENDS
        }
        reference = results["eager"]
        for backend in ("lazy", "matrix"):
            assert results[backend].selected == reference.selected, backend
            assert results[backend].score == reference.score, backend
            assert results[backend].gains == reference.gains, backend
        # The realized score is the from-scratch score of the subset.
        assert subset_score(instance, reference.selected) == reference.score

    def test_ebs_overflow_triggers_exact_fallback(self):
        """EBS at realistic rank counts overflows int64: the index must
        refuse to vectorize and the matrix backend must still be exact."""
        repo, instance = _sweep_instance(EBSWeights, SingleCoverage, seed=2)
        index = instance_index(instance)
        # (B + 1)^rank with dozens of ranked groups dwarfs 2**63.
        assert max(instance.wei.values()) > np.iinfo(np.int64).max
        assert not index.vectorizable
        assert index.wei is None and index.initial_gains is None

        eager = greedy_select(repo, instance, method="eager")
        matrix = greedy_select(repo, instance, method="matrix")
        assert matrix.selected == eager.selected
        assert matrix.score == eager.score
        assert subset_score(instance, matrix.selected) == eager.score

    def test_small_instances_vectorize(self):
        """LBS/Iden weights stay far inside int64: no fallback expected."""
        for weight_cls in (IdenWeights, LBSWeights):
            _, instance = _sweep_instance(weight_cls, SingleCoverage, seed=0)
            assert instance_index(instance).vectorizable

    def test_matrix_respects_candidate_pool(self):
        repo, instance = _sweep_instance(LBSWeights, SingleCoverage, seed=0)
        pool = sorted(repo.user_ids)[:20]
        eager = greedy_select(repo, instance, candidates=pool, method="eager")
        matrix = greedy_select(repo, instance, candidates=pool, method="matrix")
        assert matrix.selected == eager.selected
        assert matrix.score == eager.score
        assert set(matrix.selected) <= set(pool)

    @pytest.mark.parametrize(
        "method", ("eager", "lazy", "matrix", "sharded", "stochastic")
    )
    def test_repeated_candidate_ids_count_once(self, method):
        """A pool listing users twice is the pool of distinct users."""
        repo, instance = _sweep_instance(
            LBSWeights, SingleCoverage, seed=0, n_users=40
        )
        first = sorted(repo.user_ids)[:5]
        result = greedy_select(
            repo, instance, budget=8, candidates=first + first, method=method
        )
        distinct = greedy_select(
            repo, instance, budget=8, candidates=first, method="eager"
        )
        assert sorted(result.selected) == first
        assert result.score == subset_score(instance, result.selected)
        assert result.score == distinct.score

    def test_matrix_with_rng_still_valid(self):
        """Randomized tie-breaking: same score guarantee, subset may vary."""
        repo, instance = _sweep_instance(IdenWeights, SingleCoverage, seed=3)
        rng = np.random.default_rng(11)
        result = greedy_select(repo, instance, method="matrix", rng=rng)
        assert len(result.selected) == len(set(result.selected))
        assert subset_score(instance, result.selected) == result.score


class TestIndexDtypes:
    """Small populations store CSR indices as int32; wei/cov stay int64."""

    @pytest.mark.parametrize("weight_cls", (IdenWeights, LBSWeights))
    def test_small_instances_use_int32_indices(self, weight_cls):
        _, instance = _sweep_instance(weight_cls, SingleCoverage, seed=0)
        index = instance_index(instance)
        assert index.u_indices.dtype == np.int32
        assert index.g_indices.dtype == np.int32
        # Accumulators must not narrow with the ids.
        assert index.wei.dtype == np.int64
        assert index.cov.dtype == np.int64

    def test_id_dtype_boundary(self):
        from repro.core.index import id_dtype

        assert id_dtype(10) is np.int32
        assert id_dtype(np.iinfo(np.int32).max) is np.int32
        assert id_dtype(2**31) is np.int64
