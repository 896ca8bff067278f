"""Tests for the bottom-up design flow: bundles, search space, PSO, Pareto."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BUNDLE_CATALOG,
    CandidateDNA,
    CandidateNet,
    FitnessFunction,
    GenericBundle,
    GroupPSO,
    PSOConfig,
    add_bypass,
    apply_feature_addition,
    bundle_by_name,
    bypass_latency_overhead_ms,
    default_targets,
    pareto_front,
    pareto_select,
    random_dna,
    use_relu6,
)
from repro.hardware import describe
from repro.nn import Tensor, no_grad


class TestBundles:
    def test_catalog_contains_skynet_bundle(self):
        names = [s.name for s in BUNDLE_CATALOG]
        assert "dw3-pw" in names
        assert BUNDLE_CATALOG[0].name == "dw3-pw"

    def test_bundle_by_name(self):
        assert bundle_by_name("dw3-pw").ops == (("dw", 3), ("pw",))
        with pytest.raises(ValueError):
            bundle_by_name("transformer")

    @pytest.mark.parametrize("spec", BUNDLE_CATALOG, ids=lambda s: s.name)
    def test_every_bundle_builds_and_runs(self, spec, rng):
        bundle = GenericBundle(spec, 4, 8, rng=np.random.default_rng(0))
        x = Tensor(rng.uniform(size=(1, 4, 8, 8)).astype(np.float32))
        with no_grad():
            out = bundle(x)
        assert out.shape == (1, 8, 8, 8)

    @pytest.mark.parametrize("spec", BUNDLE_CATALOG, ids=lambda s: s.name)
    def test_describe_matches_module_params(self, spec):
        bundle = GenericBundle(spec, 6, 12)
        assert describe(bundle, (8, 8)).total_params == \
            bundle.num_parameters()

    def test_skynet_bundle_cheapest_3x3(self):
        """The selected Bundle's efficiency: dw3-pw beats dense conv3."""
        def macs(name):
            bundle = GenericBundle(bundle_by_name(name), 64, 64,
                                   rng=np.random.default_rng(0))
            return describe(bundle, (16, 16)).total_macs

        assert macs("dw3-pw") < macs("conv3") / 4

    def test_describe_validates_channel_flow(self):
        from repro.core.bundles import BundleSpec

        bad = BundleSpec("dw-only", (("dw", 3),))
        with pytest.raises(ValueError, match="never reaches"):
            GenericBundle(bad, 4, 8)


class TestCandidateDNA:
    def _dna(self, **kw):
        base = dict(
            bundle=bundle_by_name("dw3-pw"),
            channels=(8, 12, 16, 24, 32, 48),
            pool_positions=(0, 1, 2),
        )
        base.update(kw)
        return CandidateDNA(**base)

    def test_valid_dna(self):
        dna = self._dna()
        assert dna.depth == 6
        assert dna.stride == 8

    def test_rejects_empty_channels(self):
        with pytest.raises(ValueError):
            self._dna(channels=())

    def test_rejects_tiny_channels(self):
        with pytest.raises(ValueError):
            self._dna(channels=(1, 8, 8, 8, 8, 8))

    def test_rejects_out_of_range_pool(self):
        with pytest.raises(ValueError):
            self._dna(pool_positions=(0, 9))

    def test_pool_positions_sorted_deduped(self):
        dna = self._dna(pool_positions=(2, 0, 2, 1))
        assert dna.pool_positions == (0, 1, 2)

    def test_stage3_transform(self):
        dna = self._dna()
        s3 = dna.with_stage3_features()
        assert s3.bypass and s3.activation == "relu6"
        # original untouched (frozen dataclass semantics)
        assert not dna.bypass

    def test_feature_addition_helpers(self):
        dna = self._dna()
        assert add_bypass(dna).bypass
        assert use_relu6(dna).activation == "relu6"
        assert add_bypass(add_bypass(dna)).bypass  # idempotent

    def test_descriptor_spatial_consistency(self):
        dna = self._dna().with_stage3_features()
        desc = dna.descriptor((32, 64))
        last = desc.layers[-1]
        assert (last.out_h, last.out_w) == (4, 8)

    def test_random_dna_within_bounds(self, rng):
        for _ in range(20):
            dna = random_dna(bundle_by_name("conv3"), depth=5, n_pools=2,
                             rng=rng)
            assert dna.depth == 5
            assert len(dna.pool_positions) == 2
            assert all(c >= 2 for c in dna.channels)
            # channels non-decreasing (the sampling prior)
            assert list(dna.channels) == sorted(dna.channels)

    def test_random_dna_rejects_too_many_pools(self, rng):
        with pytest.raises(ValueError):
            random_dna(bundle_by_name("conv3"), depth=3, n_pools=3, rng=rng)


class TestCandidateNet:
    def test_matches_skynet_shape(self, rng):
        """CandidateNet with SkyNet's genotype reproduces SkyNet-C."""
        from repro.core import SKYNET_CHANNELS, SkyNetBackbone

        dna = CandidateDNA(
            bundle=bundle_by_name("dw3-pw"),
            channels=SKYNET_CHANNELS + (96,),
            pool_positions=(0, 1, 2),
            activation="relu6",
            bypass=True,
        )
        cand = CandidateNet(dna, rng=np.random.default_rng(0))
        sky = SkyNetBackbone("C", rng=np.random.default_rng(0))
        assert cand.out_channels == sky.out_channels
        # parameter counts agree (same layer inventory)
        assert cand.num_parameters() == sky.num_parameters()
        x = Tensor(rng.uniform(size=(1, 3, 32, 64)).astype(np.float32))
        with no_grad():
            a, b = cand(x), sky(x)
        assert a.shape == b.shape

    def test_forward_without_bypass(self, rng):
        dna = CandidateDNA(bundle_by_name("conv3"), (4, 8, 8, 12),
                           pool_positions=(0, 2))
        net = CandidateNet(dna, rng=np.random.default_rng(0))
        x = Tensor(rng.uniform(size=(1, 3, 16, 16)).astype(np.float32))
        with no_grad():
            out = net(x)
        assert out.shape == (1, 12, 4, 4)

    def test_net_params_match_descriptor(self):
        dna = CandidateDNA(
            bundle_by_name("dw3-pw"), (8, 12, 16, 24, 32, 48),
            pool_positions=(0, 1, 2), bypass=True, activation="relu6",
        )
        net = CandidateNet(dna)
        assert describe(net, (32, 64)).total_params == \
            net.num_parameters()


class TestFitness:
    def test_alpha_must_be_nonpositive(self):
        with pytest.raises(ValueError):
            FitnessFunction(alpha=0.5)

    def test_penalty_zero_at_exact_requirement(self):
        dna = CandidateDNA(bundle_by_name("dw3-pw"), (8, 12, 16),
                           pool_positions=(0, 1))
        net = dna.descriptor((32, 64))
        fit = FitnessFunction()
        lat_gpu = fit.targets[0].estimate_ms(net)
        lat_fpga = fit.targets[1].estimate_ms(net)
        exact = FitnessFunction(
            targets=(
                replace(fit.targets[0], required_ms=lat_gpu),
                replace(fit.targets[1], required_ms=lat_fpga),
            )
        )
        assert exact.hardware_penalty(net) == pytest.approx(0.0, abs=1e-9)
        assert exact(0.6, net) == pytest.approx(0.6)

    def test_fitness_decreases_with_deviation(self):
        small = CandidateDNA(bundle_by_name("dw3-pw"), (8, 8, 8),
                             pool_positions=(0, 1)).descriptor((32, 64))
        huge = CandidateDNA(bundle_by_name("conv3-conv3"), (96, 96, 96),
                            pool_positions=(0, 1)).descriptor((160, 320))
        fit = FitnessFunction()
        assert fit(0.5, huge) < fit(0.5, small) + 1.0  # huge pays a penalty
        assert fit.hardware_penalty(huge) > fit.hardware_penalty(small)

    def test_default_targets_prioritize_fpga(self):
        targets = default_targets()
        betas = {t.spec.kind: t.beta for t in targets}
        assert betas["fpga"] > betas["gpu"]


class TestPareto:
    def test_simple_frontier(self):
        pts = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 3.0], [1.5, 0.5]])
        idx = pareto_front(pts, maximize=[True, True])
        assert 1 in idx  # (2,2) dominates (1,1)
        assert 0 not in idx

    def test_mixed_directions(self):
        # maximize accuracy, minimize latency
        pts = np.array([[0.9, 10.0], [0.8, 5.0], [0.7, 20.0]])
        idx = set(pareto_front(pts, maximize=[True, False]).tolist())
        assert idx == {0, 1}

    def test_duplicates_kept(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0]])
        idx = pareto_front(pts, maximize=[True, True])
        assert len(idx) >= 1

    @given(
        st.lists(
            st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_no_kept_point_is_dominated(self, pts):
        arr = np.array(pts)
        idx = pareto_front(arr, maximize=[True, True])
        kept = arr[idx]
        for k in kept:
            dominated = np.any(
                np.all(arr >= k, axis=1) & np.any(arr > k, axis=1)
            )
            assert not dominated

    def test_pareto_select(self):
        items = ["a", "b", "c"]
        scores = np.array([[1, 1], [2, 2], [0, 0]])
        out = pareto_select(items, scores, maximize=[True, True])
        assert out == ["b"]

    def test_select_length_mismatch(self):
        with pytest.raises(ValueError):
            pareto_select(["a"], np.zeros((2, 2)), [True, True])


class TestPSO:
    def _mock_pso(self, **cfg_kw):
        """PSO with a deterministic, cheap accuracy function: prefer
        channels close to 32 at every layer."""

        def accuracy(dna, epochs):
            target = 32.0
            err = np.mean([(c - target) ** 2 for c in dna.channels])
            return 1.0 / (1.0 + err / 200.0)

        cfg = PSOConfig(particles_per_group=4, iterations=4, epochs_base=1,
                        depth=4, n_pools=2, **cfg_kw)
        fit = FitnessFunction(alpha=-0.0)  # pure-accuracy fitness
        return GroupPSO(
            [bundle_by_name("dw3-pw"), bundle_by_name("conv3")],
            accuracy_fn=accuracy,
            fitness_fn=fit,
            config=cfg,
            input_hw=(16, 32),
        )

    def test_initial_population_shape(self, rng):
        pso = self._mock_pso()
        groups = pso.initial_population(rng)
        assert set(groups) == {"dw3-pw", "conv3"}
        assert all(len(ps) == 4 for ps in groups.values())

    def test_search_improves_fitness(self, rng):
        pso = self._mock_pso()
        result = pso.search(np.random.default_rng(3))
        fits = [h["global_best_fitness"] for h in result.history]
        assert fits[-1] >= fits[0]
        assert result.global_best.fitness > 0.35

    def test_particles_move_toward_group_best(self, rng):
        pso = self._mock_pso()
        best = random_dna(bundle_by_name("dw3-pw"), depth=4, n_pools=2,
                          rng=rng)
        from repro.core.pso import Particle

        p = Particle(replace(best, channels=(8, 8, 8, 8)))
        gbest = Particle(replace(best, channels=(64, 64, 64, 64)),
                         fitness=1.0)
        moved = pso.evolve_particle(p, gbest, np.random.default_rng(0))
        assert all(
            8 <= c <= 64 for c in moved.dna.channels
        )
        assert sum(moved.dna.channels) > sum(p.dna.channels)

    def test_pool_update_preserves_count(self, rng):
        pso = self._mock_pso()
        cur = (0, 1)
        best = (1, 2)
        out = pso._update_pools(cur, best, np.random.default_rng(1))
        assert len(out) == 2

    def test_groups_never_mix_bundles(self):
        pso = self._mock_pso()
        result = pso.search(np.random.default_rng(5))
        for name, particle in result.group_bests.items():
            assert particle.dna.bundle.name == name

    def test_epoch_schedule_grows(self):
        cfg = PSOConfig(epochs_base=2, epochs_step=3)
        assert cfg.epochs_base + 0 * cfg.epochs_step == 2
        assert cfg.epochs_base + 2 * cfg.epochs_step == 8

    def test_requires_bundles(self):
        with pytest.raises(ValueError):
            GroupPSO([], accuracy_fn=lambda d, e: 0.0)


class TestFeatureAddition:
    def test_bypass_costs_latency(self):
        dna = CandidateDNA(bundle_by_name("dw3-pw"), (8, 12, 16, 24),
                           pool_positions=(0, 1, 2))
        overhead = bypass_latency_overhead_ms(dna, (32, 64))
        assert overhead > 0

    def test_apply_unconditional(self):
        dna = CandidateDNA(bundle_by_name("dw3-pw"), (8, 12, 16, 24),
                           pool_positions=(0, 1, 2))
        out = apply_feature_addition(dna, (32, 64))
        assert out.bypass and out.activation == "relu6"

    def test_apply_respects_budget(self):
        dna = CandidateDNA(bundle_by_name("dw3-pw"), (8, 12, 16, 24),
                           pool_positions=(0, 1, 2))
        out = apply_feature_addition(dna, (32, 64), latency_budget_ms=0.0)
        assert not out.bypass  # bypass overhead exceeds a zero budget
        assert out.activation == "relu6"  # relu6 is free, always applied
