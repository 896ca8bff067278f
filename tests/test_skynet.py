"""Tests for the SkyNet architecture against the paper's published numbers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.skynet import (
    SKYNET_CHANNELS,
    SkyNetBackbone,
    SkyNetBundle,
    round_channels,
)
from repro.detection import Detector
from repro.hardware import describe
from repro.nn import Tensor, no_grad


class TestSkyNetStructure:
    def test_channel_plan_matches_table3(self):
        assert SKYNET_CHANNELS == (48, 96, 192, 384, 512)

    def test_model_a_has_no_bypass(self):
        bb = SkyNetBackbone("A")
        assert not bb.has_bypass
        assert bb.out_channels == 512

    @pytest.mark.parametrize("cfg,head_ch", [("B", 48), ("C", 96)])
    def test_bypass_models_head_channels(self, cfg, head_ch):
        bb = SkyNetBackbone(cfg)
        assert bb.has_bypass
        assert bb.out_channels == head_ch

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SkyNetBackbone("D")

    def test_stride_is_8(self):
        assert SkyNetBackbone.stride == 8

    def test_round_channels(self):
        assert round_channels(48 * 0.5) == 24
        assert round_channels(3 * 0.125) == 2  # floor at minimum
        assert round_channels(7.9) == 8


class TestSkyNetParameters:
    """Table 2 / Table 4: SkyNet has 0.44 M parameters; A/B/C model sizes
    are 1.27 / 1.57 / 1.82 MB in fp32 (within rounding of our count)."""

    @pytest.mark.parametrize(
        "cfg,paper_mb", [("A", 1.27), ("B", 1.57), ("C", 1.82)]
    )
    def test_model_sizes_match_table4(self, cfg, paper_mb):
        det = Detector(SkyNetBackbone(cfg))
        mb = det.num_parameters() * 4 / 1e6
        assert mb == pytest.approx(paper_mb, rel=0.04)

    def test_skynet_c_param_count_matches_table2(self):
        det = Detector(SkyNetBackbone("C"))
        assert det.num_parameters() / 1e6 == pytest.approx(0.44, rel=0.02)

    def test_width_mult_scales_params(self):
        full = Detector(SkyNetBackbone("C")).num_parameters()
        half = Detector(SkyNetBackbone("C", width_mult=0.5)).num_parameters()
        assert 0.15 < half / full < 0.35  # ~quadratic in width


class TestSkyNetForward:
    @pytest.mark.parametrize("cfg", ["A", "B", "C"])
    def test_forward_shapes(self, cfg, rng):
        bb = SkyNetBackbone(cfg, width_mult=0.125, rng=rng)
        x = Tensor(rng.uniform(size=(2, 3, 32, 64)).astype(np.float32))
        with no_grad():
            out = bb(x)
        assert out.shape == (2, bb.out_channels, 4, 8)

    def test_relu_variant(self, rng):
        bb = SkyNetBackbone("C", activation="relu", width_mult=0.125, rng=rng)
        x = Tensor(rng.uniform(size=(1, 3, 32, 64)).astype(np.float32))
        with no_grad():
            out = bb(x)
        assert out.shape[1] == bb.out_channels

    def test_gradients_reach_first_bundle(self, rng):
        bb = SkyNetBackbone("C", width_mult=0.125, rng=rng)
        x = Tensor(rng.uniform(size=(1, 3, 16, 32)).astype(np.float32))
        bb(x).sum().backward()
        assert bb.bundle1.dw.weight.grad is not None
        assert np.abs(bb.bundle1.dw.weight.grad).sum() > 0

    def test_bypass_gradients_flow(self, rng):
        """Bundle-3's output feeds both the chain and the bypass."""
        bb = SkyNetBackbone("B", width_mult=0.125, rng=rng)
        x = Tensor(rng.uniform(size=(1, 3, 16, 32)).astype(np.float32))
        bb(x).sum().backward()
        assert bb.bundle3.pw.weight.grad is not None


class TestSkyNetDescriptor:
    @pytest.mark.parametrize("cfg", ["A", "B", "C"])
    def test_descriptor_params_match_module(self, cfg):
        """The structural descriptor must count what the module holds
        (descriptor omits the detection head, which lives in YoloHead)."""
        bb = SkyNetBackbone(cfg)
        desc = describe(bb, (160, 320))
        assert desc.total_params == pytest.approx(
            bb.num_parameters(), rel=0.002
        )

    def test_descriptor_spatial_flow(self):
        desc = describe(SkyNetBackbone("C"), (160, 320))
        last = desc.layers[-1]
        assert (last.out_h, last.out_w) == (20, 40)  # stride 8

    def test_bundle_describe_matches_module(self):
        bundle = SkyNetBundle(16, 32)
        descs = describe(bundle, (8, 8))
        desc_params = sum(d.params for d in descs)
        assert desc_params == bundle.num_parameters()

    def test_macs_scale_with_resolution(self):
        bb = SkyNetBackbone("C")
        small = describe(bb, (80, 160)).total_macs
        large = describe(bb, (160, 320)).total_macs
        assert large == pytest.approx(4 * small, rel=0.01)
