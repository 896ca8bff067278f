"""Tests for the baseline backbone zoo (Table 1/2/8 reference DNNs)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware import describe
from repro.nn import Tensor, no_grad
from repro.zoo import (
    AlexNetClassifier,
    alexnet_backbone,
    backbone_names,
    build_backbone,
    channel_shuffle,
    resnet18,
    resnet34,
    resnet50,
    vgg16,
)


class TestRegistry:
    def test_all_names_buildable(self, rng):
        x = Tensor(rng.uniform(size=(1, 3, 32, 64)).astype(np.float32))
        for name in backbone_names():
            bb = build_backbone(name, width_mult=0.25,
                                rng=np.random.default_rng(0))
            with no_grad():
                out = bb(x)
            assert out.shape[1] == bb.out_channels, name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backbone"):
            build_backbone("lenet")

    def test_stride8_backbones_share_grid(self, rng):
        """Table 2 requires the same detection back-end grid."""
        x = Tensor(rng.uniform(size=(1, 3, 32, 64)).astype(np.float32))
        for name in ("skynet", "resnet18", "vgg16", "mobilenet",
                     "shufflenet", "squeezenet", "tinyyolo"):
            bb = build_backbone(name, width_mult=0.25)
            with no_grad():
                out = bb(x)
            assert out.shape[2:] == (4, 8), name


class TestTable2ParameterCounts:
    """Table 2's published parameter counts (backbone only, fp32)."""

    @pytest.mark.parametrize(
        "factory,paper_m",
        [(resnet18, 11.18), (resnet34, 21.28), (resnet50, 23.51),
         (vgg16, 14.71)],
    )
    def test_counts_match_paper(self, factory, paper_m):
        bb = factory(1.0)
        assert bb.num_parameters() / 1e6 == pytest.approx(paper_m, rel=0.01)

    def test_skynet_smallest_of_table2(self):
        from repro.core import SkyNetBackbone

        sky = SkyNetBackbone("C").num_parameters()
        for factory in (resnet18, resnet34, resnet50, vgg16):
            assert sky < factory(1.0).num_parameters() / 20


class TestDescriptors:
    @pytest.mark.parametrize(
        "name", ["resnet18", "resnet50", "vgg16", "mobilenet",
                 "shufflenet", "squeezenet", "tinyyolo", "alexnet"]
    )
    def test_descriptor_param_consistency(self, name):
        """Structural param counts must track the actual module within
        a small tolerance (BN buffers and biases excluded by design)."""
        bb = build_backbone(name, width_mult=0.5)
        desc = describe(bb, (64, 64))
        assert desc.total_params == pytest.approx(
            bb.num_parameters(), rel=0.05
        )

    def test_resnet_depths_ordered(self):
        m18 = describe(resnet18(1.0), (64, 64)).total_macs
        m34 = describe(resnet34(1.0), (64, 64)).total_macs
        m50 = describe(resnet50(1.0), (64, 64)).total_macs
        assert m18 < m34 < m50


class TestResNetBlocks:
    def test_invalid_depth(self):
        from repro.zoo.resnet import ResNetBackbone

        with pytest.raises(ValueError):
            ResNetBackbone(99)

    def test_residual_identity_path(self, rng):
        """A BasicBlock with zeroed convs must reduce to relu(identity)."""
        from repro.zoo.resnet import BasicBlock

        blk = BasicBlock(8, 8, stride=1, rng=np.random.default_rng(0))
        for p in (blk.conv1.weight, blk.conv2.weight):
            p.data = np.zeros_like(p.data)
        blk.eval()
        x = rng.normal(size=(1, 8, 4, 4)).astype(np.float32)
        with no_grad():
            out = blk(Tensor(x)).data
        np.testing.assert_allclose(out, np.maximum(x, 0), atol=1e-5)


class TestShuffleNet:
    def test_channel_shuffle_permutes(self, rng):
        x = Tensor(rng.normal(size=(1, 4, 2, 2)))
        out = channel_shuffle(x, 2).data
        # shuffle with groups=2 maps [0,1,2,3] -> [0,2,1,3]
        np.testing.assert_allclose(out[0, 1], x.data[0, 2])
        np.testing.assert_allclose(out[0, 2], x.data[0, 1])

    def test_channel_shuffle_rejects_indivisible(self, rng):
        with pytest.raises(ValueError):
            channel_shuffle(Tensor(rng.normal(size=(1, 3, 2, 2))), 2)


class TestAlexNet:
    def test_backbone_spatial_arithmetic(self, rng):
        # real AlexNet arithmetic: 64 -> conv1 15 -> pool 7 -> pool 3
        bb = alexnet_backbone(0.25)
        with no_grad():
            out = bb(Tensor(rng.uniform(size=(1, 3, 64, 64)).astype(np.float32)))
        assert out.shape[2:] == (3, 3)

    def test_classifier_forward(self, rng):
        clf = AlexNetClassifier(
            num_classes=10, width_mult=0.125, input_hw=(64, 64),
            rng=np.random.default_rng(0),
        )
        with no_grad():
            out = clf(Tensor(rng.uniform(size=(2, 3, 64, 64)).astype(np.float32)))
        assert out.shape == (2, 10)

    def test_classifier_fc_dominates_params(self):
        """Fig. 2a's premise: AlexNet parameters live in the FC layers."""
        clf = AlexNetClassifier(width_mult=1.0, input_hw=(224, 224))
        fc_params = (
            clf.fc1.weight.size + clf.fc2.weight.size + clf.fc3.weight.size
        )
        assert fc_params > 0.85 * clf.num_parameters()

    def test_classifier_full_size_near_published(self):
        """~244 MB of fp32 parameters (the paper quotes 237.9 MB)."""
        clf = AlexNetClassifier(width_mult=1.0, input_hw=(224, 224))
        mb = clf.num_parameters() * 4 / 1e6
        assert mb == pytest.approx(244, rel=0.05)
