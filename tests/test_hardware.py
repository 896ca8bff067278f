"""Tests for descriptors, GPU/FPGA models, energy, pipeline, network tables."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SkyNetBackbone
from repro.hardware import (
    GTX_1080TI,
    PYNQ_Z1,
    TX2,
    ULTRA96,
    LayerDesc,
    NetDescriptor,
    PipelineSimulator,
    PowerModel,
    Stage,
    compare_networks,
    describe,
)
from repro.hardware.fpga import (
    ConvIP,
    FpgaLatencyModel,
    IPConfig,
    IPPool,
    PoolIP,
    auto_configure,
    bram18_for_buffer,
    dsp_count,
    dsps_per_multiplier,
    fm_buffer_bram36,
    plan_batch_tiling,
)
from repro.hardware.gpu import GpuLatencyModel, estimate_latency_ms, scale_latency


def _skynet_desc(hw=(160, 320)):
    return describe(SkyNetBackbone("C"), hw)


class TestLayerDesc:
    def test_conv_macs(self):
        l = LayerDesc("conv", 16, 32, 8, 8, kernel=3)
        assert l.macs == 8 * 8 * 32 * 16 * 9

    def test_dwconv_macs(self):
        l = LayerDesc("dwconv", 16, 16, 8, 8, kernel=3)
        assert l.macs == 8 * 8 * 16 * 9

    def test_pwconv_params(self):
        l = LayerDesc("pwconv", 16, 32, 8, 8)
        assert l.params == 512

    def test_pool_halves_spatial(self):
        l = LayerDesc("pool", 8, 8, 10, 14, kernel=2, stride=2)
        assert (l.out_h, l.out_w) == (5, 7)

    def test_reorg_quarters_spatial(self):
        l = LayerDesc("reorg", 8, 32, 8, 8, kernel=2, stride=2)
        assert (l.out_h, l.out_w) == (4, 4)
        assert l.macs == 0

    def test_strided_conv_same_padding(self):
        l = LayerDesc("conv", 3, 8, 15, 15, kernel=3, stride=2)
        assert (l.out_h, l.out_w) == (8, 8)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            LayerDesc("deconv", 3, 8, 8, 8)

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            LayerDesc("conv", 0, 8, 8, 8)

    def test_netdescriptor_aggregates(self):
        net = NetDescriptor(
            [LayerDesc("conv", 3, 8, 8, 8, 3), LayerDesc("pwconv", 8, 16, 8, 8)]
        )
        assert net.total_macs == sum(l.macs for l in net)
        assert net.total_params == 3 * 8 * 9 + 8 * 16
        assert len(net.compute_layers()) == 2
        assert "layers" in net.summary() or "MMACs" in net.summary()


class TestGpuModel:
    def test_skynet_tx2_calibration(self):
        """Calibration anchor: SkyNet C at contest resolution lands near
        the paper's 67.33 FPS system throughput on TX2 (DESIGN.md §5)."""
        desc = _skynet_desc()
        desc.layers.append(LayerDesc("pwconv", 96, 10, 20, 40, name="head"))
        fps = GpuLatencyModel(TX2, batch=4).fps(desc)
        assert fps == pytest.approx(67.33, rel=0.10)

    def test_batching_amortizes_overhead(self):
        desc = _skynet_desc()
        m1 = GpuLatencyModel(TX2, batch=1).per_frame_latency_ms(desc)
        m8 = GpuLatencyModel(TX2, batch=8).per_frame_latency_ms(desc)
        assert m8 < m1

    def test_latency_scales_with_network_size(self):
        small = describe(SkyNetBackbone("C", width_mult=0.5), (160, 320))
        big = _skynet_desc()
        assert estimate_latency_ms(small, TX2) < estimate_latency_ms(big, TX2)

    def test_1080ti_faster_than_tx2(self):
        desc = _skynet_desc()
        assert estimate_latency_ms(desc, GTX_1080TI) < estimate_latency_ms(
            desc, TX2
        )

    def test_scale_latency_roundtrip(self):
        lat = 10.0
        scaled = scale_latency(lat, TX2, GTX_1080TI)
        back = scale_latency(scaled, GTX_1080TI, TX2)
        assert back == pytest.approx(lat)
        assert scaled < lat  # 1080Ti is faster

    def test_rejects_bad_batch(self):
        with pytest.raises(ValueError):
            GpuLatencyModel(TX2, batch=0)

    def test_timing_table_covers_layers(self):
        desc = _skynet_desc()
        table = GpuLatencyModel(TX2).timing_table(desc)
        assert len(table) == len(desc)
        assert all(t.total_ms >= 0 for t in table)


class TestDspModel:
    """Fig. 2(c): DSP usage vs weight/FM bit widths."""

    def test_w15_to_w14_halves_dsps_at_fm16(self):
        # the exact effect called out in the paper's motivation
        assert dsp_count(128, 15, 16) == 128
        assert dsp_count(128, 14, 16) == 64

    def test_packing_requires_narrow_weights(self):
        assert dsps_per_multiplier(15, 16) == 1.0
        assert dsps_per_multiplier(14, 16) == 0.5
        assert dsps_per_multiplier(11, 9) == 0.5

    def test_wide_operands_decompose(self):
        assert dsps_per_multiplier(30, 16) == 2.0
        assert dsps_per_multiplier(30, 20) == 4.0

    def test_rejects_nonpositive_bits(self):
        with pytest.raises(ValueError):
            dsps_per_multiplier(0, 8)


class TestBramModel:
    """Fig. 2(b): BRAM vs resize factor, with the power-of-two cliff."""

    def test_pow2_rounding(self):
        assert bram18_for_buffer(1000, 16) == 1  # 1024*16 < 18Kb
        assert bram18_for_buffer(1200, 16, pow2_depth=True) == 2  # 2048*16

    def test_resize_cliff_halves_memory(self):
        """Shrinking the input past the pow2 boundary halves BRAM."""
        at_full = fm_buffer_bram36((224, 224), 14, resize_factor=1.0)
        at_078 = fm_buffer_bram36((224, 224), 14, resize_factor=0.78)
        assert at_078 <= at_full / 2 + 1

    def test_monotone_in_bits(self):
        for r in (0.8, 1.0):
            vals = [fm_buffer_bram36((224, 224), b, r) for b in range(12, 17)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_invalid_resize_factor(self):
        with pytest.raises(ValueError):
            fm_buffer_bram36((224, 224), 14, resize_factor=1.5)


class TestFpgaIPs:
    def test_auto_configure_fits_device(self):
        for spec in (ULTRA96, PYNQ_Z1):
            pool = auto_configure(spec)
            assert pool.fits(spec)
            assert pool.dsp() <= spec.dsp

    def test_larger_device_gets_larger_ip(self):
        big = auto_configure(ULTRA96).conv_ip.config.lanes
        small = auto_configure(PYNQ_Z1).conv_ip.config.lanes
        assert big >= small

    def test_conv_ip_cycles_quantize_channels(self):
        ip = ConvIP(IPConfig(pi=16, po=8), ii=1.0)
        # 17 input channels need 2 passes, 16 need 1
        l16 = LayerDesc("pwconv", 16, 8, 4, 4)
        l17 = LayerDesc("pwconv", 17, 8, 4, 4)
        assert ip.cycles(l17) == 2 * ip.cycles(l16)

    def test_ii_scales_cycles(self):
        l = LayerDesc("conv", 16, 16, 8, 8, 3)
        c1 = ConvIP(IPConfig(8, 8), ii=1.0).cycles(l)
        c2 = ConvIP(IPConfig(8, 8), ii=2.0).cycles(l)
        assert c2 == 2 * c1

    def test_ii_below_one_rejected(self):
        with pytest.raises(ValueError):
            ConvIP(IPConfig(8, 8), ii=0.5)

    def test_pool_ip_free_of_dsps(self):
        assert PoolIP().dsp() == 0

    def test_skynet_ultra96_calibration(self):
        """Calibration anchor: ~25 FPS on Ultra96 (paper: 25.05)."""
        desc = _skynet_desc()
        desc.layers.append(LayerDesc("pwconv", 96, 10, 20, 40, name="head"))
        model = FpgaLatencyModel(ULTRA96, batch=4, w_bits=11, fm_bits=9)
        assert model.fps(desc) == pytest.approx(25.05, rel=0.10)

    def test_pynq_slower_than_ultra96(self):
        desc = _skynet_desc()
        u = FpgaLatencyModel(ULTRA96, batch=1).per_frame_latency_ms(desc)
        p = FpgaLatencyModel(PYNQ_Z1, batch=1).per_frame_latency_ms(desc)
        assert p > u

    def test_resource_report_within_budget(self):
        model = FpgaLatencyModel(ULTRA96)
        rep = model.resource_report()
        assert rep["dsp_used"] <= rep["dsp_total"]
        assert rep["bram36_used"] <= rep["bram36_total"]
        assert rep["lut_used"] <= rep["lut_total"]

    def test_batch_amortizes_weight_dma(self):
        desc = _skynet_desc()
        m1 = FpgaLatencyModel(ULTRA96, batch=1).per_frame_latency_ms(desc)
        m4 = FpgaLatencyModel(ULTRA96, batch=4).per_frame_latency_ms(desc)
        assert m4 <= m1


class TestTiling:
    def test_tiled_needs_fewer_rounds(self):
        naive, tiled = plan_batch_tiling(_skynet_desc(), batch=4)
        assert tiled.rounds < naive.rounds
        assert tiled.rounds * 4 >= naive.rounds * 0.9  # ~4x fewer

    def test_batching_raises_utilization_vs_single(self):
        """The Fig. 9 motivation: without batching, late layers waste
        most of the buffer."""
        desc = _skynet_desc()
        single, _ = plan_batch_tiling(desc, batch=1)
        _, tiled4 = plan_batch_tiling(desc, batch=4)
        assert tiled4.mean_utilization > single.mean_utilization

    def test_weight_reuse(self):
        _, tiled = plan_batch_tiling(_skynet_desc(), batch=4)
        assert tiled.weight_fetch_per_image == pytest.approx(0.25)

    def test_non_square_batch_rejected(self):
        with pytest.raises(ValueError):
            plan_batch_tiling(_skynet_desc(), batch=3)


class TestEnergy:
    def test_power_between_idle_and_peak(self):
        pm = PowerModel(TX2)
        assert pm.power_w(0.0) == TX2.idle_w
        assert pm.power_w(1.0) == TX2.peak_w
        assert TX2.idle_w < pm.power_w(0.5) < TX2.peak_w

    def test_invalid_utilization(self):
        with pytest.raises(ValueError):
            PowerModel(TX2).power_w(1.5)

    def test_energy_report(self):
        rep = PowerModel(ULTRA96).report(latency_ms=40.0, utilization=0.5)
        assert rep.joules_per_frame == pytest.approx(
            rep.power_w * 0.040, rel=1e-9
        )
        assert rep.total_joules(100) == pytest.approx(
            100 * rep.joules_per_frame
        )

    def test_invalid_latency(self):
        with pytest.raises(ValueError):
            PowerModel(TX2).report(latency_ms=0.0, utilization=0.5)


class TestPipeline:
    def _stages(self):
        return [Stage("fetch", 5.0), Stage("pre", 10.0),
                Stage("infer", 15.0), Stage("post", 5.0)]

    def test_serial_fps(self):
        sim = PipelineSimulator(self._stages())
        res = sim.run_serial(100)
        assert res.fps == pytest.approx(1000 / 35.0, rel=1e-6)

    def test_pipelined_approaches_bottleneck(self):
        sim = PipelineSimulator(self._stages())
        res = sim.run_pipelined(500)
        assert res.fps == pytest.approx(1000 / 15.0, rel=0.02)
        assert res.bottleneck == "infer"

    def test_speedup_bounded_by_stage_count(self):
        sim = PipelineSimulator(self._stages())
        s = sim.speedup(500)
        assert 1.0 < s <= 4.0
        assert s == pytest.approx(35.0 / 15.0, rel=0.02)

    def test_from_measurements_orders_stages(self):
        sim = PipelineSimulator.from_measurements(
            {"fetch": 1.0, "dnn": 4.0, "post": 0.5}, batch=2
        )
        assert [s.name for s in sim.stages] == ["fetch", "dnn", "post"]
        assert sim.batch == 2
        assert sim.run_pipelined(16).bottleneck == "dnn"

    def test_merge_stages(self):
        sim = PipelineSimulator(self._stages()).merge_stages(0, 1)
        assert len(sim.stages) == 3
        assert sim.stages[0].latency_ms == 15.0
        assert "fetch" in sim.stages[0].name and "pre" in sim.stages[0].name

    def test_merge_invalid_range(self):
        with pytest.raises(IndexError):
            PipelineSimulator(self._stages()).merge_stages(2, 5)

    def test_sync_overhead_slows_pipeline(self):
        fast = PipelineSimulator(self._stages()).run_pipelined(200).fps
        slow = PipelineSimulator(
            self._stages(), sync_overhead_ms=2.0
        ).run_pipelined(200).fps
        assert slow < fast

    def test_steady_state_fps(self):
        sim = PipelineSimulator(self._stages(), batch=2)
        assert sim.steady_state_fps() == pytest.approx(2000 / 15.0)

    def test_empty_stages_rejected(self):
        with pytest.raises(ValueError):
            PipelineSimulator([])

    def test_utilization_sums_sensible(self):
        res = PipelineSimulator(self._stages()).run_pipelined(300)
        assert all(0 < u <= 1.0 + 1e-9 for u in res.stage_utilization.values())
        # the bottleneck stage should be (near) fully busy
        assert res.stage_utilization["infer"] > 0.95


class TestProfiler:
    def test_profile_matches_descriptor(self):
        desc = _skynet_desc()
        [row] = compare_networks([desc])
        assert row["params_m"] == pytest.approx(desc.total_params / 1e6)
        assert row["param_mb"] == pytest.approx(desc.total_params * 4 / 1e6)
        assert row["gmacs"] == pytest.approx(desc.total_macs / 1e9)
        assert desc.gmacs == row["gmacs"]

    def test_compare_networks_ratios(self):
        from repro.zoo import resnet50

        sky = _skynet_desc()
        r50 = describe(resnet50(1.0), (160, 320))
        rows = compare_networks([sky, r50], baseline=0)
        assert rows[0]["params_vs_base"] == pytest.approx(1.0)
        # the headline claim direction: ResNet-50 is tens of times larger
        assert rows[1]["params_vs_base"] > 30

    def test_param_ratio(self):
        p = NetDescriptor([LayerDesc("pwconv", 2, 5, 4, 4)], name="small")
        q = NetDescriptor([LayerDesc("pwconv", 37, 10, 4, 4)], name="big")
        assert p.param_ratio(q) == pytest.approx(37.0)

    def test_param_ratio_zero_guard(self):
        p = NetDescriptor([LayerDesc("act", 4, 4, 4, 4)], name="x")
        q = NetDescriptor([LayerDesc("pwconv", 2, 5, 4, 4)], name="y")
        with pytest.raises(ValueError, match="zero parameters"):
            p.param_ratio(q)

    def test_compare_networks_direct(self):
        """compare_networks on hand-built descriptors (no bench needed)."""
        small = NetDescriptor(
            [LayerDesc("conv", 3, 8, 16, 16, kernel=3)], name="small"
        )
        big = NetDescriptor(
            [LayerDesc("conv", 3, 8, 16, 16, kernel=3)] * 4, name="big"
        )
        rows = compare_networks([small, big], baseline=0)
        assert [r["name"] for r in rows] == ["small", "big"]
        assert rows[0]["params_vs_base"] == pytest.approx(1.0)
        assert rows[1]["params_vs_base"] == pytest.approx(4.0)
        assert rows[1]["macs_vs_base"] == pytest.approx(4.0)
        assert rows[1]["gmacs"] == pytest.approx(4 * rows[0]["gmacs"])
