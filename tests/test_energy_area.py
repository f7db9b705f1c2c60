"""Energy accounting and area model tests."""

import pytest

from repro.energy import (
    EnergyParams,
    compute_energy,
    cache_area_um2,
    compressor_area_um2,
    overhead_report,
    router_area_um2,
)
from repro.energy.accounting import _engine_count
from repro.experiments.claims import CLAIMS
from repro.noc.config import NocConfig


def counters(**kwargs):
    base = {
        "buffer_writes": 0, "buffer_reads": 0, "crossbar_flits": 0,
        "link_flits": 0, "sa_grants": 0, "va_grants": 0,
        "bank_tag_lookups": 0, "bank_segments_read": 0,
        "bank_segments_written": 0, "router_compressions": 0,
        "router_decompressions": 0, "ni_compressions": 0,
        "ni_decompressions": 0, "bank_compressions": 0,
        "bank_decompressions": 0, "memory_reads": 0, "memory_writes": 0,
    }
    base.update(kwargs)
    return base


class TestEnergyAccounting:
    def test_zero_counters_only_leakage(self):
        breakdown = compute_energy(counters(), 1000, 16, "baseline", "delta")
        assert breakdown.noc_dynamic == 0
        assert breakdown.cache_dynamic == 0
        assert breakdown.compressor_dynamic == 0
        assert breakdown.compressor_leakage == 0  # baseline has no engines
        assert breakdown.noc_leakage > 0
        assert breakdown.cache_leakage > 0

    def test_dynamic_scales_with_events(self):
        small = compute_energy(
            counters(link_flits=100), 0, 16, "baseline", "delta"
        )
        large = compute_energy(
            counters(link_flits=200), 0, 16, "baseline", "delta"
        )
        assert large.noc_dynamic == pytest.approx(2 * small.noc_dynamic)

    def test_engine_counts_per_scheme(self):
        assert _engine_count("baseline", 16) == 0
        assert _engine_count("cc", 16) == 16
        assert _engine_count("cnc", 16) == 32  # bank + NI (2x area, §4.3)
        assert _engine_count("disco", 16) == 16
        with pytest.raises(KeyError):
            _engine_count("nope", 16)

    def test_compressor_dynamic_counts_all_sites(self):
        breakdown = compute_energy(
            counters(router_compressions=5, ni_compressions=5,
                     bank_compressions=5),
            0, 16, "disco", "delta",
        )
        comp_pj = EnergyParams().compressor_constants("delta")[0]
        assert breakdown.compressor_dynamic == pytest.approx(15 * comp_pj)

    def test_dram_toggle(self):
        params = EnergyParams(include_dram=True)
        with_dram = compute_energy(
            counters(memory_reads=10), 0, 16, "baseline", "delta", params
        )
        without = compute_energy(
            counters(memory_reads=10), 0, 16, "baseline", "delta"
        )
        assert with_dram.dram > 0 and without.dram == 0
        assert with_dram.total > without.total

    def test_unknown_algorithm_energy(self):
        with pytest.raises(KeyError):
            EnergyParams().compressor_constants("nope")

    def test_breakdown_dict(self):
        breakdown = compute_energy(counters(), 10, 4, "cc", "fpc")
        d = breakdown.as_dict()
        assert d["total"] == pytest.approx(breakdown.total)
        assert set(d) == {
            "noc_dynamic", "noc_leakage", "cache_dynamic", "cache_leakage",
            "compressor_dynamic", "compressor_leakage", "dram", "total",
        }


class TestAreaModel:
    def test_section_4_3_shape(self):
        """The §4.3 numbers lie in the bands of the claims table's rows."""
        artifacts = {"overhead": overhead_report()}
        for claim in (c for c in CLAIMS if c.artifact == "overhead"):
            assert claim.holds(claim.measure(artifacts)), claim.name

    def test_router_area_scales_with_buffers(self):
        small = router_area_um2(NocConfig(vc_depth=4))
        large = router_area_um2(NocConfig(vc_depth=16))
        assert large > small

    def test_compressor_areas_ordered_by_complexity(self):
        config = NocConfig()
        delta = compressor_area_um2("delta", config)
        fpc = compressor_area_um2("fpc", config)
        sc2 = compressor_area_um2("sc2", config)
        assert delta < fpc < sc2

    def test_unknown_algorithm_area(self):
        with pytest.raises(KeyError):
            compressor_area_um2("nope", NocConfig())

    def test_cache_area_validation(self):
        with pytest.raises(ValueError):
            cache_area_um2(0)
        assert cache_area_um2(4 << 20) > cache_area_um2(2 << 20)
