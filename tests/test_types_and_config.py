"""Unit tests for shared value types and machine configuration."""

import dataclasses
import hashlib
import json
from dataclasses import replace

import pytest

from repro.common.config import (
    CacheLevelConfig,
    FaultConfig,
    MachineConfig,
    config_fingerprint,
    config_to_dict,
    paper_machine_config,
    small_machine_config,
    table2_rows,
)
from repro.common.types import (
    CACHE_LINE_SIZE,
    NVM_BASE,
    MemReqType,
    MemRequest,
    MemSpace,
    SchemeName,
    is_persistent_addr,
    line_addr,
    ns_to_cycles,
)


class TestAddressHelpers:
    def test_line_addr_masks_low_bits(self):
        assert line_addr(0) == 0
        assert line_addr(63) == 0
        assert line_addr(64) == 64
        assert line_addr(NVM_BASE + 100) == NVM_BASE + 64

    def test_space_split_at_nvm_base(self):
        assert MemSpace.of(0) is MemSpace.DRAM
        assert MemSpace.of(NVM_BASE - 1) is MemSpace.DRAM
        assert MemSpace.of(NVM_BASE) is MemSpace.NVM
        assert is_persistent_addr(NVM_BASE + 4096)
        assert not is_persistent_addr(4096)

    def test_mem_request_line_and_space(self):
        req = MemRequest(addr=NVM_BASE + 70, req_type=MemReqType.WRITE)
        assert req.line == NVM_BASE + 64
        assert req.space is MemSpace.NVM
        assert req.is_write


class TestNsToCycles:
    def test_rounds_up(self):
        assert ns_to_cycles(0.5, 2.0) == 1
        assert ns_to_cycles(4.5, 2.0) == 9
        assert ns_to_cycles(10.0, 2.0) == 20
        assert ns_to_cycles(65.0, 2.0) == 130
        assert ns_to_cycles(76.0, 2.0) == 152
        assert ns_to_cycles(1.5, 2.0) == 3

    def test_minimum_one_cycle(self):
        assert ns_to_cycles(0.01, 2.0) == 1


class TestSchemeName:
    def test_parse_string(self):
        assert SchemeName.parse("sp") is SchemeName.SP
        assert SchemeName.parse("TXCACHE") is SchemeName.TXCACHE

    def test_parse_passthrough(self):
        assert SchemeName.parse(SchemeName.KILN) is SchemeName.KILN

    def test_parse_unknown_raises(self):
        with pytest.raises(ValueError):
            SchemeName.parse("bogus")


class TestPaperConfig:
    def test_table2_core(self):
        cfg = paper_machine_config()
        assert cfg.num_cores == 4
        assert cfg.core.freq_ghz == 2.0
        assert cfg.core.issue_width == 4

    def test_table2_cache_geometry(self):
        cfg = paper_machine_config()
        assert cfg.l1.size_bytes == 32 * 1024 and cfg.l1.assoc == 4
        assert cfg.l2.size_bytes == 256 * 1024 and cfg.l2.assoc == 8
        assert cfg.llc.size_bytes == 64 * 1024 * 1024 and cfg.llc.assoc == 16
        assert cfg.llc.shared and not cfg.l1.shared

    def test_table2_latencies_in_cycles(self):
        cfg = paper_machine_config()
        assert cfg.latency("l1") == 1
        assert cfg.latency("l2") == 9
        assert cfg.latency("llc") == 20
        assert cfg.latency("txcache") == 3

    def test_table2_memory(self):
        cfg = paper_machine_config()
        assert cfg.nvm.num_ranks == 4 and cfg.nvm.banks_per_rank == 8
        assert cfg.nvm.read_queue_entries == 8
        assert cfg.nvm.write_queue_entries == 64
        assert cfg.nvm.write_drain_threshold == pytest.approx(0.8)
        assert cfg.nvm.timing.read_ns == 65.0
        assert cfg.nvm.timing.write_ns == 76.0

    def test_txcache_defaults(self):
        cfg = paper_machine_config()
        assert cfg.txcache.size_bytes == 4096
        assert cfg.txcache.num_entries == 64
        assert cfg.txcache.overflow_threshold == pytest.approx(0.9)

    def test_table2_rows_render(self):
        rows = table2_rows(paper_machine_config())
        assert "4 cores" in rows["CPU"]
        assert "64MB" in rows["L3 (LLC)"]
        assert "CAM FIFO" in rows["Transaction Cache"]
        assert "65-ns read" in rows["NVM Memory"]
        assert "80% full" in rows["Memory Controllers"]


class TestConfigValidation:
    """Invalid configurations must fail loudly at construction time,
    with messages that name the offending field and value."""

    def test_overflow_threshold_range(self):
        from repro.common.config import TxCacheConfig
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="overflow_threshold"):
                TxCacheConfig(size_bytes=4096, overflow_threshold=bad)
        # boundary: exactly 1.0 is legal (overflow only when full)
        assert TxCacheConfig(size_bytes=4096,
                             overflow_threshold=1.0).num_entries == 64

    def test_freq_must_be_positive(self):
        from repro.common.config import CoreConfig
        for bad in (0.0, -2.0):
            with pytest.raises(ValueError, match="freq_ghz"):
                CoreConfig(freq_ghz=bad)

    def test_fault_rates_must_be_probabilities(self):
        from repro.common.config import FaultConfig
        for field in ("nvm_write_fail_rate", "ack_loss_rate",
                      "ack_delay_rate", "ack_duplicate_rate",
                      "tc_bit_flip_rate", "degrade_error_rate"):
            with pytest.raises(ValueError, match=field):
                FaultConfig(**{field: 1.5})
            with pytest.raises(ValueError, match=field):
                FaultConfig(**{field: -0.01})

    def test_ack_fates_must_not_exceed_certainty(self):
        from repro.common.config import FaultConfig
        with pytest.raises(ValueError, match="ack"):
            FaultConfig(ack_loss_rate=0.5, ack_delay_rate=0.4,
                        ack_duplicate_rate=0.2)

    def test_fault_counts_and_cycles(self):
        from repro.common.config import FaultConfig
        with pytest.raises(ValueError, match="max_write_retries"):
            FaultConfig(max_write_retries=-1)
        with pytest.raises(ValueError, match="retry_backoff_cycles"):
            FaultConfig(retry_backoff_cycles=0)
        with pytest.raises(ValueError, match="ack_timeout_cycles"):
            FaultConfig(ack_timeout_cycles=0)

    def test_enabled_reflects_any_nonzero_rate(self):
        from repro.common.config import FaultConfig
        assert not FaultConfig().enabled
        assert not FaultConfig(seed=42).enabled  # seed alone is inert
        assert FaultConfig(nvm_write_fail_rate=1e-6).enabled
        assert FaultConfig(ack_delay_rate=0.1).enabled
        assert FaultConfig(tc_bit_flip_rate=1e-9).enabled

    def test_machine_config_carries_fault_config(self):
        from repro.common.config import FaultConfig
        cfg = small_machine_config()
        assert cfg.faults == FaultConfig()
        assert not cfg.faults.enabled


class TestCacheLevelConfig:
    def test_sets_computed(self):
        cfg = CacheLevelConfig("l1", 32 * 1024, 4, 0.5)
        assert cfg.num_lines == 512
        assert cfg.num_sets == 128

    def test_bad_geometry_rejected(self):
        cfg = CacheLevelConfig("bad", 100 * 64, 3, 1.0)
        with pytest.raises(ValueError):
            _ = cfg.num_sets


class TestScaledConfigs:
    def test_small_machine_preserves_policies(self):
        cfg = small_machine_config()
        assert cfg.l1.assoc == 4 and cfg.llc.assoc == 16
        assert cfg.latency("llc") == 20
        assert cfg.llc.size_bytes < paper_machine_config().llc.size_bytes

    def test_scaled_llc(self):
        cfg = paper_machine_config().scaled_llc(128 * 1024)
        assert cfg.llc.size_bytes == 128 * 1024
        assert cfg.llc.assoc == 16


def _every_section_overridden():
    base = paper_machine_config()
    return replace(
        base,
        num_cores=3,
        core=replace(base.core, issue_width=2, mlp=6),
        l1=replace(base.l1, size_bytes=8 * 1024),
        l2=replace(base.l2, latency_ns=5.5),
        llc=replace(base.llc, assoc=8),
        txcache=replace(base.txcache, size_bytes=2048),
        nvm=replace(base.nvm, write_queue_entries=32,
                    timing=replace(base.nvm.timing, write_ns=80.5)),
        dram=replace(base.dram, num_ranks=2,
                     timing=replace(base.dram.timing, refresh_ns=150.0)),
        faults=FaultConfig(seed=5, ack_loss_rate=1e-3),
    )


class TestConfigToDict:
    """The field walk behind ``config_to_dict`` and
    ``config_fingerprint`` must build exactly ``dataclasses.asdict``."""

    @pytest.mark.parametrize("config", [
        paper_machine_config(), small_machine_config(),
        _every_section_overridden()], ids=["paper", "small", "overridden"])
    def test_walk_equals_asdict(self, config):
        expected = dataclasses.asdict(config)
        walked = config_to_dict(config)
        assert walked == expected
        # same keys in the same order, at every depth
        assert json.dumps(walked) == json.dumps(expected)
        assert config_fingerprint(config) == hashlib.sha256(json.dumps(
            expected, sort_keys=True).encode("utf-8")).hexdigest()

    def test_every_section_differs_from_the_paper_config(self):
        paper = config_to_dict(paper_machine_config())
        overridden = config_to_dict(_every_section_overridden())
        assert all(paper[name] != overridden[name] for name in paper)
