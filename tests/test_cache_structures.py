"""Tests for LRU, the segmented compressed bank, MSHRs, L1 and DRAM."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    CompressedBankArray,
    L1Cache,
    LRUPolicy,
    MemoryController,
    MSHRFile,
)
from repro.cache.l1 import HIT, MISS, STATE_M, STATE_S, UPGRADE
from repro.workloads import ValuePool, get_profile


def commit_store(l1, addr):
    """Commit a store of the next value of ``addr``; returns the pool."""
    pool = ValuePool(get_profile("dedup"), seed=3)
    l1.commit_store(addr, pool, pool.store(addr))
    return pool


class TestLRU:
    def test_order(self):
        lru = LRUPolicy()
        for key in (1, 2, 3):
            lru.touch(key)
        assert lru.lru() == 1
        lru.touch(1)
        assert lru.lru() == 2
        lru.remove(2)
        assert lru.lru() == 3
        assert len(lru) == 2
        assert 3 in lru

    def test_empty_lru_raises(self):
        with pytest.raises(LookupError):
            LRUPolicy().lru()


class TestCompressedBank:
    def make(self, **kwargs):
        defaults = dict(n_sets=4, ways=4, line_size=64, tag_factor=2,
                        segment_bytes=8)
        defaults.update(kwargs)
        return CompressedBankArray(**defaults)

    def test_insert_lookup(self):
        bank = self.make()
        bank.insert(0, b"\x01" * 64, stored_bytes=16)
        line = bank.lookup(0)
        assert line is not None and line.data == b"\x01" * 64
        assert line.segments(8) == 2

    def test_capacity_in_segments(self):
        bank = self.make(n_sets=1, ways=2, tag_factor=2)
        # budget: 2 ways x 8 segments = 16 segments, 4 tags
        bank.insert(0, b"\x00" * 64, stored_bytes=32)  # 4 segments
        bank.insert(1, b"\x00" * 64, stored_bytes=32)
        bank.insert(2, b"\x00" * 64, stored_bytes=32)
        bank.insert(3, b"\x00" * 64, stored_bytes=32)
        assert bank.resident_lines() == 4  # 2x the uncompressed capacity
        victims = bank.insert(4, b"\x00" * 64, stored_bytes=32)
        assert len(victims) == 1  # tag limit: LRU evicted
        assert victims[0].addr == 0

    def test_segment_pressure_evicts_multiple(self):
        bank = self.make(n_sets=1, ways=2, tag_factor=2)
        for addr in range(4):
            bank.insert(addr, b"\x00" * 64, stored_bytes=32)
        victims = bank.insert(9, b"\x00" * 64, stored_bytes=64)
        # needs 8 segments; each resident uses 4 -> evict 2 LRU lines
        assert [v.addr for v in victims] == [0, 1]

    def test_uncompressed_mode_is_plain_set_assoc(self):
        bank = self.make(n_sets=1, ways=2, tag_factor=1)
        bank.insert(0, b"\x00" * 64)
        bank.insert(1, b"\x00" * 64)
        victims = bank.insert(2, b"\x00" * 64)
        assert [v.addr for v in victims] == [0]
        assert bank.resident_lines() == 2

    def test_overwrite_merges_dirty(self):
        bank = self.make()
        bank.insert(0, b"\x01" * 64, dirty=True)
        victims = bank.insert(0, b"\x02" * 64, stored_bytes=16, dirty=False)
        assert victims == []
        line = bank.lookup(0)
        assert line.dirty  # dirtiness sticks until written back
        assert line.data == b"\x02" * 64

    def test_invalidate(self):
        bank = self.make()
        bank.insert(0, b"\x01" * 64)
        assert bank.invalidate(0) is not None
        assert bank.lookup(0) is None
        assert bank.invalidate(0) is None

    def test_mark_dirty_missing_raises(self):
        with pytest.raises(KeyError):
            self.make().mark_dirty(5)

    def test_index_stride(self):
        bank = self.make(n_sets=4, index_stride=16)
        assert bank.set_index(0) == 0
        assert bank.set_index(16) == 1
        assert bank.set_index(64) == 0

    def test_oversized_line_rejected(self):
        bank = self.make()
        with pytest.raises(ValueError):
            bank.insert(0, b"\x00" * 64, stored_bytes=65)
        with pytest.raises(ValueError):
            bank.insert(0, b"\x00" * 32)

    @given(
        footprints=st.lists(
            st.tuples(st.integers(0, 63), st.integers(8, 64)),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_segment_budget_invariant(self, footprints):
        """No set ever exceeds its tag or segment budget."""
        bank = self.make(n_sets=4, ways=4, tag_factor=2)
        for addr, stored in footprints:
            bank.insert(addr, b"\x00" * 64, stored_bytes=stored)
        for cache_set in bank._sets:
            used = sum(ln.segments(8) for ln in cache_set.lines.values())
            assert used <= bank.segment_budget
            assert len(cache_set.lines) <= bank.max_tags


class TestMSHR:
    def test_allocate_coalesce_release(self):
        mshr = MSHRFile(2)
        entry = mshr.allocate(5, False, cycle=10)
        assert entry.waiters == [(10, False, True, True)]
        mshr.coalesce(5, True, cycle=12)
        assert entry.pending_upgrade
        assert len(entry.waiters) == 2
        released = mshr.release(5)
        assert released is entry
        assert len(mshr) == 0

    def test_full(self):
        mshr = MSHRFile(1)
        mshr.allocate(1, False, 0)
        assert mshr.full()
        with pytest.raises(RuntimeError):
            mshr.allocate(2, False, 0)
        assert mshr.allocation_failures == 1

    def test_double_allocate_rejected(self):
        mshr = MSHRFile(4)
        mshr.allocate(1, False, 0)
        with pytest.raises(ValueError):
            mshr.allocate(1, True, 1)


class TestL1:
    def make(self):
        return L1Cache(n_sets=2, ways=2, mshrs=4)

    def test_miss_then_fill_then_hit(self):
        l1 = self.make()
        assert l1.access(0, False) == MISS
        l1.fill(0, b"\x01" * 64, STATE_S)
        assert l1.access(0, False) == HIT

    def test_write_to_shared_is_upgrade(self):
        l1 = self.make()
        l1.fill(0, b"\x01" * 64, STATE_S)
        assert l1.access(0, True) == UPGRADE

    def test_write_to_modified_hits_and_dirties(self):
        l1 = self.make()
        l1.fill(0, b"\x01" * 64, STATE_M)
        assert l1.access(0, True) == HIT
        commit_store(l1, 0)
        assert l1.lookup(0).dirty

    def test_eviction_returns_dirty_m_victim(self):
        l1 = self.make()
        l1.fill(0, b"\x01" * 64, STATE_M)
        l1.access(0, True)
        pool = commit_store(l1, 0)
        l1.fill(2, b"\x02" * 64, STATE_S)  # same set (2 % 2 == 0)
        victim = l1.fill(4, b"\x03" * 64, STATE_S)
        assert victim is not None and victim.addr == 0
        assert victim.data == pool.line(0) != b"\x01" * 64

    def test_clean_victims_dropped_silently(self):
        l1 = self.make()
        l1.fill(0, b"\x01" * 64, STATE_S)
        l1.fill(2, b"\x02" * 64, STATE_S)
        victim = l1.fill(4, b"\x03" * 64, STATE_S)
        assert victim is None

    def test_invalidate(self):
        l1 = self.make()
        l1.fill(0, b"\x01" * 64, STATE_S)
        assert l1.invalidate(0) is not None
        assert l1.lookup(0) is None
        assert l1.stats.invalidations == 1

    def test_store_commit_requires_m(self):
        l1 = self.make()
        l1.fill(0, b"\x01" * 64, STATE_S)
        with pytest.raises(RuntimeError):
            commit_store(l1, 0)

    def test_bad_fill_state(self):
        with pytest.raises(ValueError):
            self.make().fill(0, b"\x00" * 64, "X")


class TestMemoryController:
    def test_read_latency_and_content(self):
        mc = MemoryController(
            access_latency=100, n_banks=2,
            line_source=lambda addr: bytes([addr % 256]) * 64,
        )
        done, data = mc.read(3, cycle=10)
        assert done == 110
        assert data == b"\x03" * 64

    def test_bank_queueing(self):
        mc = MemoryController(access_latency=100, n_banks=2)
        done_a, _ = mc.read(0, cycle=0)
        done_b, _ = mc.read(2, cycle=0)  # same bank (2 % 2 == 0)
        done_c, _ = mc.read(1, cycle=0)  # other bank
        assert done_a == 100
        assert done_b == 200  # serialized behind a
        assert done_c == 100  # parallel
        assert mc.stats.total_queue_cycles == 100

    def test_write_updates_backing_store(self):
        mc = MemoryController()
        mc.write(7, b"\xaa" * 64, cycle=0)
        assert mc.line(7) == b"\xaa" * 64

    def test_write_size_check(self):
        with pytest.raises(ValueError):
            MemoryController().write(0, b"\x00" * 8, 0)
