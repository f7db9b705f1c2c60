"""Store values made on demand: every exit of a pending version.

A store only advances its line's version in the ``ValuePool``; the L1 line
records the version and the bytes are generated when something first
reads them.  Each test below drives one exit of a pending version and
checks the bytes against eager generation (the value made at the store
itself, as a pool that generates on every store would have made it).
"""

import pickle

from repro.cache.memory import MemoryController
from repro.cmp.messages import Message, MessageKind
from repro.experiments import runner
from repro.experiments.runner import QUICK_ACCESSES, RunSpec
from repro.workloads import ValuePool, get_profile
from tests.test_golden_mesh import result_digest
from tests.test_tile_races import data_msg, make_tile

PROFILE = "blackscholes"
SEED = 2  # the tile harness's pool


def eager(addr, stores, profile=PROFILE, seed=SEED):
    """The value of ``addr`` after ``stores`` stores, generated at each
    store the moment it commits."""
    pool = ValuePool(get_profile(profile), seed=seed)
    value = pool.line(addr)
    for _ in range(stores):
        value = pool.value(addr, pool.store(addr))
    return value


def own_in_m(tile, addr, stores):
    """Install ``addr`` in M and commit ``stores`` stores to it."""
    tile.l1.fill(addr, b"\x01" * 64, "M")
    for _ in range(stores):
        tile.l1.access(addr, True)
        tile._commit_store(addr)


def sent(system, kind):
    return [m for m in system.sent if m.kind is kind]


class TestPendingExits:
    def test_store_leaves_the_line_pending(self):
        tile, system = make_tile()
        own_in_m(tile, 0, 3)
        line = tile.l1.lookup(0)
        assert line._data is None and line._version == 3
        assert line.data == eager(0, 3)
        assert line._data is not None  # generated once, then kept

    def test_dirty_victim_writeback(self):
        tile, system = make_tile()
        # Four ways of set 0 (addr % 32), each stored to; a fifth fill
        # evicts the least recently used one.
        for i in range(4):
            own_in_m(tile, i * 32, i + 1)
        tile.l1.mshr.allocate(4 * 32, False, cycle=99)
        tile.core.outstanding += 1
        tile.handle(data_msg(4 * 32, dst=1, grant="S"))
        (wb,) = sent(system, MessageKind.WB_DATA)
        assert wb.addr == 0
        assert wb.data == eager(0, 1)

    def test_recall_of_an_m_line(self):
        tile, system = make_tile()
        own_in_m(tile, 64, 4)
        tile.handle(Message(kind=MessageKind.RECALL, addr=64, src=0, dst=1))
        (reply,) = sent(system, MessageKind.RECALL_DATA)
        assert reply.data == eager(64, 4)
        assert tile.l1.lookup(64) is None

    def test_recall_racing_an_m_grant(self):
        tile, system = make_tile()
        tile.l1.mshr.allocate(0, True, cycle=90)
        tile.core.outstanding += 1
        # A second store coalesces into the same GETX.
        tile.l1.mshr.coalesce(0, True, 91, True)
        tile.core.outstanding += 1
        tile.handle(Message(kind=MessageKind.RECALL, addr=0, src=0, dst=1))
        assert tile.l1.mshr.lookup(0).pending_recall_from == 0
        tile.handle(data_msg(0, dst=1, grant="M"))
        (reply,) = sent(system, MessageKind.RECALL_DATA)
        assert reply.data == eager(0, 2)

    def test_dram_first_touch_after_stores(self):
        pool = ValuePool(get_profile(PROFILE), seed=SEED)
        for _ in range(3):
            pool.store(9)
        memory = MemoryController(line_source=pool.line)
        _, data = memory.read(9, cycle=0)
        assert data == pool.line(9) == eager(9, 3)

    def test_older_version_after_a_newer_store(self):
        tile, system = make_tile()
        own_in_m(tile, 32, 1)
        line = tile.l1.lookup(32)
        # A newer store to the address (another writer) before the
        # pending version is read.
        newer = system.pool.store(32)
        assert newer == 2
        assert line.data == eager(32, 1)
        assert system.pool.line(32) == eager(32, 2)
        assert system.pool.value(32, 1) == eager(32, 1)


def _pending_lines(system):
    return sum(
        1
        for tile in system.tiles
        for cache_set in tile.l1._sets
        for line in cache_set.values()
        if line._data is None
    )


def test_pause_with_pending_versions_round_trips():
    """A checkpoint taken while L1s hold pending versions finishes with
    the uninterrupted run's digest."""
    spec = RunSpec(
        scheme="disco", workload="canneal", accesses_per_core=QUICK_ACCESSES
    )
    expected = runner.build_system(spec).run()
    paused = runner.build_system(spec)
    assert paused.run(pause_at=1500) is None
    assert _pending_lines(paused) > 0
    restored = pickle.loads(pickle.dumps(paused, pickle.HIGHEST_PROTOCOL))
    assert _pending_lines(restored) == _pending_lines(paused)
    assert result_digest(restored.run()) == result_digest(expected)


def test_far_fewer_values_generated_than_stores(monkeypatch):
    counts = {"generated": 0, "stores": 0}
    generate, store = ValuePool._generate, ValuePool.store

    def counting_generate(self, addr, version):
        counts["generated"] += 1
        return generate(self, addr, version)

    def counting_store(self, addr):
        counts["stores"] += 1
        return store(self, addr)

    spec = RunSpec(
        scheme="disco", workload="canneal", accesses_per_core=QUICK_ACCESSES
    )
    system = runner.build_system(spec)
    monkeypatch.setattr(ValuePool, "_generate", counting_generate)
    monkeypatch.setattr(ValuePool, "store", counting_store)
    system.run()
    # Generation during the run also covers first-touch DRAM reads, so
    # the bound is loose; eager generation made one value per store.
    assert counts["stores"] > 1_000
    assert counts["generated"] * 5 < counts["stores"]
