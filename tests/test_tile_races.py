"""Targeted tests for the grant/recall/writeback races the tile defers.

These reconstruct, message by message, the orderings that wedged earlier
versions of the protocol (see DESIGN.md): a recall overtaking an in-flight
M grant, an invalidation overtaking an S grant, and the stale-writeback-
marker case that WB_ACK makes precise.
"""

from repro.cmp.config import SystemConfig
from repro.cmp.core_model import CoreModel
from repro.cmp.messages import Message, MessageKind
from repro.cmp.schemes import make_scheme
from repro.cmp.tile import Tile
from repro.workloads import ValuePool, get_profile
from repro.workloads.trace import MemoryAccess


class RecordingSystem:
    """Tile harness that records outbound messages without delivering."""

    def __init__(self):
        self.config = SystemConfig.scaled_mesh(2, 2)
        self.scheme = make_scheme("baseline")
        self.algorithm = self.scheme.make_algorithm()
        self.pool = ValuePool(get_profile("blackscholes"), seed=2)
        self.cycle = 100
        self.sent = []

    def send_message(self, msg, compressed_payload=None):
        self.sent.append(msg)

    def schedule(self, delay, fn, *args):  # pragma: no cover - unused here
        fn(*args)

    def kinds(self):
        return [m.kind for m in self.sent]


def make_tile(node=1):
    system = RecordingSystem()
    core = CoreModel(node, [MemoryAccess(1, False, 0)], window=4)
    return Tile(node, system, core), system


def data_msg(addr, dst, grant, data=None):
    return Message(
        kind=MessageKind.DATA, addr=addr, src=0, dst=dst, requester=dst,
        data=data or b"\x11" * 64, grant_state=grant,
    )


class TestRecallGrantRace:
    def test_recall_before_m_grant_is_deferred(self):
        tile, system = make_tile()
        tile.l1.mshr.allocate(0, True, cycle=90)
        tile.core.outstanding += 1
        # RECALL arrives before the DATA(M) the home already sent.
        tile.handle(Message(kind=MessageKind.RECALL, addr=0, src=0, dst=1))
        assert system.sent == []  # no NACK: the reply waits for the fill
        entry = tile.l1.mshr.lookup(0)
        assert entry.pending_recall_from == 0
        # The grant lands; the store commits; the line goes straight back.
        tile.handle(data_msg(0, dst=1, grant="M"))
        kinds = system.kinds()
        assert MessageKind.RECALL_DATA in kinds
        assert tile.l1.lookup(0) is None  # invalidated by the recall
        recall_data = [
            m for m in system.sent if m.kind is MessageKind.RECALL_DATA
        ][0]
        assert recall_data.data == tile.system.pool.line(0)

    def test_recall_with_wb_in_flight_nacks(self):
        tile, system = make_tile()
        tile._writeback(0, b"\x22" * 64)
        assert 0 in tile._wb_in_flight
        tile.l1.mshr.allocate(0, True, cycle=95)  # new GETX, queued at home
        tile.core.outstanding += 1
        tile.handle(Message(kind=MessageKind.RECALL, addr=0, src=0, dst=1))
        assert MessageKind.RECALL_NACK in system.kinds()

    def test_wb_ack_clears_marker_so_recall_defers(self):
        """The stale-marker deadlock scenario, fixed by WB_ACK."""
        tile, system = make_tile()
        tile._writeback(0, b"\x22" * 64)
        tile.l1.mshr.allocate(0, True, cycle=95)
        tile.core.outstanding += 1
        # The home consumed the WB (serving our GETX) and acked it; the
        # ack arrives before the racing recall (FIFO per src/vnet).
        tile.handle(Message(kind=MessageKind.WB_ACK, addr=0, src=0, dst=1))
        assert 0 not in tile._wb_in_flight
        tile.handle(Message(kind=MessageKind.RECALL, addr=0, src=0, dst=1))
        assert MessageKind.RECALL_NACK not in system.kinds()
        assert tile.l1.mshr.lookup(0).pending_recall_from == 0

    def test_recall_for_gets_entry_nacks(self):
        """dir M@me + my outstanding GETS => my WB is in flight."""
        tile, system = make_tile()
        tile.l1.mshr.allocate(0, False, cycle=95)
        tile.core.outstanding += 1
        tile.handle(Message(kind=MessageKind.RECALL, addr=0, src=0, dst=1))
        assert MessageKind.RECALL_NACK in system.kinds()


class TestInvGrantRace:
    def test_inv_before_s_grant_invalidates_after_use(self):
        tile, system = make_tile()
        tile.l1.mshr.allocate(0, False, cycle=90)
        tile.core.outstanding += 1
        tile.handle(Message(kind=MessageKind.INV, addr=0, src=0, dst=1))
        assert MessageKind.INV_ACK in system.kinds()
        assert tile.l1.mshr.lookup(0).pending_inv
        tile.handle(data_msg(0, dst=1, grant="S"))
        # use-once: the reader completed, then the line was dropped.
        assert tile.l1.lookup(0) is None
        assert tile.core.outstanding == 0

    def test_stale_inv_ignored_on_m_grant(self):
        tile, system = make_tile()
        tile.l1.mshr.allocate(0, True, cycle=90)
        tile.core.outstanding += 1
        tile.handle(Message(kind=MessageKind.INV, addr=0, src=0, dst=1))
        tile.handle(data_msg(0, dst=1, grant="M"))
        # The M grant is the newest serialization point; the line stays.
        line = tile.l1.lookup(0)
        assert line is not None and line.state == "M"

    def test_inv_on_present_line_needs_no_deferral(self):
        tile, system = make_tile()
        tile.l1.fill(0, b"\x01" * 64, "S")
        tile.handle(Message(kind=MessageKind.INV, addr=0, src=0, dst=1))
        assert tile.l1.lookup(0) is None
        assert MessageKind.INV_ACK in system.kinds()


class TestWritebackBookkeeping:
    def test_data_receipt_clears_wb_marker(self):
        tile, system = make_tile()
        tile._writeback(0, b"\x22" * 64)
        tile.l1.mshr.allocate(0, False, cycle=95)
        tile.core.outstanding += 1
        tile.handle(data_msg(0, dst=1, grant="S"))
        assert 0 not in tile._wb_in_flight

    def test_victim_writeback_sets_marker_and_sends(self):
        tile, system = make_tile()
        # fill the one set (2-way in scaled config? use distinct addrs in
        # same set): l1 has 32 sets, ways 4 -> same set = addr % 32
        for i in range(4):
            tile.l1.fill(i * 32, b"\x01" * 64, "M")
            tile.l1.access(i * 32, True)
            tile.l1.commit_store(i * 32, system.pool, system.pool.store(i * 32))
        tile.l1.mshr.allocate(4 * 32, False, cycle=99)
        tile.core.outstanding += 1
        tile.handle(data_msg(4 * 32, dst=1, grant="S"))
        wbs = [m for m in system.sent if m.kind is MessageKind.WB_DATA]
        assert len(wbs) == 1
        assert wbs[0].addr in tile._wb_in_flight
        assert wbs[0].data == system.pool.line(wbs[0].addr)
