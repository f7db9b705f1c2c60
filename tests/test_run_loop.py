"""The run loop's progress aggregate.

``CmpSystem.run`` decides when a run is done, whether it is wedged and
when the warmup snapshot is due from one
:class:`~repro.cmp.core_model.CoreProgress` the cores keep current,
instead of visiting every core each cycle.  These tests hold the
aggregate to a per-core recount: after every cycle of a run, after a
mid-warmup pickle round trip, and when it is knocked out of step on
purpose.
"""

import pickle

import pytest

from repro.experiments.runner import QUICK_ACCESSES, RunSpec, build_system

SPEC = RunSpec(
    scheme="disco", workload="blackscholes", accesses_per_core=QUICK_ACCESSES
)
#: Mid-run pause point; the quick disco spec leaves warmup at cycle 1993.
PAUSE = 1500
WARMUP_ENDS = 1993


def _recount(system):
    """(positions, outstanding, cores in warmup), core by core."""
    cores = [tile.core for tile in system.tiles]
    return (
        sum(core.position for core in cores),
        sum(core.outstanding for core in cores),
        sum(1 for core in cores if core.in_warmup()),
    )


def test_aggregate_matches_a_recount_after_every_cycle():
    system = build_system(SPEC)
    assert all(tile.core.progress is system.progress for tile in system.tiles)
    warming = []

    def check(sys_):
        assert sys_.progress.counts() == _recount(sys_), (
            f"aggregate drifted at cycle {sys_.cycle}"
        )
        warming.append(sys_.progress.warming)

    result = system.run(checkpoint_fn=check)
    assert result is not None
    # The run crossed the warmup boundary under the check.
    assert warming[0] > 0 and warming[-1] == 0
    assert result.measure_start_cycle == WARMUP_ENDS


def test_a_pickled_system_keeps_the_aggregate_mid_warmup():
    paused = build_system(SPEC)
    assert paused.run(pause_at=PAUSE) is None
    assert paused.cycle < WARMUP_ENDS
    restored = pickle.loads(pickle.dumps(paused, pickle.HIGHEST_PROTOCOL))
    assert restored.progress.counts() == _recount(restored)
    assert restored.progress.counts() == paused.progress.counts()
    assert restored.progress.warming > 0
    assert all(
        tile.core.progress is restored.progress for tile in restored.tiles
    )
    # The pickled aggregate opens the steady-state window on time.
    assert restored.run().measure_start_cycle == WARMUP_ENDS


def test_a_stale_aggregate_fails_the_run_instead_of_ending_it():
    system = build_system(SPEC)
    assert system.run(pause_at=PAUSE) is None
    # One access counted that no core issued: the aggregate reaches the
    # trace target one access early.
    system.progress.positions += 1
    with pytest.raises(RuntimeError, match="disagrees with the per-core"):
        system.run()


def test_a_lagging_aggregate_wedges_with_both_counts_reported():
    system = build_system(SPEC)
    assert system.run(pause_at=PAUSE) is None
    system.progress.positions -= 1
    with pytest.raises(RuntimeError, match="wedged") as excinfo:
        system.run(stall_limit=2_000)
    assert (
        f"aggregate {system.progress.counts()}, recount {_recount(system)}"
        in str(excinfo.value)
    )
