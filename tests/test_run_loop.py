"""The run loop's progress aggregate.

``CmpSystem.run`` decides when a run is done, whether it is wedged and
when the warmup snapshot is due from one
:class:`~repro.cmp.core_model.CoreProgress` the cores keep current,
instead of visiting every core each cycle.  These tests hold the
aggregate to a per-core recount: after every cycle of a run, after a
mid-warmup restore, and when it is knocked out of step on purpose.
"""

import pickle

import pytest

from repro.cmp.schemes import make_scheme
from repro.cmp.system import CmpSystem
from repro.experiments import checkpoint
from repro.experiments.runner import QUICK_ACCESSES, RunSpec
from repro.workloads.trace import generate_traces

SPEC = RunSpec(
    scheme="disco", workload="blackscholes", accesses_per_core=QUICK_ACCESSES
)
#: Mid-run pause point; the quick disco spec leaves warmup at cycle 1993.
PAUSE = 1500
WARMUP_ENDS = 1993


def _build(spec):
    """A cold system built as ``runner._simulate`` builds one."""
    config = spec.config()
    traces = generate_traces(
        spec.profile(),
        config.n_cores,
        spec.accesses_per_core,
        seed=spec.seed,
        line_size=config.line_size,
    )
    return CmpSystem(
        config,
        make_scheme(spec.scheme, algorithm=spec.algorithm),
        traces,
        warmup_fraction=spec.warmup_fraction,
    )


def _recount(system):
    """(positions, outstanding, cores in warmup), core by core."""
    cores = [tile.core for tile in system.tiles]
    return (
        sum(core.position for core in cores),
        sum(core.outstanding for core in cores),
        sum(1 for core in cores if core.in_warmup()),
    )


def test_aggregate_matches_a_recount_after_every_cycle():
    system = _build(SPEC)
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


def test_load_state_rebuilds_the_aggregate_mid_warmup():
    paused = _build(SPEC)
    assert paused.run(pause_at=PAUSE) is None
    assert paused.cycle < WARMUP_ENDS
    state = pickle.loads(
        pickle.dumps(paused.state_dict(), pickle.HIGHEST_PROTOCOL)
    )
    fresh = checkpoint.build_system(SPEC)
    fresh.load_state(state)
    assert fresh.progress.counts() == _recount(fresh)
    assert fresh.progress.counts() == paused.progress.counts()
    assert fresh.progress.warming > 0
    assert all(tile.core.progress is fresh.progress for tile in fresh.tiles)
    # The rebuilt aggregate opens the steady-state window on time.
    assert fresh.run().measure_start_cycle == WARMUP_ENDS


def test_a_stale_aggregate_fails_the_run_instead_of_ending_it():
    system = _build(SPEC)
    assert system.run(pause_at=PAUSE) is None
    # One access counted that no core issued: the aggregate reaches the
    # trace target one access early.
    system.progress.positions += 1
    with pytest.raises(RuntimeError, match="disagrees with the per-core"):
        system.run()


def test_a_lagging_aggregate_wedges_with_both_counts_reported():
    system = _build(SPEC)
    assert system.run(pause_at=PAUSE) is None
    system.progress.positions -= 1
    with pytest.raises(RuntimeError, match="wedged") as excinfo:
        system.run(stall_limit=2_000)
    assert (
        f"aggregate {system.progress.counts()}, recount {_recount(system)}"
        in str(excinfo.value)
    )
