"""The claims table and the claims run; the figure rows need the
bench-scale runs of ``python -m repro.experiments.claims``."""

import dataclasses

from repro.energy import overhead_report
from repro.experiments import claims, clear_cache, runner

STATIC = ("table1", "table2", "overhead")


def test_rows_without_simulation_hold():
    """Evaluated through the claims run's own evaluator."""
    text, status = claims.evaluate(claims.build(claims.BENCH, STATIC))
    assert status == 0, text
    rows = [c.name for c in claims.CLAIMS if c.artifact in STATIC]
    assert len(rows) == 10 and all(name in text for name in rows)
    assert "fig5." not in text


def test_value_outside_its_band_fails_and_names_the_row():
    report = dataclasses.replace(overhead_report(), router_overhead=0.3)
    text, status = claims.evaluate({"overhead": report})
    assert status == 1
    assert "out of band: overhead.router (30.0%, band [12.0%, 25.0%])" in text
    assert "out of band: overhead.cache" not in text


def test_claims_batch_leaves_no_miss_to_the_figures(monkeypatch):
    """Every figure run resolves in the claims run's one batch, the
    largest mesh first; each figure's own ``run_specs`` call then finds
    its runs in the memo."""
    clear_cache()
    dispatched = []
    real = runner._dispatch

    def record(misses, *args):
        dispatched.extend([list(misses)] if misses else [])
        return real(misses, *args)

    monkeypatch.setattr(runner, "_dispatch", record)
    tiny = claims.Scale("_tiny", ("swaptions",), 64, ("swaptions",))
    assert set(claims.build(tiny, claims.FIGURES)) == set(claims.FIGURES)
    clear_cache()
    # fig5 5 runs, fig6 8, fig7 none of its own, fig8 9 less the 3 4x4
    # runs it shares with fig5.
    assert [len(batch) for batch in dispatched] == [19]
    sizes = [spec.width * spec.height for spec in dispatched[0]]
    assert sizes == sorted(sizes, reverse=True) and sizes[0] == 64
