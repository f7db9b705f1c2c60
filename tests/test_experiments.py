"""Tests for the experiment harness (runner, report, table/figure modules).

The figure functions run here with tiny traces — the point is exercising
the machinery (memoization, normalization, rendering), not figure quality;
``python -m repro.experiments.claims`` checks the bench-scale claims.
"""

import importlib
import sys

import pytest

from repro.experiments import (
    RunSpec,
    clear_cache,
    format_table,
    normalize,
    run_grids,
    run_spec,
    runner,
)
from repro.experiments.report import geomean
from repro.experiments.table1 import measure_ratio, render as render_t1, table1
from repro.experiments.table2 import render as render_t2, table2_rows, verify_table2

TINY = dict(accesses_per_core=120)


@pytest.fixture(autouse=True)
def isolated_cache():
    clear_cache()
    yield
    clear_cache()


class TestReport:
    def test_normalize(self):
        out = normalize({"a": 2.0, "b": 4.0}, "a")
        assert out == {"a": 1.0, "b": 2.0}
        with pytest.raises(ZeroDivisionError):
            normalize({"a": 0.0}, "a")

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, -2.0])

    def test_format_table(self):
        text = format_table(["x", "value"], [["a", 1.23456]], title="T")
        assert "T" in text
        assert "1.235" in text
        assert "value" in text


class TestRunner:
    def test_memoization(self):
        spec = RunSpec(scheme="baseline", workload="swaptions", **TINY)
        first = run_spec(spec)
        second = run_spec(spec)
        assert first is second

    def test_distinct_specs_not_shared(self):
        a = run_spec(RunSpec(scheme="baseline", workload="swaptions", **TINY))
        b = run_spec(RunSpec(scheme="cc", workload="swaptions", **TINY))
        assert a is not b
        assert a.scheme == "baseline" and b.scheme == "cc"

    def test_run_grids_shape(self):
        workloads = ("swaptions", "blackscholes")
        grids = run_grids(
            {"tiny": {w: dict(workload=w, **TINY) for w in workloads}},
            ["baseline"],
            "ideal",
        )
        assert list(grids) == ["tiny"]
        grid = grids["tiny"]
        assert grid.rows == list(workloads)
        assert grid.schemes == ["ideal", "baseline"]
        assert set(grid.results) == {
            (w, s) for w in workloads for s in ("ideal", "baseline")
        }
        for (workload, scheme), result in grid.results.items():
            assert (result.workload, result.scheme) == (workload, scheme)
        for w in workloads:
            assert grid.normalized[w]["baseline"] == (
                grid.results[w, "baseline"].avg_miss_latency
                / grid.results[w, "ideal"].avg_miss_latency
            )
        assert grid.average["ideal"] == 1.0
        assert grid.average["baseline"] == geomean(
            grid.normalized[w]["baseline"] for w in workloads
        )
        assert grid.gain("baseline", "ideal") == pytest.approx(
            1.0 - grid.average["baseline"]
        )

    def test_sc2_training_applied(self):
        spec = RunSpec(
            scheme="cc", workload="swaptions", algorithm="sc2", **TINY
        )
        result = run_spec(spec)
        assert result.algorithm == "sc2"
        assert result.cycles > 0


class TestTable1:
    def test_measure_ratio_positive(self):
        ratio = measure_ratio("delta", lines_per_profile=20)
        assert 1.2 < ratio < 2.5

    def test_table1_rows_and_render(self):
        rows = table1(algorithms=("delta", "fpc"), lines_per_profile=15)
        assert [r.algorithm for r in rows] == ["delta", "fpc"]
        text = render_t1(rows)
        assert "delta" in text and "ratio" in text


class TestTable2:
    def test_render_contains_parameters(self):
        text = render_t2()
        assert "4x4 mesh" in text
        assert "wormhole" in text
        assert "4MB" in text

    def test_verify_passes_on_defaults(self):
        assert verify_table2() == []

    def test_rows_structure(self):
        rows = table2_rows()
        assert len(rows) == 7
        assert rows[0][0] == "Processor core"


class TestFigureSmokes:
    def test_fig5_tiny(self):
        from repro.experiments.fig5 import fig5, render

        result = fig5(workloads=("swaptions",), accesses_per_core=120,
                      schemes=("cc", "disco"))
        assert set(result.normalized["swaptions"]) == {"ideal", "cc", "disco"}
        assert result.average["ideal"] == pytest.approx(1.0)
        text = render(result)
        assert "DISCO vs CC" in text

    def test_fig7_tiny_shares_runs_with_fig5(self):
        from repro.experiments import runner
        from repro.experiments.fig5 import fig5
        from repro.experiments.fig7 import fig7

        fig5(workloads=("swaptions",), accesses_per_core=120)
        cached_before = len(runner._CACHE)
        fig7(workloads=("swaptions",), accesses_per_core=120)
        # fig7 adds no new simulations beyond what fig5 already ran.
        assert len(runner._CACHE) == cached_before

    def test_fig8_tiny(self):
        from repro.experiments.fig8 import fig8, overlap_share, render

        result = fig8(workloads=("swaptions",), meshes=((2, 2),),
                      accesses_per_core=120)
        assert list(result) == [(2, 2)]
        grid = result[2, 2]
        assert grid.schemes == ["ideal", "cc", "disco"]
        assert 0.0 <= overlap_share(grid) <= 1.0
        assert "2x2" in render(result)

    def test_overhead_render(self):
        from repro.energy import overhead_report
        from repro.experiments.overhead import render

        report = overhead_report()
        text = render(report)
        assert "17.2%" in text  # the paper reference is printed alongside


def _count_batches(monkeypatch):
    """Record each ``run_specs`` call made through any experiments module
    (every module that imported the name is patched)."""
    calls = []
    real = runner.run_specs

    def counted(specs, **kwargs):
        calls.append(len(specs))
        return real(specs, **kwargs)

    for name, module in list(sys.modules.items()):
        if (
            name.startswith("repro.experiments")
            and getattr(module, "run_specs", None) is real
        ):
            monkeypatch.setattr(module, "run_specs", counted)
    return calls


@pytest.mark.parametrize(
    "figure, kwargs, specs",
    [
        ("fig5", dict(workloads=("swaptions",)), 5),
        ("fig6", dict(workloads=("swaptions",)), 8),
        ("fig7", dict(workloads=("swaptions",)), 4),
        ("fig8", dict(workloads=("swaptions",), meshes=((2, 2),)), 3),
        ("topology_sweep", dict(workloads=("swaptions",)), 12),
    ],
)
def test_each_figure_is_one_batch(figure, kwargs, specs, monkeypatch):
    """A figure resolves every run it renders in one ``run_specs`` call,
    so the pool sees the whole figure at once."""
    module = importlib.import_module(f"repro.experiments.{figure}")
    calls = _count_batches(monkeypatch)
    result = getattr(module, figure)(accesses_per_core=120, **kwargs)
    text = module.render(result)
    assert calls == [specs]
    assert "DISCO" in text
