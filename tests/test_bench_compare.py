"""Bench regression tracking: history append and baseline comparison."""

from __future__ import annotations

import json

import pytest

from repro.bench.regress import (
    DEFAULT_THRESHOLD,
    TRACKED_METRICS,
    append_history,
    compare_reports,
    format_comparison,
    git_revision,
    load_history,
)


def _report(**overrides):
    """A minimal hot-path report covering every tracked metric."""
    base = {
        "npn_canon": {"lut_lookups_per_second": 1_000_000.0, "speedup": 100.0},
        "cut_enumeration": {"cuts_per_second": 50_000.0, "speedup": 2.5},
        "eval_stage": {"simulated_nodes_per_second": 5_000.0},
        "batch_eval": {
            "batch_nodes_per_second": 30_000.0,
            "speedup": 5.0,
        },
        "degraded_eval": {"overhead_ratio": 1.2},
        "sharded_rewrite": {
            "sharded_nodes_per_second": 4_500.0,
            "speedup_at_4": 2.0,
        },
        "sharded_qor": {"area_gap_pct": 1.5},
    }
    for path, value in overrides.items():
        section, key = path.split(".")
        base[section][key] = value
    return base


class TestCompareReports:
    def test_identical_reports_pass(self):
        deltas = compare_reports(_report(), _report(), threshold=0.1)
        assert len(deltas) == len(TRACKED_METRICS)
        assert not any(d.regressed for d in deltas)
        assert all(d.delta == 0.0 for d in deltas)

    def test_higher_metric_drop_regresses(self):
        cur = _report(**{"cut_enumeration.cuts_per_second": 30_000.0})  # -40%
        deltas = compare_reports(cur, _report(), threshold=0.15)
        bad = {d.metric for d in deltas if d.regressed}
        assert bad == {"cut_enumeration.cuts_per_second"}

    def test_higher_metric_gain_is_fine(self):
        cur = _report(**{"npn_canon.speedup": 500.0})
        deltas = compare_reports(cur, _report(), threshold=0.15)
        assert not any(d.regressed for d in deltas)

    def test_lower_metric_rise_regresses(self):
        cur = _report(**{"degraded_eval.overhead_ratio": 2.0})  # +67%
        deltas = compare_reports(cur, _report(), threshold=0.15)
        bad = {d.metric for d in deltas if d.regressed}
        assert bad == {"degraded_eval.overhead_ratio"}

    def test_lower_metric_drop_is_fine(self):
        cur = _report(**{"degraded_eval.overhead_ratio": 1.0})
        deltas = compare_reports(cur, _report(), threshold=0.15)
        assert not any(d.regressed for d in deltas)

    def test_drop_within_threshold_is_fine(self):
        cur = _report(**{"npn_canon.lut_lookups_per_second": 900_000.0})
        deltas = compare_reports(cur, _report(), threshold=0.15)
        assert not any(d.regressed for d in deltas)

    def test_missing_and_null_values_skip(self):
        baseline = _report()
        baseline["degraded_eval"] = None  # older baselines carry null
        current = _report()
        del current["batch_eval"]["speedup"]
        deltas = compare_reports(current, baseline, threshold=0.15)
        skipped = {d.metric for d in deltas if d.skipped}
        assert skipped == {"degraded_eval.overhead_ratio",
                           "batch_eval.speedup"}
        # Skipped metrics never regress.
        assert not any(d.regressed for d in deltas if d.skipped)

    def test_zero_baseline_skips(self):
        baseline = _report(**{"npn_canon.speedup": 0.0})
        deltas = compare_reports(_report(), baseline, threshold=0.15)
        assert any(d.skipped for d in deltas
                   if d.metric == "npn_canon.speedup")

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            compare_reports(_report(), _report(), threshold=-0.1)

    def test_default_threshold_sane(self):
        assert 0.0 < DEFAULT_THRESHOLD < 1.0


class TestFormatComparison:
    def test_regression_named_in_output(self):
        cur = _report(**{"eval_stage.simulated_nodes_per_second": 100.0})
        deltas = compare_reports(cur, _report(), threshold=0.15)
        text = format_comparison(deltas, 0.15)
        assert "REGRESSION" in text
        assert "eval_stage.simulated_nodes_per_second" in text

    def test_clean_run_says_ok(self):
        deltas = compare_reports(_report(), _report(), threshold=0.15)
        text = format_comparison(deltas, 0.15)
        assert "ok:" in text and "REGRESSION" not in text


class TestHistory:
    def test_append_and_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "hist.jsonl")
        first = append_history(_report(), path)
        append_history(_report(**{"npn_canon.speedup": 120.0}), path)
        records = load_history(path)
        assert len(records) == 2
        assert "git_revision" in first
        assert records[1]["npn_canon"]["speedup"] == 120.0
        # Each line is independently parseable JSON.
        with open(path) as fh:
            for line in fh:
                json.loads(line)

    def test_git_revision_in_repo(self):
        rev = git_revision()
        # The test suite runs from a checkout; outside one this returns
        # None and history still appends.
        assert rev is None or (isinstance(rev, str) and rev)

    def test_git_revision_outside_repo(self, tmp_path):
        assert git_revision(cwd=str(tmp_path)) is None


class TestBenchCompareCli:
    def test_compare_exit_codes(self, tmp_path, monkeypatch, capsys):
        from repro import cli

        current = _report()
        # _cmd_bench's summary print reads these beyond the tracked set.
        current["npn_canon"].update(
            scalar_lookups_per_second=10_000.0, lut_build_seconds=0.5)
        current["cut_enumeration"].update(
            cache_hits=1, cache_misses=2,
            scalar_cuts_per_second=20_000.0, identical_results=True)
        current["batch_eval"].update(
            scalar_nodes_per_second=6_000.0, vectorized_fraction=1.0,
            identical_results=True)
        current["degraded_eval"].update(
            degraded_seconds=0.2, healthy_seconds=0.15, chunk_retries=0,
            pool_restarts=0, chunk_fallbacks=0)
        current["sharded_rewrite"].update(
            nodes=2000, jobs=4, boundary_frozen=100, equivalent=True,
            curve=[{"shards": s, "seconds": 1.0} for s in (1, 2, 4)])
        current["sharded_qor"].update(
            area_sharded=1820, area_unsharded=1800, shards=4,
            shard_passes=2, equivalent=True)
        baseline_ok = tmp_path / "base_ok.json"
        baseline_ok.write_text(json.dumps(_report()))
        baseline_bad = tmp_path / "base_bad.json"
        baseline_bad.write_text(json.dumps(
            _report(**{"cut_enumeration.cuts_per_second": 500_000.0})))

        monkeypatch.setattr(
            "repro.bench.hotpath.run_hotpath_bench",
            lambda quick=False, jobs=None: dict(current),
        )
        monkeypatch.setattr(
            "repro.bench.hotpath.write_report", lambda report, path: None,
        )

        hist = str(tmp_path / "hist.jsonl")
        common = ["bench", "--quick", "-o", str(tmp_path / "out.json"),
                  "--history", hist]
        code = cli.main(common + ["--compare", str(baseline_ok)])
        capsys.readouterr()
        assert code == 0
        assert len(load_history(hist)) == 1

        code = cli.main(common + ["--no-history",
                                  "--compare", str(baseline_bad),
                                  "--threshold", "0.15"])
        out = capsys.readouterr().out
        assert code == 3
        assert "REGRESSION" in out
        assert len(load_history(hist)) == 1  # --no-history skipped append

        code = cli.main(common + ["--no-history",
                                  "--compare", str(tmp_path / "missing.json")])
        capsys.readouterr()
        assert code == 1
