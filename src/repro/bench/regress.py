"""Benchmark regression tracking: run history and baseline comparison.

Two pieces:

* :func:`append_history` appends each hot-path report — plus the git
  revision it was measured at — as one line of ``BENCH_history.jsonl``,
  so performance over time can be reconstructed without rerunning old
  commits.
* :func:`compare_reports` diffs a current report against a baseline
  (``repro bench --compare BENCH_hotpath.json``), computing a relative
  delta per tracked metric and flagging regressions past a threshold.
  Each metric carries a direction: for throughput-style metrics
  (``higher``) a drop beyond the threshold regresses; for cost-style
  metrics (``lower``) a rise does.

Deltas are relative — ``(current - baseline) / baseline`` — so one
threshold covers metrics of very different magnitudes.  Metrics
missing from either report (older baselines predate some sections,
and a speedup can legitimately be ``None``) are reported as
skipped rather than failed: the comparison is a ratchet on what both
runs measured, not a schema check.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: Tracked metrics: (dotted path into the report, direction).
#: Direction ``higher`` = bigger is better (throughput, speedup);
#: ``lower`` = smaller is better (overhead ratios, area gap).
TRACKED_METRICS: Tuple[Tuple[str, str], ...] = (
    ("npn_canon.lut_lookups_per_second", "higher"),
    ("npn_canon.speedup", "higher"),
    ("cut_enumeration.cuts_per_second", "higher"),
    ("cut_enumeration.speedup", "higher"),
    ("eval_stage.simulated_nodes_per_second", "higher"),
    ("batch_eval.batch_nodes_per_second", "higher"),
    ("batch_eval.speedup", "higher"),
    ("degraded_eval.overhead_ratio", "lower"),
    ("sharded_rewrite.sharded_nodes_per_second", "higher"),
    ("sharded_rewrite.speedup_at_4", "higher"),
    ("sharded_qor.area_gap_pct", "lower"),
)

DEFAULT_THRESHOLD = 0.15


@dataclass
class MetricDelta:
    """One metric's comparison against the baseline."""

    metric: str
    direction: str
    baseline: Optional[float]
    current: Optional[float]
    delta: Optional[float]  # (current - baseline) / baseline
    regressed: bool
    skipped: bool = False

    def format(self) -> str:
        arrow = "↑" if self.direction == "higher" else "↓"
        if self.skipped:
            return f"  {self.metric} ({arrow}): skipped (missing value)"
        pct = self.delta * 100.0
        verdict = "REGRESSED" if self.regressed else "ok"
        return (
            f"  {self.metric} ({arrow}): {self.baseline:g} -> "
            f"{self.current:g} ({pct:+.1f}%) {verdict}"
        )


def _lookup(report: Dict[str, Any], path: str) -> Optional[float]:
    node: Any = report
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def compare_reports(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[MetricDelta]:
    """Per-metric deltas of ``current`` against ``baseline``.

    A ``higher`` metric regresses when its relative delta falls below
    ``-threshold``; a ``lower`` metric when it rises above
    ``+threshold``.  Metrics absent (or non-numeric, or with a zero
    baseline) in either report come back ``skipped``.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    deltas: List[MetricDelta] = []
    for path, direction in TRACKED_METRICS:
        base = _lookup(baseline, path)
        cur = _lookup(current, path)
        if base is None or cur is None or base == 0:
            deltas.append(MetricDelta(path, direction, base, cur,
                                      None, False, skipped=True))
            continue
        delta = (cur - base) / abs(base)
        if direction == "higher":
            regressed = delta < -threshold
        else:
            regressed = delta > threshold
        deltas.append(MetricDelta(path, direction, base, cur, delta, regressed))
    return deltas


def format_comparison(deltas: List[MetricDelta], threshold: float) -> str:
    """Human-readable comparison table plus a verdict line."""
    lines = [f"== bench comparison (threshold ±{threshold * 100:.0f}%) =="]
    lines.extend(d.format() for d in deltas)
    bad = [d for d in deltas if d.regressed]
    skipped = sum(1 for d in deltas if d.skipped)
    if bad:
        lines.append(
            f"REGRESSION: {len(bad)} of {len(deltas) - skipped} "
            f"metric(s) past threshold"
        )
    else:
        lines.append(
            f"ok: {len(deltas) - skipped} metric(s) within threshold"
            + (f" ({skipped} skipped)" if skipped else "")
        )
    return "\n".join(lines)


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """Short git revision of ``cwd``, or None outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def append_history(report: Dict[str, Any], path: str,
                   cwd: Optional[str] = None) -> Dict[str, Any]:
    """Append ``report`` (tagged with the git revision) to the JSONL
    history at ``path``; returns the record written."""
    record = dict(report, git_revision=git_revision(cwd))
    with open(path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True))
        fh.write("\n")
    return record


def load_history(path: str) -> List[Dict[str, Any]]:
    """Parse a ``BENCH_history.jsonl`` file (one report per line)."""
    records: List[Dict[str, Any]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
