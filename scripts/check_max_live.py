#!/usr/bin/env python3
"""Guard the per-app max-live footprint measured by rt_microbench.

Reads a BENCH_rt.json produced by a bench run and fails if any app's
max_live_bytes (the trace arena's high-water mark across construction
and the update loop; the arena holds the trace nodes with their
embedded timestamps, the order list's groups and the memo bucket
arrays, so this is the whole footprint) regressed more than 10% over
its baseline, or if the field is missing. Growing a trace node layout
or leaking trace structure shows up here directly — max-live is
deterministic for a fixed app and scale, so the tolerance only absorbs
layout-neutral drift (memo-table growth points, sample-count changes),
not node-size regressions, which cost well over 10%.

Baselines are calibrated at the CI smoke scale (--app-scale=0.02
--app-samples=20). Recalibrate (run the smoke line from
.github/workflows/ci.yml and paste the max_live_bytes column) when
deliberately changing what the trace retains.

Usage:
    check_max_live.py [BENCH_rt.json] [--baseline OTHER_BENCH.json]

With --baseline, per-app baselines come from the other run's
update_bench rows instead of the embedded table (A/B comparisons).

The rows may also carry trace-persistence fields (snapshot_bytes,
warm_start_seconds; see bench/AppBench.h). snapshot_bytes is
deterministic like max-live, so in --baseline mode it is gated with the
same tolerance when both runs report it; the embedded table predates
the field and only prints it. warm_start_seconds is wall time and is
gated separately by check_warmstart.py, never here.
"""

import json
import sys

# Per-app max_live_bytes at smoke scale, recorded with each read's
# closure and each allocation's initializer and block stored inside
# their trace nodes, and the memo bucket arrays in the arena. Baselines
# only move down: filter, quicksort and quickhull keep the lower figures
# of an older table (their measured 570704, 886584 and 3192304 are
# within 1% above them).
BASELINES = {
    "filter": 569720,
    "map": 792536,
    "minimum": 2829096,
    "quicksort": 878488,
    "exptrees": 1556448,
    "quickhull": 3179984,
    "rctree-opt": 1432136,
}

TOLERANCE = 0.10


def rows_by_name(path, failures):
    """update_bench rows keyed by app name. Malformed input (unreadable
    file, bad JSON, missing section, row without a name) lands in
    `failures` as a located message instead of a raw traceback."""
    try:
        with open(path) as f:
            bench = json.load(f)
    except OSError as e:
        failures.append(f"{path}: cannot read: {e}")
        return {}
    except json.JSONDecodeError as e:
        failures.append(f"{path}: not valid JSON: {e}")
        return {}
    if "update_bench" not in bench:
        failures.append(f"{path}: no update_bench section")
        return {}
    rows = {}
    for i, row in enumerate(bench["update_bench"]):
        if not isinstance(row, dict) or "name" not in row:
            failures.append(f"{path}: update_bench row {i} has no name field")
            continue
        rows[row["name"]] = row
    return rows


def gate(baselines, rows, path, failures):
    """Checks each app's max_live_bytes against its baseline (10%
    tolerance)."""
    for app, base in sorted(baselines.items()):
        row = rows.get(app)
        if row is None:
            failures.append(f"{app}: no update_bench row in {path}")
            continue
        live = row.get("max_live_bytes")
        if live is None:
            failures.append(f"{app}: row in {path} lacks max_live_bytes")
            continue
        limit = base * (1 + TOLERANCE)
        ratio = live / base if base else float("inf")
        status = "ok" if live <= limit else "FAIL"
        snap = row.get("snapshot_bytes", 0)
        snap_note = f"  snapshot_bytes={snap:12d}" if snap else ""
        print(f"{app:10s} max_live_bytes={live:12d}  "
              f"baseline={base:12d}  ratio={ratio:5.2f}  {status}{snap_note}")
        if live > limit:
            failures.append(
                f"{app}: max_live_bytes {live} exceeds baseline {base} "
                f"by {100 * (ratio - 1):.1f}% (> {100 * TOLERANCE:.0f}%)")


def main(argv):
    path = "BENCH_rt.json"
    baseline_path = None
    args = argv[1:]
    while args:
        a = args.pop(0)
        if a == "--baseline":
            baseline_path = args.pop(0)
        else:
            path = a

    failures = []
    rows = rows_by_name(path, failures)
    base_rows = {}
    if baseline_path:
        base_rows = rows_by_name(baseline_path, failures)
        baselines = {}
        for name, row in sorted(base_rows.items()):
            if "max_live_bytes" not in row:
                failures.append(
                    f"{name}: baseline row in {baseline_path} lacks "
                    f"max_live_bytes")
                continue
            baselines[name] = row["max_live_bytes"]
    else:
        baselines = BASELINES

    gate(baselines, rows, path, failures)

    # A/B mode only: snapshot_bytes is as deterministic as max-live, so
    # when both runs report it, gate it the same way.
    if baseline_path:
        for app, row in sorted(base_rows.items()):
            base_snap = row.get("snapshot_bytes", 0)
            cur = rows.get(app)
            snap = cur.get("snapshot_bytes", 0) if cur else 0
            if not base_snap or not snap:
                continue
            limit = base_snap * (1 + TOLERANCE)
            ratio = snap / base_snap
            status = "ok" if snap <= limit else "FAIL"
            print(f"{app:10s} snapshot_bytes={snap:12d}  "
                  f"baseline={base_snap:12d}  ratio={ratio:5.2f}  {status}")
            if snap > limit:
                failures.append(
                    f"{app}: snapshot_bytes {snap} exceeds baseline "
                    f"{base_snap} by {100 * (ratio - 1):.1f}% "
                    f"(> {100 * TOLERANCE:.0f}%)")

    if failures:
        print("\n" + "\n".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
