#!/usr/bin/env python3
"""Check one bench output against its invariants.

    check_bench.py KIND PATH

KIND is one of: trace (PATH is a glob of trace_export files), chaos,
migration, energy, soak, pipeline (PATH is the bench's --json file) and
fig6-hdr (PATH is the captured stdout of bench_fig6_tail_response
--hdr). Each check asserts what the bench's output must satisfy at any
size and prints a one-line summary; a failed assert exits non-zero.

Only the standard library is used.
"""

import glob
import json
import re
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def check_trace(pattern):
    paths = sorted(glob.glob(pattern))
    assert paths, "trace_export produced no trace files"
    for path in paths:
        doc = load(path)
        assert doc["displayTimeUnit"] == "ms", path
        events = doc["traceEvents"]
        counts = {}
        for e in events:
            assert "name" in e and "ph" in e and "pid" in e, (path, e)
            if e["ph"] != "M":
                assert "ts" in e, (path, e)
            counts[e["ph"]] = counts.get(e["ph"], 0) + 1
        assert counts.get("B", 0) == counts.get("E", 0) > 0, (path, counts)
        assert counts.get("C", 0) > 0, (path, counts)
        print(f"{path}: {len(events)} events {counts}")


def check_chaos(path):
    doc = load(path)
    assert doc["bench"] == "chaos"
    assert len(doc["rates"]) >= 4, doc["rates"]
    results = doc["results"]
    schedulers = {r["scheduler"] for r in results}
    assert len(schedulers) == 6, schedulers
    assert "themis" in schedulers, schedulers
    for r in results:
        assert 0.0 <= r["goodput"] <= 1.0, r
        assert 0.0 <= r["sla_violation_rate"] <= 1.0, r
        assert r["degradation"] > 0.0, r
    print(f"{len(results)} points over {sorted(schedulers)}")


def check_migration(path):
    doc = load(path)
    assert doc["bench"] == "migration"
    results = doc["results"]
    by_cell = {}
    for r in results:
        assert r["retired"] == r["submitted"], r
        if r["rebalance"] == "off":
            assert r["migrations"] == 0, r
        else:
            assert r["migrations"] > 0, r
        by_cell[(r["scheduler"], r["scenario"], r["rebalance"])] = r
    pairs = {(s, sc) for s, sc, _ in by_cell}
    assert len(pairs) == 4, pairs
    # The rebalancer must beat dispatch-only tail latency in every
    # scenario: that is the subsystem's reason to exist.
    for s, sc in sorted(pairs):
        off = by_cell[(s, sc, "off")]["p99_sec"]
        ws = by_cell[(s, sc, "work_stealing")]["p99_sec"]
        assert ws < off, (s, sc, ws, off)
        print(f"{s}/{sc}: p99 {off:.2f}s -> {ws:.2f}s")


def check_energy(path):
    doc = load(path)
    assert doc["bench"] == "energy"
    results = doc["results"]
    fabrics = {r["fabric"] for r in results}
    workloads = {r["workload"] for r in results}
    schedulers = {r["scheduler"] for r in results}
    assert fabrics == {"uniform", "2class", "3class"}, fabrics
    assert workloads == {"balanced", "skewed"}, workloads
    assert schedulers == {"nimblock", "prema", "themis"}, schedulers
    assert len(results) == 18, len(results)
    for r in results:
        assert 0.0 < r["jain"] <= 1.0, r
        assert 0.0 <= r["max_min_share"] <= 1.0, r
        assert r["energy_per_app_joules"] > 0.0, r
        # Closure: attributed + idle static covers the run total
        # (the JSON rounds each term to four decimals).
        gap = abs(r["per_app_sum_joules"] + r["idle_static_joules"]
                  - r["total_joules"])
        assert gap < 1e-3, r
    # The fairness headline holds at smoke size on the 3-class
    # skewed cell (the full-size gate lives in BENCH_energy.json).
    cell = {r["scheduler"]: r for r in results
            if r["fabric"] == "3class" and r["workload"] == "skewed"}
    assert cell["themis"]["jain"] > cell["nimblock"]["jain"], cell
    assert (cell["themis"]["energy_per_app_joules"] <=
            2.0 * cell["nimblock"]["energy_per_app_joules"]), cell
    print(f"{len(results)} cells ok; 3class/skewed jain "
          f"themis {cell['themis']['jain']:.3f} vs "
          f"nimblock {cell['nimblock']['jain']:.3f}")


def check_soak(path):
    doc = load(path)
    assert doc["bench"] == "soak"
    cells = doc["cells"] + doc["admission"] + doc["headline"]
    assert len(doc["cells"]) == 6, len(doc["cells"])
    assert len(doc["admission"]) == 3, len(doc["admission"])
    for c in cells:
        # Accounting closes: every submission is admitted or shed,
        # and every admission retires after the drain.
        assert c["admitted"] + c["shed"] == c["submitted"], c
        assert c["retired"] == c["admitted"], c
        assert c["p50_ms"] <= c["p99_ms"] <= c["p999_ms"], c
        # No retirement is no data: null, never 1.0.
        if c["retired"] == 0:
            assert c["sla"] is None, c
        else:
            assert c["sla"] is not None and 0.0 <= c["sla"] <= 1.0, c
        # No completed SLA window is no data: null, never 1.0.
        worst = c["worst_window_sla"]
        if c["sla_windows_completed"] == 0:
            assert worst is None, c
        else:
            assert worst is not None and 0.0 <= worst <= 1.0, c
    by_label = {c["label"]: c for c in cells}
    # The queue-depth gate bounds the live set the uncontrolled
    # cell grows without limit.
    none = by_label["overload/none"]
    depth = by_label["overload/queue"]
    assert none["shed"] == 0, none
    assert depth["shed"] > 0, depth
    assert depth["peak_live"] < none["peak_live"], (depth, none)
    head = by_label["headline/24h"]
    assert head["window_events"] > 0, head
    assert head["window_allocs"] == 0, head
    rss = doc["rss_pair"]
    assert rss["long_horizon_sec"] > rss["short_horizon_sec"], rss
    # O(1) memory: a 10x longer horizon must not grow the process
    # materially (slack for allocator/page-cache noise).
    assert rss["long_peak_rss_mb"] <= rss["short_peak_rss_mb"] + 16, rss
    print(f"{len(cells)} cells ok; headline "
          f"{head['submitted_per_sec_wall']:.0f} inv/s, "
          f"{head['window_allocs']} allocs / "
          f"{head['window_events']} steady events")


def check_pipeline(path):
    doc = load(path)
    assert doc["bench"] == "pipeline"
    results = doc["results"]
    apps = {r["app"] for r in results}
    schedulers = {r["scheduler"] for r in results}
    assert apps == {"hash_tree", "video_transcode",
                    "transformer_block"}, apps
    assert len(schedulers) == 6, schedulers
    assert len(results) == 36, len(results)
    cells = {}
    for r in results:
        assert r["mean_response_sec"] > 0.0, r
        assert r["makespan_sec"] >= r["mean_response_sec"], r
        assert r["items_executed"] > 0, r
        cells[(r["app"], r["scheduler"], r["mode"])] = r
    for app in sorted(apps):
        for sched in sorted(schedulers):
            piped = cells[(app, sched, "pipelined")]
            scalar = cells[(app, sched, "scalar")]
            # Accounting closure: the pipeline changes when work
            # finishes, never how much work exists.
            assert (piped["items_executed"]
                    == scalar["items_executed"]), (app, sched)
            # The overlap win: pipelined response beats scalar in
            # every cell (deterministic run, cannot flake).
            assert (piped["mean_response_sec"]
                    < scalar["mean_response_sec"]), (app, sched)
            speedup = (scalar["mean_response_sec"]
                       / piped["mean_response_sec"])
            print(f"{app}/{sched}: {speedup:.3f}x")


def check_fig6_hdr(path):
    # The HDR estimator against exact order statistics on the paper
    # grid: the footer asserts nothing, so the bound is enforced here.
    text = open(path).read()
    m = re.search(r"hdr bucket error: worst ([0-9.]+)%", text)
    assert m, "missing hdr bucket error footer"
    assert float(m.group(1)) < 1.0, m.group(0)
    print(m.group(0))


CHECKS = {
    "trace": check_trace,
    "chaos": check_chaos,
    "migration": check_migration,
    "energy": check_energy,
    "soak": check_soak,
    "pipeline": check_pipeline,
    "fig6-hdr": check_fig6_hdr,
}


def main():
    if len(sys.argv) != 3 or sys.argv[1] not in CHECKS:
        sys.exit(f"usage: {sys.argv[0]} {{{'|'.join(CHECKS)}}} PATH")
    CHECKS[sys.argv[1]](sys.argv[2])


if __name__ == "__main__":
    main()
