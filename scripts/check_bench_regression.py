#!/usr/bin/env python3
"""Guard bench throughput against the committed baselines.

Compares a fresh CI bench run against the repository's committed
BENCH_innerloop.json (and, when --soak-baseline/--soak-current,
--energy-baseline/--energy-current or
--pipeline-baseline/--pipeline-current are given, BENCH_soak.json /
BENCH_energy.json / BENCH_pipeline.json). CI runners are shared, unpinned machines whose
absolute throughput swings easily by tens of percent, so the guard only
fails when a measured rate drops below baseline divided by the
tolerance factor (default 2x) — large enough to never flake, small
enough that a real algorithmic regression (accidental O(n) in the hot
loop, a lost fast path) still trips it.

The inner-loop baseline and current run must measure the same workload:
differing "events" or "seed" fails the guard, because throughput at a
different sequence size is not comparable.

Other sections absent from either document are skipped silently: baselines
predating a bench section, and runs invoked with flags that omit one,
must not fail the guard. Soak cells are compared on the intersection of
cell labels only — grids legitimately differ across quick/full modes
and flag overrides.

Only the standard library is used; exit status is non-zero on
regression or malformed input.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"error: cannot read {path}: {e}")


def index_schedulers(doc):
    return {r["name"]: r for r in doc.get("schedulers", [])}


def index_queue(doc):
    return {(q["impl"], q["depth"]): q for q in doc.get("queue", [])}


def index_soak_cells(doc):
    cells = {}
    for section in ("cells", "admission", "headline"):
        for c in doc.get(section, []):
            cells[(section, c["label"])] = c
    return cells


def check_soak(base, cur, tolerance, failures):
    """Intersection-only wall-throughput guard over soak cells, plus the
    zero-alloc steady-window invariant on the headline run."""
    base_cells = index_soak_cells(base)
    cur_cells = index_soak_cells(cur)
    shared = sorted(set(base_cells) & set(cur_cells))
    if not shared:
        print("soak: no shared cells between baseline and current; skipped")
        return
    print(f"\n{'soak cell':<28} {'baseline inv/s':>14} "
          f"{'current inv/s':>14} {'ratio':>7}")
    for key in shared:
        b = base_cells[key]["submitted_per_sec_wall"]
        c = cur_cells[key]["submitted_per_sec_wall"]
        verdict = "ok" if c * tolerance >= b else "REGRESSION"
        label = f"{key[0]}/{key[1]}"
        print(f"{label:<28} {b:>14,.0f} {c:>14,.0f} "
              f"{c / b if b else 0:>6.2f}x  {verdict}")
        if verdict != "ok":
            failures.append(
                f"soak {label}: {c:,.0f} inv/s is more than {tolerance:g}x "
                f"below baseline {b:,.0f} inv/s")
    for key in shared:
        # The steady window is only instrumented on the headline cell; a
        # baseline that counted zero allocations pins the invariant.
        b, c = base_cells[key], cur_cells[key]
        if b.get("window_events", 0) and c.get("window_events", 0):
            if b.get("window_allocs", 0) == 0 and c.get("window_allocs", 0):
                failures.append(
                    f"soak {key[0]}/{key[1]}: {c['window_allocs']} "
                    f"steady-window allocations (baseline has 0)")


def index_energy_cells(doc):
    return {(r["fabric"], r["workload"], r["scheduler"]): r
            for r in doc.get("results", [])}


def check_energy(base, cur, tolerance, failures):
    """Energy/fairness guard over the intersection of sweep cells: the
    per-retired-app energy must not inflate past tolerance, and Jain's
    index must not collapse below baseline divided by tolerance. The
    energy bench is deterministic (fixed seed), but quick and full modes
    run different event counts, so the guard is a ratio bound rather
    than an equality check."""
    base_cells = index_energy_cells(base)
    cur_cells = index_energy_cells(cur)
    shared = sorted(set(base_cells) & set(cur_cells))
    if not shared:
        print("energy: no shared cells between baseline and current; "
              "skipped")
        return
    print(f"\n{'energy cell':<28} {'base J/app':>10} {'cur J/app':>10} "
          f"{'base jain':>9} {'cur jain':>9}")
    for key in shared:
        b, c = base_cells[key], cur_cells[key]
        label = "/".join(key)
        bad = []
        if c["energy_per_app_joules"] > tolerance * b["energy_per_app_joules"]:
            bad.append(
                f"energy {label}: {c['energy_per_app_joules']:.2f} J/app "
                f"is more than {tolerance:g}x baseline "
                f"{b['energy_per_app_joules']:.2f} J/app")
        if c["jain"] * tolerance < b["jain"]:
            bad.append(
                f"energy {label}: jain {c['jain']:.3f} is more than "
                f"{tolerance:g}x below baseline {b['jain']:.3f}")
        verdict = "ok" if not bad else "REGRESSION"
        print(f"{label:<28} {b['energy_per_app_joules']:>10.2f} "
              f"{c['energy_per_app_joules']:>10.2f} {b['jain']:>9.3f} "
              f"{c['jain']:>9.3f}  {verdict}")
        failures.extend(bad)


def index_pipeline_cells(doc):
    return {(r["app"], r["scheduler"], r["mode"]): r
            for r in doc.get("results", [])}


def check_pipeline(base, cur, tolerance, failures):
    """Pipelined-kernel guard. Two layers:

    Cross-run, over the intersection of (app, scheduler, mode) cells,
    mean response must not inflate past tolerance x baseline. Response
    times are simulated (deterministic), but quick and full CI modes
    run different workload sizes under the same labels, so this is a
    ratio bound like the energy guard, not an equality check.

    Within the current run alone, two invariants hold at any workload
    size: the pipelined and scalar halves of a cell execute the same
    item count (the model changes when work finishes, never how much
    work exists), and pipelined mean response does not exceed scalar
    (intra-slot overlap can only help at the bench's default arrival
    spacing; the bench run is deterministic, so this cannot flake)."""
    base_cells = index_pipeline_cells(base)
    cur_cells = index_pipeline_cells(cur)
    shared = sorted(set(base_cells) & set(cur_cells))
    if not shared:
        print("pipeline: no shared cells between baseline and current; "
              "skipped")
    else:
        print(f"\n{'pipeline cell':<38} {'base resp s':>11} "
              f"{'cur resp s':>11}")
        for key in shared:
            b, c = base_cells[key], cur_cells[key]
            label = "/".join(key)
            bad = []
            if c["mean_response_sec"] > tolerance * b["mean_response_sec"]:
                bad.append(
                    f"pipeline {label}: {c['mean_response_sec']:.3f} s "
                    f"mean response is more than {tolerance:g}x baseline "
                    f"{b['mean_response_sec']:.3f} s")
            verdict = "ok" if not bad else "REGRESSION"
            print(f"{label:<38} {b['mean_response_sec']:>11.3f} "
                  f"{c['mean_response_sec']:>11.3f}  {verdict}")
            failures.extend(bad)

    pairs = {}
    for (app, sched, mode), r in cur_cells.items():
        pairs.setdefault((app, sched), {})[mode] = r
    for (app, sched), modes in sorted(pairs.items()):
        if "pipelined" not in modes or "scalar" not in modes:
            continue
        piped, scalar = modes["pipelined"], modes["scalar"]
        if piped["items_executed"] != scalar["items_executed"]:
            failures.append(
                f"pipeline {app}/{sched}: items diverge between modes "
                f"(pipelined {piped['items_executed']} vs scalar "
                f"{scalar['items_executed']}) — accounting closure broken")
        if piped["mean_response_sec"] > scalar["mean_response_sec"]:
            failures.append(
                f"pipeline {app}/{sched}: pipelined mean response "
                f"{piped['mean_response_sec']:.3f} s exceeds scalar "
                f"{scalar['mean_response_sec']:.3f} s — overlap win lost")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True,
                    help="committed BENCH_innerloop.json")
    ap.add_argument("--current", required=True,
                    help="freshly measured BENCH_innerloop.json")
    ap.add_argument("--tolerance", type=float, default=2.0,
                    help="allowed slowdown factor before failing "
                         "(default: 2.0)")
    ap.add_argument("--soak-baseline",
                    help="committed BENCH_soak.json (optional)")
    ap.add_argument("--soak-current",
                    help="freshly measured BENCH_soak.json (optional)")
    ap.add_argument("--energy-baseline",
                    help="committed BENCH_energy.json (optional)")
    ap.add_argument("--energy-current",
                    help="freshly measured BENCH_energy.json (optional)")
    ap.add_argument("--pipeline-baseline",
                    help="committed BENCH_pipeline.json (optional)")
    ap.add_argument("--pipeline-current",
                    help="freshly measured BENCH_pipeline.json (optional)")
    args = ap.parse_args()
    if args.tolerance < 1.0:
        sys.exit("error: --tolerance must be >= 1.0")
    if bool(args.soak_baseline) != bool(args.soak_current):
        sys.exit("error: --soak-baseline and --soak-current go together")
    if bool(args.energy_baseline) != bool(args.energy_current):
        sys.exit("error: --energy-baseline and --energy-current "
                 "go together")
    if bool(args.pipeline_baseline) != bool(args.pipeline_current):
        sys.exit("error: --pipeline-baseline and --pipeline-current "
                 "go together")

    base = load(args.baseline)
    cur = load(args.current)

    failures = []

    for key in ("events", "seed"):
        if base.get(key) != cur.get(key):
            failures.append(
                f"inner-loop {key} differ: baseline {base.get(key)} vs "
                f"current {cur.get(key)}; rerun bench_sim_innerloop with "
                f"--events {base.get('events')} --seed {base.get('seed')}")

    base_sched = index_schedulers(base)
    cur_sched = index_schedulers(cur)
    missing = sorted(set(base_sched) - set(cur_sched))
    if missing:
        failures.append(f"schedulers missing from current run: {missing}")

    print(f"{'scheduler':<12} {'baseline ev/s':>14} {'current ev/s':>14} "
          f"{'ratio':>7}  floor=baseline/{args.tolerance:g}")
    for name in base_sched:
        if name not in cur_sched:
            continue
        b = base_sched[name]["events_per_sec"]
        c = cur_sched[name]["events_per_sec"]
        ratio = c / b if b else float("inf")
        verdict = "ok" if c * args.tolerance >= b else "REGRESSION"
        print(f"{name:<12} {b:>14,.0f} {c:>14,.0f} {ratio:>6.2f}x  {verdict}")
        if verdict != "ok":
            failures.append(
                f"{name}: {c:,.0f} ev/s is more than {args.tolerance:g}x "
                f"below baseline {b:,.0f} ev/s")

    # The hold-model sweep gets the same guard, keyed by (impl, depth);
    # older baselines without a queue section are skipped silently.
    base_q = index_queue(base)
    cur_q = index_queue(cur)
    for key in sorted(base_q):
        if key not in cur_q:
            failures.append(f"queue point {key} missing from current run")
            continue
        b = base_q[key]["ops_per_sec"]
        c = cur_q[key]["ops_per_sec"]
        verdict = "ok" if c * args.tolerance >= b else "REGRESSION"
        print(f"queue {key[0]:>6}@{key[1]:<8} {b:>11,.0f} {c:>14,.0f} "
              f"{c / b if b else 0:>6.2f}x  {verdict}")
        if verdict != "ok":
            failures.append(
                f"queue {key}: {c:,.0f} ops/s is more than "
                f"{args.tolerance:g}x below baseline {b:,.0f} ops/s")

    if args.soak_baseline:
        check_soak(load(args.soak_baseline), load(args.soak_current),
                   args.tolerance, failures)

    if args.energy_baseline:
        check_energy(load(args.energy_baseline), load(args.energy_current),
                     args.tolerance, failures)

    if args.pipeline_baseline:
        check_pipeline(load(args.pipeline_baseline),
                       load(args.pipeline_current), args.tolerance,
                       failures)

    if failures:
        print("\nFAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nall points within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
