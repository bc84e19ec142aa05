/**
 * @file
 * Pipelined-kernel benchmark: scalar vs streaming-overlap execution.
 *
 * Sweeps the programmatic library apps (apps/library/) x every
 * scheduler in extendedSchedulers(), running each app twice per cell:
 * once as published (every task carries a KernelModel, so consecutive
 * batch items overlap inside a slot at the model's issue interval) and
 * once as its scalarClone() (same graph, same cold per-item latency,
 * models stripped — items run back-to-back). The pair isolates the
 * intra-slot overlap win from every other scheduling effect.
 *
 * Per (app, scheduler, mode) cell:
 *
 *   - mean response time and makespan,
 *   - items executed (identical across modes — the pipeline changes
 *     when work finishes, never how much work exists; the CI validator
 *     checks this closure),
 *   - the model's cold item latency and steady-state issue interval.
 *
 * Results are also written as BENCH_pipeline.json (override with
 * --json PATH) for the CI bench-smoke artifact and the committed
 * baseline guarded by scripts/check_bench_regression.py.
 *
 * `bench_pipeline --help` lists the flags; --app / --sched restrict the
 * sweep to one row/column.
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/library/library.hh"
#include "apps/registry.hh"
#include "common.hh"
#include "core/simulation.hh"
#include "metrics/analysis.hh"
#include "sched/factory.hh"
#include "sim/logging.hh"

namespace {

using namespace nimblock;

struct Options
{
    int events = 10;
    int batch = 6;
    int spacingMs = 600;
    std::uint64_t seed = 2023;
    std::string jsonPath = "BENCH_pipeline.json";
    std::string app;
    std::string sched;
};

/**
 * Same arrival pattern for both modes; only the app name differs.
 *
 * The default spacing (600 ms) keeps the fabric busy without drowning
 * it: under heavy queueing contention preemptive schedulers flush
 * pipelines at item boundaries and the two modes converge, which is a
 * real effect worth sweeping with --spacing-ms but a poor default for
 * a regression baseline that asserts the overlap win per cell.
 */
EventSequence
sequenceFor(const std::string &app_name, const Options &opts)
{
    EventSequence seq;
    seq.name = "pipeline-" + app_name;
    for (int i = 0; i < opts.events; ++i) {
        Priority prio = (i % 3 == 2) ? Priority::High : Priority::Medium;
        seq.events.push_back(WorkloadEvent{
            i, app_name, opts.batch, prio,
            simtime::ms(static_cast<std::int64_t>(opts.spacingMs) * i)});
    }
    return seq;
}

/**
 * Run @p app in @p mode ("pipelined" or "scalar", its scalarClone())
 * under @p sched, append the cell's JSON row to @p results and return
 * its mean response time.
 */
double
runCell(bench::Json &results, const AppRegistry &registry,
        const std::string &app, const std::string &sched,
        const std::string &mode, const Options &opts)
{
    using bench::Json;
    SystemConfig cfg;
    cfg.scheduler = sched;
    std::string run_app = mode == "scalar" ? app + "_scalar" : app;
    RunResult r = Simulation(cfg, registry).run(sequenceFor(run_app, opts));
    double mean = meanResponseSec(r.records);
    results.push(Json::object({
        {"app", app},
        {"scheduler", sched},
        {"mode", mode},
        {"mean_response_sec", Json::num(mean, "%.6f")},
        {"makespan_sec", Json::num(simtime::toSec(r.makespan), "%.6f")},
        {"items_executed", r.hypervisorStats.itemsExecuted},
        {"checkpoint_preemptions", r.hypervisorStats.checkpointPreemptions},
    }));
    return mean;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    std::vector<std::string> library_apps;
    for (const AppSpecPtr &spec : library::all())
        library_apps.push_back(spec->name());
    bench::parseFlags(argc, argv, {
        {"--events", &opts.events, "arrivals per cell", 1},
        {"--batch", &opts.batch,
         "items per arrival; one item never primes the pipeline", 2},
        {"--spacing-ms", &opts.spacingMs, "arrival spacing in ms", 0},
        {"--seed", &opts.seed, "recorded seed (the sweep is deterministic)"},
        {"--json", &opts.jsonPath, "results file"},
        {"--app", bench::Choice{&opts.app, "application", library_apps},
         "restrict the sweep to one library app"},
        {"--sched", bench::Choice{&opts.sched, "scheduler", schedulerNames()},
         "restrict the sweep to one scheduler"},
        {"--quick", [&opts] { opts.events = 5; opts.batch = 4; },
         "smoke size: 5 events of batch 4"},
    });
    setQuiet(true);

    // One registry with both members of every A/B pair, so a cell is
    // just a scheduler and an app name.
    AppRegistry registry = extendedRegistry();
    std::vector<AppSpecPtr> apps = library::all();
    for (const AppSpecPtr &spec : apps)
        registry.add(library::scalarClone(*spec));

    std::vector<std::string> schedulers = extendedSchedulers();
    if (!opts.sched.empty())
        schedulers = {opts.sched};

    std::printf("# bench_pipeline: %d events, batch %d, spacing %d ms, "
                "seed %llu\n",
                opts.events, opts.batch, opts.spacingMs,
                static_cast<unsigned long long>(opts.seed));
    std::printf("%-18s %-9s %10s %10s %8s\n", "app", "sched", "scalar_s",
                "piped_s", "speedup");

    bench::Json results = bench::Json::array();
    std::uint64_t runs = 0;
    for (const AppSpecPtr &spec : apps) {
        if (!opts.app.empty() && spec->name() != opts.app)
            continue;
        for (const std::string &sched : schedulers) {
            double scalar =
                runCell(results, registry, spec->name(), sched, "scalar", opts);
            double piped = runCell(results, registry, spec->name(), sched,
                                   "pipelined", opts);
            runs += 2;
            std::printf("%-18s %-9s %10.3f %10.3f %7.3fx\n",
                        spec->name().c_str(), sched.c_str(), scalar, piped,
                        piped > 0 ? scalar / piped : 0.0);
        }
    }

    bench::writeJson(opts.jsonPath,
                     bench::Json::object({{"bench", "pipeline"},
                                          {"events", opts.events},
                                          {"batch", opts.batch},
                                          {"spacing_ms", opts.spacingMs},
                                          {"seed", opts.seed},
                                          {"results", results}}));
    std::printf("# wrote %s (%llu runs)\n", opts.jsonPath.c_str(),
                static_cast<unsigned long long>(runs));
    return 0;
}
