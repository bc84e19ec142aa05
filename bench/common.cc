#include "common.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "cluster/cluster.hh"
#include "core/parallel.hh"
#include "core/simulation.hh"
#include "metrics/trace_export.hh"
#include "sched/factory.hh"
#include "sim/logging.hh"
#include "workload/generator.hh"

namespace nimblock {
namespace bench {

namespace {
/** Wall-clock anchor set by printHeader() and read by printFooter(). */
std::chrono::steady_clock::time_point gBenchStart;
} // namespace

void
usageErrorNames(const char *what, const std::string &got,
                const std::vector<std::string> &valid)
{
    std::fprintf(stderr, "unknown %s '%s'; valid: ", what, got.c_str());
    for (std::size_t i = 0; i < valid.size(); ++i)
        std::fprintf(stderr, "%s%s", i ? ", " : "", valid[i].c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

void
usageErrorFlag(const std::string &flag)
{
    std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
    std::exit(2);
}

BenchOptions
BenchOptions::parse(int argc, char **argv)
{
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("flag %s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--sequences") {
            opts.sequences = std::atoi(next());
        } else if (arg == "--events") {
            opts.events = std::atoi(next());
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--jobs") {
            int jobs = std::atoi(next());
            if (jobs < 1)
                fatal("--jobs must be at least 1");
            opts.jobs = static_cast<unsigned>(jobs);
        } else if (arg == "--quick") {
            opts.sequences = 3;
            opts.events = 10;
        } else if (arg == "--csv") {
            opts.csvPath = next();
        } else if (arg == "--trace") {
            opts.tracePath = next();
        } else if (arg == "--dispatch") {
            opts.dispatch = next();
            DispatchPolicy p;
            if (!tryParseDispatchPolicy(opts.dispatch.c_str(), p))
                usageErrorNames("dispatch policy", opts.dispatch,
                                dispatchPolicyNames());
        } else if (arg == "--sched") {
            opts.sched = next();
            if (!tryMakeScheduler(opts.sched))
                usageErrorNames("scheduler", opts.sched, schedulerNames());
        } else if (arg == "--hdr") {
            opts.hdrTail = true;
        } else if (arg == "--help" || arg == "-h") {
            std::printf("flags: --sequences N --events N --seed S --jobs N "
                        "--quick --csv PATH --trace PATH --dispatch P "
                        "--sched S --hdr\n");
            std::exit(0);
        } else {
            usageErrorFlag(arg);
        }
    }
    if (opts.sequences < 1 || opts.events < 1)
        fatal("--sequences and --events must be positive");
    return opts;
}

unsigned
BenchOptions::effectiveJobs() const
{
    return jobs == 0 ? defaultParallelism() : jobs;
}

BenchEnv::BenchEnv(const BenchOptions &o)
    : opts(o), registry(standardRegistry())
{
    setQuiet(true);
}

std::vector<EventSequence>
BenchEnv::sequences(Scenario scenario, int fixed_batch) const
{
    GeneratorConfig gen =
        scenarioConfig(scenario, registry.names(), fixed_batch);
    gen.numEvents = opts.events;
    Rng rng(opts.seed);
    std::string prefix = toString(scenario);
    if (fixed_batch > 0)
        prefix += formatMessage("_b%d", fixed_batch);
    return generateSequences(prefix, opts.sequences, gen, rng);
}

void
printHeader(const std::string &what, const BenchOptions &opts)
{
    gBenchStart = std::chrono::steady_clock::now();
    std::printf("== %s ==\n", what.c_str());
    std::printf("stimuli: %d sequences x %d events, seed %llu, %u job%s\n\n",
                opts.sequences, opts.events,
                static_cast<unsigned long long>(opts.seed),
                opts.effectiveJobs(),
                opts.effectiveJobs() == 1 ? "" : "s");
}

void
printFooter(std::uint64_t totalRuns)
{
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - gBenchStart;
    double sec = elapsed.count();
    if (totalRuns > 0 && sec > 0) {
        std::printf("\nwall-clock: %.2fs (%llu runs, %.1f runs/sec)\n", sec,
                    static_cast<unsigned long long>(totalRuns),
                    static_cast<double>(totalRuns) / sec);
    } else {
        std::printf("\nwall-clock: %.2fs\n", sec);
    }
}

void
maybeWriteCsv(const BenchOptions &opts, const CsvWriter &csv)
{
    if (opts.csvPath.empty())
        return;
    if (csv.writeFile(opts.csvPath))
        std::printf("\ncsv written to %s\n", opts.csvPath.c_str());
    else
        std::printf("\nfailed to write csv to %s\n", opts.csvPath.c_str());
}

void
maybeWriteTraces(const BenchOptions &opts, const BenchEnv &env,
                 const std::vector<std::string> &algos)
{
    if (opts.tracePath.empty())
        return;

    // "dir/out.json" -> "dir/out_<scheduler>.json".
    std::string stem = opts.tracePath;
    std::string ext;
    std::size_t dot = stem.find_last_of('.');
    std::size_t slash = stem.find_last_of("/\\");
    if (dot != std::string::npos &&
        (slash == std::string::npos || dot > slash)) {
        ext = stem.substr(dot);
        stem.resize(dot);
    }

    EventSequence seq = env.sequences(Scenario::Stress).front();
    for (const std::string &algo : algos) {
        SystemConfig cfg = env.config;
        cfg.scheduler = algo;
        cfg.recordTimeline = true;
        cfg.hypervisor.recordCounters = true;
        RunResult result = Simulation(cfg, env.registry).run(seq);

        TraceExportOptions topts;
        topts.numSlots = cfg.fabric.numSlots;
        TraceExporter exporter(topts);
        std::string path = stem + "_" + algo + ext;
        if (exporter.writeFile(path, *result.timeline,
                               result.counters.get())) {
            std::printf("trace written to %s\n", path.c_str());
        } else {
            std::printf("failed to write trace to %s\n", path.c_str());
        }
    }
}

std::vector<std::string>
schedulerSet(const BenchOptions &opts, std::vector<std::string> defaults)
{
    if (!opts.sched.empty())
        return {opts.sched};
    return defaults;
}

std::string
displayName(const std::string &scheduler)
{
    if (scheduler == "baseline")
        return "Baseline";
    if (scheduler == "fcfs")
        return "FCFS";
    if (scheduler == "prema")
        return "PREMA";
    if (scheduler == "rr")
        return "RR";
    if (scheduler == "nimblock")
        return "Nimblock";
    if (scheduler == "nimblock_nopreempt")
        return "NimblockNoPreempt";
    if (scheduler == "nimblock_nopipe")
        return "NimblockNoPipe";
    if (scheduler == "nimblock_nopreempt_nopipe")
        return "NimblockNoPreemptNoPipe";
    return scheduler;
}

} // namespace bench
} // namespace nimblock
