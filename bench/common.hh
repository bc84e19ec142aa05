/**
 * @file
 * Shared infrastructure for the table/figure reproduction benches.
 *
 * Each bench binary regenerates one table or figure of the paper's
 * evaluation. They share the experiment grid (same stimuli for every
 * algorithm, §5.1) and a small command-line surface:
 *
 *   --sequences N   sequences per scenario      (default 10, paper: 10)
 *   --events N      events per sequence         (default 20, paper: 20)
 *   --seed S        workload master seed        (default 2023)
 *   --jobs N        worker threads for the grid (default: all cores)
 *   --quick         3 sequences x 10 events, for smoke runs
 *   --csv PATH      also dump the figure's data as CSV
 *   --trace PATH    export per-scheduler Perfetto traces of one stress
 *                   sequence (PATH gets the scheduler name appended)
 *   --dispatch P    pin the cluster dispatch policy in scale-out benches
 *                   (round_robin | least_apps | least_loaded)
 *   --sched S       restrict the bench to one scheduler column (any
 *                   sched/factory.hh name); unknown names print the
 *                   valid list and exit with a usage error
 *
 * An unknown flag prints it and exits with status 2 (usageErrorFlag).
 */

#ifndef NIMBLOCK_BENCH_COMMON_HH
#define NIMBLOCK_BENCH_COMMON_HH

#include <map>
#include <string>
#include <vector>

#include "apps/registry.hh"
#include "core/experiment.hh"
#include "stats/csv.hh"
#include "workload/scenario.hh"

namespace nimblock {
namespace bench {

/** Parsed command-line options. */
struct BenchOptions
{
    int sequences = 10;
    int events = 20;
    std::uint64_t seed = 2023;
    /** Worker threads for experiment grids; 0 = hardware concurrency. */
    unsigned jobs = 0;
    std::string csvPath;
    std::string tracePath;

    /**
     * Cluster dispatch policy name for scale-out benches; empty means
     * each bench's default sweep. Unknown names exit with usage error.
     */
    std::string dispatch;

    /**
     * Restrict the bench to one scheduler column; empty means the
     * bench's default set. Unknown names exit with usage error.
     */
    std::string sched;

    /**
     * Tail percentiles from the bounded HdrHistogram instead of exact
     * per-sample order statistics (bench_fig6): the soak-path estimator
     * exercised on the paper grids, where the exact answer exists to
     * cross-check it.
     */
    bool hdrTail = false;

    /** Parse argv; unknown flags are usage errors (exit 2). */
    static BenchOptions parse(int argc, char **argv);

    /** jobs with 0 resolved to the actual hardware default. */
    unsigned effectiveJobs() const;
};

/** A ready-to-run experiment environment. */
struct BenchEnv
{
    BenchOptions opts;
    AppRegistry registry;
    SystemConfig config;

    explicit BenchEnv(const BenchOptions &o);

    /** Sequences for @p scenario (seeded from opts.seed and the name). */
    std::vector<EventSequence> sequences(Scenario scenario,
                                         int fixed_batch = 0) const;

    /** Grid bound to this environment's config/registry/jobs. */
    ExperimentGrid
    grid() const
    {
        ExperimentGrid g{config, registry};
        g.setJobs(opts.jobs);
        return g;
    }
};

/**
 * Print a standard bench header and start the wall-clock timer read by
 * printFooter().
 */
void printHeader(const std::string &what, const BenchOptions &opts);

/**
 * Print the standard bench footer: wall-clock since printHeader() and,
 * when @p totalRuns is nonzero, the grid throughput in runs/sec.
 *
 * @param totalRuns Number of (scheduler x sequence) simulations executed.
 */
void printFooter(std::uint64_t totalRuns);

/** Write @p csv to opts.csvPath when set. */
void maybeWriteCsv(const BenchOptions &opts, const CsvWriter &csv);

/**
 * When --trace PATH was given, re-run one stress sequence per scheduler in
 * @p algos with the timeline and counter registry enabled and export each
 * run as a Chrome trace-event JSON ("out.json" becomes
 * "out_nimblock.json" etc.) loadable in Perfetto.
 */
void maybeWriteTraces(const BenchOptions &opts, const BenchEnv &env,
                      const std::vector<std::string> &algos);

/**
 * The bench's scheduler columns: @p defaults, or the single --sched
 * selection when given.
 */
std::vector<std::string> schedulerSet(const BenchOptions &opts,
                                      std::vector<std::string> defaults);

/**
 * Print "unknown <what> '<got>'; valid: name1, name2, ..." to stderr and
 * exit(2): the usage-error path for flags taking a name from a closed
 * set. Benches are command-line tools — a typo'd name should produce the
 * valid list and a usage exit code, not a fatal() backtrace.
 */
[[noreturn]] void usageErrorNames(const char *what, const std::string &got,
                                  const std::vector<std::string> &valid);

/**
 * Print "unknown flag '<flag>'" to stderr and exit(2): the usage-error
 * path every bench's argument parser takes for a flag it does not know.
 */
[[noreturn]] void usageErrorFlag(const std::string &flag);

/** Short display names used in the paper's figures. */
std::string displayName(const std::string &scheduler);

} // namespace bench
} // namespace nimblock

#endif // NIMBLOCK_BENCH_COMMON_HH
