/**
 * @file
 * Shared infrastructure for the bench binaries.
 *
 * Each figure/table bench regenerates one table or figure of the
 * paper's evaluation. They share the experiment grid (same stimuli for
 * every algorithm, §5.1) and the BenchOptions flags; every other bench
 * declares its own Flags table. A bench's table is the one list of its
 * flags: `--help` prints it, and the parser enforces it. A missing,
 * malformed or out-of-range value, an unknown flag and an unknown name
 * each print one line to stderr and exit with status 2.
 *
 * Benches that write results build a Json document and hand it to
 * writeJson() or, for a dated trajectory, writeWithHistory().
 */

#ifndef NIMBLOCK_BENCH_COMMON_HH
#define NIMBLOCK_BENCH_COMMON_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "apps/registry.hh"
#include "core/experiment.hh"
#include "core/parallel.hh"
#include "sim/event_queue.hh"
#include "stats/csv.hh"
#include "workload/scenario.hh"

namespace nimblock {
namespace bench {

/** A flag whose value must be one of @p names ("unknown <what> ..."). */
struct Choice
{
    std::string *target;
    const char *what;
    std::vector<std::string> names;
};

/**
 * One row of a flag table: the flag, where its value goes, a one-line
 * help string and, for a numeric target, the smallest value accepted.
 * Numbers parse strictly (the whole token; no sign for an unsigned
 * target). A bool is set by the bare flag; a callback runs where the
 * flag appears, so a preset such as --quick is overridden by the flags
 * after it.
 */
struct Flag
{
    using Target = std::variant<int *, std::uint64_t *, double *,
                                std::string *, bool *, Choice,
                                std::function<void()>>;

    const char *name;
    Target target;
    const char *help;
    double min = -std::numeric_limits<double>::infinity();
};

/** A bench's flag table: the one list of the flags it accepts. */
using Flags = std::vector<Flag>;

/**
 * Parse argv into @p flags' targets. `--help` prints flagHelp() and
 * exits 0; bad input prints one line to stderr and exits 2.
 */
void parseFlags(int argc, char **argv, const Flags &flags);

/** The --help text: one line per flag, with its default and minimum. */
std::string flagHelp(const char *prog, const Flags &flags);

/** Parsed command-line options of the figure/table benches. */
struct BenchOptions
{
    int sequences = 10;
    int events = 20;
    std::uint64_t seed = 2023;
    /** Worker threads for experiment grids. */
    int jobs = static_cast<int>(defaultParallelism());
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

    /** Parse argv through the shared flag table (see parseFlags()). */
    static BenchOptions parse(int argc, char **argv);
};

/** The `--impl wheel|heap|auto` flag of the event-kernel benches. */
Flag queueImplFlag(std::string *target);

/** The EventQueueImpl a queueImplFlag() value names. */
EventQueueImpl queueImpl(const std::string &name);

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
        g.setJobs(static_cast<unsigned>(opts.jobs));
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
 * A JSON value built in memory and written in the benches' layout: a
 * container of scalars on one line, any other one child per line. A
 * double only enters through num(), with an explicit printf format, so
 * every field keeps its digits; a non-finite double is written as null.
 */
class Json
{
  public:
    static Json
    object(std::initializer_list<std::pair<std::string, Json>> members = {});
    static Json array() { return Json(Kind::Array); }

    /** @p v formatted with @p fmt, or null when it is not finite. */
    static Json num(double v, const char *fmt);

    Json(const char *s);
    Json(const std::string &s) : Json(s.c_str()) {}
    Json(bool b) : _text(b ? "true" : "false") {}
    template <typename T>
        requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
    Json(T v) : _text(std::to_string(v))
    {
    }
    Json(double) = delete; //!< A double needs a format: use num().

    Json &add(std::string key, Json v); //!< Append an object member.
    Json &push(Json v);                 //!< Append an array element.

    /** The serialized text, newline-terminated. */
    std::string dump() const;

  private:
    enum class Kind
    {
        Scalar,
        Object,
        Array,
    };

    explicit Json(Kind k) : _kind(k) {}
    void dumpTo(std::string &out, std::size_t indent) const;

    friend void writeWithHistory(const std::string &, Json, Json);

    Kind _kind = Kind::Scalar;
    std::string _text; //!< A scalar's serialized text.
    std::vector<std::string> _keys;
    std::vector<Json> _items;
};

/** Write @p doc to @p path; an unwritable path prints one line, exits 1. */
void writeJson(const std::string &path, const Json &doc);

/**
 * writeJson() @p doc plus a "history" array: the entries of @p path's
 * own history, carried over byte for byte, then @p entry with today's
 * "date" as its first member. Re-running a bench thus accumulates a
 * dated trajectory instead of overwriting it.
 */
void writeWithHistory(const std::string &path, Json doc, Json entry);

/** Short display names used in the paper's figures. */
std::string displayName(const std::string &scheduler);

} // namespace bench
} // namespace nimblock

#endif // NIMBLOCK_BENCH_COMMON_HH
