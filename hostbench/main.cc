/**
 * @file
 * Host-time benchmark driver.
 *
 *   hostbench --workload W [--seed N] [--seconds S] [--trace 0|1]
 *             [--calibrate-pass-ns NS] [--spans PATH]
 *
 * --trace 0 repeats the workload untraced for about --seconds (at least
 * twice) and reports the end-to-end metrics; --trace 1 alternates
 * untraced and traced repetitions and reports the per-layer metrics;
 * --calibrate-pass-ns alternates a plain repetition with one that
 * busy-waits NS after every scheduler-pass step and compares the
 * slowdown with its prediction.
 * Every mode checks the simulated outputs and prints one JSON object as
 * its last line. A traced run whose spans account for less than
 * kMinAccounted of the traced wall, or a calibration that misses its
 * prediction by more than kCalibrationBound, is reported as not correct.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "workloads.hh"

using namespace hostbench;

namespace {

/** Least share of the traced wall the layer spans must account for. */
constexpr double kMinAccounted = 0.9;

/** Largest |delayed / predicted - 1| a calibration may show: the bound
    BENCHMARK.json gives host_apps_per_s. */
constexpr double kCalibrationBound = 0.25;

/** Shortest batch of back-to-back set-ups that gives one sample. */
constexpr std::int64_t kSetupBatchNs = 100'000'000;

/** Unit times reserved before the first repetition: recording a unit must
    not allocate inside a simulation, where a growing vector fragmented
    soak_steady's heap and added up to 0.7 MB to its peak RSS. */
constexpr std::size_t kMaxUnits = 4096;

/** --seconds ceiling: a run must end well inside run.py's timeout. */
constexpr long long kMaxSeconds = 120;

struct Options
{
    std::string workload;
    std::uint64_t seed = 2023;
    int seconds = 10;
    int trace = 0;
    std::int64_t calibrateNs = 0;
    std::string spans;
};

void
usage(FILE *f)
{
    std::fprintf(f,
                 "usage: hostbench --workload W [--seed N] [--seconds S] "
                 "[--trace 0|1]\n"
                 "                 [--calibrate-pass-ns NS] [--spans PATH]\n"
                 "workloads:");
    for (const std::string &w : workloadNames())
        std::fprintf(f, " %s", w.c_str());
    std::fprintf(f, "\n");
}

bool
parseInt(const char *s, long long lo, long long hi, long long &out)
{
    char *end = nullptr;
    long long v = std::strtoll(s, &end, 10);
    if (!*s || *end || v < lo || v > hi)
        return false;
    out = v;
    return true;
}

/** False on any malformed flag (the caller prints usage, exits 2). */
bool
parseOptions(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return false;
        const char *val = argv[++i];
        long long v = 0;
        if (arg == "--workload")
            o.workload = val;
        else if (arg == "--seed" && parseInt(val, 0, 1LL << 62, v))
            o.seed = static_cast<std::uint64_t>(v);
        else if (arg == "--seconds" && parseInt(val, 1, kMaxSeconds, v))
            o.seconds = static_cast<int>(v);
        else if (arg == "--trace" && parseInt(val, 0, 1, v))
            o.trace = static_cast<int>(v);
        else if (arg == "--calibrate-pass-ns" &&
                 parseInt(val, 1, 1000000000, v))
            o.calibrateNs = v;
        else if (arg == "--spans")
            o.spans = val;
        else
            return false;
    }
    return makeWorkload(o.workload) != nullptr &&
           !(o.trace && o.calibrateNs);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
sum(const std::vector<double> &v)
{
    double t = 0;
    for (double x : v)
        t += x;
    return t;
}

/**
 * Each unit's fastest host time over the repetitions. The host only ever
 * slows a unit down (its speed sags for seconds at a time while other
 * tenants load it), and every repetition repeats the same simulation, so
 * the fastest repetition of a unit is its cost.
 */
struct BestUnits
{
    std::vector<double> t;

    void
    add(const std::vector<double> &units)
    {
        if (t.empty())
            t = units;
        for (std::size_t i = 0; i < units.size() && i < t.size(); ++i)
            t[i] = std::min(t[i], units[i]);
    }

    double total() const { return sum(t); }
};

/** Peak resident set (VmHWM) of this process in MiB. */
double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

/** The per-layer metric set, in BENCHMARK.json order. */
std::vector<Metric>
perLayerMetrics()
{
    std::vector<Metric> m = {
        {"sched.pass_ns", "ns"},
        {"sched.pass_share", "ratio"},
        {"sched.passes", "count"},
        {"sched.passes_elided", "count"},
        {"sched.configures_per_pass", "ratio"},
    };
    std::vector<std::string> cells = {""};
    for (const char *s : {"fcfs", "rr", "prema", "nimblock"})
        cells.push_back(std::string(s) + ".");
    for (const std::string &cell : cells) {
        for (std::size_t b = 0; b < LiveBuckets::kBuckets; ++b) {
            m.push_back({"sched.pass_step_us." + cell + LiveBuckets::label(b),
                         "us"});
        }
    }
    std::vector<Metric> rest = {
        {"hypervisor.configure_ns", "ns"},
        {"hypervisor.configure_reject_ratio", "ratio"},
        {"hypervisor.estimate_calls", "count"},
        {"hypervisor.estimate_share", "ratio"},
        {"hypervisor.preempts", "count"},
        {"hypervisor.submit_ns", "ns"},
        {"hypervisor.peak_live", "count"},
        {"hypervisor.arrival_step_ns", "ns"},
        {"hypervisor.arrival_share", "ratio"},
        {"hypervisor.retire_step_ns", "ns"},
        {"hypervisor.retire_share", "ratio"},
        {"faas.arrival_step_ns", "ns"},
        {"faas.arrival_share", "ratio"},
        {"faas.retire_step_ns", "ns"},
        {"faas.retire_share", "ratio"},
        {"faas.shed_ratio", "ratio"},
        {"sim.events", "count"},
        {"sim.step_ns_per_event", "ns"},
        {"sim.other_step_share", "ratio"},
        {"fabric.reconfig_skip_ratio", "ratio"},
        {"fabric.bitstream_hit_ratio", "ratio"},
        {"core.ctx_warm_s", "s"},
        {"core.run_ms_p50", "ms"},
        {"core.run_ms_p90", "ms"},
        {"core.run_setup_share", "ratio"},
        {"metrics.analysis_ms", "ms"},
        {"cluster.migrations", "count"},
        {"cluster.migrations_aborted", "count"},
        {"cluster.moved_mb", "MB"},
        {"cluster.migration_step_share", "ratio"},
        {"resilience.fault_retries", "count"},
        {"resilience.quarantines", "count"},
        {"resilience.apps_failed", "count"},
        {"trace.overhead_ratio", "ratio"},
        {"trace.accounted_share", "ratio"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

/** Running verdict of the invocation. */
struct Verdict
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool haveRef = false;
    Outcome ref;

    /** Account one repetition; false when its outputs are wrong. */
    bool
    add(const Outcome &out, const char *path)
    {
        attempted += out.offered;
        failed += out.failed;
        std::string why = out.check;
        if (why.empty() && haveRef && !out.sameSimulation(ref))
            why = std::string("the ") + path +
                  " path changed the simulated outputs";
        if (!haveRef) {
            ref = out;
            haveRef = true;
        }
        if (why.empty())
            return true;
        std::fprintf(stderr, "hostbench: output check failed: %s\n",
                     why.c_str());
        correct = false;
        failed += out.offered - out.failed;
        return false;
    }

    void
    abort(const std::exception &e)
    {
        std::fprintf(stderr, "hostbench: run aborted: %s\n", e.what());
        correct = false;
        std::uint64_t ops = haveRef ? ref.offered : 1;
        attempted += ops;
        failed += ops;
    }
};

void
printResult(const Verdict &v, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                v.correct ? "true" : "false",
                static_cast<unsigned long long>(v.attempted),
                static_cast<unsigned long long>(v.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

/**
 * Host seconds of the fastest w.setup() in a batch of back-to-back
 * set-ups lasting at least kSetupBatchNs: as with BestUnits, the host
 * only slows a set-up down, and a single set-up of a few ms would mostly
 * measure the host's speed at that instant. run() uses the last inputs,
 * which every call rebuilds identically.
 */
double
setupSample(Workload &w, std::uint64_t seed)
{
    std::int64_t t0 = nowNs(), t1 = t0, best = INT64_MAX;
    do {
        std::int64_t s0 = t1;
        w.setup(seed);
        t1 = nowNs();
        best = std::min(best, t1 - s0);
    } while (t1 - t0 < kSetupBatchNs);
    return best / 1e9;
}

class Clock
{
  public:
    Clock() : _t0(nowNs()) {}
    double elapsed() const { return (nowNs() - _t0) / 1e9; }

    /** True while another repetition is due: the first @p min always,
        then as long as one more of the mean length so far still ends
        within @p seconds. */
    bool
    another(std::size_t done, std::size_t min, int seconds) const
    {
        if (done < min)
            return true;
        return elapsed() * static_cast<double>(done + 1) / done <= seconds;
    }

  private:
    std::int64_t _t0;
};

int
endToEnd(Workload &w, const Options &o)
{
    Clock clock;
    // One set-up sample after each repetition, so the set-up median spans
    // the same host speed phases as the repetitions and every sample sees
    // the allocator as a repetition leaves it: before the first one, the
    // heap is still growing and page faults made set-up up to 1.7x slower.
    w.setup(o.seed);
    std::vector<double> setup;
    Verdict v;
    std::vector<double> rates, units;
    units.reserve(kMaxUnits);
    BestUnits best;
    while (clock.another(rates.size(), 2, o.seconds)) {
        Outcome out;
        try {
            out = w.run(nullptr, units);
        } catch (const std::exception &e) {
            v.abort(e);
            break;
        }
        if (!v.add(out, "repeated"))
            break;
        best.add(units);
        double timed = sum(units);
        rates.push_back(static_cast<double>(out.finals()) / timed);
        std::printf("rep %zu: %llu apps in %.4f s host = %.1f apps/s\n",
                    rates.size(),
                    static_cast<unsigned long long>(out.finals()), timed,
                    rates.back());
        setup.push_back(setupSample(w, o.seed));
    }

    // All six end-to-end figures are printed; the JSON result carries the
    // four whose seed-to-seed spread stays inside a 0.25 bound.
    const Outcome &r = v.ref;
    double sla = r.offered ? static_cast<double>(r.slaMet) / r.offered : 0.0;
    double bestRate = rates.empty() ? 0 : r.finals() / best.total();
    std::vector<Metric> m = {
        {"host_apps_per_s", "apps/s", bestRate},
        {"setup_s", "s", median(setup)},
        {"peak_rss_mb", "MB", peakRssMb()},
        {"sim_sla_attain", "ratio", sla},
    };
    std::vector<Metric> shown = m;
    shown.insert(shown.begin() + 3, {{"sim_resp_p50_ms", "ms", r.p50Ms},
                                     {"sim_resp_p99_ms", "ms", r.p99Ms}});
    for (const Metric &x : shown) {
        std::printf("%-18s %14.6g %-7s [%s]\n", x.name.c_str(), x.value,
                    x.unit.c_str(), x.name.rfind("sim_", 0) ? "host" : "sim");
    }
    std::printf("# host_apps_per_s: apps / sum over %zu units of each "
                "unit's fastest of %zu reps (median rep: %.6g apps/s); "
                "setup_s: median of %zu batches of set-ups\n",
                best.t.size(), rates.size(), median(rates), setup.size());
    std::printf("# sim: %llu offered, %llu completed, %llu shed, %llu "
                "failed, %llu SLA met; p99 over %llu samples, %llu beyond\n",
                static_cast<unsigned long long>(r.offered),
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.shed),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.slaMet),
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.beyondP99));
    std::printf("# digest %016llx\n",
                static_cast<unsigned long long>(r.digest));
    if (rates.empty())
        v.correct = false;
    printResult(v, m);
    return 0;
}

int
traced(Workload &w, const Options &o)
{
    Clock clock;
    w.setup(o.seed);
    Verdict v;
    std::vector<double> plain, tracedS;
    std::map<std::string, std::vector<double>> layers;
    Tracer last;
    while (clock.another(plain.size(), 2, o.seconds)) {
        std::vector<double> tu, tt;
        Tracer tracer;
        LayerData ld;
        Probe probe{&tracer, &ld};
        try {
            if (!v.add(w.run(nullptr, tu), "untraced"))
                break;
            Outcome out = w.run(&probe, tt);
            tracer.stop();
            if (!v.add(out, "traced"))
                break;
        } catch (const std::exception &e) {
            v.abort(e);
            break;
        }
        plain.push_back(sum(tu));
        tracedS.push_back(sum(tt));
        for (const auto &[name, value] : layerMetrics(w, ld, tracer))
            layers[name].push_back(value);
        last = std::move(tracer);
    }

    std::vector<Metric> m = perLayerMetrics();
    for (const auto &[name, values] : layers) {
        auto it = std::find_if(m.begin(), m.end(),
                               [&](const Metric &x) { return x.name == name; });
        if (it == m.end()) {
            std::fprintf(stderr, "hostbench: undeclared metric %s\n",
                         name.c_str());
            v.correct = false;
            continue;
        }
        it->value = median(values);
    }
    for (Metric &x : m) {
        if (x.name == "trace.overhead_ratio" && !plain.empty())
            x.value = median(tracedS) / median(plain);
        std::printf("%-36s %14.6g %s\n", x.name.c_str(), x.value,
                    x.unit.c_str());
    }
    auto accounted = layers.find("trace.accounted_share");
    if (accounted != layers.end() &&
        median(accounted->second) < kMinAccounted) {
        std::fprintf(stderr,
                     "hostbench: spans account for %.3f of the traced wall, "
                     "below %.2f\n",
                     median(accounted->second), kMinAccounted);
        v.correct = false;
    }
    std::printf("# medians over %zu traced reps; %llu spans, %zu kept\n",
                tracedS.size(),
                static_cast<unsigned long long>(last.spans()),
                last.retained());
    std::printf("# self time by span (last traced rep, ms):");
    for (std::size_t s = 0; s < Tracer::kNames; ++s) {
        auto span = static_cast<Span>(s);
        if (last.count(span)) {
            std::printf(" %s=%.1f", spanName(span), last.selfNs(span) / 1e6);
        }
    }
    std::printf("\n");
    if (!o.spans.empty() && !last.writeTsv(o.spans))
        std::fprintf(stderr, "hostbench: cannot write %s\n", o.spans.c_str());
    printResult(v, m);
    return 0;
}

int
calibrate(Workload &w, const Options &o)
{
    Clock clock;
    w.setup(o.seed);
    Verdict v;
    BestUnits base, delayed;
    std::int64_t injectedNs = INT64_MAX;
    std::uint64_t passSteps = 0;
    std::size_t reps = 0;
    while (clock.another(reps, 2, o.seconds)) {
        std::vector<double> u0, u1;
        Probe plain;
        Probe slow;
        slow.passDelayNs = o.calibrateNs;
        try {
            Outcome a = w.run(&plain, u0);
            Outcome b = w.run(&slow, u1);
            if (!v.add(a, "probed") || !v.add(b, "delayed"))
                break;
        } catch (const std::exception &e) {
            v.abort(e);
            break;
        }
        ++reps;
        passSteps = slow.passSteps;
        base.add(u0);
        delayed.add(u1);
        injectedNs = std::min(injectedNs, slow.injectedNs);
    }
    double b = 1, d = 1, p = 1;
    if (reps == 0) {
        v.correct = false;
    } else {
        double apps = static_cast<double>(v.ref.finals());
        b = apps / base.total();
        d = apps / delayed.total();
        p = apps / (base.total() + injectedNs / 1e9);
    }
    if (std::abs(d / p - 1) > kCalibrationBound) {
        std::fprintf(stderr,
                     "hostbench: delayed rate misses its prediction by "
                     "more than %.2f\n",
                     kCalibrationBound);
        v.correct = false;
    }
    std::printf("# %llu pass steps x %lld ns per rep; rates from each "
                "unit's fastest rep; prediction adds the least measured "
                "busy-wait time of a rep\n",
                static_cast<unsigned long long>(passSteps),
                static_cast<long long>(o.calibrateNs));
    std::printf("host_apps_per_s base %.1f, delayed %.1f, predicted %.1f\n",
                b, d, p);
    std::printf("drop measured %.4f, predicted %.4f; delayed/predicted - 1 "
                "= %+.4f\n",
                1 - d / b, 1 - p / b, d / p - 1);
    printResult(v, {{"host_apps_per_s", "apps/s", d},
                    {"host_apps_per_s_base", "apps/s", b},
                    {"host_apps_per_s_predicted", "apps/s", p},
                    {"pass_steps", "count", static_cast<double>(passSteps)},
                    {"calibration_error", "ratio", d / p - 1}});
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (argc == 2 && std::string(argv[1]) == "--help") {
        usage(stdout);
        return 0;
    }
    if (!parseOptions(argc, argv, o)) {
        usage(stderr);
        return 2;
    }
    nimblock::setQuiet(true);
    std::printf("# hostbench %s seed %llu seconds %d trace %d\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace);
    try {
        std::unique_ptr<Workload> w = makeWorkload(o.workload);
        if (o.calibrateNs)
            return calibrate(*w, o);
        return o.trace ? traced(*w, o) : endToEnd(*w, o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hostbench: %s\n", e.what());
        return 1;
    }
}
