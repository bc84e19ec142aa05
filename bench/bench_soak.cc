/**
 * @file
 * Open-loop streaming soak benchmark.
 *
 * Exercises the SoakEngine (faas/soak.hh) end to end and reports, per
 * cell of an arrival-process x scheduler grid plus an admission-policy
 * sweep and one saturated headline run:
 *
 *   - wall-clock invocation throughput (arrivals processed and
 *     invocations retired per second of real time),
 *   - latency tail from the bounded HdrHistogram (p50/p99/p999),
 *   - rolling SLA attainment and the worst completed window,
 *   - shed rate and peak concurrent live applications,
 *   - sampled peak RSS per run (O(1)-memory evidence: the 24h headline
 *     run must not sit materially above the 1h run), and
 *   - allocations per fired event inside a steady-state window of the
 *     headline run (counting allocator hook, core/memhook.hh) — the
 *     zero-alloc invariant, measured on the full open-loop path:
 *     arrival pump, admission, pooled submit, retire, HDR/SLA record.
 *
 * The headline run drives a 4-board cluster at its service capacity
 * with queue-depth admission for a simulated 24 hours; the steady
 * window opens only after the instance pools have fully populated
 * (retired >= a multiple of the live-app cap), so a clean run counts
 * zero allocations no matter how long the window stays open.
 *
 * Results land in BENCH_soak.json (override with --json PATH) with the
 * usual append-don't-overwrite dated history array.
 *
 * `bench_soak --help` lists the flags.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "apps/app_spec.hh"
#include "common.hh"
#include "core/memhook.hh"
#include "faas/soak.hh"
#include "fabric/resources.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "taskgraph/builder.hh"

namespace {

using namespace nimblock;

struct Options
{
    bool quick = false;
    std::uint64_t seed = 2023;
    std::string jsonPath = "BENCH_soak.json";
    std::string impl = "auto";
    std::size_t boards = 4;
    /** Override the grid arrival rate; 0 keeps the per-mode default. */
    double rate = 0;
    /** Override the grid horizon; 0 keeps the per-mode default. */
    double horizonSec = 0;
};

/** Single-task app: the minimal streaming kernel. */
AppSpecPtr
makeKernelApp(const std::string &name, double latency_ms)
{
    GraphBuilder b;
    TaskSpec t;
    t.name = name + "_k";
    t.itemLatency = simtime::msF(latency_ms);
    t.inputBytes = 0;
    t.outputBytes = 0;
    b.addTask(std::move(t));
    return std::make_shared<AppSpec>(name, name, b.build());
}

/** The mixed tenant population the grid cells share. */
std::vector<TenantSpec>
mixedTenants()
{
    std::vector<TenantSpec> out;
    TenantSpec fast;
    fast.name = "fast";
    fast.app = makeKernelApp("soak_fast", 5.0);
    fast.priority = Priority::High;
    fast.users = 700000;
    out.push_back(fast);

    TenantSpec medium;
    medium.name = "medium";
    medium.app = makeKernelApp("soak_medium", 20.0);
    medium.priority = Priority::Medium;
    medium.users = 250000;
    out.push_back(medium);

    TenantSpec batch;
    batch.name = "batch";
    batch.app = makeKernelApp("soak_batch", 100.0);
    batch.batch = 4;
    batch.priority = Priority::Low;
    batch.users = 50000;
    out.push_back(batch);
    return out;
}

/** Current resident set in bytes, via raw syscalls only (safe to call
    anywhere; never allocates, so it cannot disturb a memhook window). */
std::uint64_t
currentRssBytes()
{
    int fd = ::open("/proc/self/statm", O_RDONLY);
    if (fd < 0)
        return 0;
    char buf[128];
    ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
    ::close(fd);
    if (n <= 0)
        return 0;
    buf[n] = '\0';
    // statm: size resident shared ... (pages)
    const char *p = buf;
    while (*p && *p != ' ')
        ++p;
    std::uint64_t pages = std::strtoull(p, nullptr, 10);
    return pages * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

/** One measured soak run. */
struct CellResult
{
    std::string label;
    std::string arrival;
    std::string scheduler;
    std::string admission;
    double ratePerSec = 0;
    double horizonSec = 0;
    SoakStats stats;
    double wallSec = 0;
    std::uint64_t peakRssBytes = 0;

    /** @name Steady-window allocation audit (headline only) */
    /// @{
    bool windowed = false;
    std::uint64_t windowEvents = 0;
    std::uint64_t windowAllocs = 0;
    std::uint64_t windowAllocBytes = 0;
    /// @}

    double
    submittedPerSecWall() const
    {
        return wallSec > 0 ? static_cast<double>(stats.submitted) / wallSec
                           : 0;
    }
    double
    retiredPerSecWall() const
    {
        return wallSec > 0 ? static_cast<double>(stats.retired) / wallSec
                           : 0;
    }
    double
    shedRate() const
    {
        return stats.submitted
                   ? static_cast<double>(stats.shed) /
                         static_cast<double>(stats.submitted)
                   : 0;
    }
    double
    allocsPerEvent() const
    {
        return windowEvents
                   ? static_cast<double>(windowAllocs) /
                         static_cast<double>(windowEvents)
                   : 0;
    }
};

/** Steady-window audit parameters; disabled when targetEvents == 0. */
struct WindowPlan
{
    std::uint64_t targetEvents = 0;
    /** Open only after this many retirements (pools fully populated). */
    std::uint64_t warmupRetired = 0;
};

/**
 * Drive one soak run stepwise, sampling RSS and (optionally) bracketing
 * a steady-state allocation window with pre-step snapshots so the
 * window never includes the step that closes it.
 */
CellResult
runCell(const std::string &label, SoakConfig cfg,
        std::vector<TenantSpec> tenants, const Options &opts,
        const WindowPlan &plan = WindowPlan{})
{
    cfg.cluster.board.eventQueue = bench::queueImpl(opts.impl);
    CellResult r;
    r.label = label;
    r.arrival = arrivalKindName(cfg.arrivals.kind);
    r.scheduler = cfg.cluster.board.scheduler;
    r.admission = admissionPolicyName(cfg.admission.policy);
    r.ratePerSec = cfg.arrivals.ratePerSec;
    r.horizonSec = simtime::toSec(cfg.horizon);

    SoakEngine engine(cfg, std::move(tenants),
                      Rng(opts.seed).derive("soak/" + label));
    engine.start();

    bool window_open = false, window_done = false;
    std::uint64_t window_start_fired = 0;
    std::uint64_t pre_allocs = 0, pre_bytes = 0, pre_fired = 0;
    std::uint64_t next_rss_probe = 0;
    constexpr std::uint64_t kRssProbeEvery = 1 << 22;

    auto t0 = std::chrono::steady_clock::now();
    for (;;) {
        if (window_open) {
            pre_allocs = memhook::allocCount();
            pre_bytes = memhook::allocBytes();
            pre_fired = engine.queue().firedCount();
        }
        if (!engine.step())
            break;
        std::uint64_t fired = engine.queue().firedCount();
        if (plan.targetEvents && !window_open && !window_done &&
            engine.retired() >= plan.warmupRetired && engine.pumping()) {
            window_open = true;
            window_start_fired = fired;
            memhook::reset();
            memhook::setEnabled(true);
        } else if (window_open &&
                   (pre_fired - window_start_fired >= plan.targetEvents ||
                    !engine.pumping())) {
            // The else keeps the close check off the opening iteration,
            // where the pre-step snapshot predates the window.
            memhook::setEnabled(false);
            window_open = false;
            window_done = true;
            r.windowed = true;
            r.windowEvents = pre_fired - window_start_fired;
            r.windowAllocs = pre_allocs;
            r.windowAllocBytes = pre_bytes;
        }
        if (!window_open && fired >= next_rss_probe) {
            std::uint64_t rss = currentRssBytes();
            if (rss > r.peakRssBytes)
                r.peakRssBytes = rss;
            next_rss_probe = fired + kRssProbeEvery;
        }
    }
    auto t1 = std::chrono::steady_clock::now();
    memhook::setEnabled(false);

    std::uint64_t rss = currentRssBytes();
    if (rss > r.peakRssBytes)
        r.peakRssBytes = rss;
    r.stats = engine.finish();
    r.wallSec = std::chrono::duration<double>(t1 - t0).count();
    return r;
}

void
printRow(const CellResult &r)
{
    std::printf("%-22s %-8s %-9s %-6s %10llu %6.1f%% %8.1f %8.1f %8.1f"
                " %6.3f %9.0f %8llu %7.1f\n",
                r.label.c_str(), r.arrival.c_str(), r.scheduler.c_str(),
                r.admission.c_str(),
                static_cast<unsigned long long>(r.stats.submitted),
                100.0 * r.shedRate(),
                simtime::toMs(r.stats.latencyNs.quantile(0.50)),
                simtime::toMs(r.stats.latencyNs.quantile(0.99)),
                simtime::toMs(r.stats.latencyNs.quantile(0.999)),
                r.stats.slaAttainment, r.submittedPerSecWall(),
                static_cast<unsigned long long>(r.stats.peakLive),
                static_cast<double>(r.peakRssBytes) / (1 << 20));
}

bench::Json
mbJson(std::uint64_t bytes)
{
    return bench::Json::num(static_cast<double>(bytes) / (1 << 20), "%.1f");
}

bench::Json
cellJson(const CellResult &r)
{
    using bench::Json;
    const SoakStats &st = r.stats;
    auto ms = [](SimTime t) { return Json::num(simtime::toMs(t), "%.3f"); };
    // No retirement or no completed SLA window is no data: NaN, which
    // Json::num writes as null rather than a number that reads as an
    // attainment.
    return Json::object({
        {"label", r.label},
        {"arrival", r.arrival},
        {"scheduler", r.scheduler},
        {"admission", r.admission},
        {"rate_per_sec", Json::num(r.ratePerSec, "%.1f")},
        {"horizon_sec", Json::num(r.horizonSec, "%.1f")},
        {"submitted", st.submitted},
        {"admitted", st.admitted},
        {"shed", st.shed},
        {"retired", st.retired},
        {"events_fired", st.eventsFired},
        {"peak_live", st.peakLive},
        {"p50_ms", ms(st.latencyNs.quantile(0.50))},
        {"p99_ms", ms(st.latencyNs.quantile(0.99))},
        {"p999_ms", ms(st.latencyNs.quantile(0.999))},
        {"max_ms", ms(st.latencyNs.max())},
        {"sla", Json::num(st.slaAttainment, "%.4f")},
        {"worst_window_sla", Json::num(st.worstWindowAttainment, "%.4f")},
        {"sla_windows_completed", st.slaWindowsCompleted},
        {"wall_sec", Json::num(r.wallSec, "%.3f")},
        {"submitted_per_sec_wall", Json::num(r.submittedPerSecWall(), "%.0f")},
        {"retired_per_sec_wall", Json::num(r.retiredPerSecWall(), "%.0f")},
        {"peak_rss_mb", mbJson(r.peakRssBytes)},
        {"window_events", r.windowEvents},
        {"window_allocs", r.windowAllocs},
        {"window_alloc_bytes", r.windowAllocBytes},
        {"allocs_per_event", Json::num(r.allocsPerEvent(), "%.6f")},
    });
}

/** Shared base configuration for the grid cells. */
SoakConfig
gridConfig(const Options &opts)
{
    SoakConfig cfg;
    cfg.cluster.numBoards = 2;
    cfg.cluster.board.hypervisor.allowReconfigSkip = true;
    cfg.arrivals.ratePerSec =
        opts.rate > 0 ? opts.rate : (opts.quick ? 100.0 : 300.0);
    double horizon_sec =
        opts.horizonSec > 0 ? opts.horizonSec : (opts.quick ? 60.0 : 3600.0);
    cfg.horizon = simtime::secF(horizon_sec);
    // One full diurnal cycle inside the horizon, whatever its length.
    cfg.arrivals.diurnalPeriodSec = horizon_sec;
    cfg.admission.policy = AdmissionPolicy::QueueDepth;
    cfg.admission.queueDepthCap = 2000;
    cfg.appPoolSize = 512;
    return cfg;
}

/** The saturated multi-board headline configuration. */
SoakConfig
headlineConfig(const Options &opts, double horizon_sec)
{
    SoakConfig cfg;
    cfg.cluster.numBoards = opts.boards;
    // Round-robin dispatch is O(1) per arrival (least-loaded scans every
    // live app) and balances a single-tenant saturated stream exactly.
    cfg.cluster.dispatch = DispatchPolicy::RoundRobin;
    cfg.cluster.board.scheduler = "fcfs";
    cfg.cluster.board.hypervisor.allowReconfigSkip = true;
    // Coalesce scheduling passes: 5 ms is 1/20th of the kernel latency,
    // but it folds the per-arrival and per-retire pass requests of a
    // saturated board into one pass per batch.
    cfg.cluster.board.hypervisor.passLatency = simtime::ms(5);
    cfg.arrivals.kind = ArrivalKind::Poisson;
    // Offer slightly more than the cluster's service capacity (one
    // 100 ms kernel per slot), so the run holds saturation for its whole
    // horizon and the queue-depth gate sheds the structural excess.
    double capacity =
        static_cast<double>(opts.boards) * zcu106::kNumSlots / 0.1;
    cfg.arrivals.ratePerSec = 1.15 * capacity;
    cfg.horizon = simtime::secF(horizon_sec);
    cfg.admission.policy = AdmissionPolicy::QueueDepth;
    cfg.admission.queueDepthCap = 48;
    cfg.appPoolSize = 96;
    return cfg;
}

std::vector<TenantSpec>
headlineTenants()
{
    TenantSpec t;
    t.name = "stream";
    t.app = makeKernelApp("soak_stream", 100.0);
    t.users = 1000000;
    return {t};
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    bench::parseFlags(argc, argv, {
        {"--quick", &opts.quick, "smoke size: short horizons"},
        {"--seed", &opts.seed, "arrival seed"},
        {"--json", &opts.jsonPath, "results file; history is appended"},
        bench::queueImplFlag(&opts.impl),
        {"--boards", &opts.boards, "boards in the headline cluster", 1},
        {"--rate", &opts.rate,
         "grid arrival rate per second; 0 keeps the mode's rate", 0},
        {"--horizon-sec", &opts.horizonSec,
         "grid horizon in seconds; 0 keeps the mode's horizon", 0},
    });
    setQuiet(true);
    memhook::setEnabled(false);

    std::printf("# bench_soak: %s mode, seed %llu, %zu headline boards\n",
                opts.quick ? "quick" : "full",
                static_cast<unsigned long long>(opts.seed), opts.boards);
    std::printf("%-22s %-8s %-9s %-6s %10s %7s %8s %8s %8s %6s %9s %8s"
                " %7s\n",
                "cell", "arrival", "scheduler", "admit", "submitted",
                "shed", "p50ms", "p99ms", "p999ms", "sla", "inv/s", "live",
                "rss-mb");

    using bench::Json;
    // --- Arrival-process x scheduler grid over the mixed tenants.
    Json grid = Json::array();
    for (ArrivalKind kind : {ArrivalKind::Poisson, ArrivalKind::Diurnal,
                             ArrivalKind::ParetoBurst}) {
        for (const char *sched : {"nimblock", "fcfs"}) {
            SoakConfig cfg = gridConfig(opts);
            cfg.arrivals.kind = kind;
            cfg.cluster.board.scheduler = sched;
            std::string label = std::string(arrivalKindName(kind)) + "/" +
                                sched;
            CellResult r = runCell(label, cfg, mixedTenants(), opts);
            printRow(r);
            grid.push(cellJson(r));
        }
    }

    // --- Admission-policy sweep under 2x overload: "none" shows the
    // unbounded live set an open loop accumulates, the shedding policies
    // bound it.
    Json admission = Json::array();
    {
        TenantSpec t;
        t.name = "burst";
        t.app = makeKernelApp("soak_burst", 5.0);
        t.users = 1000;
        for (AdmissionPolicy policy :
             {AdmissionPolicy::None, AdmissionPolicy::QueueDepth,
              AdmissionPolicy::TokenBucket}) {
            SoakConfig cfg;
            cfg.cluster.numBoards = 1;
            cfg.cluster.board.scheduler = "fcfs";
            cfg.cluster.board.hypervisor.allowReconfigSkip = true;
            double capacity = zcu106::kNumSlots / 0.005;
            cfg.arrivals.ratePerSec = 2.0 * capacity;
            // Without admission the live set grows by (rate - capacity)
            // x horizon and every scheduling pass scans it, so the
            // uncontrolled cell gets a short horizon: it only has to
            // demonstrate the unbounded growth the policies prevent.
            double horizon_sec = policy == AdmissionPolicy::None
                                     ? (opts.quick ? 1.0 : 3.0)
                                     : (opts.quick ? 5.0 : 60.0);
            cfg.horizon = simtime::secF(horizon_sec);
            cfg.admission.policy = policy;
            cfg.admission.queueDepthCap = 256;
            cfg.admission.tokensPerSec = capacity;
            cfg.admission.bucketCapacity = 500;
            cfg.appPoolSize = 512;
            std::string label = std::string("overload/") +
                                admissionPolicyName(policy);
            CellResult r = runCell(label, cfg, {t}, opts);
            printRow(r);
            admission.push(cellJson(r));
        }
    }

    // --- Bounded-memory pair: the same saturated configuration over a
    // short and a long horizon; flat peak RSS between them is the O(1)
    // memory evidence.
    double short_sec = opts.quick ? 60.0 : 3600.0;
    double long_sec = opts.quick ? 600.0 : 86400.0;
    CellResult rss_short = runCell(
        "headline/short", headlineConfig(opts, short_sec),
        headlineTenants(), opts);
    printRow(rss_short);

    WindowPlan plan;
    plan.targetEvents = opts.quick ? 200000 : 2000000;
    plan.warmupRetired = 4 * 48 * opts.boards;
    CellResult headline = runCell(
        "headline/24h", headlineConfig(opts, long_sec), headlineTenants(),
        opts, plan);
    printRow(headline);

    std::printf("# headline: %.0f submitted/s wall, %.0f retired/s wall, "
                "%llu allocs over %llu steady events (%.6f/event)\n",
                headline.submittedPerSecWall(),
                headline.retiredPerSecWall(),
                static_cast<unsigned long long>(headline.windowAllocs),
                static_cast<unsigned long long>(headline.windowEvents),
                headline.allocsPerEvent());
    std::printf("# rss: %.1f MB over %.0fs horizon vs %.1f MB over %.0fs\n",
                static_cast<double>(rss_short.peakRssBytes) / (1 << 20),
                rss_short.horizonSec,
                static_cast<double>(headline.peakRssBytes) / (1 << 20),
                headline.horizonSec);

    Json doc = Json::object({
        {"bench", "soak"},
        {"quick", opts.quick},
        {"seed", opts.seed},
        {"boards", opts.boards},
        {"cells", grid},
        {"admission", admission},
        {"headline", Json::array().push(cellJson(headline))},
        {"rss_pair",
         Json::object({
             {"short_horizon_sec", Json::num(rss_short.horizonSec, "%.1f")},
             {"short_peak_rss_mb", mbJson(rss_short.peakRssBytes)},
             {"long_horizon_sec", Json::num(headline.horizonSec, "%.1f")},
             {"long_peak_rss_mb", mbJson(headline.peakRssBytes)},
         })},
    });
    Json entry = Json::object({
        {"quick", opts.quick},
        {"headline_submitted_per_sec",
         static_cast<long long>(headline.submittedPerSecWall())},
        {"headline_retired_per_sec",
         static_cast<long long>(headline.retiredPerSecWall())},
        {"headline_allocs_per_event",
         Json::num(headline.allocsPerEvent(), "%g")},
    });
    bench::writeWithHistory(opts.jsonPath, doc, entry);
    std::printf("# wrote %s\n", opts.jsonPath.c_str());
    return 0;
}
