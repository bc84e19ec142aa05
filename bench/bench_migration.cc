/**
 * @file
 * Migration benchmark: dispatch-only vs. rebalanced clusters.
 *
 * Two deterministic two-board scenarios where the dispatch decision made
 * at arrival goes stale:
 *
 *   - skew: heavy (alexnet) and light (lenet) applications alternate in
 *     the arrival order, so round-robin dispatch lands every heavy app on
 *     board 0 and every light one on board 1 — board 1 drains early and
 *     idles while board 0 queues. Work stealing exists exactly for this
 *     shape, and alexnet's wide stages let the stolen app use the idle
 *     board's slots.
 *   - fault: every slot of board 0 suffers a forced persistent fault at
 *     500 ms. Least-loaded dispatch steers *new* arrivals away, but work
 *     already queued on board 0 is stranded until slots are probed back;
 *     the reactive drain migrates it to board 1 immediately.
 *
 * Each scenario runs under rebalance off / work_stealing / watermark for
 * the nimblock and prema schedulers and reports p50/p99/mean response
 * plus migration counts. Results are written as BENCH_migration.json
 * (override with --json PATH) for the CI bench-smoke artifact, which
 * asserts the rebalanced p99 beats dispatch-only in both scenarios.
 *
 * `bench_migration --help` lists the flags.
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/registry.hh"
#include "cluster/cluster.hh"
#include "common.hh"
#include "sim/logging.hh"
#include "stats/summary.hh"

namespace {

using namespace nimblock;

struct Options
{
    int events = 8;
    std::uint64_t seed = 2023;
    std::string jsonPath = "BENCH_migration.json";
    /** Override the per-scenario dispatch policy; empty = scenario's. */
    std::string dispatch;
};

enum class MigrationScenario
{
    Skew,
    Fault,
};

const char *
toString(MigrationScenario s)
{
    return s == MigrationScenario::Skew ? "skew" : "fault";
}

/** The per-scenario dispatch policy the skew/strand story needs. */
DispatchPolicy
scenarioDispatch(MigrationScenario s)
{
    return s == MigrationScenario::Skew ? DispatchPolicy::RoundRobin
                                        : DispatchPolicy::LeastLoaded;
}

/** "off" plus the two rebalance policies. */
const char *
rebalanceName(int mode)
{
    switch (mode) {
      case 0:
        return "off";
      case 1:
        return toString(RebalancePolicy::WorkStealing);
      default:
        return toString(RebalancePolicy::Watermark);
    }
}

std::vector<WorkloadEvent>
makeEvents(MigrationScenario scenario, int count)
{
    std::vector<WorkloadEvent> events;
    events.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        WorkloadEvent e;
        e.index = i;
        if (scenario == MigrationScenario::Skew) {
            // Heavy apps at even indices: with two boards, round-robin
            // dispatch sends all of them to board 0.
            // alexnet's wide stages use many slots at once, so a stolen
            // instance actually exploits the idle board (a chain-shaped
            // heavy would run one slot there and gain little).
            if (i % 2 == 0) {
                e.appName = "alexnet";
                e.batch = 2;
                e.priority = Priority::Medium;
            } else {
                e.appName = "lenet";
                e.batch = 1;
                e.priority = Priority::Medium;
            }
            e.arrival = simtime::ms(50) * i;
        } else {
            const char *pool[] = {"lenet", "image_compression",
                                  "optical_flow"};
            e.appName = pool[i % 3];
            e.batch = 4;
            e.priority = Priority::Medium;
            e.arrival = simtime::ms(100) * i;
        }
        events.push_back(std::move(e));
    }
    return events;
}

/** One (scheduler, scenario, rebalance) measurement. */
struct MigrationPoint
{
    std::string scheduler;
    MigrationScenario scenario = MigrationScenario::Skew;
    std::string dispatch;
    std::string rebalance;
    double p50Sec = 0;
    double p99Sec = 0;
    double meanSec = 0;
    std::uint64_t migrations = 0;
    std::uint64_t migrationsAborted = 0;
    double bytesMovedMb = 0;
    std::size_t submitted = 0;
    std::size_t retired = 0;
};

MigrationPoint
runCell(const AppRegistry &registry, const std::string &scheduler,
        MigrationScenario scenario, int rebalance_mode, const Options &opts)
{
    std::vector<WorkloadEvent> events = makeEvents(scenario, opts.events);

    ClusterConfig cfg;
    cfg.numBoards = 2;
    cfg.board.scheduler = scheduler;
    cfg.dispatch = opts.dispatch.empty()
                       ? scenarioDispatch(scenario)
                       : parseDispatchPolicy(opts.dispatch.c_str());
    if (scenario == MigrationScenario::Fault) {
        // Injector armed with all rates zero: the only faults are the
        // forced persistent ones below, so the run stays deterministic.
        cfg.board.faults.enabled = true;
        cfg.board.faults.seed = opts.seed;
        cfg.board.faults.quarantineAfter = 1;
        cfg.board.faults.probeInterval = simtime::sec(2);
        cfg.board.faults.probeRepairProb = 0.25;
    }
    if (rebalance_mode > 0) {
        cfg.migration.enabled = true;
        cfg.migration.rebalance.policy = rebalance_mode == 1
                                             ? RebalancePolicy::WorkStealing
                                             : RebalancePolicy::Watermark;
        cfg.migration.rebalance.interval = simtime::ms(200);
    }

    EventQueue eq;
    Cluster cluster(eq, cfg);

    for (const WorkloadEvent &e : events) {
        eq.schedule(e.arrival, "bench_arrival",
                    [&cluster, &registry, e] {
                        cluster.submit(registry, e);
                    });
    }
    if (scenario == MigrationScenario::Fault) {
        eq.schedule(simtime::ms(500), "board_fault", [&cluster, &cfg] {
            for (std::size_t s = 0; s < cfg.board.fabric.numSlots; ++s)
                cluster.injector(0)->forcePersistentFault(
                    static_cast<SlotId>(s));
        });
    }

    SimTime horizon = simtime::sec(2000);
    cluster.start();
    while (!eq.empty()) {
        if (!eq.step())
            break;
        if (cluster.retiredCount() == events.size()) {
            cluster.stop();
            break;
        }
        if (eq.now() > horizon) {
            fatal("bench_migration cell stalled (%s/%s/%s): %zu/%zu "
                  "retired",
                  scheduler.c_str(), toString(scenario),
                  rebalanceName(rebalance_mode), cluster.retiredCount(),
                  events.size());
        }
    }

    MigrationPoint p;
    p.scheduler = scheduler;
    p.scenario = scenario;
    p.dispatch = toString(cfg.dispatch);
    p.rebalance = rebalanceName(rebalance_mode);
    p.submitted = events.size();
    p.retired = cluster.retiredCount();
    if (p.retired != p.submitted) {
        fatal("bench_migration cell lost applications (%s/%s/%s): "
              "%zu/%zu retired",
              scheduler.c_str(), toString(scenario),
              rebalanceName(rebalance_mode), p.retired, p.submitted);
    }

    Summary response;
    for (std::size_t b = 0; b < cluster.numBoards(); ++b) {
        for (const AppRecord &r : cluster.collector(b).records())
            response.add(simtime::toSec(r.responseTime()));
    }
    p.p50Sec = response.median();
    p.p99Sec = response.percentile(99);
    p.meanSec = response.mean();
    if (const MigrationEngine *engine = cluster.migrationEngine()) {
        p.migrations = engine->stats().completed;
        p.migrationsAborted = engine->stats().aborted;
        p.bytesMovedMb =
            static_cast<double>(engine->stats().bytesMoved) / 1e6;
    }
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    bench::parseFlags(argc, argv, {
        {"--events", &opts.events, "events per scenario", 4},
        {"--seed", &opts.seed, "fault-injector seed"},
        {"--json", &opts.jsonPath, "results file"},
        {"--dispatch",
         bench::Choice{&opts.dispatch, "dispatch policy",
                       dispatchPolicyNames()},
         "override every scenario's dispatch policy"},
        {"--quick", [&opts] { opts.events = 8; }, "smoke size: 8 events"},
    });
    setQuiet(true);

    AppRegistry registry = standardRegistry();

    std::printf("# bench_migration: %d events, seed %llu\n", opts.events,
                static_cast<unsigned long long>(opts.seed));
    std::printf("%-10s %-6s %-13s %-13s %9s %9s %9s %6s\n", "scheduler",
                "scen", "dispatch", "rebalance", "p50", "p99", "mean",
                "moves");

    using bench::Json;
    std::vector<MigrationPoint> points;
    Json results = Json::array();
    for (const char *scheduler : {"nimblock", "prema"}) {
        for (MigrationScenario scenario :
             {MigrationScenario::Skew, MigrationScenario::Fault}) {
            for (int mode = 0; mode < 3; ++mode) {
                MigrationPoint p =
                    runCell(registry, scheduler, scenario, mode, opts);
                std::printf(
                    "%-10s %-6s %-13s %-13s %8.2fs %8.2fs %8.2fs %6llu\n",
                    p.scheduler.c_str(), toString(p.scenario),
                    p.dispatch.c_str(), p.rebalance.c_str(), p.p50Sec,
                    p.p99Sec, p.meanSec,
                    static_cast<unsigned long long>(p.migrations));
                results.push(Json::object({
                    {"scheduler", p.scheduler},
                    {"scenario", toString(p.scenario)},
                    {"dispatch", p.dispatch},
                    {"rebalance", p.rebalance},
                    {"p50_sec", Json::num(p.p50Sec, "%.6f")},
                    {"p99_sec", Json::num(p.p99Sec, "%.6f")},
                    {"mean_sec", Json::num(p.meanSec, "%.6f")},
                    {"migrations", p.migrations},
                    {"migrations_aborted", p.migrationsAborted},
                    {"bytes_moved_mb", Json::num(p.bytesMovedMb, "%.3f")},
                    {"submitted", p.submitted},
                    {"retired", p.retired},
                }));
                points.push_back(std::move(p));
            }
        }
    }

    // The headline claim: under both scenarios, rebalancing beats the
    // dispatch-only cluster at the tail. Surface regressions loudly in
    // the bench output (CI re-checks this from the JSON).
    for (std::size_t i = 0; i + 2 < points.size(); i += 3) {
        const MigrationPoint &off = points[i];
        const MigrationPoint &steal = points[i + 1];
        if (steal.p99Sec >= off.p99Sec) {
            std::printf("# WARNING: %s/%s work_stealing p99 %.2fs did not "
                        "beat dispatch-only %.2fs\n",
                        off.scheduler.c_str(), toString(off.scenario),
                        steal.p99Sec, off.p99Sec);
        }
    }

    bench::writeJson(opts.jsonPath, Json::object({{"bench", "migration"},
                                                  {"events", opts.events},
                                                  {"seed", opts.seed},
                                                  {"results", results}}));
    std::printf("# wrote %s\n", opts.jsonPath.c_str());
    return 0;
}
