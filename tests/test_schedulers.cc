/**
 * @file
 * Behavioral tests for the baseline, FCFS, PREMA and RR schedulers,
 * exercised through full simulations, and golden record digests for
 * PREMA and Nimblock.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/registry.hh"
#include "core/simulation.hh"
#include "sched/factory.hh"
#include "sim/logging.hh"
#include "workload/generator.hh"
#include "workload/scenario.hh"

namespace nimblock {
namespace {

class SchedulerBehaviorTest : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }

    static EventSequence
    burst(std::initializer_list<WorkloadEvent> events)
    {
        EventSequence seq;
        seq.name = "burst";
        seq.events = events;
        return seq;
    }

    AppRegistry registry = standardRegistry();
};

TEST(SchedulerFactory, KnowsAllNames)
{
    // Factory aliases resolve to their canonical algorithm, so the
    // instance reports the canonical name.
    const std::map<std::string, std::string> aliases = {
        {"no_sharing", "baseline"}, {"dml_static", "static"}};
    for (const std::string &name : schedulerNames()) {
        auto sched = makeScheduler(name);
        ASSERT_NE(sched, nullptr) << name;
        auto it = aliases.find(name);
        EXPECT_EQ(sched->name(), it == aliases.end() ? name : it->second)
            << name;
    }
    EXPECT_THROW(makeScheduler("bogus"), FatalError);
}

TEST(SchedulerFactory, TryMakeIsNonFatal)
{
    EXPECT_EQ(tryMakeScheduler("bogus"), nullptr);
    EXPECT_EQ(tryMakeScheduler(""), nullptr);
    auto themis = tryMakeScheduler("themis");
    ASSERT_NE(themis, nullptr);
    EXPECT_EQ(themis->name(), "themis");
}

TEST(SchedulerFactory, AliasesResolveToCanonicalAlgorithms)
{
    auto no_sharing = makeScheduler("no_sharing");
    EXPECT_EQ(no_sharing->name(), "baseline");
    auto dml = makeScheduler("dml_static");
    EXPECT_EQ(dml->name(), "static");
}

TEST(SchedulerFactory, EvaluationAndAblationSets)
{
    auto eval = evaluationSchedulers();
    EXPECT_EQ(eval.size(), 5u);
    EXPECT_EQ(eval.front(), "baseline");
    auto extended = extendedSchedulers();
    ASSERT_EQ(extended.size(), 6u);
    EXPECT_EQ(extended.back(), "themis");
    for (std::size_t i = 0; i < eval.size(); ++i)
        EXPECT_EQ(extended[i], eval[i]);
    auto ablation = ablationSchedulers();
    EXPECT_EQ(ablation.size(), 4u);
    EXPECT_EQ(ablation.front(), "nimblock");
}

TEST(SchedulerFactory, AblationNamesEncodeSwitches)
{
    EXPECT_EQ(NimblockConfig::nameFor(true, true), "nimblock");
    EXPECT_EQ(NimblockConfig::nameFor(true, false), "nimblock_nopreempt");
    EXPECT_EQ(NimblockConfig::nameFor(false, true), "nimblock_nopipe");
    EXPECT_EQ(NimblockConfig::nameFor(false, false),
              "nimblock_nopreempt_nopipe");
}

TEST_F(SchedulerBehaviorTest, BaselineSerializesApplications)
{
    // Two apps arriving together: under no-sharing the second starts only
    // after the first retires.
    EventSequence seq = burst({
        WorkloadEvent{0, "lenet", 5, Priority::Low, 0},
        WorkloadEvent{1, "3d_rendering", 5, Priority::Low, simtime::ms(1)},
    });
    RunResult result = runSequence("baseline", seq, registry);
    ASSERT_EQ(result.records.size(), 2u);

    const AppRecord *first = &result.records[0];
    const AppRecord *second = &result.records[1];
    if (first->eventIndex != 0)
        std::swap(first, second);
    EXPECT_GE(second->firstLaunch, first->retire);
}

TEST_F(SchedulerBehaviorTest, FcfsSharesTheBoard)
{
    EventSequence seq = burst({
        WorkloadEvent{0, "lenet", 5, Priority::Low, 0},
        WorkloadEvent{1, "3d_rendering", 5, Priority::Low, simtime::ms(1)},
    });
    RunResult result = runSequence("fcfs", seq, registry);
    const AppRecord *first = &result.records[0];
    const AppRecord *second = &result.records[1];
    if (first->eventIndex != 0)
        std::swap(first, second);
    // The second app starts long before the first finishes.
    EXPECT_LT(second->firstLaunch, first->retire);
}

TEST_F(SchedulerBehaviorTest, FcfsIgnoresPriorities)
{
    // A high-priority app behind nine earlier arrivals gains nothing.
    std::vector<WorkloadEvent> events;
    for (int i = 0; i < 10; ++i)
        events.push_back(WorkloadEvent{i, "optical_flow", 10, Priority::Low,
                                       simtime::ms(i)});
    events.push_back(WorkloadEvent{10, "lenet", 1, Priority::High,
                                   simtime::ms(20)});
    EventSequence seq;
    seq.name = "prio";
    seq.events = events;

    RunResult fcfs = runSequence("fcfs", seq, registry);
    RunResult prema = runSequence("prema", seq, registry);
    auto find = [](const RunResult &r, int idx) {
        for (const AppRecord &rec : r.records) {
            if (rec.eventIndex == idx)
                return rec.responseTime();
        }
        return kTimeNone;
    };
    // PREMA's priority tokens let the high-priority app jump the line.
    EXPECT_LT(find(prema, 10), find(fcfs, 10));
}

TEST_F(SchedulerBehaviorTest, PremaPrefersShortCandidates)
{
    // Same priority everywhere: PREMA should finish the short app well
    // before FCFS order would imply.
    EventSequence seq = burst({
        WorkloadEvent{0, "optical_flow", 20, Priority::Medium, 0},
        WorkloadEvent{1, "optical_flow", 20, Priority::Medium, simtime::ms(1)},
        WorkloadEvent{2, "optical_flow", 20, Priority::Medium, simtime::ms(2)},
        WorkloadEvent{3, "lenet", 2, Priority::Medium, simtime::ms(3)},
    });
    RunResult prema = runSequence("prema", seq, registry);
    SimTime lenet_resp = kTimeNone;
    for (const AppRecord &rec : prema.records) {
        if (rec.appName == "lenet")
            lenet_resp = rec.responseTime();
    }
    // The short app retires in a small multiple of its isolated latency
    // even though three long apps arrived first.
    EXPECT_LT(lenet_resp, simtime::sec(5));
}

TEST_F(SchedulerBehaviorTest, RrHonorsPriorityWithinQueues)
{
    // Priority ordering is a per-queue property in RR; pin all tasks to
    // one queue with a single-slot board. An occupying app runs first,
    // then low- and high-priority twins queue: the high-priority twin is
    // popped first despite arriving later.
    EventSequence seq = burst({
        WorkloadEvent{0, "optical_flow", 5, Priority::Low, 0},
        WorkloadEvent{1, "lenet", 2, Priority::Low, simtime::ms(100)},
        WorkloadEvent{2, "lenet", 2, Priority::High, simtime::ms(101)},
    });
    SystemConfig cfg;
    cfg.scheduler = "rr";
    cfg.fabric.numSlots = 1;
    RunResult rr = Simulation(cfg, registry).run(seq);
    SimTime low = kTimeNone, high = kTimeNone;
    for (const AppRecord &rec : rr.records) {
        if (rec.eventIndex == 1)
            low = rec.retire;
        if (rec.eventIndex == 2)
            high = rec.retire;
    }
    EXPECT_LT(high, low);
}

TEST_F(SchedulerBehaviorTest, NoSharingNeverRunsTwoAppsAtOnce)
{
    EventSequence seq = burst({
        WorkloadEvent{0, "image_compression", 10, Priority::Low, 0},
        WorkloadEvent{1, "lenet", 10, Priority::High, simtime::ms(5)},
        WorkloadEvent{2, "3d_rendering", 10, Priority::Medium,
                      simtime::ms(10)},
    });
    RunResult result = runSequence("baseline", seq, registry);
    // Execution spans must not overlap.
    std::vector<std::pair<SimTime, SimTime>> spans;
    for (const AppRecord &rec : result.records)
        spans.emplace_back(rec.firstLaunch, rec.retire);
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i)
        EXPECT_GE(spans[i].first, spans[i - 1].second);
}

TEST_F(SchedulerBehaviorTest, BulkSchedulersNeverPreempt)
{
    EventSequence seq = burst({
        WorkloadEvent{0, "optical_flow", 10, Priority::Low, 0},
        WorkloadEvent{1, "lenet", 5, Priority::High, simtime::ms(500)},
        WorkloadEvent{2, "alexnet", 5, Priority::High, simtime::ms(600)},
    });
    for (const std::string name : {"baseline", "fcfs", "prema", "rr"}) {
        RunResult result = runSequence(name, seq, registry);
        EXPECT_EQ(result.hypervisorStats.preemptionsHonored, 0u) << name;
        for (const AppRecord &rec : result.records)
            EXPECT_EQ(rec.preemptions, 0) << name;
    }
}

TEST_F(SchedulerBehaviorTest, AllSchedulersExecuteEveryItemExactlyOnce)
{
    EventSequence seq = burst({
        WorkloadEvent{0, "lenet", 7, Priority::Low, 0},
        WorkloadEvent{1, "optical_flow", 3, Priority::Medium,
                      simtime::ms(100)},
        WorkloadEvent{2, "alexnet", 2, Priority::High, simtime::ms(200)},
    });
    std::uint64_t expected = 7 * 3 + 3 * 9 + 2 * 38;
    for (const std::string &name : schedulerNames()) {
        RunResult result = runSequence(name, seq, registry);
        // Preempted mid-batch items are never re-executed, so the total
        // item count is exact for every scheduler.
        EXPECT_EQ(result.hypervisorStats.itemsExecuted, expected) << name;
    }
}

// ---------------------------------------------------------------------
// Golden byte-identity: PREMA's shortest-remaining order and Nimblock's
// reallocation and victim selection must reproduce the record digests
// captured on earlier builds (same stimuli).

std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t h = 1469598103934665603ull)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** The recordsCsv-style serialization used by the golden digests. */
std::string
digestInput(const RunResult &r)
{
    std::string out;
    char line[256];
    for (const AppRecord &rec : r.records) {
        std::snprintf(line, sizeof(line),
                      "%d,%s,%d,%d,%lld,%lld,%lld,%lld,%lld,%d,%d\n",
                      rec.eventIndex, rec.appName.c_str(), rec.batch,
                      rec.priority, static_cast<long long>(rec.arrival),
                      static_cast<long long>(rec.firstLaunch),
                      static_cast<long long>(rec.retire),
                      static_cast<long long>(rec.runTime),
                      static_cast<long long>(rec.reconfigTime),
                      rec.reconfigs, rec.preemptions);
        out += line;
    }
    std::snprintf(line, sizeof(line), "makespan=%lld\n",
                  static_cast<long long>(r.makespan));
    out += line;
    return out;
}

/** Fold one run's records into the running digest @p h. */
std::uint64_t
foldDigest(std::uint64_t h, const RunResult &r)
{
    std::string in = digestInput(r);
    h ^= fnv1a(in.data(), in.size());
    return h * 1099511628211ull;
}

/** Digest of 2 sequences x 20 events for (scheduler, scenario). */
std::uint64_t
runDigest(const std::string &sched, Scenario scenario)
{
    AppRegistry registry = standardRegistry();
    GeneratorConfig gen = scenarioConfig(scenario, registry.names());
    gen.numEvents = 20;
    Rng rng(2023);
    auto seqs =
        generateSequences(std::string(toString(scenario)), 2, gen, rng);
    std::uint64_t h = 1469598103934665603ull;
    for (const auto &seq : seqs) {
        SystemConfig cfg;
        cfg.scheduler = sched;
        h = foldDigest(h, Simulation(cfg, registry).run(seq));
    }
    return h;
}

struct GoldenCase
{
    const char *sched;
    Scenario scenario;
    std::uint64_t digest;
};

/**
 * Named after the refactor that pinned these digests (PREMA and Nimblock
 * moving onto the observation layer); the layer is gone, the digests hold.
 */
using PolicyTest = SchedulerBehaviorTest;

TEST_F(PolicyTest, RefactoredSchedulersMatchPreRefactorGoldens)
{
    const GoldenCase cases[] = {
        {"prema", Scenario::Standard, 0xaccf610ac39a511cull},
        {"prema", Scenario::Stress, 0x8bc56a433777d297ull},
        {"prema", Scenario::RealTime, 0x61c5e634330fce4full},
        {"nimblock", Scenario::Standard, 0x3bb059ec97331cb9ull},
        {"nimblock", Scenario::Stress, 0xd7e31e7fbca8224full},
        {"nimblock", Scenario::RealTime, 0xdd89fcaa807e816bull},
    };
    for (const GoldenCase &c : cases) {
        EXPECT_EQ(runDigest(c.sched, c.scenario), c.digest)
            << c.sched << "/" << toString(c.scenario);
    }
}

/** Most applications live at once, swept from the records. */
std::size_t
peakLive(const std::vector<AppRecord> &records)
{
    // At equal timestamps the retire (-1) sorts before the arrival (+1).
    std::vector<std::pair<SimTime, int>> edges;
    for (const AppRecord &rec : records) {
        edges.emplace_back(rec.arrival, 1);
        edges.emplace_back(rec.retire, -1);
    }
    std::sort(edges.begin(), edges.end());
    std::size_t live = 0;
    std::size_t peak = 0;
    for (const auto &edge : edges) {
        live += edge.second;
        peak = std::max(peak, live);
    }
    return peak;
}

TEST_F(SchedulerBehaviorTest, NimblockBeyondSixtyFourLiveMatchesGolden)
{
    // 120 arrivals 100 ms apart on one board, every eighth one
    // high-priority: the live set runs past 64 apps, and each
    // high-priority arrival reshapes the candidate pool, so Algorithm
    // 2's victim walk issues preemptions over a live set deeper than any
    // paper grid reaches. The digest was captured on the build whose
    // snapshot-based victim selection fell back to a direct walk past 64
    // live apps; every preemption of this run was issued on that path.
    const std::vector<std::string> names = registry.names();
    EventSequence seq;
    seq.name = "deep_live";
    for (int i = 0; i < 120; ++i) {
        WorkloadEvent e;
        e.index = i;
        e.appName = names[static_cast<std::size_t>(i) % names.size()];
        e.batch = 1 + (i * 7) % 10;
        e.priority = i % 8 == 7 ? Priority::High : Priority::Low;
        e.arrival = simtime::ms(100 * i);
        seq.events.push_back(e);
    }
    SystemConfig cfg;
    cfg.scheduler = "nimblock";
    RunResult res = Simulation(cfg, registry).run(seq);

    ASSERT_EQ(res.records.size(), seq.events.size());
    EXPECT_GT(res.nimblockStats.preemptionsIssued, 0u);
    EXPECT_GT(peakLive(res.records), 64u);
    EXPECT_EQ(foldDigest(1469598103934665603ull, res), 0x9d13a0a60c8a64c9ull);
}

} // namespace
} // namespace nimblock
