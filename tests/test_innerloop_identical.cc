/**
 * @file
 * Golden equivalence test for the inner-loop optimizations.
 *
 * Idle-tick elision (and the allocation-avoidance work that rides with
 * it) must be invisible in results: for every evaluation scheduler, a run
 * with the knob off and a run with it on must produce byte-identical
 * per-application records and the same makespan. Only the bookkeeping
 * counters that measure the optimization itself — scheduling passes and
 * kernel events fired — are allowed to differ (and the elided run must
 * never do *more* work).
 */

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "apps/registry.hh"
#include "core/experiment.hh"
#include "core/simulation.hh"
#include "sched/factory.hh"
#include "sim/logging.hh"
#include "workload/generator.hh"
#include "workload/scenario.hh"

namespace nimblock {
namespace {

/** Serialize every field of every record into one comparable string. */
std::string
recordsCsv(const RunResult &result)
{
    std::string out = "eventIndex,appName,batch,priority,arrival,"
                      "firstLaunch,retire,runTime,reconfigTime,"
                      "reconfigs,preemptions\n";
    char line[256];
    for (const AppRecord &r : result.records) {
        std::snprintf(line, sizeof(line),
                      "%d,%s,%d,%d,%lld,%lld,%lld,%lld,%lld,%d,%d\n",
                      r.eventIndex, r.appName.c_str(), r.batch, r.priority,
                      static_cast<long long>(r.arrival),
                      static_cast<long long>(r.firstLaunch),
                      static_cast<long long>(r.retire),
                      static_cast<long long>(r.runTime),
                      static_cast<long long>(r.reconfigTime), r.reconfigs,
                      r.preemptions);
        out += line;
    }
    return out;
}

class InnerloopIdenticalTest : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }

    RunResult
    run(const std::string &scheduler, const EventSequence &seq,
        bool elide)
    {
        SystemConfig cfg;
        cfg.scheduler = scheduler;
        cfg.hypervisor.elideIdleTicks = elide;
        return Simulation(cfg, registry).run(seq);
    }

    /** Run with an arbitrary config tweak applied on top of defaults. */
    template <typename Tweak>
    RunResult
    runWith(const std::string &scheduler, const EventSequence &seq,
            Tweak tweak)
    {
        SystemConfig cfg;
        cfg.scheduler = scheduler;
        tweak(cfg);
        return Simulation(cfg, registry).run(seq);
    }

    /** A dense mixed-priority sequence that keeps the fabric contended. */
    EventSequence
    denseSequence() const
    {
        GeneratorConfig gen;
        gen.numEvents = 8;
        gen.appPool = {"lenet", "alexnet", "image_compression",
                       "3d_rendering", "digit_recognition"};
        gen.minDelayMs = 50;
        gen.maxDelayMs = 800;
        gen.minBatch = 1;
        gen.maxBatch = 6;
        return generateSequence("dense", gen, Rng(7));
    }

    AppRegistry registry = standardRegistry();
};

TEST_F(InnerloopIdenticalTest, ElisionIsResultInvariantForEveryScheduler)
{
    // Sparse arrivals so the fabric actually drains between applications
    // — the only regime where idle-tick elision changes anything.
    GeneratorConfig gen;
    gen.numEvents = 6;
    gen.appPool = {"lenet", "image_compression", "3d_rendering"};
    gen.minDelayMs = 2000;
    gen.maxDelayMs = 6000;
    gen.minBatch = 1;
    gen.maxBatch = 4;
    EventSequence seq = generateSequence("golden", gen, Rng(42));

    for (const std::string &name : evaluationSchedulers()) {
        RunResult off = run(name, seq, /*elide=*/false);
        RunResult on = run(name, seq, /*elide=*/true);

        EXPECT_EQ(recordsCsv(off), recordsCsv(on)) << name;
        EXPECT_EQ(off.makespan, on.makespan) << name;

        // Result-bearing counters must agree too.
        EXPECT_EQ(off.hypervisorStats.appsRetired,
                  on.hypervisorStats.appsRetired)
            << name;
        EXPECT_EQ(off.hypervisorStats.configuresIssued,
                  on.hypervisorStats.configuresIssued)
            << name;
        EXPECT_EQ(off.hypervisorStats.preemptionsHonored,
                  on.hypervisorStats.preemptionsHonored)
            << name;
        EXPECT_EQ(off.hypervisorStats.itemsExecuted,
                  on.hypervisorStats.itemsExecuted)
            << name;

        // The optimization counters may differ, but only downward.
        EXPECT_LE(on.hypervisorStats.schedulingPasses,
                  off.hypervisorStats.schedulingPasses)
            << name;
        EXPECT_LE(on.eventsFired, off.eventsFired) << name;
    }
}

TEST_F(InnerloopIdenticalTest, TickAlignedSubmitsAreResultInvariant)
{
    // Submits landing EXACTLY on the tick grid (default schedInterval is
    // 400ms) make the aligned restart fire co-timed with the arrival:
    // the restarted tick must still order after the pending arrival pass
    // just like a free-running tick armed one period earlier would (see
    // PeriodicEvent::startAligned). Spacing lets the fabric drain so the
    // elided run really stops and restarts the timer at each arrival.
    EventSequence seq;
    seq.name = "tick_aligned";
    seq.events.push_back(
        WorkloadEvent{0, "lenet", 1, Priority::Medium, simtime::ms(400)});
    seq.events.push_back(WorkloadEvent{1, "image_compression", 2,
                                       Priority::High, simtime::sec(8)});
    seq.events.push_back(WorkloadEvent{2, "lenet", 1, Priority::Low,
                                       simtime::sec(16)});

    for (const std::string &name : evaluationSchedulers()) {
        RunResult off = run(name, seq, /*elide=*/false);
        RunResult on = run(name, seq, /*elide=*/true);

        EXPECT_EQ(recordsCsv(off), recordsCsv(on)) << name;
        EXPECT_EQ(off.makespan, on.makespan) << name;
        EXPECT_LE(on.hypervisorStats.schedulingPasses,
                  off.hypervisorStats.schedulingPasses)
            << name;
    }
}

TEST_F(InnerloopIdenticalTest, ElisionActuallySavesTicksWhenIdle)
{
    // Two widely spaced short applications leave the fabric idle for
    // seconds; the elided run must skip those ticks.
    EventSequence seq;
    seq.name = "sparse";
    seq.events.push_back(
        WorkloadEvent{0, "lenet", 1, Priority::Medium, simtime::ms(1)});
    seq.events.push_back(WorkloadEvent{1, "lenet", 1, Priority::Medium,
                                       simtime::sec(30)});

    RunResult off = run("nimblock", seq, /*elide=*/false);
    RunResult on = run("nimblock", seq, /*elide=*/true);

    EXPECT_EQ(recordsCsv(off), recordsCsv(on));
    EXPECT_EQ(off.makespan, on.makespan);
    EXPECT_LT(on.hypervisorStats.schedulingPasses,
              off.hypervisorStats.schedulingPasses);
}

TEST_F(InnerloopIdenticalTest, WheelAndHeapQueuesAreByteIdentical)
{
    // The ready structure is an implementation detail: swapping the
    // hierarchical time wheel for the reference binary heap must change
    // NOTHING observable — records, makespan, pass counts, even the
    // total number of kernel events fired.
    EventSequence seq = denseSequence();
    for (const std::string &name : evaluationSchedulers()) {
        RunResult wheel = runWith(name, seq, [](SystemConfig &cfg) {
            cfg.eventQueue = EventQueueImpl::Wheel;
        });
        RunResult heap = runWith(name, seq, [](SystemConfig &cfg) {
            cfg.eventQueue = EventQueueImpl::Heap;
        });

        EXPECT_EQ(recordsCsv(wheel), recordsCsv(heap)) << name;
        EXPECT_EQ(wheel.makespan, heap.makespan) << name;
        EXPECT_EQ(wheel.eventsFired, heap.eventsFired) << name;
        EXPECT_EQ(wheel.hypervisorStats.schedulingPasses,
                  heap.hypervisorStats.schedulingPasses)
            << name;
        EXPECT_EQ(wheel.hypervisorStats.purePassesElided,
                  heap.hypervisorStats.purePassesElided)
            << name;
        EXPECT_EQ(wheel.hypervisorStats.preemptionsHonored,
                  heap.hypervisorStats.preemptionsHonored)
            << name;
    }
}

TEST_F(InnerloopIdenticalTest, HeterogeneousFabricIsKernelInvariant)
{
    // Slot classes, kernel speedups and energy accounting must not
    // disturb the queue-kernel equivalence: a heterogeneous themis (or
    // nimblock) run swaps Wheel for Heap with NOTHING observable
    // changing, energy attribution included.
    auto hetero = [](SystemConfig &cfg) {
        SlotClassConfig big;
        big.name = "big";
        big.reconfigScale = 1.4;
        big.staticPowerWatts = 1.5;
        big.dynamicPowerWatts = 6.0;
        big.reconfigEnergyJoules = 0.8;
        SlotClassConfig small;
        small.name = "small";
        small.staticPowerWatts = 0.5;
        small.dynamicPowerWatts = 2.0;
        small.reconfigEnergyJoules = 0.3;
        cfg.fabric.slotClasses = {big, small};
        cfg.fabric.boardLayout.assign(cfg.fabric.numSlots, "small");
        for (std::size_t s = 0; s < cfg.fabric.numSlots / 2; ++s)
            cfg.fabric.boardLayout[s] = "big";
        cfg.fabric.kernelRules.push_back({"lenet", "big", true, 1.5});
        cfg.fabric.kernelRules.push_back({"alexnet", "big", true, 1.3});
        cfg.energy.enabled = true;
    };

    EventSequence seq = denseSequence();
    for (const std::string name : {"nimblock", "themis"}) {
        RunResult wheel = runWith(name, seq, [&](SystemConfig &cfg) {
            hetero(cfg);
            cfg.eventQueue = EventQueueImpl::Wheel;
        });
        RunResult heap = runWith(name, seq, [&](SystemConfig &cfg) {
            hetero(cfg);
            cfg.eventQueue = EventQueueImpl::Heap;
        });

        EXPECT_EQ(recordsCsv(wheel), recordsCsv(heap)) << name;
        EXPECT_EQ(wheel.makespan, heap.makespan) << name;
        EXPECT_EQ(wheel.eventsFired, heap.eventsFired) << name;
        ASSERT_EQ(wheel.records.size(), heap.records.size()) << name;
        for (std::size_t i = 0; i < wheel.records.size(); ++i) {
            EXPECT_DOUBLE_EQ(wheel.records[i].energyJoules,
                             heap.records[i].energyJoules)
                << name;
        }
        EXPECT_DOUBLE_EQ(wheel.energy.totalJoules, heap.energy.totalJoules)
            << name;
    }
}

TEST_F(InnerloopIdenticalTest, PurePassElisionIsResultInvariant)
{
    // Eliding the no-op body of pure scheduler passes (FCFS/RR/static
    // with no state change) must be invisible in results; only the
    // elision counter itself may differ, and only upward when on.
    EventSequence seq = denseSequence();
    for (const std::string &name : evaluationSchedulers()) {
        RunResult off = runWith(name, seq, [](SystemConfig &cfg) {
            cfg.hypervisor.elidePurePasses = false;
        });
        RunResult on = runWith(name, seq, [](SystemConfig &cfg) {
            cfg.hypervisor.elidePurePasses = true;
        });

        EXPECT_EQ(recordsCsv(off), recordsCsv(on)) << name;
        EXPECT_EQ(off.makespan, on.makespan) << name;
        EXPECT_EQ(off.hypervisorStats.schedulingPasses,
                  on.hypervisorStats.schedulingPasses)
            << name;
        EXPECT_EQ(off.hypervisorStats.purePassesElided, 0u) << name;
        EXPECT_GE(on.hypervisorStats.purePassesElided,
                  off.hypervisorStats.purePassesElided)
            << name;
    }
}

TEST_F(InnerloopIdenticalTest, AppInstancePoolingIsResultInvariant)
{
    // Instance recycling (hypervisor appPoolSize, the soak steady-state
    // enabler) reuses AppInstance storage and ids; with it on, every
    // record, timing and event count must match the pool-free run.
    EventSequence seq = denseSequence();
    for (const std::string &name : evaluationSchedulers()) {
        RunResult off = runWith(name, seq, [](SystemConfig &cfg) {
            cfg.hypervisor.appPoolSize = 0;
        });
        RunResult on = runWith(name, seq, [](SystemConfig &cfg) {
            cfg.hypervisor.appPoolSize = 32;
        });

        EXPECT_EQ(recordsCsv(off), recordsCsv(on)) << name;
        EXPECT_EQ(off.makespan, on.makespan) << name;
        EXPECT_EQ(off.eventsFired, on.eventsFired) << name;
        EXPECT_EQ(off.hypervisorStats.schedulingPasses,
                  on.hypervisorStats.schedulingPasses)
            << name;
    }
}

TEST_F(InnerloopIdenticalTest, GridContextInterningIsResultInvariant)
{
    // ExperimentGrid runs share one frozen GridContext (pre-computed
    // latency estimates, goal-number sweeps, pre-interned bitstream
    // names); a context-free solo Simulation fills the same caches
    // organically mid-run. Both paths must agree byte-for-byte.
    EventSequence seq = denseSequence();
    for (const std::string &name : evaluationSchedulers()) {
        SystemConfig cfg;
        cfg.scheduler = name;
        RunResult solo = Simulation(cfg, registry).run(seq);

        ExperimentGrid grid(cfg, registry);
        auto results = grid.runAll({name}, {seq});
        ASSERT_EQ(results.at(name).runs.size(), 1u) << name;
        const RunResult &shared = results.at(name).runs[0];

        EXPECT_EQ(recordsCsv(solo), recordsCsv(shared)) << name;
        EXPECT_EQ(solo.makespan, shared.makespan) << name;
        EXPECT_EQ(solo.eventsFired, shared.eventsFired) << name;
        EXPECT_EQ(solo.hypervisorStats.schedulingPasses,
                  shared.hypervisorStats.schedulingPasses)
            << name;
    }
}

} // namespace
} // namespace nimblock
