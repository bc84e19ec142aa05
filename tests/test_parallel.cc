/**
 * @file
 * Tests for the thread pool and the parallel experiment engine: pool
 * coverage/exception semantics, and byte-identical runAll() results for
 * any job count across all evaluation schedulers.
 */

#include <atomic>
#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

#include "apps/registry.hh"
#include "cluster/cluster.hh"
#include "core/experiment.hh"
#include "core/parallel.hh"
#include "faas/soak.hh"
#include "sched/factory.hh"
#include "sim/logging.hh"
#include "taskgraph/builder.hh"
#include "workload/generator.hh"
#include "workload/scenario.hh"

namespace nimblock {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);

    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ReusableAcrossBatches)
{
    ThreadPool pool(3);
    for (int round = 0; round < 5; ++round) {
        std::atomic<int> sum{0};
        pool.parallelFor(100, [&](std::size_t i) {
            sum += static_cast<int>(i);
        });
        EXPECT_EQ(sum.load(), 4950);
    }
}

TEST(ThreadPool, SingleThreadedPoolIsSequential)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1u);
    std::vector<std::size_t> order;
    pool.parallelFor(10, [&](std::size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 10u);
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, EmptyBatchIsANoop)
{
    ThreadPool pool(4);
    bool ran = false;
    pool.parallelFor(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesFirstException)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(64,
                                  [&](std::size_t i) {
                                      if (i == 13)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);

    // The pool must stay usable after a failed batch.
    std::atomic<int> count{0};
    pool.parallelFor(32, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 32);
}

TEST(ParallelFor, FreeFunctionCoversAllIndices)
{
    std::vector<std::atomic<int>> hits(257);
    parallelFor(8, hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, MoreJobsThanItems)
{
    std::vector<std::atomic<int>> hits(3);
    parallelFor(16, hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

TEST(Parallelism, DefaultIsAtLeastOne)
{
    EXPECT_GE(defaultParallelism(), 1u);
}

/** Fixture running a small grid over all five evaluation schedulers. */
class ParallelGridTest : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }

    std::vector<EventSequence>
    sequences() const
    {
        AppRegistry registry = standardRegistry();
        GeneratorConfig gen =
            scenarioConfig(Scenario::Standard, registry.names());
        gen.numEvents = 6;
        Rng rng(2023);
        return generateSequences("par", 3, gen, rng);
    }

    static void
    expectSameRecord(const AppRecord &a, const AppRecord &b)
    {
        EXPECT_EQ(a.eventIndex, b.eventIndex);
        EXPECT_EQ(a.appName, b.appName);
        EXPECT_EQ(a.batch, b.batch);
        EXPECT_EQ(a.priority, b.priority);
        EXPECT_EQ(a.arrival, b.arrival);
        EXPECT_EQ(a.firstLaunch, b.firstLaunch);
        EXPECT_EQ(a.retire, b.retire);
        EXPECT_EQ(a.runTime, b.runTime);
        EXPECT_EQ(a.reconfigTime, b.reconfigTime);
        EXPECT_EQ(a.reconfigs, b.reconfigs);
        EXPECT_EQ(a.preemptions, b.preemptions);
        EXPECT_EQ(a.failed, b.failed);
        EXPECT_EQ(a.itemRetries, b.itemRetries);
        EXPECT_EQ(a.requeues, b.requeues);
        EXPECT_EQ(a.migrations, b.migrations);
        EXPECT_EQ(a.migrationTime, b.migrationTime);
        EXPECT_DOUBLE_EQ(a.energyJoules, b.energyJoules);
    }

    static void
    expectSameResults(const std::map<std::string, SchedulerResults> &a,
                      const std::map<std::string, SchedulerResults> &b)
    {
        ASSERT_EQ(a.size(), b.size());
        for (const auto &[name, res_a] : a) {
            ASSERT_EQ(b.count(name), 1u) << name;
            const SchedulerResults &res_b = b.at(name);
            EXPECT_EQ(res_a.scheduler, res_b.scheduler);
            ASSERT_EQ(res_a.runs.size(), res_b.runs.size());
            for (std::size_t i = 0; i < res_a.runs.size(); ++i) {
                const RunResult &ra = res_a.runs[i];
                const RunResult &rb = res_b.runs[i];
                EXPECT_EQ(ra.scheduler, rb.scheduler);
                EXPECT_EQ(ra.sequenceName, rb.sequenceName);
                EXPECT_EQ(ra.makespan, rb.makespan);
                EXPECT_EQ(ra.eventsFired, rb.eventsFired);

                const HypervisorStats &ha = ra.hypervisorStats;
                const HypervisorStats &hb = rb.hypervisorStats;
                EXPECT_EQ(ha.appsAdmitted, hb.appsAdmitted);
                EXPECT_EQ(ha.appsRetired, hb.appsRetired);
                EXPECT_EQ(ha.configuresIssued, hb.configuresIssued);
                EXPECT_EQ(ha.reconfigSkips, hb.reconfigSkips);
                EXPECT_EQ(ha.preemptionsRequested, hb.preemptionsRequested);
                EXPECT_EQ(ha.preemptionsHonored, hb.preemptionsHonored);
                EXPECT_EQ(ha.checkpointPreemptions, hb.checkpointPreemptions);
                EXPECT_EQ(ha.schedulingPasses, hb.schedulingPasses);
                EXPECT_EQ(ha.stallRescues, hb.stallRescues);
                EXPECT_EQ(ha.itemsExecuted, hb.itemsExecuted);
                EXPECT_EQ(ha.faultsInjected, hb.faultsInjected);
                EXPECT_EQ(ha.faultRetries, hb.faultRetries);
                EXPECT_EQ(ha.quarantineEvents, hb.quarantineEvents);
                EXPECT_EQ(ha.probesIssued, hb.probesIssued);
                EXPECT_EQ(ha.appsFailed, hb.appsFailed);
                EXPECT_EQ(ha.appRequeues, hb.appRequeues);
                EXPECT_EQ(ha.appsMigratedOut, hb.appsMigratedOut);
                EXPECT_EQ(ha.appsMigratedIn, hb.appsMigratedIn);

                const NimblockStats &na = ra.nimblockStats;
                const NimblockStats &nb = rb.nimblockStats;
                EXPECT_EQ(na.reallocations, nb.reallocations);
                EXPECT_EQ(na.preemptionsIssued, nb.preemptionsIssued);
                EXPECT_EQ(na.delayedPreemptions, nb.delayedPreemptions);
                EXPECT_EQ(na.opportunisticConfigures,
                          nb.opportunisticConfigures);

                ASSERT_EQ(ra.records.size(), rb.records.size());
                for (std::size_t r = 0; r < ra.records.size(); ++r)
                    expectSameRecord(ra.records[r], rb.records[r]);
            }
        }
    }
};

TEST_F(ParallelGridTest, JobsFourMatchesJobsOneForAllSchedulers)
{
    SystemConfig cfg;
    AppRegistry registry = standardRegistry();
    std::vector<std::string> schedulers = evaluationSchedulers();
    ASSERT_EQ(schedulers.size(), 5u);
    std::vector<EventSequence> seqs = sequences();

    ExperimentGrid sequential(cfg, registry);
    sequential.setJobs(1);
    auto serial = sequential.runAll(schedulers, seqs);

    ExperimentGrid threaded(cfg, registry);
    threaded.setJobs(4);
    auto parallel = threaded.runAll(schedulers, seqs);

    expectSameResults(serial, parallel);
}

TEST_F(ParallelGridTest, AutoJobsMatchesSequential)
{
    SystemConfig cfg;
    AppRegistry registry = standardRegistry();
    std::vector<std::string> schedulers = {"baseline", "nimblock"};
    std::vector<EventSequence> seqs = sequences();

    ExperimentGrid sequential(cfg, registry);
    auto serial = sequential.runAll(schedulers, seqs);
    EXPECT_EQ(sequential.jobs(), 1u);

    ExperimentGrid automatic(cfg, registry);
    automatic.setJobs(0); // hardware concurrency
    auto parallel = automatic.runAll(schedulers, seqs);

    expectSameResults(serial, parallel);
}

TEST_F(ParallelGridTest, FaultedGridMatchesAcrossJobCounts)
{
    // Fault injection draws from derived RNG streams owned per run, so a
    // chaos grid must stay byte-identical for any job count too.
    SystemConfig cfg;
    cfg.faults.enabled = true;
    cfg.faults.seed = 99;
    cfg.faults.reconfigFailProb = 0.05;
    cfg.faults.sdReadErrorProb = 0.02;
    cfg.faults.itemCrashProb = 0.02;
    cfg.faults.itemHangProb = 0.005;
    AppRegistry registry = standardRegistry();
    std::vector<std::string> schedulers = evaluationSchedulers();
    std::vector<EventSequence> seqs = sequences();

    ExperimentGrid sequential(cfg, registry);
    sequential.setJobs(1);
    auto serial = sequential.runAll(schedulers, seqs);

    ExperimentGrid threaded(cfg, registry);
    threaded.setJobs(4);
    auto parallel = threaded.runAll(schedulers, seqs);

    expectSameResults(serial, parallel);
}

TEST_F(ParallelGridTest, HeterogeneousFabricGridMatchesAcrossJobCounts)
{
    // Slot classes + energy accounting live entirely inside each run's
    // Fabric/EnergyModel, so a heterogeneous grid (themis included) must
    // stay byte-identical — records, energy attribution and run totals —
    // for any job count.
    SystemConfig cfg;
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
    AppRegistry registry = standardRegistry();
    std::vector<std::string> schedulers = {"nimblock", "prema", "themis"};
    std::vector<EventSequence> seqs = sequences();

    ExperimentGrid sequential(cfg, registry);
    sequential.setJobs(1);
    auto serial = sequential.runAll(schedulers, seqs);

    ExperimentGrid threaded(cfg, registry);
    threaded.setJobs(4);
    auto parallel = threaded.runAll(schedulers, seqs);

    expectSameResults(serial, parallel);
    for (const auto &[name, res] : serial) {
        const SchedulerResults &other = parallel.at(name);
        for (std::size_t i = 0; i < res.runs.size(); ++i) {
            EXPECT_DOUBLE_EQ(res.runs[i].energy.totalJoules,
                             other.runs[i].energy.totalJoules)
                << name;
            EXPECT_DOUBLE_EQ(res.runs[i].energy.idleStaticJoules,
                             other.runs[i].energy.idleStaticJoules)
                << name;
        }
    }
}

TEST_F(ParallelGridTest, HeterogeneousClusterMatchesAcrossJobCounts)
{
    // Cluster runs (heterogeneous boards, migration on) executed under a
    // thread pool must stay byte-identical to sequential execution: each
    // run owns its event queue, RNG streams, and migration engine.
    AppRegistry registry = standardRegistry();
    std::vector<EventSequence> seqs = sequences();

    ClusterConfig cfg;
    cfg.numBoards = 3;
    cfg.board.scheduler = "nimblock";
    cfg.slotsPerBoard = {2, 3, 5};
    cfg.dispatch = DispatchPolicy::LeastLoaded;
    cfg.migration.enabled = true;
    cfg.migration.rebalance.policy = RebalancePolicy::Watermark;
    cfg.migration.rebalance.interval = simtime::ms(250);

    auto run_one = [&](const EventSequence &seq) {
        return ClusterSimulation(cfg, registry).run(seq);
    };
    std::vector<ClusterRunResult> serial(seqs.size());
    for (std::size_t i = 0; i < seqs.size(); ++i)
        serial[i] = run_one(seqs[i]);
    std::vector<ClusterRunResult> threaded(seqs.size());
    parallelFor(4, seqs.size(),
                [&](std::size_t i) { threaded[i] = run_one(seqs[i]); });

    for (std::size_t i = 0; i < seqs.size(); ++i) {
        const ClusterRunResult &a = serial[i];
        const ClusterRunResult &b = threaded[i];
        EXPECT_EQ(a.boardOfEvent, b.boardOfEvent);
        EXPECT_EQ(a.eventsPerBoard, b.eventsPerBoard);
        EXPECT_EQ(a.makespan, b.makespan);
        EXPECT_EQ(a.migrationsOutPerBoard, b.migrationsOutPerBoard);
        EXPECT_EQ(a.migrationsInPerBoard, b.migrationsInPerBoard);
        EXPECT_EQ(a.migration.completed, b.migration.completed);
        EXPECT_EQ(a.migration.bytesMoved, b.migration.bytesMoved);
        ASSERT_EQ(a.records.size(), b.records.size());
        for (std::size_t r = 0; r < a.records.size(); ++r)
            expectSameRecord(a.records[r], b.records[r]);
    }
}

TEST_F(ParallelGridTest, SoakRunsAreIdenticalInsideWorkerThreads)
{
    // The streaming soak engine owns its event queue, arrival stream and
    // RNG state per instance, so concurrent engines in pool workers must
    // reproduce the serial run bit for bit (histogram included) — the
    // property that lets a sweep fan soak cells out across threads.
    auto make_tenants = [] {
        GraphBuilder b;
        TaskSpec t;
        t.name = "par_soak_k";
        t.itemLatency = simtime::ms(10);
        b.addTask(std::move(t));
        std::vector<TenantSpec> tenants(1);
        tenants[0].name = "par";
        tenants[0].app =
            std::make_shared<AppSpec>("par_soak", "par_soak", b.build());
        tenants[0].users = 100;
        return tenants;
    };
    auto run_one = [&](std::uint64_t seed) {
        SoakConfig cfg;
        cfg.cluster.numBoards = 2;
        cfg.cluster.board.scheduler = "fcfs";
        cfg.cluster.board.hypervisor.allowReconfigSkip = true;
        cfg.arrivals.ratePerSec = 300.0;
        cfg.horizon = simtime::sec(5);
        cfg.admission.policy = AdmissionPolicy::QueueDepth;
        cfg.admission.queueDepthCap = 64;
        cfg.appPoolSize = 64;
        SoakEngine engine(cfg, make_tenants(), Rng(seed));
        return engine.run();
    };

    std::vector<std::uint64_t> seeds = {1, 2, 3, 4};
    std::vector<SoakStats> serial(seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i)
        serial[i] = run_one(seeds[i]);
    std::vector<SoakStats> threaded(seeds.size());
    parallelFor(4, seeds.size(),
                [&](std::size_t i) { threaded[i] = run_one(seeds[i]); });

    for (std::size_t i = 0; i < seeds.size(); ++i) {
        const SoakStats &a = serial[i];
        const SoakStats &b = threaded[i];
        EXPECT_EQ(a.submitted, b.submitted) << "seed " << seeds[i];
        EXPECT_EQ(a.admitted, b.admitted);
        EXPECT_EQ(a.shed, b.shed);
        EXPECT_EQ(a.retired, b.retired);
        EXPECT_EQ(a.eventsFired, b.eventsFired);
        EXPECT_EQ(a.peakLive, b.peakLive);
        EXPECT_TRUE(a.latencyNs == b.latencyNs) << "seed " << seeds[i];
        EXPECT_DOUBLE_EQ(a.slaAttainment, b.slaAttainment);
    }
}

TEST_F(ParallelGridTest, FatalInsideWorkerPropagates)
{
    SystemConfig cfg;
    AppRegistry registry = standardRegistry();
    ExperimentGrid grid(cfg, registry);
    grid.setJobs(4);
    // Unknown scheduler names fatal() inside the worker thread; the
    // exception must surface on the calling thread.
    EXPECT_THROW(grid.runAll({"no_such_scheduler"}, sequences()),
                 FatalError);
}

} // namespace
} // namespace nimblock
