/**
 * @file
 * Unit tests for AppInstance runtime state and readiness rules.
 */

#include <gtest/gtest.h>

#include "apps/benchmarks.hh"
#include "hypervisor/app_instance.hh"
#include "sim/logging.hh"
#include "taskgraph/builder.hh"

namespace nimblock {
namespace {

AppInstance
makeLenet(int batch = 4)
{
    return AppInstance(1, benchmarks::lenet(), batch, Priority::Medium, 0, 0);
}

TEST(Priority, FromIntAcceptsLevels)
{
    EXPECT_EQ(priorityFromInt(1), Priority::Low);
    EXPECT_EQ(priorityFromInt(3), Priority::Medium);
    EXPECT_EQ(priorityFromInt(9), Priority::High);
    EXPECT_THROW(priorityFromInt(2), FatalError);
    EXPECT_THROW(priorityFromInt(0), FatalError);
}

TEST(AppInstance, InitialState)
{
    AppInstance app = makeLenet();
    EXPECT_EQ(app.tasksCompleted(), 0);
    EXPECT_FALSE(app.done());
    EXPECT_EQ(app.slotsUsed(), 0u);
    EXPECT_EQ(app.firstLaunch(), kTimeNone);
    EXPECT_DOUBLE_EQ(app.token(), 0.0);
}

TEST(AppInstance, RejectsBadBatch)
{
    EXPECT_THROW(
        AppInstance(1, benchmarks::lenet(), 0, Priority::Low, 0, 0),
        FatalError);
}

TEST(AppInstance, SourceTaskIsAlwaysInputReady)
{
    AppInstance app = makeLenet();
    EXPECT_TRUE(app.inputsReady(0, 0));
    EXPECT_TRUE(app.inputsReady(0, 3));
    EXPECT_FALSE(app.inputsReady(0, 4)); // Beyond the batch.
}

TEST(AppInstance, SuccessorNeedsPredecessorItems)
{
    AppInstance app = makeLenet();
    EXPECT_FALSE(app.inputsReady(1, 0));
    app.taskState(0).itemsDone = 1;
    EXPECT_TRUE(app.inputsReady(1, 0));
    EXPECT_FALSE(app.inputsReady(1, 1));
}

TEST(AppInstance, BulkVsPipelinedConfigurability)
{
    AppInstance app = makeLenet();
    app.taskState(0).itemsDone = 1;
    // Pipelined: one item from task 0 suffices for task 1.
    EXPECT_TRUE(app.taskConfigurable(1, true));
    // Bulk: task 0 must finish the whole batch.
    EXPECT_FALSE(app.taskConfigurable(1, false));
    app.taskState(0).itemsDone = 4;
    EXPECT_TRUE(app.taskConfigurable(1, false));
    EXPECT_TRUE(app.predsFullyDone(1));
}

TEST(AppInstance, NonIdleTasksAreNotConfigurable)
{
    AppInstance app = makeLenet();
    app.taskState(0).phase = TaskPhase::Resident;
    EXPECT_FALSE(app.taskConfigurable(0, true));
    app.taskState(0).phase = TaskPhase::Done;
    EXPECT_FALSE(app.taskConfigurable(0, true));
}

TEST(AppInstance, FinishedTaskIsNotConfigurable)
{
    AppInstance app = makeLenet();
    app.taskState(0).itemsDone = 4; // Batch complete but still Idle.
    EXPECT_FALSE(app.taskConfigurable(0, true));
}

TEST(AppInstance, ConfigurableTasksInTopoOrder)
{
    AppInstance app(1, benchmarks::alexnet(), 2, Priority::Low, 0, 0);
    auto ready = app.configurableTasks(true);
    ASSERT_EQ(ready.size(), 1u); // Only the conv1 source stage.
    EXPECT_EQ(ready[0], app.graph().topoOrder().front());
}

TEST(AppInstance, PrefetchableIgnoresDataReadiness)
{
    AppInstance app = makeLenet();
    auto prefetchable = app.prefetchableTasks();
    EXPECT_EQ(prefetchable.size(), 3u);
    app.taskState(1).phase = TaskPhase::Configuring;
    EXPECT_EQ(app.prefetchableTasks().size(), 2u);
}

TEST(AppInstance, SlotsUsedCountsConfiguringAndResident)
{
    AppInstance app = makeLenet();
    app.taskState(0).phase = TaskPhase::Configuring;
    app.taskState(1).phase = TaskPhase::Resident;
    app.taskState(2).phase = TaskPhase::Done;
    EXPECT_EQ(app.slotsUsed(), 2u);
}

TEST(AppInstance, OverConsumption)
{
    AppInstance app = makeLenet();
    app.taskState(0).phase = TaskPhase::Resident;
    app.taskState(1).phase = TaskPhase::Resident;
    app.setSlotsAllocated(1);
    EXPECT_EQ(app.overConsumption(), 1);
    app.setSlotsAllocated(3);
    EXPECT_EQ(app.overConsumption(), -1);
}

TEST(AppInstance, DoneAfterAllTasksComplete)
{
    AppInstance app = makeLenet();
    app.noteTaskCompleted();
    app.noteTaskCompleted();
    EXPECT_FALSE(app.done());
    app.noteTaskCompleted();
    EXPECT_TRUE(app.done());
}

TEST(AppInstance, NoteLaunchOnlyRecordsFirst)
{
    AppInstance app = makeLenet();
    app.noteLaunch(simtime::ms(10));
    app.noteLaunch(simtime::ms(99));
    EXPECT_EQ(app.firstLaunch(), simtime::ms(10));
}

TEST(AppInstance, CandidateSinceIsSticky)
{
    AppInstance app = makeLenet();
    EXPECT_EQ(app.candidateSince(), kTimeNone);
    app.setCandidateSince(simtime::ms(5));
    app.setCandidateSince(simtime::ms(50));
    EXPECT_EQ(app.candidateSince(), simtime::ms(5));
}

TEST(AppInstance, ResidentTasksInTopoOrder)
{
    AppInstance app = makeLenet();
    app.taskState(2).phase = TaskPhase::Resident;
    app.taskState(0).phase = TaskPhase::Resident;
    auto resident = app.residentTasks();
    ASSERT_EQ(resident.size(), 2u);
    EXPECT_EQ(resident[0], 0u);
    EXPECT_EQ(resident[1], 2u);
}

// ---------------------------------------------------------------------
// remainingWork: the single-slot remaining-work estimate, in 128 bits.
// The suite keeps the name it had while the estimate lived in the
// scheduler observation layer, so these test IDs stay stable.

/** One-task app: numTasks x batch == batch. */
AppInstance
singleKernel(int batch)
{
    GraphBuilder b;
    TaskSpec t;
    t.name = "k";
    t.itemLatency = simtime::us(10);
    b.addTask(std::move(t));
    return AppInstance(1, std::make_shared<AppSpec>("k", "k", b.build()),
                       batch, Priority::Low, 0, 0);
}

/** Mark @p done items complete on the single task. */
void
completeItems(AppInstance &app, int done)
{
    AppCheckpoint ck;
    ck.itemsDone = {done};
    app.restoreFromCheckpoint(ck);
}

TEST(PolicyObservation, EstimatedRemainingMatchesExactSmallCases)
{
    const SimTime est = simtime::ms(250);
    AppInstance app = singleKernel(400);
    completeItems(app, 400 - 123);
    EXPECT_EQ(remainingWork(app, est), est * 123 / 400);

    AppInstance done = singleKernel(400);
    completeItems(done, 400);
    EXPECT_EQ(remainingWork(done, est), 0);
    EXPECT_EQ(remainingWork(singleKernel(400), est), est);

    // numTasks x batch counts every task's items.
    AppInstance lenet = makeLenet(100);
    std::int64_t total =
        static_cast<std::int64_t>(lenet.graph().numTasks()) * 100;
    EXPECT_EQ(remainingWork(lenet, est), est);
    lenet.noteItemProgress();
    EXPECT_EQ(remainingWork(lenet, est), est * (total - 1) / total);
}

TEST(PolicyObservation, EstimatedRemainingSurvivesInt64Overflow)
{
    // Large batch of tiny items: total estimate ~18 simulated minutes
    // (1.1e12 ns) over 1e8 items with half remaining. An int64
    // intermediate product (estimate x remaining items = 5.5e19)
    // overflows and collapses PREMA's shortest-remaining order; the
    // 128-bit path returns the exact proportional estimate.
    const SimTime est = SimTime{1} << 40;
    AppInstance app = singleKernel(100'000'000);
    completeItems(app, 50'000'000);
    EXPECT_EQ(remainingWork(app, est), est / 2);

    // Worst realistic magnitudes stay exact too.
    AppInstance one_left = singleKernel(100'000'000);
    completeItems(one_left, 100'000'000 - 1);
    SimTime r = remainingWork(one_left, simtime::sec(3600));
    EXPECT_GT(r, 0);
    EXPECT_LE(r, simtime::sec(3600));
}

} // namespace
} // namespace nimblock
