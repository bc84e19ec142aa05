/**
 * @file
 * Runtime state of one arrived application.
 *
 * An AppInstance is created when a workload event is released to the
 * hypervisor (§2.2): it binds an AppSpec to the arrival's batch size and
 * priority and tracks per-task batch progress, slot residency, scheduler
 * bookkeeping (tokens, slot allocation) and accounting used by the
 * evaluation metrics.
 */

#ifndef NIMBLOCK_HYPERVISOR_APP_INSTANCE_HH
#define NIMBLOCK_HYPERVISOR_APP_INSTANCE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "apps/app_spec.hh"
#include "fabric/slot.hh"
#include "sim/time.hh"

namespace nimblock {

/** Priority levels used throughout the paper (§4.1). */
enum class Priority : int
{
    Low = 1,
    Medium = 3,
    High = 9,
};

/** All priority levels in increasing order. */
inline constexpr int kPriorityLevels[] = {1, 3, 9};

/** Parse an integer priority; fatal() on values outside {1, 3, 9}. */
Priority priorityFromInt(int value);

/** Lifecycle of a task within a running application. */
enum class TaskPhase
{
    Idle,        //!< Not on the fabric (never launched, or preempted).
    Configuring, //!< Bitstream load / reconfiguration in flight.
    Resident,    //!< Configured in a slot.
    Done,        //!< All batch items processed.
};

/** Render a TaskPhase. */
const char *toString(TaskPhase p);

/** Per-task runtime state. */
struct TaskRunState
{
    TaskPhase phase = TaskPhase::Idle;

    /** Batch items fully processed (outputs available). */
    int itemsDone = 0;

    /** Slot hosting the task while Configuring/Resident. */
    SlotId slot = kSlotNone;

    /** True while a batch item is executing. */
    bool executing = false;

    /** Times this task has been batch-preempted. */
    int preemptions = 0;

    /**
     * Remaining wall time of a checkpointed in-flight item (mid-item
     * preemption extension); kTimeNone when no partial item is saved.
     */
    SimTime itemRemaining = kTimeNone;
};

/**
 * Portable snapshot of an application's progress (cluster live
 * migration). The batch-preemption mechanism already persists completed
 * items to DDR at task boundaries (§3.4); a checkpoint is that saved
 * state plus the identity/accounting needed to readmit the app on
 * another board as the *same* logical application.
 */
struct AppCheckpoint
{
    /** @name Identity (carried verbatim to the target board) */
    /// @{
    AppSpecPtr spec;
    int batch = 1;
    Priority priority = Priority::Low;
    SimTime arrival = kTimeNone;
    int eventIndex = -1;
    /// @}

    /** Items completed per task (the DDR-resident batch state). */
    std::vector<int> itemsDone;

    /** @name Accounting (continues on the target board) */
    /// @{
    SimTime firstLaunch = kTimeNone;
    SimTime runTime = 0;
    SimTime reconfigTime = 0;
    int reconfigs = 0;
    int preemptions = 0;
    int itemRetries = 0;
    int requeues = 0;
    int migrations = 0;      //!< Hops completed before this one.
    SimTime migrationTime = 0; //!< Transfer latency accumulated so far.
    double energyJoules = 0; //!< Joules charged on previous boards.
    /// @}

    /** Checkpoint payload sizing the transfer (buffers + descriptor). */
    std::uint64_t stateBytes = 0;

    /** Single-slot estimate of the work left (rebalancer input). */
    SimTime remainingWorkEstimate = 0;
};

/** Runtime state of one arrived application. */
class AppInstance
{
  public:
    /**
     * @param id          Unique instance id (monotonic per hypervisor).
     * @param spec        The application's static description.
     * @param batch       Batch size (>= 1).
     * @param priority    Priority level.
     * @param arrival     Arrival timestamp.
     * @param event_index Index of the generating event in its sequence.
     */
    AppInstance(AppInstanceId id, AppSpecPtr spec, int batch,
                Priority priority, SimTime arrival, int event_index);

    /**
     * Rebind a recycled instance to a new arrival, keeping its id
     * (hypervisor pooling; see HypervisorConfig::appPoolSize). Resets
     * every runtime, scheduler and accounting field to the
     * freshly-constructed state; the task-state vector is reused in
     * place, so recycling within a warmed app set never allocates.
     */
    void reinit(AppSpecPtr spec, int batch, Priority priority,
                SimTime arrival, int event_index);

    /** @name Identity */
    /// @{
    AppInstanceId id() const { return _id; }
    const AppSpec &spec() const { return *_spec; }
    const AppSpecPtr &specPtr() const { return _spec; }
    const TaskGraph &graph() const { return _spec->graph(); }
    int batch() const { return _batch; }
    Priority priority() const { return _priority; }
    int priorityValue() const { return static_cast<int>(_priority); }
    SimTime arrival() const { return _arrival; }
    int eventIndex() const { return _eventIndex; }
    /// @}

    /** @name Task state */
    /// @{

    /**
     * Per-task run state. Inline and bounds-checked: this is the single
     * hottest accessor in the simulator (every gating, placement and
     * completion decision goes through it), and the out-of-line call was
     * measurable in whole-grid profiles.
     */
    TaskRunState &
    taskState(TaskId t)
    {
        if (t >= _tasks.size())
            taskRangePanic(t);
        return _tasks[t];
    }

    const TaskRunState &
    taskState(TaskId t) const
    {
        if (t >= _tasks.size())
            taskRangePanic(t);
        return _tasks[t];
    }

    /** Count of tasks whose whole batch is done. */
    int tasksCompleted() const { return _tasksCompleted; }

    /** Mark one more task complete (hypervisor only). */
    void noteTaskCompleted();

    /**
     * Running sum of itemsDone across all tasks, maintained by the
     * hypervisor via noteItemProgress() so remaining-work estimates are
     * O(1) instead of an O(tasks) scan per scheduling pass.
     */
    std::int64_t itemsDoneTotal() const { return _itemsDoneTotal; }

    /** Account one completed batch item (call next to ++itemsDone). */
    void noteItemProgress() { ++_itemsDoneTotal; }

    /** True when every task has processed the full batch. */
    bool done() const;

    /**
     * True when every predecessor of @p t has produced item @p item
     * (0-based), i.e. the item's inputs exist.
     */
    bool inputsReady(TaskId t, int item) const;

    /** True when every predecessor of @p t finished the entire batch. */
    bool predsFullyDone(TaskId t) const;

    /**
     * True when @p t could be configured now: it is idle with items
     * remaining and its data dependencies permit progress.
     *
     * @param pipelined With pipelining, only the *next item's* inputs must
     *                  exist (fine-grained sharing, §3.2); without, all
     *                  predecessors must have finished the batch (bulk).
     */
    bool taskConfigurable(TaskId t, bool pipelined) const;

    /** All configurable tasks in topological order. */
    std::vector<TaskId> configurableTasks(bool pipelined) const;

    /** As configurableTasks(), filling @p out (cleared first). */
    void configurableTasksInto(std::vector<TaskId> &out,
                               bool pipelined) const;

    /**
     * Tasks eligible for configuration *prefetch*: idle with items
     * remaining, regardless of data readiness, in topological order.
     * Prefetching hides reconfiguration latency behind upstream
     * computation; items still respect the execution discipline.
     */
    std::vector<TaskId> prefetchableTasks() const;

    /** As prefetchableTasks(), filling @p out (cleared first). */
    void prefetchableTasksInto(std::vector<TaskId> &out) const;

    /** True if any task is configurable under either discipline. */
    bool hasConfigurableTask(bool pipelined) const;

    /** Slots currently held (Configuring + Resident tasks). */
    std::size_t slotsUsed() const;

    /** Resident tasks in topological order. */
    std::vector<TaskId> residentTasks() const;

    /** As residentTasks(), filling @p out (cleared first). */
    void residentTasksInto(std::vector<TaskId> &out) const;
    /// @}

    /** @name Scheduler bookkeeping */
    /// @{

    /** PREMA/Nimblock token count. */
    double token() const { return _token; }
    void setToken(double t) { _token = t; }

    /** Nimblock slot allocation target (§4.2). */
    std::size_t slotsAllocated() const { return _slotsAllocated; }
    void setSlotsAllocated(std::size_t n) { _slotsAllocated = n; }

    /**
     * Over-consumption per Algorithm 2 line 4:
     * slots_used - slots_allocated (may be negative).
     */
    std::int64_t
    overConsumption() const
    {
        return static_cast<std::int64_t>(slotsUsed()) -
               static_cast<std::int64_t>(_slotsAllocated);
    }

    /** True once the app has entered the candidate pool at least once. */
    bool everCandidate() const { return _everCandidate; }
    void setEverCandidate() { _everCandidate = true; }

    /** Memoized single-slot latency estimate (hypervisor-owned). */
    /** Interned bitstream-name id (set by the hypervisor on admit). */
    BitstreamNameId bitstreamNameId() const { return _bsName; }
    void setBitstreamNameId(BitstreamNameId id) { _bsName = id; }

    SimTime latencyEstimate() const { return _latencyEstimate; }
    void setLatencyEstimate(SimTime t) { _latencyEstimate = t; }

    /**
     * Scheduler-owned goal-number cache, validated by an epoch the
     * scheduler bumps whenever goal numbers can change (capacity
     * events). Epoch 0 never matches, so a fresh instance recomputes.
     */
    std::size_t cachedGoalNumber() const { return _cachedGoal; }
    std::uint64_t cachedGoalEpoch() const { return _cachedGoalEpoch; }
    void
    setCachedGoalNumber(std::size_t goal, std::uint64_t epoch)
    {
        _cachedGoal = goal;
        _cachedGoalEpoch = epoch;
    }

    /** Time of first admission to the candidate pool (kTimeNone before). */
    SimTime candidateSince() const { return _candidateSince; }
    void
    setCandidateSince(SimTime t)
    {
        if (_candidateSince == kTimeNone)
            _candidateSince = t;
    }
    /// @}

    /** @name Accounting */
    /// @{
    SimTime firstLaunch() const { return _firstLaunch; }
    void noteLaunch(SimTime now);

    SimTime retireTime() const { return _retireTime; }
    void setRetireTime(SimTime t) { _retireTime = t; }

    /** Summed execution time of all batch items across tasks. */
    SimTime totalRunTime() const { return _totalRunTime; }
    void addRunTime(SimTime d) { _totalRunTime += d; }

    /** Summed reconfiguration time charged to this app. */
    SimTime totalReconfigTime() const { return _totalReconfigTime; }
    void addReconfigTime(SimTime d) { _totalReconfigTime += d; }

    int reconfigCount() const { return _reconfigCount; }
    void noteReconfig() { ++_reconfigCount; }

    /** Joules charged to this app by the energy model (0 when off). */
    double energyJoules() const { return _energyJoules; }
    void addEnergy(double joules) { _energyJoules += joules; }

    int preemptionCount() const { return _preemptionCount; }
    void notePreemption() { ++_preemptionCount; }

    /** True when the app was failed by the resilience policy. */
    bool failed() const { return _failed; }
    void markFailed() { _failed = true; }

    /** Batch items re-executed after an injected crash/hang. */
    int itemRetries() const { return _itemRetries; }
    void noteItemRetry() { ++_itemRetries; }

    /** Times the whole app was requeued (all progress discarded). */
    int requeues() const { return _requeues; }
    void noteRequeue() { ++_requeues; }

    /**
     * Discard all batch progress (requeue): zero items done everywhere,
     * Resident/Done tasks return to Idle. The caller must have vacated
     * Resident slots first; tasks still Configuring keep their phase (the
     * in-flight reconfiguration lands normally and the task restarts from
     * item 0). Accounting (run/reconfig time already consumed) is kept.
     */
    void resetProgress();
    /// @}

    /** @name Live migration (cluster/migration.hh drives these) */
    /// @{

    /** True while the app is quiescing for (or in flight to) a board. */
    bool migrating() const { return _migrating; }

    /** Arm or clear the migration latch; arming resets the
        once-per-migration quiescence notification. */
    void
    setMigrating(bool m)
    {
        _migrating = m;
        if (m)
            _migrateNotified = false;
    }

    /** True once this migration's quiescence callback has fired. */
    bool migrateNotified() const { return _migrateNotified; }
    void setMigrateNotified() { _migrateNotified = true; }

    /** Completed inter-board hops. */
    int migrations() const { return _migrations; }
    void noteMigration() { ++_migrations; }

    /** Summed checkpoint transfer latency. */
    SimTime migrationTime() const { return _migrationTime; }
    void addMigrationTime(SimTime d) { _migrationTime += d; }

    /** Snapshot progress + accounting (tasks must all be off-fabric). */
    AppCheckpoint captureCheckpoint() const;

    /**
     * Adopt a checkpoint's progress and accounting (hypervisor only,
     * immediately after construction on the target board). Tasks whose
     * batch completed become Done; the rest restart Idle from their
     * saved itemsDone.
     */
    void restoreFromCheckpoint(const AppCheckpoint &ck);
    /// @}

    /** Debug rendering. */
    std::string toString() const;

  private:
    AppInstanceId _id;
    AppSpecPtr _spec;
    int _batch;
    Priority _priority;
    SimTime _arrival;
    int _eventIndex;

    [[noreturn]] void taskRangePanic(TaskId t) const;

    std::vector<TaskRunState> _tasks;
    int _tasksCompleted = 0;
    std::int64_t _itemsDoneTotal = 0;

    double _token = 0.0;
    std::size_t _slotsAllocated = 0;
    bool _everCandidate = false;
    SimTime _candidateSince = kTimeNone;
    std::size_t _cachedGoal = 0;
    std::uint64_t _cachedGoalEpoch = 0;
    SimTime _latencyEstimate = kTimeNone;
    BitstreamNameId _bsName = kBitstreamNameNone;

    SimTime _firstLaunch = kTimeNone;
    SimTime _retireTime = kTimeNone;
    SimTime _totalRunTime = 0;
    SimTime _totalReconfigTime = 0;
    int _reconfigCount = 0;
    int _preemptionCount = 0;
    double _energyJoules = 0;
    bool _failed = false;
    int _itemRetries = 0;
    int _requeues = 0;

    bool _migrating = false;
    bool _migrateNotified = false;
    int _migrations = 0;
    SimTime _migrationTime = 0;
};

/**
 * Single-slot estimate of @p app's unfinished work: @p single_slot_latency
 * scaled by the share of its numTasks x batch items not yet done. The
 * product is taken in 128 bits: in int64, a long estimate over a large
 * batch (2^40 ns x 5e7 remaining items) overflows.
 */
inline SimTime
remainingWork(const AppInstance &app, SimTime single_slot_latency)
{
    auto total_items =
        static_cast<std::int64_t>(app.graph().numTasks()) * app.batch();
    if (total_items <= 0)
        return 0;
    return static_cast<SimTime>(
        static_cast<__int128>(single_slot_latency) *
        (total_items - app.itemsDoneTotal()) / total_items);
}

} // namespace nimblock

#endif // NIMBLOCK_HYPERVISOR_APP_INSTANCE_HH
