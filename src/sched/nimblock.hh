/**
 * @file
 * The Nimblock scheduling algorithm (§4).
 *
 * Pipeline per pass (Figure 3):
 *  1. token accumulation + threshold candidate selection (§4.1, shared
 *     PREMA TokenPolicy);
 *  2. slot reallocation on candidate-pool changes and periodic ticks
 *     (§4.2): one slot per candidate oldest-first, then up to the
 *     saturation-derived goal number, then surplus by age;
 *  3. task selection (§4.3): oldest candidate first; cross-batch
 *     pipelining begins automatically when an application has slots
 *     available;
 *  4. batch-preemption (§4.4, Algorithm 2): when a ready task has no free
 *     slot, the most over-consuming application's latest-in-topological-
 *     order running task is preempted at its next item boundary.
 *
 * The preemption and pipelining mechanisms can be disabled independently
 * for the paper's ablation study (Figure 9).
 */

#ifndef NIMBLOCK_SCHED_NIMBLOCK_HH
#define NIMBLOCK_SCHED_NIMBLOCK_HH

#include <memory>

#include "alloc/saturation.hh"
#include "sched/prema_tokens.hh"
#include "sched/scheduler.hh"

namespace nimblock {

/** Nimblock feature switches and tuning. */
struct NimblockConfig
{
    /** Enable cross-batch pipelining (ablation: NimblockNoPipe). */
    bool enablePipelining = true;

    /** Enable batch-preemption (ablation: NimblockNoPreempt). */
    bool enablePreemption = true;

    /** Token accumulation parameters. */
    TokenPolicyConfig tokens;

    /** Saturation threshold for goal-number analysis. */
    double saturationThreshold = 0.03;

    /** Compose the report name for a given ablation. */
    static std::string nameFor(bool pipelining, bool preemption);
};

/** Statistics specific to the Nimblock algorithm. */
struct NimblockStats
{
    std::uint64_t reallocations = 0;
    std::uint64_t preemptionsIssued = 0;
    std::uint64_t delayedPreemptions = 0;
    std::uint64_t opportunisticConfigures = 0;
};

/** The Nimblock scheduler. */
class NimblockScheduler : public Scheduler
{
  public:
    explicit NimblockScheduler(NimblockConfig cfg = {});

    void pass(SchedEvent reason) override;

    /**
     * Quarantine/probe changed the schedulable slot set: rebuild the goal
     * number cache for the new capacity and force a reallocation on the
     * next pass (§4.2 goal numbers depend on the slot count).
     */
    void onCapacityChanged() override;

    /**
     * Warm the goal-number cache for the app's (spec, batch) pair while
     * admission is already allocating: the value is a pure function of
     * the pair, and computing it here keeps reallocation passes free of
     * first-query cache fills (the steady-state zero-allocation
     * invariant, which now also covers clusters).
     */
    void onAppAdmitted(AppInstance &app) override;

    /** Pipelined Nimblock starts items as soon as their inputs exist. */
    bool
    bulkItemGating() const override
    {
        return !_cfg.enablePipelining;
    }

    const NimblockStats &nimblockStats() const { return _stats; }

    /** Goal number the scheduler would use for (app, batch). */
    std::size_t goalNumberFor(AppInstance &app);

  private:
    /** Lazily build token policy + goal cache (fabric known post-attach). */
    void ensureComponents();

    /** §4.2: recompute slots_allocated for every live application. */
    void reallocate(const std::vector<AppInstance *> &ordered);

    /**
     * §4.3/§4.4: select and place at most one task (one slot is
     * reconfigured at a time).
     *
     * @retval true A configuration was issued.
     */
    bool selectAndPlace(const std::vector<AppInstance *> &ordered);

    /**
     * Algorithm 2: pick the slot to vacate for a pending ready task.
     *
     * @return The victim slot, or kSlotNone when no application
     *         over-consumes its allocation.
     */
    SlotId selectPreemptionVictim();

    /** True when any slot is currently being configured. */
    bool configureInFlight();

    NimblockConfig _cfg;
    std::unique_ptr<TokenPolicy> _tokens;
    std::unique_ptr<GoalNumberCache> _goals;

    /**
     * Pre-warmed goal-number cache shared by the grid (read-only; see
     * core/grid_context.hh), adopted when its geometry matches exactly.
     * Misses fall back to the private _goals, built on demand.
     */
    const GoalNumberCache *_sharedGoals = nullptr;
    std::vector<AppInstanceId> _lastCandidateIds;
    NimblockStats _stats;

    /** Set by onCapacityChanged(); forces reallocation on the next pass. */
    bool _capacityDirty = false;
    /**
     * Validity epoch for per-instance cached goal numbers; bumped on
     * every capacity change (see goalNumberFor). Starts at 1 so a fresh
     * AppInstance (epoch 0) never reads as cached.
     */
    std::uint64_t _goalEpoch = 1;

    /**
     * Pass-local scratch promoted to members so a steady-state pass
     * reuses capacity instead of reallocating: the candidate pool, the
     * age-ordered view shared by reallocation and selection, the
     * candidate-id snapshot, and the per-candidate allocation counts.
     */
    std::vector<AppInstance *> _candidates;
    std::vector<AppInstance *> _ordered;
    std::vector<AppInstanceId> _idsScratch;
    std::vector<std::size_t> _alloc;

    /**
     * liveAppsEpoch() at the last pool (re)build; while unchanged, the
     * cached _candidates pointers are reused without re-resolution.
     */
    std::uint64_t _poolEpoch = ~0ull;
};

} // namespace nimblock

#endif // NIMBLOCK_SCHED_NIMBLOCK_HH
