/**
 * @file
 * Task-based PREMA scheduler (§5.1).
 *
 * Keeps PREMA's token accumulation and threshold candidate selection, and
 * its policy of choosing the shortest candidate to execute next, adapted
 * to the multi-slot overlay: the shortest-remaining candidate's ready
 * tasks are configured first, then remaining free slots go to the next
 * shortest candidate, and so on. No preemption and no pipelining across
 * batches.
 */

#ifndef NIMBLOCK_SCHED_PREMA_HH
#define NIMBLOCK_SCHED_PREMA_HH

#include <memory>

#include "sched/prema_tokens.hh"
#include "sched/scheduler.hh"

namespace nimblock {

/** PREMA adapted to the slot-based overlay. */
class PremaScheduler : public Scheduler
{
  public:
    explicit PremaScheduler(TokenPolicyConfig token_cfg = {});

    void pass(SchedEvent reason) override;

  private:
    TokenPolicyConfig _tokenCfg;
    std::unique_ptr<TokenPolicy> _tokens; //!< Created on first pass.

    /** Candidate pool persisted between token accumulations. */
    std::vector<AppInstanceId> _candidateIds;

    /**
     * liveAppsEpoch() at the last pool (re)build. While unchanged, the
     * cached _candidates pointers are still exact and passes skip the
     * per-id findApp re-resolution.
     */
    std::uint64_t _poolEpoch = ~0ull;

    /** Pass-local scratch (candidates and their sort keys). */
    std::vector<AppInstance *> _candidates;
    std::vector<std::pair<SimTime, std::size_t>> _byRemaining;
};

} // namespace nimblock

#endif // NIMBLOCK_SCHED_PREMA_HH
