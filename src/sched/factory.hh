/**
 * @file
 * Scheduler factory: algorithm name -> instance.
 *
 * Names match the evaluation's algorithm set: "baseline" (no-sharing,
 * alias "no_sharing"), "fcfs", "prema", "rr", "nimblock", plus the
 * ablations "nimblock_nopreempt", "nimblock_nopipe" and
 * "nimblock_nopreempt_nopipe" (Figure 9), the related-work comparator
 * "static" (DML-style static slot designation, §6.2, alias
 * "dml_static"), and "themis" (max-min fair, heterogeneity/energy-aware,
 * sched/themis.hh).
 */

#ifndef NIMBLOCK_SCHED_FACTORY_HH
#define NIMBLOCK_SCHED_FACTORY_HH

#include <memory>
#include <string>
#include <vector>

#include "sched/scheduler.hh"

namespace nimblock {

/**
 * Instantiate a scheduler by name.
 *
 * fatal()s on unknown names, listing the valid set; callers that want
 * to recover (CLI flag validation) use tryMakeScheduler().
 */
std::unique_ptr<Scheduler> makeScheduler(const std::string &name);

/**
 * Instantiate a scheduler by name; nullptr on unknown names.
 *
 * The non-fatal variant for user-supplied names (bench --sched,
 * dispatcher configs): the caller owns the error message and can print
 * usage instead of dying inside the factory.
 */
std::unique_ptr<Scheduler> tryMakeScheduler(const std::string &name);

/** All recognised scheduler names (aliases included). */
std::vector<std::string> schedulerNames();

/** The five algorithms evaluated head-to-head in §5.2-§5.5. */
std::vector<std::string> evaluationSchedulers();

/**
 * The evaluation set plus the "themis" fair scheduler: the column set
 * for benches that report the post-paper scheduler next to the paper's
 * five.
 */
std::vector<std::string> extendedSchedulers();

/** The four Nimblock ablation variants of §5.6. */
std::vector<std::string> ablationSchedulers();

} // namespace nimblock

#endif // NIMBLOCK_SCHED_FACTORY_HH
