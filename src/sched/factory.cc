#include "sched/factory.hh"

#include "sched/fcfs.hh"
#include "sched/nimblock.hh"
#include "sched/no_sharing.hh"
#include "sched/prema.hh"
#include "sched/round_robin.hh"
#include "sched/static_alloc.hh"
#include "sched/themis.hh"
#include "sim/logging.hh"

namespace nimblock {

std::unique_ptr<Scheduler>
tryMakeScheduler(const std::string &name)
{
    if (name == "baseline" || name == "no_sharing")
        return std::make_unique<NoSharingScheduler>();
    if (name == "fcfs")
        return std::make_unique<FcfsScheduler>();
    if (name == "prema")
        return std::make_unique<PremaScheduler>();
    if (name == "rr")
        return std::make_unique<RoundRobinScheduler>();
    if (name == "static" || name == "dml_static")
        return std::make_unique<StaticAllocScheduler>();
    if (name == "themis")
        return std::make_unique<ThemisScheduler>();

    NimblockConfig cfg;
    if (name == "nimblock")
        return std::make_unique<NimblockScheduler>(cfg);
    if (name == "nimblock_nopreempt") {
        cfg.enablePreemption = false;
        return std::make_unique<NimblockScheduler>(cfg);
    }
    if (name == "nimblock_nopipe") {
        cfg.enablePipelining = false;
        return std::make_unique<NimblockScheduler>(cfg);
    }
    if (name == "nimblock_nopreempt_nopipe") {
        cfg.enablePreemption = false;
        cfg.enablePipelining = false;
        return std::make_unique<NimblockScheduler>(cfg);
    }

    return nullptr;
}

std::unique_ptr<Scheduler>
makeScheduler(const std::string &name)
{
    std::unique_ptr<Scheduler> sched = tryMakeScheduler(name);
    if (sched)
        return sched;

    std::string valid;
    for (const std::string &n : schedulerNames()) {
        if (!valid.empty())
            valid += ", ";
        valid += n;
    }
    fatal("unknown scheduler '%s' (valid: %s)", name.c_str(), valid.c_str());
}

std::vector<std::string>
schedulerNames()
{
    return {"baseline",   "no_sharing", "fcfs",
            "prema",      "rr",         "static",
            "dml_static", "themis",     "nimblock",
            "nimblock_nopreempt", "nimblock_nopipe",
            "nimblock_nopreempt_nopipe"};
}

std::vector<std::string>
evaluationSchedulers()
{
    return {"baseline", "fcfs", "prema", "rr", "nimblock"};
}

std::vector<std::string>
extendedSchedulers()
{
    return {"baseline", "fcfs",   "prema", "rr",
            "nimblock", "themis"};
}

std::vector<std::string>
ablationSchedulers()
{
    return {"nimblock", "nimblock_nopreempt", "nimblock_nopipe",
            "nimblock_nopreempt_nopipe"};
}

} // namespace nimblock
