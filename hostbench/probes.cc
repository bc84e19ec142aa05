#include "probes.hh"

#include <fstream>

namespace hostbench {

const char *
spanName(Span s)
{
    static const char *names[Tracer::kNames] = {
        "run",        "run_setup",   "core.ctx_warm", "analysis",
        "step.pass",  "step.arrival", "step.retire", "step.migrate",
        "step.other", "sched.pass",  "hypervisor.configure",
        "hypervisor.estimate", "hypervisor.preempt", "hypervisor.submit"};
    return names[static_cast<std::size_t>(s)];
}

bool
Tracer::writeTsv(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << "index\tparent\trun\tname\tstart_ns\tend_ns\n";
    std::int64_t origin = _records.empty() ? 0 : _records.front().start;
    auto ns = [&](std::int64_t t) {
        return static_cast<std::int64_t>(toNs(t - origin));
    };
    for (std::size_t i = 0; i < _records.size(); ++i) {
        const Record &r = _records[i];
        if (r.end == 0)
            continue; // still open when the run ended
        f << i + 1 << '\t' << r.parent << '\t' << r.run << '\t'
          << spanName(r.name) << '\t' << ns(r.start) << '\t' << ns(r.end)
          << '\n';
    }
    return static_cast<bool>(f);
}

} // namespace hostbench
