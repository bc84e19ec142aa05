#include "faas/service.hh"

#include <algorithm>
#include <limits>

#include "sim/logging.hh"
#include "stats/summary.hh"

namespace nimblock {

FaasService::FaasService(FaasConfig cfg) : _cfg(std::move(cfg))
{
    if (_cfg.duration <= 0)
        fatal("FaaS deployment needs a positive duration");
}

RollingSlaWindows::RollingSlaWindows(SimTime windowLength,
                                     std::size_t numWindows)
    : _len(windowLength), _ring(numWindows)
{
    if (windowLength <= 0)
        fatal("SLA window length must be positive");
    if (numWindows == 0)
        fatal("SLA window ring needs at least one window");
}

void
RollingSlaWindows::closeCurrent()
{
    const Window &w = _ring[_cur];
    if (w.total > 0) {
        double att = static_cast<double>(w.met) /
                     static_cast<double>(w.total);
        if (!_anyCompletedNonEmpty || att < _worst)
            _worst = att;
        _anyCompletedNonEmpty = true;
    }
    ++_completed;
}

void
RollingSlaWindows::advanceTo(SimTime now)
{
    std::int64_t epoch = now / _len;
    if (epoch <= _curEpoch)
        return;
    // A gap longer than the ring leaves only empty windows behind; close
    // at most one ring's worth individually and account the rest as
    // completed-empty in bulk so the roll stays O(ring), not O(gap).
    std::int64_t gap = epoch - _curEpoch;
    std::int64_t steps =
        std::min<std::int64_t>(gap, static_cast<std::int64_t>(_ring.size()));
    for (std::int64_t i = 0; i < steps; ++i) {
        closeCurrent();
        _cur = (_cur + 1) % _ring.size();
        _ring[_cur] = Window{};
    }
    _completed += static_cast<std::uint64_t>(gap - steps);
    _curEpoch = epoch;
}

void
RollingSlaWindows::record(SimTime now, bool slaMet)
{
    advanceTo(now);
    Window &w = _ring[_cur];
    ++w.total;
    ++_totalRecorded;
    if (slaMet) {
        ++w.met;
        ++_totalMet;
    }
}

double
RollingSlaWindows::attainment() const
{
    std::uint64_t total = 0;
    std::uint64_t met = 0;
    for (const Window &w : _ring) {
        total += w.total;
        met += w.met;
    }
    if (total == 0)
        return std::numeric_limits<double>::quiet_NaN();
    return static_cast<double>(met) / static_cast<double>(total);
}

double
RollingSlaWindows::worstWindowAttainment() const
{
    return _anyCompletedNonEmpty ? _worst
                                 : std::numeric_limits<double>::quiet_NaN();
}

void
FaasService::deploy(FunctionLoad load)
{
    if (!load.function.app)
        fatal("function '%s' needs a backing app",
              load.function.name.c_str());
    if (load.function.name.empty())
        fatal("functions need names");
    if (load.invocationsPerSec <= 0)
        fatal("function '%s' needs a positive invocation rate",
              load.function.name.c_str());
    if (load.function.batch < 1)
        fatal("function '%s' needs batch >= 1", load.function.name.c_str());
    if (load.function.slaFactor <= 0)
        fatal("function '%s' needs a positive SLA factor",
              load.function.name.c_str());
    for (const FunctionLoad &existing : _loads) {
        if (existing.function.name == load.function.name)
            fatal("duplicate function '%s'", load.function.name.c_str());
    }
    _loads.push_back(std::move(load));
}

std::vector<std::string>
FaasService::functions() const
{
    std::vector<std::string> out;
    for (const FunctionLoad &l : _loads)
        out.push_back(l.function.name);
    return out;
}

EventSequence
FaasService::generateInvocations(const Rng &rng) const
{
    if (_loads.empty())
        fatal("FaaS deployment has no functions");

    struct Pending
    {
        SimTime arrival;
        std::size_t load_idx;
    };
    std::vector<Pending> pending;

    for (std::size_t i = 0; i < _loads.size(); ++i) {
        const FunctionLoad &load = _loads[i];
        Rng stream = rng.derive("faas/" + load.function.name);
        double mean_gap_sec = 1.0 / load.invocationsPerSec;
        SimTime t = 0;
        for (;;) {
            t += simtime::secF(stream.exponential(mean_gap_sec));
            if (t > _cfg.duration)
                break;
            pending.push_back(Pending{t, i});
        }
    }
    std::sort(pending.begin(), pending.end(),
              [](const Pending &a, const Pending &b) {
                  if (a.arrival != b.arrival)
                      return a.arrival < b.arrival;
                  return a.load_idx < b.load_idx;
              });

    EventSequence seq;
    seq.name = "faas";
    seq.seed = rng.seed();
    for (std::size_t i = 0; i < pending.size(); ++i) {
        const FunctionSpec &fn = _loads[pending[i].load_idx].function;
        WorkloadEvent e;
        e.index = static_cast<int>(i);
        e.appName = fn.app->name();
        e.batch = fn.batch;
        e.priority = fn.priority;
        e.arrival = pending[i].arrival;
        seq.events.push_back(std::move(e));
    }
    seq.validate();
    return seq;
}

FaasRunResult
FaasService::run(const Rng &rng) const
{
    EventSequence seq = generateInvocations(rng);
    if (seq.events.empty())
        fatal("the configured duration produced no invocations");

    // Map event index -> function (several functions may share an app).
    // Regenerate the assignment the same way generateInvocations did.
    std::vector<const FunctionSpec *> fn_of_event;
    {
        struct Pending
        {
            SimTime arrival;
            std::size_t load_idx;
        };
        std::vector<Pending> pending;
        for (std::size_t i = 0; i < _loads.size(); ++i) {
            Rng stream = rng.derive("faas/" + _loads[i].function.name);
            double mean_gap_sec = 1.0 / _loads[i].invocationsPerSec;
            SimTime t = 0;
            for (;;) {
                t += simtime::secF(stream.exponential(mean_gap_sec));
                if (t > _cfg.duration)
                    break;
                pending.push_back(Pending{t, i});
            }
        }
        std::sort(pending.begin(), pending.end(),
                  [](const Pending &a, const Pending &b) {
                      if (a.arrival != b.arrival)
                          return a.arrival < b.arrival;
                      return a.load_idx < b.load_idx;
                  });
        for (const Pending &p : pending)
            fn_of_event.push_back(&_loads[p.load_idx].function);
    }

    AppRegistry registry;
    for (const FunctionLoad &l : _loads) {
        if (!registry.contains(l.function.app->name()))
            registry.add(l.function.app);
    }

    Simulation sim(_cfg.system, registry);
    FaasRunResult result;
    result.run = sim.run(seq);

    // Build invocation records joined by event index.
    std::map<std::string, std::vector<const InvocationRecord *>> grouped;
    result.invocations.reserve(result.run.records.size());
    for (const AppRecord &rec : result.run.records) {
        const FunctionSpec &fn =
            *fn_of_event[static_cast<std::size_t>(rec.eventIndex)];
        InvocationRecord inv;
        inv.function = fn.name;
        inv.submitted = rec.arrival;
        inv.completed = rec.retire;
        SimTime unit =
            _cfg.system.singleSlotLatency(*fn.app, fn.batch);
        inv.slaMet = inv.latency() <=
                     static_cast<SimTime>(fn.slaFactor *
                                          static_cast<double>(unit));
        result.invocations.push_back(std::move(inv));
    }
    std::sort(result.invocations.begin(), result.invocations.end(),
              [](const InvocationRecord &a, const InvocationRecord &b) {
                  return a.submitted < b.submitted;
              });

    // Fold the service-level view back into the counter stream: cumulative
    // completions and the running SLA-attainment rate, sampled at each
    // invocation's completion time.
    if (result.run.counters) {
        CounterRegistry &ctr = *result.run.counters;
        CounterId completed = ctr.define("faas.completed");
        CounterId sla_rate = ctr.define("faas.sla_met_rate");
        std::vector<const InvocationRecord *> by_completion;
        by_completion.reserve(result.invocations.size());
        for (const InvocationRecord &inv : result.invocations)
            by_completion.push_back(&inv);
        std::sort(by_completion.begin(), by_completion.end(),
                  [](const InvocationRecord *a, const InvocationRecord *b) {
                      return a->completed < b->completed;
                  });
        std::size_t done = 0;
        std::size_t met = 0;
        for (const InvocationRecord *inv : by_completion) {
            ++done;
            met += inv->slaMet;
            ctr.sample(completed, inv->completed,
                       static_cast<double>(done));
            ctr.sample(sla_rate, inv->completed,
                       static_cast<double>(met) /
                           static_cast<double>(done));
        }
    }

    for (const InvocationRecord &inv : result.invocations)
        grouped[inv.function].push_back(&inv);

    for (const auto &[name, invs] : grouped) {
        FunctionStats stats;
        stats.function = name;
        stats.invocations = invs.size();
        Summary latency;
        std::size_t met = 0;
        for (const InvocationRecord *inv : invs) {
            latency.add(simtime::toSec(inv->latency()));
            met += inv->slaMet;
        }
        stats.meanLatencySec = latency.mean();
        stats.p99LatencySec = latency.percentile(99);
        stats.slaAttainment =
            static_cast<double>(met) / static_cast<double>(invs.size());
        stats.coldStartSec = simtime::toSec(invs.front()->latency());
        result.perFunction[name] = stats;
    }
    return result;
}

} // namespace nimblock
