/**
 * @file
 * Host-time probes the benchmark wraps around the simulator's public
 * entry points: a span tracer, a Scheduler decorator that times pass(),
 * a SchedulerOps interposer that times the hypervisor calls a pass
 * makes, and the busy-wait used by the calibration mode.
 *
 * Nothing here reaches inside the library: every probe sits on a
 * virtual interface the library already exposes, so the decorated run
 * executes the same simulation as an undecorated one.
 */

#ifndef HOSTBENCH_PROBES_HH
#define HOSTBENCH_PROBES_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "cluster/migration.hh"
#include "hypervisor/hypervisor.hh"
#include "sched/scheduler.hh"

namespace hostbench {

using namespace nimblock;

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Raw span timestamp: the time-stamp counter where the CPU has one (one
 * instruction, against tens of ns for a steady_clock read on a VM, so
 * less of the tracer's own cost lands between spans), else steady_clock
 * ns. Tracer converts ticks to ns over its whole lifetime.
 */
inline std::int64_t
ticks()
{
#if defined(__x86_64__) || defined(__i386__)
    return static_cast<std::int64_t>(__rdtsc());
#else
    return nowNs();
#endif
}

/** Spin for @p ns of host time (calibration delay). */
inline void
busyWait(std::int64_t ns)
{
    if (ns <= 0)
        return;
    std::int64_t until = nowNs() + ns;
    while (nowNs() < until) {
    }
}

/** Span names: one per layer boundary the benchmark wraps. */
enum class Span : std::uint8_t
{
    Run,          //!< One simulation (grid cell, soak cell, cluster run).
    RunSetup,     //!< Engine construction and start() inside a run.
    CtxWarm,      //!< GridContext warm + freeze of one scenario.
    Analysis,     //!< compare + reductionStats + deadlineSweep.
    StepPass,     //!< Kernel step that ran a scheduling pass.
    StepArrival,  //!< Kernel step that admitted (or shed) an app.
    StepRetire,   //!< Kernel step that retired an app.
    StepMigrate,  //!< Kernel step that completed a migration.
    StepOther,    //!< Item, CAP, SD and timer steps.
    Pass,         //!< Scheduler::pass() body.
    Configure,    //!< Hypervisor::configure() from a pass.
    Estimate,     //!< Hypervisor::estimatedSingleSlotLatency() from a pass.
    Preempt,      //!< Hypervisor::preempt() from a pass.
    Submit,       //!< Hypervisor::submit() from an arrival.
    Count
};

const char *spanName(Span s);

/**
 * In-memory span recorder. Every span's duration and self time (its
 * duration minus the part its children cover) is accumulated per name
 * when it closes; the first kRetain spans are also kept verbatim and
 * written out by writeTsv() when the benchmark ends.
 */
class Tracer
{
  public:
    static constexpr std::size_t kRetain = 1 << 17;
    static constexpr std::size_t kNames = static_cast<std::size_t>(Span::Count);

    struct Record
    {
        std::int64_t start = 0;
        std::int64_t end = 0;
        std::uint32_t parent = 0; //!< Index + 1 of the parent; 0 = root.
        std::uint32_t run = 0;
        Span name = Span::Run;
    };

    Tracer() : _ns0(nowNs()), _tick0(ticks()) { _records.reserve(kRetain); }

    /** Fix the tick-to-ns rate over the time since construction; call
        once the traced work is done, before reading any time. */
    void
    stop()
    {
        std::int64_t dt = ticks() - _tick0;
        _nsPerTick = dt > 0 ? static_cast<double>(nowNs() - _ns0) / dt : 1.0;
    }

    /** Ticks (span durations) to ns. */
    double toNs(std::int64_t t) const { return t * _nsPerTick; }

    /** Open a span of @p name under the innermost open span, starting
        now or at tick @p at; each Run span starts a new run id. */
    void
    begin(Span name, std::int64_t at = 0)
    {
        if (name == Span::Run)
            ++_run;
        std::uint32_t parent = _stack.empty() ? 0 : _stack.back().index;
        std::uint32_t index = 0;
        if (_records.size() < kRetain) {
            _records.push_back({0, 0, parent, _run, name});
            index = static_cast<std::uint32_t>(_records.size());
        }
        _stack.push_back({at ? at : ticks(), 0, index, name});
    }

    /** Close the innermost span now or at tick @p at, optionally
        renaming it (step classes are only known once the step has run);
        returns its duration in ticks. */
    std::int64_t
    end(Span rename = Span::Count, std::int64_t at = 0)
    {
        std::int64_t t = at ? at : ticks();
        Open o = _stack.back();
        _stack.pop_back();
        if (rename != Span::Count)
            o.name = rename;
        std::int64_t dur = t - o.start;
        auto n = static_cast<std::size_t>(o.name);
        ++_count[n];
        _total[n] += dur;
        _self[n] += dur - o.child;
        if (!_stack.empty())
            _stack.back().child += dur;
        ++_spans;
        if (o.index) {
            Record &r = _records[o.index - 1];
            r.start = o.start;
            r.end = t;
            r.name = o.name;
        }
        return dur;
    }

    std::uint64_t count(Span s) const { return _count[idx(s)]; }
    double totalNs(Span s) const { return toNs(_total[idx(s)]); }
    double selfNs(Span s) const { return toNs(_self[idx(s)]); }
    std::uint64_t spans() const { return _spans; }

    std::size_t retained() const { return _records.size(); }

    /** Write the retained spans as TSV; false when the file can't be
        written. */
    bool writeTsv(const std::string &path) const;

  private:
    struct Open
    {
        std::int64_t start;
        std::int64_t child; //!< Ticks covered by closed children.
        std::uint32_t index;
        Span name;
    };

    static std::size_t idx(Span s) { return static_cast<std::size_t>(s); }

    std::vector<Record> _records;
    std::vector<Open> _stack;
    std::array<std::uint64_t, kNames> _count{};
    std::array<std::int64_t, kNames> _total{};
    std::array<std::int64_t, kNames> _self{};
    std::uint64_t _spans = 0;
    std::uint32_t _run = 0;
    std::int64_t _ns0;
    std::int64_t _tick0;
    double _nsPerTick = 1.0;
};

/** RAII span; a no-op without a tracer. */
class Scope
{
  public:
    Scope(Tracer *t, Span s) : _t(t)
    {
        if (_t)
            _t->begin(s);
    }
    ~Scope()
    {
        if (_t)
            _t->end();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *_t;
};

/** Call counts the interposer observes. */
struct ProbeCounts
{
    std::uint64_t configures = 0;
    std::uint64_t configureRejects = 0;
    std::uint64_t estimates = 0;
};

/**
 * SchedulerOps between a scheduler and the real Hypervisor: forwards
 * every call, timing and counting the ones that do hypervisor work.
 */
class OpsInterposer final : public SchedulerOps
{
  public:
    OpsInterposer(Tracer *tracer, ProbeCounts &counts)
        : _tracer(tracer), _counts(counts)
    {
    }

    void bind(Hypervisor &hyp) { _hyp = &hyp; }

    SimTime now() const override { return _hyp->now(); }
    Fabric &fabric() override { return _hyp->fabric(); }
    const std::vector<AppInstance *> &
    liveApps() override
    {
        return _hyp->liveApps();
    }
    std::uint64_t liveAppsEpoch() const override
    {
        return _hyp->liveAppsEpoch();
    }
    AppInstance *findApp(AppInstanceId id) override
    {
        return _hyp->findApp(id);
    }
    bool
    configure(AppInstance &app, TaskId task, SlotId slot) override
    {
        Scope s(_tracer, Span::Configure);
        ++_counts.configures;
        bool ok = _hyp->configure(app, task, slot);
        _counts.configureRejects += ok ? 0 : 1;
        return ok;
    }
    bool
    preempt(SlotId slot) override
    {
        Scope s(_tracer, Span::Preempt);
        return _hyp->preempt(slot);
    }
    SimTime
    estimatedSingleSlotLatency(AppInstance &app) override
    {
        Scope s(_tracer, Span::Estimate);
        ++_counts.estimates;
        return _hyp->estimatedSingleSlotLatency(app);
    }
    SimTime reconfigLatencyEstimate() const override
    {
        return _hyp->reconfigLatencyEstimate();
    }
    const GridContext *gridContext() const override
    {
        return _hyp->gridContext();
    }
    std::uint64_t stateVersion() const override
    {
        return _hyp->stateVersion();
    }
    double energyJoulesTotal() const override
    {
        return _hyp->energyJoulesTotal();
    }
    std::uint8_t slotPipelineFlags(SlotId slot) override
    {
        return _hyp->slotPipelineFlags(slot);
    }

  private:
    Hypervisor *_hyp = nullptr;
    Tracer *_tracer;
    ProbeCounts &_counts;
};

/**
 * Scheduler decorator: times pass() and forwards every hook to the
 * wrapped algorithm, which is attached to @p ops instead of the
 * hypervisor.
 */
class TimedScheduler final : public Scheduler
{
  public:
    TimedScheduler(std::unique_ptr<Scheduler> inner, OpsInterposer &ops,
                   Tracer *tracer)
        : Scheduler(inner->name()), _inner(std::move(inner)), _tracer(tracer)
    {
        _inner->attach(ops);
    }

    void
    pass(SchedEvent reason) override
    {
        Scope s(_tracer, Span::Pass);
        _inner->pass(reason);
    }
    void onAppAdmitted(AppInstance &app) override
    {
        _inner->onAppAdmitted(app);
    }
    void onAppRetired(AppInstance &app) override
    {
        _inner->onAppRetired(app);
    }
    void onCapacityChanged() override { _inner->onCapacityChanged(); }
    bool bulkItemGating() const override { return _inner->bulkItemGating(); }
    void reserveApps(std::size_t n) override { _inner->reserveApps(n); }
    bool passIsPure() const override { return _inner->passIsPure(); }

  private:
    std::unique_ptr<Scheduler> _inner;
    Tracer *_tracer;
};

} // namespace hostbench

#endif // HOSTBENCH_PROBES_HH
