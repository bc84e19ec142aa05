#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "apps/registry.hh"
#include "cluster/cluster.hh"
#include "core/experiment.hh"
#include "core/grid_context.hh"
#include "faas/soak.hh"
#include "metrics/analysis.hh"
#include "metrics/deadline.hh"
#include "sched/factory.hh"
#include "sim/logging.hh"
#include "taskgraph/builder.hh"
#include "workload/generator.hh"
#include "workload/scenario.hh"

namespace hostbench {

namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void
fold(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
}

void
foldDouble(std::uint64_t &h, double d)
{
    std::uint64_t v = 0;
    std::memcpy(&v, &d, sizeof v);
    fold(h, v);
}

/** SLA factor of the soak engine (latency <= 5x isolated latency). */
constexpr double kSlaFactor = 5.0;

/**
 * Independent input sets per repetition. A workload's host cost per app
 * depends on the draw (app mix, batch sizes, arrival gaps): one draw
 * moved host_apps_per_s by 16-20 % from seed to seed, so each
 * repetition averages this many draws derived from --seed.
 */
constexpr int kDraws = 3;

/**
 * Arrival streams per soak_overload repetition. Service is a fixed 5 ms,
 * so slot completions stay in whatever phase the first arrivals set:
 * the pass count of one stream -- this workload's cost driver -- varies
 * by about 20 % from stream to stream.
 */
constexpr int kOverloadDraws = 8;

/**
 * Soak steps per timed unit. A soak cell is one long simulation
 * (soak_steady's is 0.3 s of host time); timing it in slices of a fixed
 * step count lets the fastest repetition of each slice be found even
 * when no whole repetition escapes the host's slow moments.
 */
constexpr std::uint64_t kStepsPerUnit = 1 << 16;

/** Input stream of draw @p d; draw 0 is @p seed itself. */
Rng
drawRng(std::uint64_t seed, int d)
{
    return d == 0 ? Rng(seed) : Rng(seed).derive("draw" + std::to_string(d));
}

/** Nearest-rank quantile of sorted @p v. */
std::size_t
rank(std::size_t n, double q)
{
    auto r = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    return std::max<std::size_t>(r, 1) - 1;
}

/** Closed-batch outcome: every record of every run, in run order. */
class BatchTally
{
  public:
    BatchTally() { _out.digest = kFnvBasis; }

    void
    add(const std::vector<AppRecord> &records, std::size_t expected,
        const std::function<SimTime(const AppRecord &)> &limit)
    {
        std::set<int> seen;
        for (const AppRecord &r : records) {
            seen.insert(r.eventIndex);
            fold(_out.digest, static_cast<std::uint64_t>(r.eventIndex));
            fold(_out.digest, static_cast<std::uint64_t>(r.arrival));
            fold(_out.digest, static_cast<std::uint64_t>(r.firstLaunch));
            fold(_out.digest, static_cast<std::uint64_t>(r.retire));
            fold(_out.digest, static_cast<std::uint64_t>(r.runTime));
            fold(_out.digest, static_cast<std::uint64_t>(r.reconfigTime));
            fold(_out.digest, static_cast<std::uint64_t>(r.reconfigs));
            fold(_out.digest, static_cast<std::uint64_t>(r.preemptions));
            fold(_out.digest, r.failed ? 1 : 0);
            ++_out.offered;
            if (r.failed) {
                ++_out.failed;
                continue;
            }
            ++_out.completed;
            SimTime resp = r.retire - r.arrival;
            _resp.push_back(resp);
            if (resp <= limit(r))
                ++_out.slaMet;
        }
        if (_out.check.empty() &&
            (records.size() != expected || seen.size() != expected)) {
            _out.check = "a run did not retire every offered app exactly once";
        }
    }

    void foldValue(double v) { foldDouble(_out.digest, v); }

    Outcome
    finish()
    {
        std::sort(_resp.begin(), _resp.end());
        if (!_resp.empty()) {
            std::size_t n = _resp.size();
            _out.p50Ms = simtime::toSec(_resp[rank(n, 0.5)]) * 1e3;
            std::size_t r99 = rank(n, 0.99);
            _out.p99Ms = simtime::toSec(_resp[r99]) * 1e3;
            _out.beyondP99 = n - r99 - 1;
        }
        return _out;
    }

  private:
    Outcome _out;
    std::vector<SimTime> _resp;
};

/** Counter snapshot taken around one kernel step. */
struct Snap
{
    std::uint64_t passes = 0;
    std::uint64_t admitted = 0;
    std::uint64_t retired = 0;
    std::uint64_t migrations = 0;
    std::size_t live = 0;
};

/**
 * Fires kernel steps; with a probe, classifies each by which public
 * counter advanced, times it as a span of that class, and applies the
 * calibration delay after pass steps. Counters do not move between
 * steps, so each step's "before" snapshot is the previous "after".
 *
 * Step spans tile the step loop: one timestamp per step boundary ends a
 * step and starts the next, so the tracer's own per-step cost (one clock
 * read, the snapshot, the bookkeeping) lies inside the step spans and
 * shows in trace.overhead_ratio rather than between spans.
 */
template <class SnapFn>
class Stepper
{
  public:
    Stepper(Probe *p, LiveBuckets *cell, SnapFn snap)
        : _p(p), _cell(cell), _snap(snap)
    {
        if (_p)
            _last = _snap();
    }

    template <class StepFn>
    bool
    operator()(StepFn step)
    {
        if (!_p)
            return step();
        Tracer *t = _p->tracer;
        if (t)
            t->begin(Span::StepOther, _prevEnd);
        bool ok = step();
        Snap a = _last;
        _last = _snap();
        const Snap &b = _last;
        Span cls = Span::StepOther;
        if (b.passes != a.passes)
            cls = Span::StepPass;
        else if (b.migrations != a.migrations)
            cls = Span::StepMigrate;
        else if (b.retired != a.retired)
            cls = Span::StepRetire;
        else if (b.admitted != a.admitted)
            cls = Span::StepArrival;
        std::int64_t dur = 0;
        if (t) {
            _prevEnd = ticks();
            dur = t->end(cls, _prevEnd);
        }
        if (LayerData *ld = _p->layers) {
            ld->peakLive = std::max<std::uint64_t>(ld->peakLive, b.live);
            if (cls == Span::StepPass) {
                ld->passAll.add(a.live, dur);
                if (_cell)
                    _cell->add(a.live, dur);
            }
        }
        if (cls == Span::StepPass) {
            ++_p->passSteps;
            if (_p->passDelayNs) {
                std::int64_t w0 = nowNs();
                busyWait(_p->passDelayNs);
                _p->injectedNs += nowNs() - w0;
            }
        }
        return ok;
    }

  private:
    Probe *_p;
    LiveBuckets *_cell;
    SnapFn _snap;
    Snap _last;
    std::int64_t _prevEnd = 0;
};

void
addStats(HypervisorStats &into, const HypervisorStats &s)
{
    into.appsAdmitted += s.appsAdmitted;
    into.configuresIssued += s.configuresIssued;
    into.reconfigSkips += s.reconfigSkips;
    into.preemptionsRequested += s.preemptionsRequested;
    into.schedulingPasses += s.schedulingPasses;
    into.purePassesElided += s.purePassesElided;
    into.faultRetries += s.faultRetries;
    into.quarantineEvents += s.quarantineEvents;
    into.appsFailed += s.appsFailed;
}

void
addBoard(LayerData &ld, Hypervisor &hyp)
{
    addStats(ld.hyp, hyp.stats());
    ld.storeHits += hyp.fabric().store().hits();
    ld.storeMisses += hyp.fabric().store().misses();
}

/** Open a Run span and its RunSetup child. */
void
beginRun(Probe *p)
{
    if (p && p->tracer) {
        p->tracer->begin(Span::Run);
        p->tracer->begin(Span::RunSetup);
    }
}

void
endSetup(Probe *p)
{
    if (p && p->tracer)
        p->tracer->end();
}

void
endRun(Probe *p, std::int64_t startNs)
{
    if (p && p->tracer)
        p->tracer->end();
    if (p && p->layers)
        p->layers->runMs.push_back((nowNs() - startNs) / 1e6);
}

// ---------------------------------------------------------------- paper_grid

/**
 * The paper reproduction: the three congestion scenarios x the five
 * evaluated schedulers x 10 sequences x 20 events, then the figure
 * analysis, for each of kDraws stimulus draws. Untraced it runs through
 * ExperimentGrid::runAll, which warms and freezes each scenario's
 * GridContext inside the timed phase; traced, the driver does the same
 * warm there and hand-builds each run around the decorated scheduler.
 */
class PaperGrid final : public Workload
{
  public:
    bool soak() const override { return false; }

    void
    setup(std::uint64_t seed) override
    {
        _registry = standardRegistry();
        _scheds = evaluationSchedulers();
        _scenarios.clear();
        for (int d = 0; d < kDraws; ++d) {
            for (Scenario sc : congestionScenarios()) {
                GeneratorConfig gen = scenarioConfig(sc, _registry.names());
                gen.numEvents = 20;
                _scenarios.push_back(
                    generateSequences(toString(sc), 10, gen, drawRng(seed, d)));
            }
        }
    }

    Outcome
    run(Probe *probe, std::vector<double> &unitS) override
    {
        Tracer *t = probe ? probe->tracer : nullptr;
        std::vector<std::map<std::string, SchedulerResults>> all;
        std::vector<double> analysis;
        unitS.clear();
        std::int64_t t0 = nowNs(), u0 = t0;
        for (const std::vector<EventSequence> &seqs : _scenarios) {
            ExperimentGrid grid(_cfg, _registry);
            grid.setJobs(1);
            std::map<std::string, SchedulerResults> results;
            if (!probe)
                results = grid.runAll(_scheds, seqs);
            else
                results = driveScenario(seqs, *probe);
            Scope s(t, Span::Analysis);
            auto unit = grid.deadlineUnit();
            for (const std::string &sched : _scheds) {
                if (sched == "baseline")
                    continue;
                auto cmp = ExperimentGrid::compare(results.at(sched),
                                                   results.at("baseline"));
                analysis.push_back(reductionStats(cmp).avgReduction());
                DeadlineCurve curve =
                    deadlineSweep(results.at(sched).allRecords(), unit);
                analysis.insert(analysis.end(), curve.violationRate.begin(),
                                curve.violationRate.end());
            }
            all.push_back(std::move(results));
            std::int64_t u1 = nowNs();
            unitS.push_back((u1 - u0) / 1e9);
            u0 = u1;
        }
        std::int64_t t1 = u0;
        if (probe && probe->layers)
            probe->layers->wallNs += t1 - t0;

        BatchTally tally;
        auto limit = [&](const AppRecord &r) {
            return static_cast<SimTime>(
                kSlaFactor * static_cast<double>(_cfg.singleSlotLatency(
                                 *_registry.get(r.appName), r.batch)));
        };
        for (std::size_t i = 0; i < _scenarios.size(); ++i) {
            for (const std::string &sched : _scheds) {
                const auto &runs = all[i].at(sched).runs;
                for (std::size_t q = 0; q < runs.size(); ++q) {
                    tally.add(runs[q].records,
                              _scenarios[i][q].events.size(), limit);
                }
            }
        }
        for (double v : analysis)
            tally.foldValue(v);
        return tally.finish();
    }

  private:
    /** One scenario as runAll does it: warm and freeze a shared context
        over its sequences, then run every (scheduler, sequence) pair. */
    std::map<std::string, SchedulerResults>
    driveScenario(const std::vector<EventSequence> &seqs, Probe &probe)
    {
        std::int64_t w0 = nowNs();
        GridContext ctx(_cfg);
        {
            Scope s(probe.tracer, Span::CtxWarm);
            for (const EventSequence &seq : seqs)
                ctx.warmSequence(seq, _registry);
            ctx.freeze();
        }
        if (probe.layers)
            probe.layers->ctxWarmS += (nowNs() - w0) / 1e9;
        std::map<std::string, SchedulerResults> out;
        for (const std::string &sched : _scheds) {
            SchedulerResults res;
            res.scheduler = sched;
            SystemConfig cfg = _cfg;
            cfg.scheduler = sched;
            for (const EventSequence &seq : seqs)
                res.runs.push_back(driveRun(cfg, seq, ctx, probe));
            out.emplace(sched, std::move(res));
        }
        return out;
    }

    /** One run shaped like Simulation::run, with the probes plugged in. */
    RunResult
    driveRun(const SystemConfig &cfg, const EventSequence &seq,
             const GridContext &ctx, Probe &probe)
    {
        Tracer *t = probe.tracer;
        std::int64_t start = nowNs();
        beginRun(&probe);
        ProbeCounts scratch;
        ProbeCounts &counts = probe.layers ? probe.layers->probes : scratch;
        EventQueue eq(cfg.eventQueue);
        Fabric fabric(eq, cfg.fabric);
        OpsInterposer ops(t, counts);
        TimedScheduler sched(makeScheduler(cfg.scheduler), ops, t);
        MetricsCollector collector;
        Hypervisor hyp(eq, fabric, sched, collector, cfg.hypervisor);
        ops.bind(hyp);
        hyp.setGridContext(&ctx);
        for (const WorkloadEvent &e : seq.events)
            fabric.internBitstreamName(e.appName);
        eq.reserve(seq.events.size() + 64);
        collector.reserve(seq.events.size());

        struct Target
        {
            Hypervisor *hyp;
            Tracer *tracer;
        } target{&hyp, t};
        for (const WorkloadEvent &e : seq.events) {
            AppSpecPtr spec = _registry.get(e.appName);
            eq.schedule(e.arrival, "arrival",
                        [tp = &target, spec, batch = e.batch,
                         priority = e.priority, index = e.index] {
                            Scope s(tp->tracer, Span::Submit);
                            tp->hyp->submit(spec, batch, priority, index);
                        });
        }
        hyp.start();
        endSetup(&probe);

        const std::size_t total = seq.events.size();
        bool stopped = false;
        auto snap = [&] {
            const HypervisorStats &s = hyp.stats();
            return Snap{s.schedulingPasses, s.appsAdmitted, collector.count(),
                        0, hyp.liveCount()};
        };
        Stepper stepper(&probe, nullptr, snap);
        while (!eq.empty()) {
            if (!stepper([&] { return eq.step(); }))
                break;
            if (!stopped && collector.count() == total) {
                hyp.stop();
                stopped = true;
            }
        }

        RunResult r;
        r.scheduler = cfg.scheduler;
        r.sequenceName = seq.name;
        r.records = collector.records();
        r.hypervisorStats = hyp.stats();
        r.eventsFired = eq.firedCount();
        if (probe.layers) {
            addBoard(*probe.layers, hyp);
            probe.layers->events += eq.firedCount();
        }
        endRun(&probe, start);
        return r;
    }

    SystemConfig _cfg;
    AppRegistry _registry;
    std::vector<std::string> _scheds;
    std::vector<std::vector<EventSequence>> _scenarios; //!< Per draw x scenario.
};

// ------------------------------------------------------------- cluster_chaos

/**
 * 10 x kDraws stress sequences on a 4-board cluster with fault injection
 * and work-stealing migration. Untraced through ClusterSimulation::run;
 * traced, each run is driven stepwise over the same Cluster.
 */
class ClusterChaos final : public Workload
{
  public:
    bool soak() const override { return false; }

    void
    setup(std::uint64_t seed) override
    {
        _registry = standardRegistry();
        GeneratorConfig gen =
            scenarioConfig(Scenario::Stress, _registry.names());
        gen.numEvents = 40;
        _seqs = generateSequences("chaos", 10 * kDraws, gen,
                                  Rng(seed).derive("cluster_chaos"));
        _faultSeed = Rng(seed).derive("faults").next();
        ClusterConfig cfg = config("fcfs");
        _limit.clear();
        for (const EventSequence &seq : _seqs) {
            for (const WorkloadEvent &e : seq.events) {
                auto key = std::make_pair(e.appName, e.batch);
                if (!_limit.count(key)) {
                    _limit[key] = static_cast<SimTime>(
                        kSlaFactor *
                        static_cast<double>(cfg.board.singleSlotLatency(
                            *_registry.get(e.appName), e.batch)));
                }
            }
        }
    }

    Outcome
    run(Probe *probe, std::vector<double> &unitS) override
    {
        std::vector<ClusterRunResult> results;
        unitS.clear();
        std::int64_t t0 = nowNs(), u0 = t0;
        for (const char *sched : kScheds) {
            ClusterConfig cfg = config(sched);
            for (const EventSequence &seq : _seqs) {
                results.push_back(
                    probe ? drive(cfg, seq, *probe)
                          : ClusterSimulation(cfg, _registry).run(seq));
                std::int64_t u1 = nowNs();
                unitS.push_back((u1 - u0) / 1e9);
                u0 = u1;
            }
        }
        std::int64_t t1 = u0;
        if (probe && probe->layers)
            probe->layers->wallNs += t1 - t0;

        BatchTally tally;
        auto limit = [&](const AppRecord &r) {
            return _limit.at(std::make_pair(r.appName, r.batch));
        };
        for (std::size_t i = 0; i < results.size(); ++i) {
            const ClusterRunResult &r = results[i];
            tally.add(r.records, _seqs[i % _seqs.size()].events.size(), limit);
            tally.foldValue(static_cast<double>(r.migration.completed));
            tally.foldValue(static_cast<double>(r.migration.aborted));
            tally.foldValue(static_cast<double>(r.migration.bytesMoved));
        }
        return tally.finish();
    }

  private:
    static constexpr const char *kScheds[] = {"fcfs", "prema", "nimblock",
                                              "themis"};

    ClusterConfig
    config(const std::string &sched) const
    {
        ClusterConfig cfg;
        cfg.numBoards = 4;
        cfg.dispatch = DispatchPolicy::RoundRobin;
        cfg.board.scheduler = sched;
        cfg.board.faults.enabled = true;
        cfg.board.faults.seed = _faultSeed;
        // Reconfiguration faults only (retries, persistent faults and
        // quarantine). Adding item crashes stalls nimblock on some seeds;
        // see hostbench/README.md, "Known defect".
        cfg.board.faults.reconfigFailProb = 0.02;
        cfg.migration.enabled = true;
        cfg.migration.rebalance.policy = RebalancePolicy::WorkStealing;
        cfg.migration.rebalance.interval = simtime::ms(200);
        return cfg;
    }

    /** One run shaped like ClusterSimulation::run, stepped by hand. */
    ClusterRunResult
    drive(const ClusterConfig &cfg, const EventSequence &seq, Probe &probe)
    {
        std::int64_t start = nowNs();
        beginRun(&probe);
        EventQueue eq;
        Cluster cluster(eq, cfg);
        // The stall horizon of ClusterSimulation::run.
        SimTime work = 0;
        for (const WorkloadEvent &e : seq.events)
            work += cfg.board.singleSlotLatency(*_registry.get(e.appName),
                                                e.batch);
        SimTime horizon =
            seq.lastArrival() +
            static_cast<SimTime>(cfg.board.horizonFactor *
                                 static_cast<double>(work)) +
            simtime::sec(60);
        for (const WorkloadEvent &e : seq.events) {
            eq.schedule(e.arrival, "cluster_arrival",
                        [&cluster, this, e] { cluster.submit(_registry, e); });
        }
        cluster.start();
        endSetup(&probe);

        auto snap = [&] {
            Snap s;
            for (std::size_t b = 0; b < cluster.numBoards(); ++b) {
                const HypervisorStats &st = cluster.board(b).stats();
                s.passes += st.schedulingPasses;
                s.admitted += st.appsAdmitted;
                s.live += cluster.board(b).liveCount();
            }
            s.retired = cluster.retiredCount();
            if (const MigrationEngine *m = cluster.migrationEngine())
                s.migrations = m->stats().completed;
            return s;
        };
        Stepper stepper(&probe, nullptr, snap);
        while (!eq.empty()) {
            if (!stepper([&] { return eq.step(); }))
                break;
            if (cluster.retiredCount() == seq.events.size()) {
                cluster.stop();
                break;
            }
            if (eq.now() > horizon) {
                fatal("cluster stalled on sequence '%s': %zu/%zu apps "
                      "retired",
                      seq.name.c_str(), cluster.retiredCount(),
                      seq.events.size());
            }
        }

        ClusterRunResult r;
        for (std::size_t b = 0; b < cluster.numBoards(); ++b) {
            const auto &recs = cluster.collector(b).records();
            r.records.insert(r.records.end(), recs.begin(), recs.end());
            if (probe.layers)
                addBoard(*probe.layers, cluster.board(b));
        }
        if (const MigrationEngine *m = cluster.migrationEngine())
            r.migration = m->stats();
        std::sort(r.records.begin(), r.records.end(),
                  [](const AppRecord &a, const AppRecord &b) {
                      if (a.retire != b.retire)
                          return a.retire < b.retire;
                      return a.eventIndex < b.eventIndex;
                  });
        if (LayerData *ld = probe.layers) {
            ld->events += eq.firedCount();
            ld->migration.completed += r.migration.completed;
            ld->migration.aborted += r.migration.aborted;
            ld->migration.bytesMoved += r.migration.bytesMoved;
        }
        endRun(&probe, start);
        return r;
    }

    AppRegistry _registry;
    std::vector<EventSequence> _seqs;
    std::uint64_t _faultSeed = 0;
    std::map<std::pair<std::string, int>, SimTime> _limit;
};

// ------------------------------------------------------------------- soak

/** Single-task app: the minimal streaming kernel. */
AppSpecPtr
makeKernelApp(const std::string &name, double latency_ms)
{
    GraphBuilder b;
    TaskSpec t;
    t.name = name + "_k";
    t.itemLatency = simtime::msF(latency_ms);
    t.inputBytes = 0;
    t.outputBytes = 0;
    b.addTask(std::move(t));
    return std::make_shared<AppSpec>(name, name, b.build());
}

/**
 * Open-loop soak cells driven stepwise through SoakEngine. The steady
 * workload is one saturated 4-board cell behind a queue-depth gate; the
 * overload workload is, for each of kOverloadDraws arrival streams, one
 * uncontrolled 1-board cell per scheduler over that stream.
 */
class Soak final : public Workload
{
  public:
    explicit Soak(bool overload) : _overload(overload) {}

    bool soak() const override { return true; }

    void
    setup(std::uint64_t seed) override
    {
        _cells.clear();
        if (_overload) {
            TenantSpec t;
            t.name = "burst";
            t.app = makeKernelApp("soak_burst", 5.0);
            t.users = 1000;
            SoakConfig cfg;
            cfg.cluster.numBoards = 1;
            cfg.cluster.board.hypervisor.allowReconfigSkip = true;
            cfg.arrivals.kind = ArrivalKind::Poisson;
            cfg.arrivals.ratePerSec = 2.0 * zcu106::kNumSlots / 0.005;
            cfg.horizon = simtime::msF(600);
            cfg.admission.policy = AdmissionPolicy::None;
            cfg.appPoolSize = 512;
            for (int d = 0; d < kOverloadDraws; ++d) {
                for (const char *sched : {"fcfs", "rr", "prema", "nimblock"}) {
                    cfg.cluster.board.scheduler = sched;
                    addCell(sched, cfg, t, drawRng(seed, d).derive(name()));
                }
            }
        } else {
            TenantSpec t;
            t.name = "stream";
            t.app = makeKernelApp("soak_stream", 100.0);
            t.users = 1000000;
            SoakConfig cfg;
            cfg.cluster.numBoards = 4;
            cfg.cluster.dispatch = DispatchPolicy::RoundRobin;
            cfg.cluster.board.scheduler = "fcfs";
            cfg.cluster.board.hypervisor.allowReconfigSkip = true;
            cfg.cluster.board.hypervisor.passLatency = simtime::ms(5);
            cfg.arrivals.kind = ArrivalKind::Poisson;
            cfg.arrivals.ratePerSec = 1.15 * 4 * zcu106::kNumSlots / 0.1;
            cfg.horizon = simtime::sec(1200);
            cfg.admission.policy = AdmissionPolicy::QueueDepth;
            cfg.admission.queueDepthCap = 48;
            cfg.appPoolSize = 96;
            addCell("", cfg, t, Rng(seed).derive(name()));
        }
    }

    Outcome
    run(Probe *probe, std::vector<double> &unitS) override
    {
        Outcome out;
        out.digest = kFnvBasis;
        HdrHistogram hist;
        unitS.clear();
        for (Cell &c : _cells) {
            auto engine = std::make_unique<SoakEngine>(
                c.cfg, std::vector{c.tenant}, c.rng);
            engine->start();
            LiveBuckets *bucket =
                probe && probe->layers && !c.name.empty()
                    ? &probe->layers->passCells[c.name]
                    : nullptr;
            if (probe && probe->tracer)
                probe->tracer->begin(Span::Run);
            std::int64_t t0 = nowNs(), u0 = t0;
            std::uint64_t lastRetired = 0, steps = 0;
            auto snap = [&] {
                Snap s;
                Cluster &cl = engine->cluster();
                for (std::size_t b = 0; b < cl.numBoards(); ++b)
                    s.passes += cl.board(b).stats().schedulingPasses;
                s.admitted = engine->submitted();
                s.retired = engine->retired();
                s.live = engine->liveCount();
                return s;
            };
            Stepper stepper(probe, bucket, snap);
            while (stepper([&] { return engine->step(); })) {
                if (engine->retired() != lastRetired) {
                    lastRetired = engine->retired();
                    fold(out.digest, static_cast<std::uint64_t>(engine->now()));
                    fold(out.digest, lastRetired);
                }
                if (++steps % kStepsPerUnit == 0) {
                    std::int64_t u1 = nowNs();
                    unitS.push_back((u1 - u0) / 1e9);
                    u0 = u1;
                }
            }
            SoakStats st = engine->finish();
            std::int64_t t1 = nowNs();
            unitS.push_back((t1 - u0) / 1e9);
            if (probe && probe->tracer)
                probe->tracer->end();

            std::uint64_t failed = 0;
            Cluster &cl = engine->cluster();
            for (std::size_t b = 0; b < cl.numBoards(); ++b)
                failed += cl.board(b).stats().appsFailed;
            if (LayerData *ld = probe ? probe->layers : nullptr) {
                ld->wallNs += t1 - t0;
                for (std::size_t b = 0; b < cl.numBoards(); ++b)
                    addBoard(*ld, cl.board(b));
                ld->submitted += st.submitted;
                ld->shed += st.shed;
                ld->events += st.eventsFired;
                ld->peakLive = std::max(ld->peakLive, st.peakLive);
            }
            out.offered += st.submitted;
            out.shed += st.shed;
            out.failed += failed;
            out.completed += st.retired - failed;
            if (out.check.empty() &&
                (st.submitted != st.admitted + st.shed ||
                 st.admitted != st.retired)) {
                out.check = "soak accounting does not close";
            }
            for (std::size_t i = 0; i < HdrHistogram::kBucketCount; ++i) {
                std::uint64_t n = st.latencyNs.bucketCount(i);
                if (n == 0)
                    continue;
                fold(out.digest, i);
                fold(out.digest, n);
                if (HdrHistogram::bucketMid(i) <= c.limit)
                    out.slaMet += n;
            }
            fold(out.digest, st.eventsFired);
            fold(out.digest, st.peakLive);
            hist.merge(st.latencyNs);
        }
        if (!hist.empty()) {
            out.p50Ms = static_cast<double>(hist.quantile(0.5)) / 1e6;
            out.p99Ms = static_cast<double>(hist.quantile(0.99)) / 1e6;
            out.beyondP99 = hist.count() - rank(hist.count(), 0.99) - 1;
        }
        return out;
    }

  private:
    struct Cell
    {
        std::string name; //!< Scheduler of an overload cell; "" if single.
        SoakConfig cfg;
        TenantSpec tenant;
        Rng rng{0};
        SimTime limit = 0;
    };

    void
    addCell(const std::string &name, const SoakConfig &cfg,
            const TenantSpec &tenant, const Rng &rng)
    {
        Cell c;
        c.name = name;
        c.cfg = cfg;
        c.tenant = tenant;
        c.rng = rng;
        SimTime isolated =
            cfg.cluster.board.singleSlotLatency(*tenant.app, tenant.batch);
        c.limit = static_cast<SimTime>(cfg.slaFactor *
                                       static_cast<double>(isolated));
        // Engine construction and start() are set-up work: time them here
        // once per cell; run() builds its own engines outside the timing.
        SoakEngine(cfg, std::vector{tenant}, rng).start();
        _cells.push_back(std::move(c));
    }

    const char *name() const
    {
        return _overload ? "soak_overload" : "soak_steady";
    }

    bool _overload;
    std::vector<Cell> _cells;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

} // namespace

// ------------------------------------------------------------------ public

bool
Outcome::sameSimulation(const Outcome &o) const
{
    return offered == o.offered && completed == o.completed &&
           shed == o.shed && failed == o.failed && slaMet == o.slaMet &&
           p50Ms == o.p50Ms && p99Ms == o.p99Ms && digest == o.digest;
}

const char *
LiveBuckets::label(std::size_t b)
{
    static const char *labels[kBuckets] = {"live_lt_64", "live_64_1023",
                                           "live_ge_1024"};
    return labels[b];
}

void
LiveBuckets::add(std::size_t live, std::int64_t dur)
{
    std::size_t b = live < 64 ? 0 : live < 1024 ? 1 : 2;
    ticks[b] += dur;
    ++steps[b];
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "paper_grid")
        return std::make_unique<PaperGrid>();
    if (name == "soak_steady")
        return std::make_unique<Soak>(false);
    if (name == "soak_overload")
        return std::make_unique<Soak>(true);
    if (name == "cluster_chaos")
        return std::make_unique<ClusterChaos>();
    return nullptr;
}

std::vector<std::string>
workloadNames()
{
    return {"paper_grid", "soak_steady", "soak_overload", "cluster_chaos"};
}

std::map<std::string, double>
layerMetrics(const Workload &w, const LayerData &ld, const Tracer &t)
{
    std::map<std::string, double> m;
    double wall = static_cast<double>(ld.wallNs);
    auto share = [&](Span s) { return ratio(t.totalNs(s), wall); };
    auto mean = [&](Span s) {
        return ratio(t.totalNs(s), static_cast<double>(t.count(s)));
    };

    // Scheduler pass: the decorator's pass() time where it is plugged in
    // (paper_grid), the pass-step time elsewhere.
    m["sched.pass_ns"] = t.count(Span::Pass) ? mean(Span::Pass)
                                             : mean(Span::StepPass);
    m["sched.pass_share"] = share(Span::StepPass);
    m["sched.passes"] = ld.hyp.schedulingPasses;
    m["sched.passes_elided"] = ld.hyp.purePassesElided;
    m["sched.configures_per_pass"] =
        ratio(ld.hyp.configuresIssued, ld.hyp.schedulingPasses);
    auto buckets = [&](const std::string &prefix, const LiveBuckets &b) {
        for (std::size_t i = 0; i < LiveBuckets::kBuckets; ++i)
            m[prefix + LiveBuckets::label(i)] =
                ratio(t.toNs(b.ticks[i]), b.steps[i]) / 1e3;
    };
    buckets("sched.pass_step_us.", ld.passAll);
    for (const auto &[cell, b] : ld.passCells)
        buckets("sched.pass_step_us." + cell + ".", b);

    m["hypervisor.configure_ns"] = mean(Span::Configure);
    m["hypervisor.configure_reject_ratio"] =
        ratio(ld.probes.configureRejects, ld.probes.configures);
    m["hypervisor.estimate_calls"] = ld.probes.estimates;
    m["hypervisor.estimate_share"] = share(Span::Estimate);
    m["hypervisor.preempts"] = ld.hyp.preemptionsRequested;
    m["hypervisor.submit_ns"] = mean(Span::Submit);
    m["hypervisor.peak_live"] = ld.peakLive;

    // Arrival and retire steps belong to faas on the soak workloads and
    // to the hypervisor's direct submit/retire path on the batch ones.
    const char *front = w.soak() ? "faas." : "hypervisor.";
    m[std::string(front) + "arrival_step_ns"] = mean(Span::StepArrival);
    m[std::string(front) + "arrival_share"] = share(Span::StepArrival);
    m[std::string(front) + "retire_step_ns"] = mean(Span::StepRetire);
    m[std::string(front) + "retire_share"] = share(Span::StepRetire);
    if (w.soak())
        m["faas.shed_ratio"] = ratio(ld.shed, ld.submitted);

    double stepNs = 0;
    for (Span s : {Span::StepPass, Span::StepArrival, Span::StepRetire,
                   Span::StepMigrate, Span::StepOther})
        stepNs += t.totalNs(s);
    m["sim.events"] = ld.events;
    m["sim.step_ns_per_event"] = ratio(stepNs, ld.events);
    m["sim.other_step_share"] = share(Span::StepOther);

    m["fabric.reconfig_skip_ratio"] =
        ratio(ld.hyp.reconfigSkips, ld.hyp.configuresIssued);
    m["fabric.bitstream_hit_ratio"] =
        ratio(ld.storeHits, ld.storeHits + ld.storeMisses);

    m["core.ctx_warm_s"] = ld.ctxWarmS;
    if (!w.soak()) {
        std::vector<double> runs = ld.runMs;
        std::sort(runs.begin(), runs.end());
        if (!runs.empty()) {
            m["core.run_ms_p50"] = runs[rank(runs.size(), 0.5)];
            m["core.run_ms_p90"] = runs[rank(runs.size(), 0.9)];
        }
        m["core.run_setup_share"] = share(Span::RunSetup);
    }
    m["metrics.analysis_ms"] = t.totalNs(Span::Analysis) / 1e6;

    m["cluster.migrations"] = ld.migration.completed;
    m["cluster.migrations_aborted"] = ld.migration.aborted;
    m["cluster.moved_mb"] = ld.migration.bytesMoved / 1e6;
    m["cluster.migration_step_share"] = share(Span::StepMigrate);

    m["resilience.fault_retries"] = ld.hyp.faultRetries;
    m["resilience.quarantines"] = ld.hyp.quarantineEvents;
    m["resilience.apps_failed"] = ld.hyp.appsFailed;

    // Share of the traced wall inside layer spans; the rest (the loop
    // between runs, result assembly) no layer accounts for.
    m["trace.accounted_share"] =
        ratio(stepNs + t.totalNs(Span::RunSetup) + t.totalNs(Span::CtxWarm) +
                  t.totalNs(Span::Analysis),
              wall);
    return m;
}

} // namespace hostbench
