/**
 * @file
 * The benchmark's four workloads. Each builds its inputs from a seed,
 * then runs them either untraced through the library's public entry
 * points (ExperimentGrid::runAll, SoakEngine, ClusterSimulation::run)
 * or, with a Probe, through a stepwise driver that records per-layer
 * host time. Both paths must produce the same Outcome.
 */

#ifndef HOSTBENCH_WORKLOADS_HH
#define HOSTBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probes.hh"

namespace hostbench {

/** Simulated outputs of one workload instance (sim time, exact). */
struct Outcome
{
    std::uint64_t offered = 0;   //!< Apps offered (submitted).
    std::uint64_t completed = 0; //!< Retired without failure.
    std::uint64_t shed = 0;      //!< Refused by admission.
    std::uint64_t failed = 0;    //!< Retired as failed.
    std::uint64_t slaMet = 0;    //!< Completed within the SLA limit.
    double p50Ms = 0;
    double p99Ms = 0;
    std::uint64_t beyondP99 = 0; //!< Samples above the p99 rank.
    std::uint64_t digest = 0;    //!< FNV-1a over per-app outputs.
    std::string check;           //!< First failed output check, if any.

    std::uint64_t finals() const { return completed + shed + failed; }
    bool sameSimulation(const Outcome &o) const;
};

/** Host time per pass step, bucketed by live-app count. */
struct LiveBuckets
{
    static constexpr std::size_t kBuckets = 3;
    static const char *label(std::size_t b);
    std::int64_t ticks[kBuckets] = {}; //!< Tracer ticks, see Tracer::toNs.
    std::uint64_t steps[kBuckets] = {};

    void add(std::size_t live, std::int64_t dur);
};

/** Per-layer counters gathered by a traced run. */
struct LayerData
{
    ProbeCounts probes;
    HypervisorStats hyp; //!< Summed over boards and runs.
    std::uint64_t storeHits = 0;
    std::uint64_t storeMisses = 0;
    std::uint64_t events = 0;
    std::uint64_t peakLive = 0;
    std::uint64_t submitted = 0; //!< Soak front door.
    std::uint64_t shed = 0;
    MigrationStats migration;
    double ctxWarmS = 0;
    std::vector<double> runMs;
    LiveBuckets passAll;                          //!< Every cell.
    std::map<std::string, LiveBuckets> passCells; //!< Per soak cell.
    std::int64_t wallNs = 0; //!< Traced timed phase.
};

/**
 * Instrumentation for one run: a tracer (may be null) and a
 * calibration delay busy-waited after every scheduler-pass step.
 */
struct Probe
{
    Tracer *tracer = nullptr;
    LayerData *layers = nullptr;
    std::int64_t passDelayNs = 0;
    std::uint64_t passSteps = 0;  //!< Steps classified as passes.
    std::int64_t injectedNs = 0;  //!< Host time spent in the delays.
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Closed batch (paper_grid, cluster_chaos) or open-loop soak. */
    virtual bool soak() const = 0;

    /**
     * Build the inputs for @p seed: everything before the first
     * simulated event. Called several times to sample set-up time; the
     * last call's inputs are the ones run().
     */
    virtual void setup(std::uint64_t seed) = 0;

    /**
     * Simulate the inputs once; @p unitS receives the host time of the
     * event loops plus analysis, split into the workload's units (one
     * grid per scenario and draw, one cluster simulation, one soak
     * cell), in the same order on every call. With a null @p probe this
     * is the untraced path through the library's own entry points.
     */
    virtual Outcome run(Probe *probe, std::vector<double> &unitS) = 0;
};

/** Workload by name; nullptr when unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

/** Names accepted by makeWorkload(). */
std::vector<std::string> workloadNames();

/** Per-layer metric values derived from one traced run. */
std::map<std::string, double> layerMetrics(const Workload &w,
                                           const LayerData &ld,
                                           const Tracer &t);

} // namespace hostbench

#endif // HOSTBENCH_WORKLOADS_HH
