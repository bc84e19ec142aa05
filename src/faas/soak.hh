/**
 * @file
 * Open-loop streaming soak engine.
 *
 * Drives a multi-board cluster with a lazy arrival process for a
 * simulated horizon of hours to days, with every per-invocation
 * structure bounded and recycled so the run is O(1) memory in horizon
 * length and allocation-free once warmed up:
 *
 *   - arrivals come one at a time from an ArrivalProcess pumped by a
 *     single persistent kernel timer (never a pre-built event vector);
 *   - an AdmissionController sheds before any instance is created;
 *   - admitted invocations reuse pooled AppInstances (hypervisor
 *     appPoolSize) and bypass the registry/WorkloadEvent string path
 *     via Cluster::submitSpec, with specs pinned in a frozen
 *     GridContext;
 *   - retirements are observed through the hypervisor retire listener
 *     (AppRecord collection off) and land in an HdrHistogram plus
 *     RollingSlaWindows — fixed-footprint metrics.
 *
 * The engine exposes stepwise execution (start() / step() / finish())
 * so harnesses can bracket the steady window: bench_soak samples RSS
 * and wall time around it, tests wrap it in memhook snapshots to
 * enforce the zero-alloc invariant.
 */

#ifndef NIMBLOCK_FAAS_SOAK_HH
#define NIMBLOCK_FAAS_SOAK_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "cluster/cluster.hh"
#include "core/grid_context.hh"
#include "faas/admission.hh"
#include "faas/service.hh"
#include "stats/hdr_histogram.hh"
#include "workload/arrivals.hh"

namespace nimblock {

/** Soak-run configuration. */
struct SoakConfig
{
    /** Boards, per-board system config, dispatch policy. */
    ClusterConfig cluster;

    /** Aggregate arrival stream across all tenants. */
    ArrivalSpec arrivals;

    /** Load shedding at the front door. */
    AdmissionConfig admission;

    /** Simulated time during which arrivals are generated; the run then
        drains (admitted work always completes). */
    SimTime horizon = simtime::sec(3600);

    /** Retired-instance pool per board (hypervisor recycling). Must be
        at least the expected peak concurrency per board for the steady
        state to stay allocation-free. */
    std::size_t appPoolSize = 1024;

    /** SLA: met when latency <= slaFactor x isolated single-slot
        latency of the tenant's (app, batch). */
    double slaFactor = 5.0;

    /** Rolling SLA window length and ring size. */
    SimTime slaWindow = simtime::sec(60);
    std::size_t slaWindowCount = 60;
};

/** Aggregate outcome of one soak run. */
struct SoakStats
{
    /** @name Accounting (submitted == admitted + shed; admitted ==
        retired after a clean drain) */
    /// @{
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t retired = 0;
    /// @}

    /** Simulated seconds covered (arrival horizon + drain). */
    double simSeconds = 0.0;

    /** Kernel events fired over the whole run. */
    std::uint64_t eventsFired = 0;

    /** Peak concurrent live applications across the cluster. */
    std::uint64_t peakLive = 0;

    /** End-to-end invocation latency (ns), bounded footprint. */
    HdrHistogram latencyNs;

    /**
     * SLA attainment over the retained window ring / worst completed
     * window (NaN when no window completed).
     */
    double slaAttainment = 1.0;
    double worstWindowAttainment = std::numeric_limits<double>::quiet_NaN();

    /** SLA windows rolled over during the run, empty ones included. */
    std::uint64_t slaWindowsCompleted = 0;
};

/** One streaming open-loop run over a cluster. */
class SoakEngine
{
  public:
    /**
     * @param cfg     Run configuration (board hypervisors are switched
     *                to streaming mode: records off, pooling on).
     * @param tenants Tenant population (weights, apps, priorities).
     * @param rng     Seeds the arrival and tenant-pick streams.
     */
    SoakEngine(SoakConfig cfg, std::vector<TenantSpec> tenants,
               const Rng &rng);

    ~SoakEngine();

    SoakEngine(const SoakEngine &) = delete;
    SoakEngine &operator=(const SoakEngine &) = delete;

    /** Warm caches, arm the pump, start board timers. Call once. */
    void start();

    /**
     * Fire one kernel event.
     *
     * @return False when the run is complete (queue drained).
     */
    bool step();

    /** Validate accounting and snapshot the aggregate stats. */
    SoakStats finish();

    /** start() + drain + finish() in one call. */
    SoakStats run();

    /** @name Introspection for instrumented harnesses */
    /// @{
    SimTime now() const { return _eq.now(); }
    bool pumping() const { return _pumping; }
    std::uint64_t submitted() const { return _submitted; }
    std::uint64_t admitted() const { return _admitted; }
    std::uint64_t retired() const { return _retired; }
    std::size_t liveCount() const;
    const HdrHistogram &latency() const { return _latency; }
    AdmissionController &admission() { return *_admission; }
    Cluster &cluster() { return *_cluster; }
    EventQueue &queue() { return _eq; }
    /// @}

    /** Attach shed observability (nullable; forwards to admission). */
    void setCounters(CounterRegistry *counters);
    void setTimeline(Timeline *timeline);

  private:
    /** Pump callback: decide the arrival, rearm for the next one. */
    void onArrival();

    /** Retire listener: record latency/SLA, detect completion. */
    void onRetire(const AppInstance &app);

    /** Stop board timers once the pump ended and the cluster drained. */
    void maybeStop();

    SoakConfig _cfg;
    EventQueue _eq;
    std::unique_ptr<Cluster> _cluster;
    GridContext _ctx;
    TenantPopulation _population;
    std::unique_ptr<ArrivalProcess> _arrivals;
    std::unique_ptr<AdmissionController> _admission;

    /** Per-tenant SLA latency limit (slaFactor x isolated latency). */
    std::vector<SimTime> _slaLimit;

    HdrHistogram _latency;
    RollingSlaWindows _sla;

    TimerId _pumpTimer = kTimerNone;
    bool _started = false;
    bool _stopped = false;
    bool _pumping = false;
    std::uint64_t _submitted = 0;
    std::uint64_t _admitted = 0;
    std::uint64_t _retired = 0;
    std::uint64_t _peakLive = 0;
};

} // namespace nimblock

#endif // NIMBLOCK_FAAS_SOAK_HH
