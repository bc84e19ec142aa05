/**
 * @file
 * FPGA-backed Function-as-a-Service layer.
 *
 * The paper's introduction positions FPGA virtualization as the enabler
 * for "serverless computing with FPGAs as a first-class citizen": FaaS
 * requires strong isolation, fine-grained scheduling of individual tasks,
 * and flexible resource allocation. This module builds that deployment on
 * top of the Nimblock runtime: named functions backed by accelerator
 * task graphs, open-loop Poisson invocation streams, per-function SLAs
 * expressed against the function's isolated latency, and cold/warm-start
 * accounting derived from the bitstream cache.
 */

#ifndef NIMBLOCK_FAAS_SERVICE_HH
#define NIMBLOCK_FAAS_SERVICE_HH

#include <map>
#include <string>
#include <vector>

#include "apps/registry.hh"
#include "core/simulation.hh"
#include "sim/rng.hh"

namespace nimblock {

/** A deployable function: an accelerator app plus invocation defaults. */
struct FunctionSpec
{
    /** Function name (unique within a deployment). */
    std::string name;

    /** Accelerator implementation. */
    AppSpecPtr app;

    /** Items per invocation (requests are batched per invocation). */
    int batch = 1;

    Priority priority = Priority::Medium;

    /**
     * SLA: an invocation meets its objective when its response time is at
     * most slaFactor x the function's isolated single-slot latency.
     */
    double slaFactor = 5.0;
};

/** Offered load for one function. */
struct FunctionLoad
{
    FunctionSpec function;

    /** Mean invocations per second (Poisson arrivals). */
    double invocationsPerSec = 1.0;
};

/** One completed invocation. */
struct InvocationRecord
{
    std::string function;
    SimTime submitted = 0;
    SimTime completed = 0;
    bool slaMet = false;

    SimTime
    latency() const
    {
        return completed - submitted;
    }
};

/** Per-function aggregate results. */
struct FunctionStats
{
    std::string function;
    std::size_t invocations = 0;
    double meanLatencySec = 0;
    double p99LatencySec = 0;
    double slaAttainment = 0; //!< Fraction of invocations meeting the SLA.
    double coldStartSec = 0;  //!< First-invocation latency.
};

/** Whole-deployment results. */
struct FaasRunResult
{
    std::vector<InvocationRecord> invocations;
    std::map<std::string, FunctionStats> perFunction;
    RunResult run; //!< Underlying simulation result.
};

/** Deployment-wide configuration. */
struct FaasConfig
{
    /** Board configuration; the scheduler defaults to Nimblock. */
    SystemConfig system;

    /** Open-loop workload duration. */
    SimTime duration = simtime::sec(30);
};

/**
 * Rolling SLA attainment over fixed simulated-time windows.
 *
 * The streaming path cannot keep per-invocation records, but "what
 * fraction met the SLA over the whole run" hides transients: a diurnal
 * peak that breaches for twenty minutes vanishes inside a 24h average.
 * A fixed ring of per-window {total, met} pairs gives both the recent
 * aggregate and the worst window seen, at O(windows) memory and zero
 * allocation after construction.
 */
class RollingSlaWindows
{
  public:
    /**
     * @param windowLength Simulated length of one window.
     * @param numWindows   Ring capacity (history retained for
     *                     attainment()); fatal()s on zero either way.
     */
    RollingSlaWindows(SimTime windowLength, std::size_t numWindows);

    /** Record one completed invocation at @p now. Never allocates. */
    void record(SimTime now, bool slaMet);

    /**
     * Attainment over the retained windows (current included); NaN
     * before the first record.
     */
    double attainment() const;

    /**
     * Attainment of the worst *completed* non-empty window anywhere in
     * the run (not only those still retained); NaN when none completed
     * (no data is not perfect attainment).
     */
    double worstWindowAttainment() const;

    /** Invocations recorded over the whole run. */
    std::uint64_t totalRecorded() const { return _totalRecorded; }

    /** Of those, how many met the SLA. */
    std::uint64_t totalMet() const { return _totalMet; }

    /** Completed (rolled-over) windows, empty ones included. */
    std::uint64_t windowsCompleted() const { return _completed; }

    SimTime windowLength() const { return _len; }
    std::size_t windowCount() const { return _ring.size(); }

  private:
    struct Window
    {
        std::uint64_t total = 0;
        std::uint64_t met = 0;
    };

    /** Roll the ring forward so _curEpoch covers @p now. */
    void advanceTo(SimTime now);

    /** Finalize the current window into the worst-window tracking. */
    void closeCurrent();

    SimTime _len;
    std::vector<Window> _ring;
    std::size_t _cur = 0;
    std::int64_t _curEpoch = 0;
    std::uint64_t _completed = 0;
    double _worst = 1.0;
    bool _anyCompletedNonEmpty = false;
    std::uint64_t _totalRecorded = 0;
    std::uint64_t _totalMet = 0;
};

/**
 * An FPGA FaaS deployment: functions with offered loads, executed on one
 * virtualized board.
 */
class FaasService
{
  public:
    explicit FaasService(FaasConfig cfg);

    /**
     * Deploy a function.
     *
     * fatal()s on duplicate names or rates <= 0.
     */
    void deploy(FunctionLoad load);

    /** Names of deployed functions, in deployment order. */
    std::vector<std::string> functions() const;

    /**
     * Generate the Poisson invocation mix for the configured duration and
     * execute it.
     *
     * @param rng Randomness for the arrival processes (derived streams
     *            per function, so deployments are order-insensitive).
     */
    FaasRunResult run(const Rng &rng) const;

    /**
     * The invocation sequence alone (for inspection or replay); events
     * are tagged with the backing application names.
     */
    EventSequence generateInvocations(const Rng &rng) const;

  private:
    FaasConfig _cfg;
    std::vector<FunctionLoad> _loads;
};

} // namespace nimblock

#endif // NIMBLOCK_FAAS_SERVICE_HH
