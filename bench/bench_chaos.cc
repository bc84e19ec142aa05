/**
 * @file
 * Chaos benchmark: scheduler resilience under injected fabric faults.
 *
 * Sweeps the fault rate over {1e-4, 1e-3, 1e-2, 1e-1} for every
 * evaluation scheduler. At each point the reconfiguration-failure,
 * SD-read-error and item-crash probabilities are set to the rate (item
 * hangs at rate/10) and a fixed workload is replayed; a fault-free run of
 * the same workload provides the per-scheduler baseline. Reported per
 * (scheduler, rate):
 *
 *   - mean response-time degradation vs. the fault-free baseline
 *     (failed applications excluded from the mean),
 *   - goodput: fraction of applications that retired successfully,
 *   - SLA violation rate of a small FaaS deployment running under the
 *     same fault rates (faas/service.hh),
 *   - fault/retry/quarantine/app-failure counts from the hypervisor.
 *
 * Results are also written as BENCH_chaos.json (override with --json
 * PATH) for the CI bench-smoke artifact.
 *
 * `bench_chaos --help` lists the flags.
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/registry.hh"
#include "common.hh"
#include "core/simulation.hh"
#include "faas/service.hh"
#include "metrics/analysis.hh"
#include "sched/factory.hh"
#include "sim/logging.hh"
#include "workload/generator.hh"

namespace {

using namespace nimblock;

struct Options
{
    int events = 16;
    std::uint64_t seed = 2023;
    double faasSec = 10.0;
    std::string jsonPath = "BENCH_chaos.json";
};

/** The failure model at one sweep point. */
FaultConfig
faultsAtRate(double rate, std::uint64_t seed)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.seed = seed;
    fc.reconfigFailProb = rate;
    fc.sdReadErrorProb = rate;
    fc.itemCrashProb = rate;
    fc.itemHangProb = rate / 10.0;
    // A visible share of persistent faults so quarantine engages at the
    // high end of the sweep.
    fc.persistentFaultFrac = 0.25;
    return fc;
}

/** Mean response over successful applications only. */
double
meanGoodResponseSec(const std::vector<AppRecord> &records)
{
    std::vector<AppRecord> good;
    good.reserve(records.size());
    for (const AppRecord &r : records) {
        if (!r.failed)
            good.push_back(r);
    }
    return good.empty() ? 0.0 : meanResponseSec(good);
}

/** SLA violation rate of a small FaaS deployment under @p faults. */
double
faasViolationRate(const std::string &scheduler, const FaultConfig &faults,
                  const AppRegistry &registry, const Options &opts)
{
    FaasConfig cfg;
    cfg.system.scheduler = scheduler;
    cfg.system.faults = faults;
    cfg.duration = simtime::sec(opts.faasSec);

    FaasService service(cfg);
    FunctionLoad classify;
    classify.function = {"classify", registry.get("lenet"), 1,
                         Priority::High, 5.0};
    classify.invocationsPerSec = 0.8;
    service.deploy(classify);
    FunctionLoad compress;
    compress.function = {"compress", registry.get("image_compression"), 2,
                         Priority::Medium, 5.0};
    compress.invocationsPerSec = 0.5;
    service.deploy(compress);

    FaasRunResult result = service.run(Rng(opts.seed));
    std::size_t total = 0, met = 0;
    for (const InvocationRecord &inv : result.invocations) {
        ++total;
        met += inv.slaMet;
    }
    return total == 0 ? 0.0
                      : 1.0 - static_cast<double>(met) /
                                  static_cast<double>(total);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    bench::parseFlags(argc, argv, {
        {"--events", &opts.events, "events in the replayed sequence", 2},
        {"--seed", &opts.seed, "workload and fault seed"},
        {"--faas-sec", &opts.faasSec,
         "FaaS deployment length in whole seconds", 1},
        {"--json", &opts.jsonPath, "results file"},
        {"--quick", [&opts] { opts.events = 6; opts.faasSec = 4.0; },
         "smoke size: 6 events, 4 s of FaaS"},
    });
    setQuiet(true);

    AppRegistry registry = standardRegistry();
    GeneratorConfig gen;
    gen.numEvents = opts.events;
    gen.appPool = {"lenet", "image_compression", "optical_flow"};
    gen.minDelayMs = 100;
    gen.maxDelayMs = 400;
    gen.maxBatch = 6;
    EventSequence seq = generateSequence("chaos", gen, Rng(opts.seed));

    const std::vector<double> rates = {1e-4, 1e-3, 1e-2, 1e-1};

    std::printf("# bench_chaos: %d events, seed %llu, faas %.1fs\n",
                opts.events, static_cast<unsigned long long>(opts.seed),
                opts.faasSec);
    std::printf("%-10s %8s %10s %8s %8s %8s %8s %8s\n", "scheduler",
                "rate", "degrade", "goodput", "sla-vio", "faults",
                "retries", "quar");

    using bench::Json;
    Json results = Json::array();
    for (const std::string &name : extendedSchedulers()) {
        SystemConfig base;
        base.scheduler = name;
        RunResult healthy = Simulation(base, registry).run(seq);
        double baseline_mean = meanGoodResponseSec(healthy.records);

        for (double rate : rates) {
            SystemConfig cfg = base;
            cfg.faults = faultsAtRate(rate, opts.seed);
            RunResult r = Simulation(cfg, registry).run(seq);

            double mean = meanGoodResponseSec(r.records);
            double degradation =
                baseline_mean > 0 ? mean / baseline_mean : 1.0;
            std::size_t good = 0;
            for (const AppRecord &rec : r.records)
                good += !rec.failed;
            double goodput = static_cast<double>(good) /
                             static_cast<double>(r.records.size());
            double sla_vio =
                faasViolationRate(name, cfg.faults, registry, opts);
            const HypervisorStats &hs = r.hypervisorStats;

            std::printf(
                "%-10s %8.0e %9.2fx %8.3f %8.3f %8llu %8llu %8llu\n",
                name.c_str(), rate, degradation, goodput, sla_vio,
                static_cast<unsigned long long>(hs.faultsInjected),
                static_cast<unsigned long long>(hs.faultRetries),
                static_cast<unsigned long long>(hs.quarantineEvents));
            results.push(Json::object({
                {"scheduler", name},
                {"rate", Json::num(rate, "%g")},
                {"baseline_mean_sec", Json::num(baseline_mean, "%.6f")},
                {"mean_response_sec", Json::num(mean, "%.6f")},
                {"degradation", Json::num(degradation, "%.4f")},
                {"goodput", Json::num(goodput, "%.4f")},
                {"sla_violation_rate", Json::num(sla_vio, "%.4f")},
                {"faults_injected", hs.faultsInjected},
                {"fault_retries", hs.faultRetries},
                {"quarantine_events", hs.quarantineEvents},
                {"apps_failed", hs.appsFailed},
            }));
        }
    }

    Json rates_json = Json::array();
    for (double rate : rates)
        rates_json.push(Json::num(rate, "%g"));
    bench::writeJson(opts.jsonPath,
                     Json::object({{"bench", "chaos"},
                                   {"events", opts.events},
                                   {"seed", opts.seed},
                                   {"rates", rates_json},
                                   {"results", results}}));
    std::printf("# wrote %s\n", opts.jsonPath.c_str());
    return 0;
}
