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
 *   bench_chaos [--events N] [--seed S] [--faas-sec T] [--json PATH]
 *               [--quick]
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
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

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("flag %s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--events")
            o.events = std::atoi(next());
        else if (arg == "--seed")
            o.seed = std::strtoull(next(), nullptr, 10);
        else if (arg == "--faas-sec")
            o.faasSec = std::atof(next());
        else if (arg == "--json")
            o.jsonPath = next();
        else if (arg == "--quick") {
            o.events = 6;
            o.faasSec = 4.0;
        } else {
            bench::usageErrorFlag(arg);
        }
    }
    if (o.events < 2 || o.faasSec <= 0)
        fatal("need at least 2 events and a positive FaaS duration");
    return o;
}

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

/** One (scheduler, rate) measurement. */
struct ChaosPoint
{
    std::string scheduler;
    double rate = 0;
    double baselineMeanSec = 0;
    double meanResponseSec = 0;
    double goodput = 1.0;
    double slaViolationRate = 0;
    std::uint64_t faultsInjected = 0;
    std::uint64_t faultRetries = 0;
    std::uint64_t quarantineEvents = 0;
    std::uint64_t appsFailed = 0;

    double
    degradation() const
    {
        return baselineMeanSec > 0 ? meanResponseSec / baselineMeanSec
                                   : 1.0;
    }
};

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

void
writeJson(const std::string &path, const std::vector<ChaosPoint> &points,
          const std::vector<double> &rates, const Options &opts)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot write %s", path.c_str());
    std::fprintf(f, "{\n  \"bench\": \"chaos\",\n");
    std::fprintf(f, "  \"events\": %d,\n  \"seed\": %llu,\n", opts.events,
                 static_cast<unsigned long long>(opts.seed));
    std::fprintf(f, "  \"rates\": [");
    for (std::size_t i = 0; i < rates.size(); ++i)
        std::fprintf(f, "%s%g", i ? ", " : "", rates[i]);
    std::fprintf(f, "],\n  \"results\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const ChaosPoint &p = points[i];
        std::fprintf(
            f,
            "    {\"scheduler\": \"%s\", \"rate\": %g, "
            "\"baseline_mean_sec\": %.6f, \"mean_response_sec\": %.6f, "
            "\"degradation\": %.4f, \"goodput\": %.4f, "
            "\"sla_violation_rate\": %.4f, \"faults_injected\": %llu, "
            "\"fault_retries\": %llu, \"quarantine_events\": %llu, "
            "\"apps_failed\": %llu}%s\n",
            p.scheduler.c_str(), p.rate, p.baselineMeanSec,
            p.meanResponseSec, p.degradation(), p.goodput,
            p.slaViolationRate,
            static_cast<unsigned long long>(p.faultsInjected),
            static_cast<unsigned long long>(p.faultRetries),
            static_cast<unsigned long long>(p.quarantineEvents),
            static_cast<unsigned long long>(p.appsFailed),
            i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parseOptions(argc, argv);
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

    std::vector<ChaosPoint> points;
    for (const std::string &name : extendedSchedulers()) {
        SystemConfig base;
        base.scheduler = name;
        RunResult healthy = Simulation(base, registry).run(seq);
        double baseline_mean = meanGoodResponseSec(healthy.records);

        for (double rate : rates) {
            SystemConfig cfg = base;
            cfg.faults = faultsAtRate(rate, opts.seed);
            RunResult r = Simulation(cfg, registry).run(seq);

            ChaosPoint p;
            p.scheduler = name;
            p.rate = rate;
            p.baselineMeanSec = baseline_mean;
            p.meanResponseSec = meanGoodResponseSec(r.records);
            std::size_t good = 0;
            for (const AppRecord &rec : r.records)
                good += !rec.failed;
            p.goodput = static_cast<double>(good) /
                        static_cast<double>(r.records.size());
            p.slaViolationRate =
                faasViolationRate(name, cfg.faults, registry, opts);
            p.faultsInjected = r.hypervisorStats.faultsInjected;
            p.faultRetries = r.hypervisorStats.faultRetries;
            p.quarantineEvents = r.hypervisorStats.quarantineEvents;
            p.appsFailed = r.hypervisorStats.appsFailed;

            std::printf(
                "%-10s %8.0e %9.2fx %8.3f %8.3f %8llu %8llu %8llu\n",
                name.c_str(), rate, p.degradation(), p.goodput,
                p.slaViolationRate,
                static_cast<unsigned long long>(p.faultsInjected),
                static_cast<unsigned long long>(p.faultRetries),
                static_cast<unsigned long long>(p.quarantineEvents));
            points.push_back(p);
        }
    }

    writeJson(opts.jsonPath, points, rates, opts);
    std::printf("# wrote %s\n", opts.jsonPath.c_str());
    return 0;
}
