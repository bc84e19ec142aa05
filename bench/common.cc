#include "common.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>

#include "cluster/cluster.hh"
#include "core/parallel.hh"
#include "core/simulation.hh"
#include "metrics/trace_export.hh"
#include "sched/factory.hh"
#include "sim/logging.hh"
#include "workload/generator.hh"

namespace nimblock {
namespace bench {

namespace {
/** Wall-clock anchor set by printHeader() and read by printFooter(). */
std::chrono::steady_clock::time_point gBenchStart;

/** Print one usage-error line to stderr and exit 2. */
[[noreturn]] __attribute__((format(printf, 1, 2))) void
usageError(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fputc('\n', stderr);
    std::exit(2);
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &n : names)
        out += (out.empty() ? "" : ", ") + n;
    return out;
}

/** Strictly parse @p text as a T: the whole token, in range, or exit 2. */
template <typename T>
T
parseNumber(const Flag &flag, const char *text)
{
    errno = 0;
    char *end = nullptr;
    T v{};
    const char *want = "a number";
    bool ok = true;
    if constexpr (std::is_same_v<T, double>) {
        v = std::strtod(text, &end);
        ok = std::isfinite(v);
    } else if constexpr (std::is_same_v<T, int>) {
        long long w = std::strtoll(text, &end, 10);
        v = static_cast<int>(w);
        want = "an integer";
        ok = w >= INT_MIN && w <= INT_MAX;
    } else {
        v = std::strtoull(text, &end, 10);
        want = "a non-negative integer";
        ok = std::strchr(text, '-') == nullptr; // strtoull wraps a '-'
    }
    if (end == text || *end != '\0' || errno == ERANGE || !ok)
        usageError("flag %s wants %s, got '%s'", flag.name, want, text);
    if (static_cast<double>(v) < flag.min)
        usageError("flag %s must be at least %g, got '%s'", flag.name,
                   flag.min, text);
    return v;
}

template <typename... Ts> struct Overloaded : Ts...
{
    using Ts::operator()...;
};
} // namespace

void
parseFlags(int argc, char **argv, const Flags &flags)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(flagHelp(argv[0], flags).c_str(), stdout);
            std::exit(0);
        }
        auto flag = std::find_if(flags.begin(), flags.end(),
                                 [&](const Flag &f) { return arg == f.name; });
        if (flag == flags.end())
            usageError("unknown flag '%s'", arg.c_str());
        auto value = [&] {
            if (i + 1 >= argc)
                usageError("flag %s needs a value", flag->name);
            return argv[++i];
        };
        std::visit(
            Overloaded{
                [](bool *t) { *t = true; },
                [&](std::string *t) { *t = value(); },
                [&](const Choice &c) {
                    *c.target = value();
                    if (std::find(c.names.begin(), c.names.end(),
                                  *c.target) == c.names.end()) {
                        usageError("unknown %s '%s'; valid: %s", c.what,
                                   c.target->c_str(),
                                   joinNames(c.names).c_str());
                    }
                },
                [](const std::function<void()> &preset) { preset(); },
                [&](auto *t) {
                    *t = parseNumber<std::remove_pointer_t<decltype(t)>>(
                        *flag, value());
                },
            },
            flag->target);
    }
}

std::string
flagHelp(const char *prog, const Flags &flags)
{
    const char *base = std::strrchr(prog, '/');
    std::string out =
        formatMessage("usage: %s [flags]\n", base ? base + 1 : prog);
    for (const Flag &f : flags) {
        std::ostringstream def;
        const char *arg = std::visit(
            Overloaded{
                [](bool *) { return ""; },
                [](const std::function<void()> &) { return ""; },
                [&](std::string *t) { def << *t; return " PATH"; },
                [&](const Choice &c) { def << *c.target; return " NAME"; },
                [&](double *t) { def << *t; return " X"; },
                [&](auto *t) { def << *t; return " N"; },
            },
            f.target);
        std::string head = f.name + std::string(arg);
        std::string notes = def.str().empty() ? "" : "default " + def.str();
        if (std::isfinite(f.min))
            notes += formatMessage("%smin %g", notes.empty() ? "" : ", ",
                                   f.min);
        if (const Choice *c = std::get_if<Choice>(&f.target))
            notes += (notes.empty() ? "one of: " : "; one of: ") +
                     joinNames(c->names);
        out += formatMessage("  %-18s %s", head.c_str(), f.help);
        out += notes.empty() ? "\n" : " (" + notes + ")\n";
    }
    return out + formatMessage("  %-18s print this help and exit\n",
                               "--help");
}

BenchOptions
BenchOptions::parse(int argc, char **argv)
{
    BenchOptions o;
    parseFlags(argc, argv, {
        {"--sequences", &o.sequences, "sequences per scenario", 1},
        {"--events", &o.events, "events per sequence", 1},
        {"--seed", &o.seed, "workload master seed"},
        {"--jobs", &o.jobs, "grid worker threads", 1},
        {"--quick", [&o] { o.sequences = 3; o.events = 10; },
         "smoke size: 3 sequences x 10 events"},
        {"--csv", &o.csvPath, "also dump the figure's data as CSV"},
        {"--trace", &o.tracePath,
         "Perfetto traces of one stress sequence, one per scheduler"},
        {"--dispatch",
         Choice{&o.dispatch, "dispatch policy", dispatchPolicyNames()},
         "pin the dispatch policy of the scale-out benches"},
        {"--sched", Choice{&o.sched, "scheduler", schedulerNames()},
         "restrict the bench to one scheduler"},
        {"--hdr", &o.hdrTail, "tail percentiles from the HdrHistogram"},
    });
    return o;
}

Flag
queueImplFlag(std::string *target)
{
    return {"--impl", Choice{target, "event queue", {"wheel", "heap", "auto"}},
            "event-queue implementation"};
}

EventQueueImpl
queueImpl(const std::string &name)
{
    return name == "wheel"  ? EventQueueImpl::Wheel
           : name == "heap" ? EventQueueImpl::Heap
                            : EventQueueImpl::Auto;
}

BenchEnv::BenchEnv(const BenchOptions &o)
    : opts(o), registry(standardRegistry())
{
    setQuiet(true);
}

std::vector<EventSequence>
BenchEnv::sequences(Scenario scenario, int fixed_batch) const
{
    GeneratorConfig gen =
        scenarioConfig(scenario, registry.names(), fixed_batch);
    gen.numEvents = opts.events;
    Rng rng(opts.seed);
    std::string prefix = toString(scenario);
    if (fixed_batch > 0)
        prefix += formatMessage("_b%d", fixed_batch);
    return generateSequences(prefix, opts.sequences, gen, rng);
}

void
printHeader(const std::string &what, const BenchOptions &opts)
{
    gBenchStart = std::chrono::steady_clock::now();
    std::printf("== %s ==\n", what.c_str());
    std::printf("stimuli: %d sequences x %d events, seed %llu, %d job%s\n\n",
                opts.sequences, opts.events,
                static_cast<unsigned long long>(opts.seed), opts.jobs,
                opts.jobs == 1 ? "" : "s");
}

void
printFooter(std::uint64_t totalRuns)
{
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - gBenchStart;
    double sec = elapsed.count();
    if (totalRuns > 0 && sec > 0) {
        std::printf("\nwall-clock: %.2fs (%llu runs, %.1f runs/sec)\n", sec,
                    static_cast<unsigned long long>(totalRuns),
                    static_cast<double>(totalRuns) / sec);
    } else {
        std::printf("\nwall-clock: %.2fs\n", sec);
    }
}

void
maybeWriteCsv(const BenchOptions &opts, const CsvWriter &csv)
{
    if (opts.csvPath.empty())
        return;
    if (csv.writeFile(opts.csvPath))
        std::printf("\ncsv written to %s\n", opts.csvPath.c_str());
    else
        std::printf("\nfailed to write csv to %s\n", opts.csvPath.c_str());
}

void
maybeWriteTraces(const BenchOptions &opts, const BenchEnv &env,
                 const std::vector<std::string> &algos)
{
    if (opts.tracePath.empty())
        return;

    // "dir/out.json" -> "dir/out_<scheduler>.json".
    std::string stem = opts.tracePath;
    std::string ext;
    std::size_t dot = stem.find_last_of('.');
    std::size_t slash = stem.find_last_of("/\\");
    if (dot != std::string::npos &&
        (slash == std::string::npos || dot > slash)) {
        ext = stem.substr(dot);
        stem.resize(dot);
    }

    EventSequence seq = env.sequences(Scenario::Stress).front();
    for (const std::string &algo : algos) {
        SystemConfig cfg = env.config;
        cfg.scheduler = algo;
        cfg.recordTimeline = true;
        cfg.hypervisor.recordCounters = true;
        RunResult result = Simulation(cfg, env.registry).run(seq);

        TraceExportOptions topts;
        topts.numSlots = cfg.fabric.numSlots;
        TraceExporter exporter(topts);
        std::string path = stem + "_" + algo + ext;
        if (exporter.writeFile(path, *result.timeline,
                               result.counters.get())) {
            std::printf("trace written to %s\n", path.c_str());
        } else {
            std::printf("failed to write trace to %s\n", path.c_str());
        }
    }
}

std::vector<std::string>
schedulerSet(const BenchOptions &opts, std::vector<std::string> defaults)
{
    if (!opts.sched.empty())
        return {opts.sched};
    return defaults;
}

Json
Json::object(std::initializer_list<std::pair<std::string, Json>> members)
{
    Json j(Kind::Object);
    for (const auto &[key, value] : members)
        j.add(key, value);
    return j;
}

Json
Json::num(double v, const char *fmt)
{
    Json j(Kind::Scalar);
    j._text = std::isfinite(v) ? formatMessage(fmt, v) : "null";
    return j;
}

Json::Json(const char *s) : _text("\"")
{
    for (; *s; ++s) {
        if (*s == '"' || *s == '\\')
            _text += '\\';
        if (static_cast<unsigned char>(*s) < 0x20)
            _text += formatMessage("\\u%04x", *s);
        else
            _text += *s;
    }
    _text += '"';
}

Json &
Json::add(std::string key, Json v)
{
    _keys.push_back(std::move(key));
    return push(std::move(v));
}

Json &
Json::push(Json v)
{
    _items.push_back(std::move(v));
    return *this;
}

void
Json::dumpTo(std::string &out, std::size_t indent) const
{
    if (_kind == Kind::Scalar) {
        out += _text;
        return;
    }
    bool flat = std::all_of(_items.begin(), _items.end(), [](const Json &j) {
        return j._kind == Kind::Scalar;
    });
    out += _kind == Kind::Object ? '{' : '[';
    for (std::size_t i = 0; i < _items.size(); ++i) {
        out += i ? "," : "";
        if (!flat)
            out.append("\n").append(indent + 2, ' ');
        else if (i)
            out += ' ';
        if (_kind == Kind::Object)
            out += Json(_keys[i])._text + ": ";
        _items[i].dumpTo(out, indent + 2);
    }
    if (!flat)
        out.append("\n").append(indent, ' ');
    out += _kind == Kind::Object ? '}' : ']';
}

std::string
Json::dump() const
{
    std::string out;
    dumpTo(out, 0);
    return out + "\n";
}

void
writeJson(const std::string &path, const Json &doc)
{
    std::ofstream out(path);
    if (!(out << doc.dump() << std::flush)) {
        std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                     std::strerror(errno));
        std::exit(1);
    }
}

void
writeWithHistory(const std::string &path, Json doc, Json entry)
{
    // Carry the old entries over verbatim: dumpTo() puts each entry of
    // a history array on its own line, so a line scan finds them.
    Json history = Json::array();
    std::ifstream in(path);
    std::string line;
    bool inside = false;
    while (std::getline(in, line)) {
        if (!inside) {
            inside = line.find("\"history\"") != std::string::npos;
            continue;
        }
        if (line.find(']') != std::string::npos)
            break;
        std::size_t open = line.find('{'), close = line.rfind('}');
        if (open != std::string::npos && close != std::string::npos) {
            Json old(Json::Kind::Scalar);
            old._text = line.substr(open, close - open + 1);
            history.push(std::move(old));
        }
    }

    std::time_t now = std::time(nullptr);
    char date[32];
    std::strftime(date, sizeof(date), "%Y-%m-%d", std::localtime(&now));
    entry._keys.insert(entry._keys.begin(), "date");
    entry._items.insert(entry._items.begin(), Json(date));
    history.push(std::move(entry));
    doc.add("history", std::move(history));
    writeJson(path, doc);
}

std::string
displayName(const std::string &scheduler)
{
    if (scheduler == "baseline")
        return "Baseline";
    if (scheduler == "fcfs")
        return "FCFS";
    if (scheduler == "prema")
        return "PREMA";
    if (scheduler == "rr")
        return "RR";
    if (scheduler == "nimblock")
        return "Nimblock";
    if (scheduler == "nimblock_nopreempt")
        return "NimblockNoPreempt";
    if (scheduler == "nimblock_nopipe")
        return "NimblockNoPipe";
    if (scheduler == "nimblock_nopreempt_nopipe")
        return "NimblockNoPreemptNoPipe";
    return scheduler;
}

} // namespace bench
} // namespace nimblock
