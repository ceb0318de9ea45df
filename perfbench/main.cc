/**
 * @file
 * perfbench: run one workload of the end-to-end benchmark and print
 * its host context and result as two JSON lines. run.py builds this
 * binary, passes the recorded workload parameters, and turns a traced
 * run's span file into per-layer self times.
 *
 *   perfbench --workload paper-warm --seed 3 --seconds 30 --threads 4 \
 *             --work-dir DIR [--trace-out FILE] [--expect-digest HEX]
 *             [--rate FPS --ladder A,B,... --p99-limit-ms MS]
 *             [--digest-only]
 */

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/cli.hh"
#include "common/simd.hh"
#include "harness.hh"

using namespace perfbench;

namespace
{

/** CPUs this process may run on. */
int
usableCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

std::vector<double>
parseList(const std::string &text)
{
    std::vector<double> out;
    std::stringstream ss(text);
    std::string tok;
    while (std::getline(ss, tok, ','))
        out.push_back(std::stod(tok));
    if (!std::is_sorted(out.begin(), out.end()))
        throw std::invalid_argument("--ladder must be ascending");
    return out;
}

Config
parseConfig(int argc, char **argv, int cpus)
{
    diffy::CliArgs args(argc, argv, {"digest-only"});
    Config cfg;
    cfg.workload = args.getString("workload", "");
    cfg.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    cfg.seconds = args.getDouble("seconds", 10.0);
    cfg.threads = std::clamp(
        static_cast<int>(args.getInt("threads", cpus)), 1, cpus);
    cfg.workDir = args.getString("work-dir", "");
    cfg.traceOut = args.getString("trace-out", "");
    cfg.trace = !cfg.traceOut.empty();
    cfg.rateFps = args.getDouble("rate", 0.0);
    cfg.ladderFps = parseList(args.getString("ladder", ""));
    cfg.p99LimitMs = args.getDouble("p99-limit-ms", 0.0);
    cfg.expectDigest = args.getString("expect-digest", "");
    cfg.digestOnly = args.has("digest-only");
    if (cfg.workDir.empty())
        throw std::invalid_argument("--work-dir is required");
    if (cfg.seconds <= 0.0 || cfg.seconds > 120.0)
        throw std::invalid_argument("--seconds must be in (0, 120]");
    if (cfg.workload == "serve-pan" &&
        (cfg.rateFps <= 0.0 || cfg.ladderFps.empty() || cfg.p99LimitMs <= 0.0))
        throw std::invalid_argument(
            "serve-pan needs --rate, --ladder and --p99-limit-ms");
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
        std::fprintf(stderr, "perfbench: refusing to time a '%s' build; "
                     "configure with -DCMAKE_BUILD_TYPE=Release\n",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }
    const int cpus = usableCpus();
    Config cfg;
    try {
        cfg = parseConfig(argc, argv, cpus);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }

    Result result;
    try {
        if (cfg.workload == "paper-warm")
            result = runPaperWarm(cfg);
        else if (cfg.workload == "paper-cold")
            result = runPaperCold(cfg);
        else if (cfg.workload == "serve-pan")
            result = runServePan(cfg);
        else {
            std::fprintf(stderr, "error: unknown --workload '%s'\n",
                         cfg.workload.c_str());
            return 2;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    const char *isaEnv = std::getenv("DIFFY_ISA");
    std::printf("{\"context\": {\"nproc\": %d, \"threads\": %d, \"isa\": "
                "\"%s\", \"isa_env\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\"}}\n",
                cpus, cfg.threads,
                diffy::simd::isaName(diffy::simd::activeIsa()),
                isaEnv != nullptr ? isaEnv : "", PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE);
    std::printf("%s\n", result.json().c_str());
    return 0;
}
