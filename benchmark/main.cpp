/**
 * @file
 * The repository's benchmark program.
 *
 *   qec_benchmark --workload <burst_d13|deep_d17|ler_d11|serve_d11>
 *                 [--seed N] [--seconds S] [--trace 0|1]
 *                 [--out DIR] [--self-test]
 *
 * Inputs are generated from the seed; the run measures for about S
 * seconds, checks its outputs, and prints one JSON object as the
 * last line of standard output:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * An untraced run reports the end-to-end metrics; a traced run
 * (--trace 1) reports the per-layer metrics, measured from outside
 * by timing calls into each layer. --out writes the full report
 * (sample counts, extra percentiles, host) and, when traced, a
 * Chrome trace-event file. The exit code is non-zero when any
 * output check fails; --self-test corrupts one checked output to
 * prove that it does.
 */

#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace
{

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        unsigned regs[12];
        for (unsigned i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        }
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string model(brand);
        const size_t begin = model.find_first_not_of(' ');
        const size_t end = model.find_last_not_of(' ');
        if (begin != std::string::npos) {
            return model.substr(begin, end - begin + 1);
        }
    }
#endif
    return "unknown";
}

[[noreturn]] void
usage(const char *message)
{
    std::fprintf(stderr,
                 "qec_benchmark: %s\n"
                 "usage: qec_benchmark --workload "
                 "<burst_d13|deep_d17|ler_d11|serve_d11> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--out DIR] "
                 "[--self-test]\n",
                 message);
    std::exit(2);
}

qbench::Options
parse(int argc, char **argv)
{
    qbench::Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage(("missing value for " + arg).c_str());
            }
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                options.workload = value();
            } else if (arg == "--seed") {
                options.seed = std::stoull(value());
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value());
            } else if (arg == "--trace") {
                // Accepts "--trace 0|1" and a bare "--trace".
                options.trace = true;
                if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 ||
                                     std::strcmp(argv[i + 1], "1") == 0)) {
                    options.trace = argv[++i][0] == '1';
                }
            } else if (arg == "--out") {
                options.out = value();
            } else if (arg == "--self-test") {
                options.selfTest = true;
            } else {
                usage(("unknown argument " + arg).c_str());
            }
        } catch (const std::logic_error &) {
            usage(("bad value for " + arg).c_str());
        }
    }
    if (!(options.seconds > 0.0 && options.seconds <= 600.0)) {
        usage("--seconds must be in (0, 600]");
    }
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    const qbench::Options options = parse(argc, argv);
    void (*run)(const qbench::Options &, qbench::Report &) = nullptr;
    if (options.workload == "burst_d13") {
        run = qbench::runBurst;
    } else if (options.workload == "deep_d17") {
        run = qbench::runDeep;
    } else if (options.workload == "ler_d11") {
        run = qbench::runLer;
    } else if (options.workload == "serve_d11") {
        run = qbench::runServe;
    } else {
        usage("unknown workload");
    }
    qbench::Report report;
    report.info("host_nproc",
                std::to_string(std::thread::hardware_concurrency()));
    report.info("host_cpu", cpuModel());
    report.info("run", options.workload + " seed=" +
                           std::to_string(options.seed) + " seconds=" +
                           std::to_string(options.seconds) +
                           (options.trace ? " traced" : " untraced") +
                           (options.selfTest ? " self-test" : ""));
    if (options.trace) {
        // Layers a workload does not run report 0 with 0 samples.
        for (const qbench::LayerMetric &m : qbench::layerMetrics()) {
            report.metric(m.name, 0.0, m.unit, 0);
        }
    }
    try {
        if (!options.out.empty()) {
            std::filesystem::create_directories(options.out);
        }
        run(options, report);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "qec_benchmark: %s failed: %s\n",
                     options.workload.c_str(), e.what());
        return 1;
    }
    report.finish(options);
    return report.correct() ? 0 : 1;
}
