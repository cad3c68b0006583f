/**
 * @file
 * The dbpsim_bench driver: one binary for every figure/table campaign.
 *
 *   dbpsim_bench --list
 *   dbpsim_bench fig4 fig5
 *   dbpsim_bench --all --jobs=8
 *   dbpsim_bench fig4 --serial seed=7 warmup=1000000
 *   dbpsim_bench sweep mix=W10 cross=1
 *
 * Runs the selected campaigns, prints their tables, and writes one
 * result document per campaign to <out>/<name>.json. The "result
 * digest" printed per campaign hashes only the deterministic sections
 * (jobs + summary), so comparing a --serial run against a --jobs=N
 * run is a one-line diff even though wall-clock fields differ. The
 * selected campaigns share one in-memory alone-baseline cache, so each
 * alone run is simulated once per invocation and never read from disk.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/log.hh"

namespace {

using namespace dbpsim;
using namespace dbpsim::bench;

void
listCampaigns(std::ostream &os)
{
    os << "campaigns:\n";
    for (const CampaignSpec *s : campaignRegistry())
        os << "  " << s->name << "\t" << s->title << "\n";
}

void
usage(std::ostream &os)
{
    os << "usage: dbpsim_bench [options] [campaign...] [key=value...]\n"
          "  --list       list registered campaigns\n"
          "  --all        run every campaign\n"
          "  --jobs=N     worker threads (default: hardware)\n"
          "  --serial     single-threaded reference mode (= --jobs=1)\n"
          "  --out=DIR    result directory (default: results)\n"
          "  --quiet      suppress per-job progress lines\n"
          "  key=value    configuration overrides (seed=, warmup=, ...)\n"
          "  sweep        schemes on one mix (mix=|apps=, schemes=, "
          "cross=)\n";
}

/** Digest of the deterministic result sections (jobs + summary). */
std::string
resultDigest(const Json &doc)
{
    std::uint64_t h = hashString(doc.at("jobs").dump() +
                                 doc.at("summary").dump());
    std::ostringstream os;
    os << "0x" << std::hex << h;
    return os.str();
}

/** Total protocol-checker violations across a campaign's jobs. */
std::int64_t
totalViolations(const Json &doc)
{
    std::int64_t total = 0;
    for (const auto &m : doc.at("jobs").members())
        if (const Json *v = m.second.find("check_violations"))
            if (v->asInt() > 0)
                total += v->asInt();
    return total;
}

} // namespace

int
main(int argc, char **argv)
{
    bool all = false, list = false;
    unsigned jobs = 0; // 0 = hardware concurrency
    bool progress = true;
    std::string out_dir = "results";
    std::vector<std::string> names;
    Config cfg;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list") {
            list = true;
        } else if (arg == "--all") {
            all = true;
        } else if (arg == "--serial") {
            jobs = 1;
        } else if (arg.rfind("--jobs=", 0) == 0) {
            const std::int64_t n = parseIntString(arg.substr(7), "--jobs");
            if (n < 0 || n > std::numeric_limits<unsigned>::max())
                fatal("value '", arg.substr(7),
                      "' for --jobs is out of range [0, ",
                      std::numeric_limits<unsigned>::max(), "]");
            jobs = static_cast<unsigned>(n);
        } else if (arg.rfind("--out=", 0) == 0) {
            out_dir = arg.substr(6);
        } else if (arg == "--quiet") {
            progress = false;
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            listCampaigns(std::cout);
            return 0;
        } else if (arg.rfind("--", 0) != 0 &&
                   arg.find('=') != std::string::npos) {
            cfg.parseToken(arg);
        } else if (arg == "sweep" || findCampaign(arg)) {
            names.push_back(arg);
        } else {
            std::cerr << "dbpsim_bench: unknown argument '" << arg
                      << "'\n\n";
            usage(std::cerr);
            listCampaigns(std::cerr);
            return 2;
        }
    }

    if (list) {
        listCampaigns(std::cout);
        return 0;
    }
    if (!all && names.empty()) {
        usage(std::cerr);
        listCampaigns(std::cerr);
        return 2;
    }

    // The sweep's keys are driver keys only when the sweep runs.
    const bool sweep =
        std::find(names.begin(), names.end(), "sweep") != names.end();
    RunConfig rc = makeRunConfig(cfg, sweep ? sweepKeys()
                                            : std::vector<std::string>{});
    CampaignSpec sweep_spec;
    if (sweep)
        sweep_spec = sweepCampaign(cfg);

    std::vector<const CampaignSpec *> to_run;
    if (all)
        to_run = campaignRegistry();
    for (const auto &name : names) {
        if (name == "sweep")
            to_run.push_back(&sweep_spec);
        else if (!all)
            to_run.push_back(findCampaign(name));
    }

    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
        std::cerr << "dbpsim_bench: cannot create '" << out_dir
                  << "': " << ec.message() << "\n";
        return 2;
    }

    auto baselines = std::make_shared<AloneBaselineCache>();

    int exit_code = 0;
    for (const CampaignSpec *spec : to_run) {
        std::cout << "== " << spec->name << ": " << spec->title
                  << " ==\n"
                  << "machine: " << rc.base.summary() << "\n"
                  << "window: " << rc.warmupCpu << " warmup + "
                  << rc.measureCpu << " measured CPU cycles, interval "
                  << rc.base.profileIntervalCpu << "\n\n";

        CampaignOptions opts;
        opts.jobs = jobs;
        opts.progress = progress;
        Json doc = runCampaign(*spec, rc, baselines, opts, std::cout);

        std::int64_t violations = totalViolations(doc);
        if (violations > 0) {
            std::cerr << "dbpsim_bench: " << spec->name << ": "
                      << violations << " protocol violation(s)\n";
            exit_code = 1;
        }

        const std::string path = out_dir + "/" + spec->name + ".json";
        std::ofstream file(path);
        if (!file) {
            std::cerr << "dbpsim_bench: cannot write " << path << "\n";
            exit_code = 2;
        } else {
            doc.write(file, 2);
            file << "\n";
        }

        std::cout << "result digest: " << resultDigest(doc) << "\n"
                  << "results: " << path << "\n\n";
    }

    return exit_code;
}
