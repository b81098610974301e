// perfbench — the repository benchmark. One invocation runs one workload:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --data-dir DIR [--trace-out FILE]
//
// --trace 0 repeats rounds (fresh world, warm-up, a timed phase of a fixed
// op count, output checks, close, recovery) until S seconds have passed and
// at least three rounds ran, and reports the medians of the end-to-end
// metrics. --trace 1 runs one round, then the layer-peeled traced run, and
// reports per-layer metrics; its spans go to FILE as Chrome trace-event
// JSON. The last stdout line is one JSON object; lines before it starting
// with '#' give host context. Exit code 1 when an output check failed.
#include <sys/vfs.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "traced.h"
#include "workloads.h"

namespace {

using namespace perfbench;

constexpr size_t kMinRounds = 3;
constexpr size_t kMaxRounds = 64;

const char* FsName(const std::string& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994:
      return "tmpfs";
    case 0xEF53:
      return "ext4";
    case 0x794c7630:
      return "overlay";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    default:
      return "other";
  }
}

uint64_t RejectionCount(const char* const* names) {
  itag::obs::MetricsRegistry& reg = itag::obs::MetricsRegistry::Default();
  uint64_t total = 0;
  for (; *names != nullptr; ++names) total += reg.GetCounter(*names)->value();
  return total;
}

const char* const kNetRejections[] = {"net.overload_rejections",
                                      "net.version_rejections",
                                      "net.protocol_errors", nullptr};
const char* const kAdmissionRejections[] = {"api.admission.rejected", nullptr};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload dashboard_read|tagging_ingest|"
               "upload_overflow|clock_poll --seed N --seconds S --trace 0|1 "
               "--data-dir DIR [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, data_dir, trace_out;
  long long seed = -1, seconds = -1, trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atoll(value);
    } else if (flag == "--trace") {
      trace = std::atoll(value);
    } else if (flag == "--data-dir") {
      data_dir = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  Workload w;
  if (argc % 2 == 0 || !ParseWorkload(workload_name, &w) || seed < 0 ||
      seconds < 1 || (trace != 0 && trace != 1) || data_dir.empty()) {
    return Usage();
  }

  const uint64_t net_rejected0 = RejectionCount(kNetRejections);
  const uint64_t admission_rejected0 = RejectionCount(kAdmissionRejections);
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
  std::vector<std::string> context;
  Tally tally;
  uint64_t steal = 0, ticks = 0;
  const auto start = std::chrono::steady_clock::now();

  if (trace == 0) {
    std::vector<Round> rounds;
    while (rounds.size() < kMinRounds ||
           (std::chrono::steady_clock::now() - start <
                std::chrono::seconds(seconds) &&
            rounds.size() < kMaxRounds)) {
      rounds.push_back(RunRound(w, static_cast<uint64_t>(seed),
                                data_dir + "/round", false));
    }
    auto med = [&rounds](double Round::*field) {
      std::vector<double> v;
      for (const Round& r : rounds) v.push_back(r.*field);
      return Median(v);
    };
    uint64_t samples = 0;
    for (const Round& r : rounds) {
      samples += r.latency_samples;
      steal += r.steal_ticks;
      ticks += r.cpu_ticks;
      tally.Merge(r.tally);
      failures.insert(failures.end(), r.check_failures.begin(),
                      r.check_failures.end());
    }
    metrics = {
        {"setup_s", med(&Round::setup_s), "s"},
        {"cpu_us_per_op", med(&Round::cpu_us_per_op), "us"},
        {"recover_s", med(&Round::recover_s), "s"},
        {"disk_bytes_per_user_byte", med(&Round::disk_bytes_per_user_byte),
         "ratio"},
        // ru_maxrss only grows, so later rounds would report the process
        // maximum so far; the first round's value does not depend on how
        // many rounds fit in the run.
        {"peak_rss_mb", rounds.front().peak_rss_mb, "MiB"},
    };
    char wall[320];
    std::snprintf(wall, sizeof(wall),
                  "wall clock (moves with host steal, not gated): "
                  "ops_per_s=%.6g 1/s p50_us=%.6g us (%llu samples) "
                  "setup_wall_s=%.6g s recover_wall_s=%.6g s",
                  med(&Round::ops_per_s), med(&Round::p50_us),
                  static_cast<unsigned long long>(samples),
                  med(&Round::setup_wall_s), med(&Round::recover_wall_s));
    context.push_back(wall);
    std::string per_round = "per round ops_per_s/p50_us/cpu_us_per_op:";
    for (const Round& r : rounds) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), " %.0f/%.1f/%.2f", r.ops_per_s, r.p50_us,
                    r.cpu_us_per_op);
      per_round += buf;
    }
    context.push_back(per_round);
    context.push_back("rounds=" + std::to_string(rounds.size()) +
                      " timed_ops_per_round=" +
                      std::to_string(ShapeOf(w).timed_ops));
  } else {
    Round round = RunRound(w, static_cast<uint64_t>(seed),
                           data_dir + "/round", true);
    steal = round.steal_ticks;
    ticks = round.cpu_ticks;
    tally.Merge(round.tally);
    failures = round.check_failures;
    Traced traced = RunTraced(w, static_cast<uint64_t>(seed),
                              data_dir + "/traced", round.p50_us);
    tally.Merge(traced.tally);
    failures.insert(failures.end(), traced.failures.begin(),
                    traced.failures.end());
    metrics = traced.metrics;
    const double cache_bytes =
        static_cast<double>(ShapeOf(w).page_cache_mb) * (1u << 20);
    metrics.push_back(
        {"net.frames_per_dispatch", round.frames_per_dispatch, "ratio"});
    metrics.push_back(
        {"net.frames_per_flush", round.frames_per_flush, "ratio"});
    metrics.push_back({"storage.open_s", round.storage_open_s, "s"});
    metrics.push_back({"storage.replayed_records",
                       static_cast<double>(round.replayed_records), "count"});
    metrics.push_back({"storage.page_file_to_cache",
                       round.page_file_bytes_per_shard / cache_bytes, "ratio"});
    metrics.push_back(
        {"net.rejected",
         static_cast<double>(RejectionCount(kNetRejections) - net_rejected0),
         "count"});
    metrics.push_back(
        {"api.admission_rejected",
         static_cast<double>(RejectionCount(kAdmissionRejections) -
                             admission_rejected0),
         "count"});
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(traced.op_digest));
    context.push_back("traced_ops=" + std::to_string(ShapeOf(w).traced_ops) +
                      " op_digest=" + digest);
    if (!trace_out.empty()) {
      std::ofstream(trace_out) << traced.chrome_json;
      context.push_back("chrome_trace=" + trace_out);
    }
  }

  char host[256];
  std::snprintf(host, sizeof(host),
                "workload=%s seed=%lld host_cores=%u steal_share=%.4f "
                "data_fs=%s",
                WorkloadName(w), seed, std::thread::hardware_concurrency(),
                ticks == 0 ? 0.0 : static_cast<double>(steal) / ticks,
                FsName(data_dir));
  std::printf("# %s\n", host);
  for (const std::string& line : context) std::printf("# %s\n", line.c_str());
  for (const std::string& f : failures) {
    std::printf("# CHECK FAILED: %s\n", f.c_str());
  }

  const bool correct = failures.empty() && tally.failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted) +
          ", \"failed\": " + std::to_string(tally.failed) +
          ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.15g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
