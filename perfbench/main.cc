// perfbench: drives an in-process optimizer daemon (server::Server, two
// workers, one event loop) from one closed-loop client thread and prints
// one JSON result line. See README.md for the workloads and metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the same workload once untraced and once traced and reports the
// per-layer metrics. Exit codes: 0 measured (the result says whether the
// daemon's answers were correct), 1 the run could not be carried out,
// 3 refused (Debug or sanitizer build), 64 usage.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/strings.h"
#include "layers.h"
#include "loadgen.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using oodb::Result;
using oodb::Status;
using oodb::StrCat;
using Clock = std::chrono::steady_clock;

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#endif

#if defined(PERFBENCH_SANITIZED) || !defined(NDEBUG)
constexpr bool kMeasurableBuild = false;
#else
constexpr bool kMeasurableBuild = true;
#endif

// Set-ups per --trace 0 run; setup_s is their median.
constexpr int kSetups = 9;
// Unmeasured traffic before each timed phase (allocator and engine pool
// growth, first-touch of the session's structures).
constexpr double kWarmupSeconds = 0.5;
// Slow-query ring of the traced daemon: the traced phase's last requests.
// The client keeps the round trips of as many last replies.
constexpr size_t kTraceRing = 16384;
// Share of --seconds given to a workload's write probe, and the number of
// turns the probe and the timed window take: spread over the run, the
// probe meets the same stretches of host time as the traffic it sits
// beside, so a stall of a second or two cannot take all of it.
constexpr double kWriteProbeShare = 0.1;
constexpr size_t kWriteProbeTurns = 10;
// Frames kept for the wire codec probe.
constexpr size_t kKeepFrames = 4096;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      continue;
    }
    if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      const long t = std::strtol(value, &end, 10);
      if (t != 0 && t != 1) return false;
      args->trace = t == 1;
    } else {
      return false;
    }
    if (end == value || *end != '\0') return false;
  }
  return argc % 2 == 1 && args->seconds > 0 && args->seconds <= 600 &&
         MakeWorkload(args->workload) != nullptr;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Shortest text that reads back as exactly `v`.
std::string JsonNumber(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string JsonList(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    if (!out.empty()) out += ',';
    out += JsonNumber(v);
  }
  return out;
}

// A started daemon with its set-up connection. Tearing it down hands its
// freed memory back to the system, so a discarded set-up's sessions do not
// linger in allocator arenas and count toward the next daemon's
// peak_rss_mb.
struct Daemon {
  std::unique_ptr<oodb::server::Server> server;
  std::unique_ptr<oodb::server::Client> client;
  double setup_s = 0;

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    client.reset();
    server.reset();  // joins the loop and the workers
    malloc_trim(0);
  }
};

Result<std::unique_ptr<Daemon>> TryStartAndSetUp(Workload& workload,
                                                 bool traced) {
  oodb::server::ServerOptions options;
  options.num_threads = 2;
  options.slow_threshold_ms = traced ? 0 : -1;
  options.slow_log_capacity = traced ? kTraceRing : 1;
  auto d = std::make_unique<Daemon>();
  const Clock::time_point t0 = Clock::now();
  d->server = std::make_unique<oodb::server::Server>(options);
  OODB_ASSIGN_OR_RETURN(int port, d->server->Start());
  OODB_ASSIGN_OR_RETURN(oodb::server::Client client,
                        oodb::server::Client::Connect("127.0.0.1", port));
  d->client = std::make_unique<oodb::server::Client>(std::move(client));
  OODB_RETURN_IF_ERROR(d->client->EnableBinary());
  OODB_RETURN_IF_ERROR(workload.SetUp(*d->client));
  d->setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return d;
}

// TryStartAndSetUp, reporting a failure on stderr (null then).
std::unique_ptr<Daemon> StartAndSetUp(Workload& workload, bool traced) {
  Result<std::unique_ptr<Daemon>> d = TryStartAndSetUp(workload, traced);
  if (!d.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 d.status().ToString().c_str());
    return nullptr;
  }
  return std::move(*d);
}

// One timed phase: warm-up, then `seconds` measured. Warm-up traffic
// counts toward attempted/failed.
struct Phase {
  LoadResult load;
  std::optional<LoadResult> writes;  // the workload's write probe, if any
  double cpu_s = 0;         // process CPU time (daemon + client) of the window
  double client_cpu_s = 0;  // the load generator's share of it
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t transport_faults = 0;
  std::string first_error;
};

// CPU time of the whole process (daemon and client), or of the calling
// thread (the client) alone.
double CpuSeconds(int who = RUSAGE_SELF) {
  rusage usage{};
  getrusage(who, &usage);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

size_t SliceCount(double seconds) {
  return std::max<size_t>(1, static_cast<size_t>(seconds + 0.5));
}

// A workload with a write probe gives it kWriteProbeShare of `seconds`.
// After the warm-up, probe and timed window take kWriteProbeTurns turns,
// the probe first, so the probe's writes never overlap the measured
// traffic and the traced daemon's ring ends with that traffic.
Phase RunPhase(Workload& workload, int port, uint64_t seed, double seconds,
               bool scrape) {
  Phase phase;
  workload.StartTraffic(seed, scrape);
  LoadOptions warm;
  warm.windows = workload.Windows();
  warm.seconds = kWarmupSeconds;
  const LoadResult w = RunClosedLoop(port, workload, warm);
  Source* probe = workload.WriteProbe();
  const size_t turns = probe != nullptr ? kWriteProbeTurns : 1;
  LoadOptions writes;
  writes.windows = {1};
  writes.seconds = seconds * kWriteProbeShare / static_cast<double>(turns);
  writes.slices = SliceCount(writes.seconds);
  LoadOptions timed = warm;
  timed.seconds = (probe != nullptr ? seconds * (1 - kWriteProbeShare)
                                    : seconds) /
                  static_cast<double>(turns);
  timed.keep_frames = kKeepFrames;
  timed.tail = scrape ? kTraceRing : 0;
  timed.slices = SliceCount(timed.seconds);
  for (size_t turn = 0; turn < turns; ++turn) {
    if (probe != nullptr) {
      if (!phase.writes) phase.writes.emplace();
      Append(&*phase.writes, RunClosedLoop(port, *probe, writes));
    }
    const double cpu0 = CpuSeconds();
    const double client0 = CpuSeconds(RUSAGE_THREAD);
    Append(&phase.load, RunClosedLoop(port, workload, timed));
    phase.cpu_s += CpuSeconds() - cpu0;
    phase.client_cpu_s += CpuSeconds(RUSAGE_THREAD) - client0;
  }
  const LoadResult* parts[] = {
      &w, phase.writes ? &*phase.writes : nullptr, &phase.load};
  for (const LoadResult* l : parts) {
    if (l == nullptr) continue;
    phase.attempted += l->attempted;
    phase.failed += l->failed;
    phase.transport_faults += l->transport_faults;
    if (phase.first_error.empty()) phase.first_error = l->first_error;
  }
  return phase;
}

// A /proc/self/status field in MB; -1 when it cannot be read.
double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  return -1;
}

// Bytes the allocator has handed out and not had back, in MB: the live
// heap of every arena plus mmapped chunks. Unlike the resident set it does
// not depend on which worker's arena a request happened to allocate in.
double HeapMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

// Hands freed memory back to the system and restarts the process's peak
// resident set (VmHWM) from its current resident set. Returns that
// resident set in MB, the base peak_rss_mb is measured from, and sets
// *reset to whether the kernel took the restart.
double ResetPeakRss(bool* reset) {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  const double rss = StatusMb("VmRSS");
  *reset = clear.good() && rss >= 0 && StatusMb("VmHWM") <= rss + 1;
  return rss;
}

double PerSecond(uint64_t n, double s) {
  return s > 0 ? static_cast<double>(n) / s : 0.0;
}

// On a shared VM the host steals CPU in bursts that last seconds (on a
// 4-vCPU Xeon VM vmstat showed 10-17 % steal under this load, ~1 % idle),
// and a stalled thread stalls the whole request pipeline. So each figure
// is taken per one-second slice and the run reports the median slice: a
// stall has to cover half the run to move it.
//
// The figure at quantile q of the slices (q = 0.5: the median slice).
template <typename Fn>
double SliceQuantile(const LoadResult& l, double q, Fn fn) {
  std::vector<double> values;
  for (const Slice& slice : l.slices) values.push_back(fn(slice));
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  return values[static_cast<size_t>(rank + 0.5)];
}

// One request class (reads or mutations) reported as a rate, a median
// and a tail. With at least kSliceSamples in every slice the rate and the
// median are median-slice figures; a sparse class (the LOADs of
// bcheck_cold, ~10 a second) takes them from the whole window. The tail is
// always the whole window's p99 or, with fewer than 1000 samples, the
// highest percentile that still has ten samples beyond it.
constexpr size_t kSliceSamples = 50;

struct ClassFigures {
  double per_s = 0;
  double p50_us = 0;
  double tail_us = 0;
  double tail_quantile = 0.99;
};

ClassFigures Summarize(const LoadResult& l, Samples LoadResult::*all,
                       Samples Slice::*per_slice) {
  ClassFigures out;
  const Samples& samples = l.*all;
  const double n = static_cast<double>(samples.size());
  out.tail_quantile = n > 0 ? std::clamp(1.0 - 10.0 / n, 0.5, 0.99) : 0.99;
  out.tail_us = samples.Quantile(out.tail_quantile) / 1000;
  bool sliced = true;
  for (const Slice& slice : l.slices) {
    sliced = sliced && (slice.*per_slice).size() >= kSliceSamples;
  }
  if (sliced) {
    out.per_s = SliceQuantile(l, 0.5, [&](const Slice& s) {
      return PerSecond((s.*per_slice).size(), s.seconds);
    });
    out.p50_us = SliceQuantile(l, 0.5, [&](const Slice& s) {
      return (s.*per_slice).Quantile(0.5) / 1000;
    });
  } else {
    out.per_s = PerSecond(samples.size(), l.elapsed_s);
    out.p50_us = samples.Quantile(0.5) / 1000;
  }
  return out;
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  oodb::obs::SetEnabled(false);
  if (Status st = workload->Prepare(args.seed); !st.ok()) {
    std::fprintf(stderr, "perfbench: prepare failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }

  Metrics metrics;
  std::vector<double> setups;
  Phase phase;
  Status finish = Status::Ok();
  // The unbounded figures, for the detail line.
  std::string extra;
  if (!args.trace) {
    // heap_mb and peak_rss_mb cover the measured daemon and the client
    // only: the reference that Prepare built stays resident and is
    // subtracted as the base, and the peaks of Prepare and of the earlier
    // set-ups are cleared.
    bool rss_reset = false;
    double rss_base_mb = 0;
    double heap_base_mb = 0;
    std::unique_ptr<Daemon> daemon;
    for (int i = 0; i < kSetups; ++i) {
      daemon.reset();
      if (i + 1 == kSetups) {
        rss_base_mb = ResetPeakRss(&rss_reset);
        heap_base_mb = HeapMb();
      }
      daemon = StartAndSetUp(*workload, false);
      if (daemon == nullptr) return 1;
      setups.push_back(daemon->setup_s);
    }
    const double heap_setup_mb = HeapMb();
    phase = RunPhase(*workload, daemon->server->port(), args.seed,
                     args.seconds, false);
    finish = workload->Finish(*daemon->client);
    const double heap_mb = std::max(heap_setup_mb, HeapMb()) - heap_base_mb;
    daemon.reset();
    LoadResult& l = phase.load;
    auto put = [&](const char* name, double value, const char* unit) {
      metrics.push_back({name, {value, unit}});
    };
    put("setup_s", Median(setups), "s");
    const ClassFigures read =
        Summarize(l, &LoadResult::read_ns, &Slice::read_ns);
    const LoadResult& w = phase.writes ? *phase.writes : l;
    const ClassFigures mutation =
        Summarize(w, &LoadResult::mutation_ns, &Slice::mutation_ns);
    // Verdicts per second scale the read rate by the verdicts each read
    // carries (1 per CHECK, a catalog row per BCHECK, 0 per OPTIMIZE or
    // CLASSIFY), so they share its slice statistic.
    const double checks_per_read =
        l.read_ns.size() > 0 ? static_cast<double>(l.checks) /
                                   static_cast<double>(l.read_ns.size())
                             : 0.0;
    // The tails and the peak resident set swing by more than any usable
    // bound between identical runs on a shared host, so they are reported
    // beside the metrics, unbounded, as is the best-quartile slice rate.
    extra = StrCat(
        "\"request_p99_us\": ", JsonNumber(read.tail_us),
        ", \"request_tail_quantile\": ", JsonNumber(read.tail_quantile),
        ", \"mutation_p99_us\": ", JsonNumber(mutation.tail_us),
        ", \"mutation_tail_quantile\": ", JsonNumber(mutation.tail_quantile),
        ", \"checks_per_s_best_quartile\": ",
        JsonNumber(SliceQuantile(l, 0.75,
                                 [&](const Slice& s) {
                                   return PerSecond(s.checks, s.seconds);
                                 })),
        ", \"mutation_source\": \"",
        phase.writes ? "write_probe" : "workload",
        "\", \"peak_rss_mb\": ", JsonNumber(StatusMb("VmHWM") - rss_base_mb),
        ", \"rss_base_mb\": ", JsonNumber(rss_base_mb),
        ", \"rss_peak_reset\": ", rss_reset ? "true" : "false", ", ");
    put("checks_per_s", read.per_s * checks_per_read, "1/s");
    put("request_p50_us", read.p50_us, "us");
    put("mutation_p50_us", mutation.p50_us, "us");
    put("mutations_per_s", mutation.per_s, "1/s");
    put("heap_mb", heap_mb, "MB");
    put("checks_per_cpu_s", PerSecond(l.checks, phase.cpu_s), "1/s");
  } else {
    // Untraced half, then a fresh daemon for the traced half: the traced
    // daemon's histograms and slow-query ring then hold only traced-phase
    // requests, and session-replacing workloads start from round 0.
    const double half = args.seconds / 2;
    Phase untraced;
    {
      std::unique_ptr<Daemon> d = StartAndSetUp(*workload, false);
      if (d == nullptr) return 1;
      untraced =
          RunPhase(*workload, d->server->port(), args.seed, half, false);
      finish = workload->Finish(*d->client);
    }
    std::unique_ptr<Daemon> traced = StartAndSetUp(*workload, true);
    if (traced == nullptr) return 1;
    Daemon& daemon = *traced;
    TracedRun run;
    Result<std::string> before = daemon.client->Metrics();
    oodb::obs::SetEnabled(true);
    phase = RunPhase(*workload, daemon.server->port(), args.seed, half, true);
    Result<std::string> after = daemon.client->Metrics();
    Result<std::string> trace = daemon.client->TraceLog(kTraceRing);
    oodb::obs::SetEnabled(false);
    if (!before.ok() || !after.ok() || !trace.ok()) {
      std::fprintf(stderr, "perfbench: METRICS/TRACE read failed\n");
      return 1;
    }
    if (finish.ok()) finish = workload->Finish(*daemon.client);
    run.load = std::move(phase.load);
    run.untraced_checks_per_s =
        PerSecond(untraced.load.checks, untraced.load.elapsed_s);
    run.metrics_before = std::move(*before);
    run.metrics_after = std::move(*after);
    run.round_scrapes = workload->round_scrapes();
    run.trace_lines = std::move(*trace);
    run.session = workload->session();
    run.probe_dl = &workload->probe_dl();
    run.seed = args.seed;
    Result<Metrics> layers = LayerMetrics(run);
    if (!layers.ok()) {
      std::fprintf(stderr, "perfbench: layer metrics failed: %s\n",
                   layers.status().ToString().c_str());
      return 1;
    }
    metrics = std::move(*layers);
    phase.load = std::move(run.load);
    phase.attempted += untraced.attempted;
    phase.failed += untraced.failed;
    phase.transport_faults += untraced.transport_faults;
    if (phase.first_error.empty()) phase.first_error = untraced.first_error;
  }

  const bool correct = workload->mismatches == 0 && finish.ok() &&
                       phase.transport_faults == 0 && workload->verified > 0;
  std::vector<double> slice_rates;
  for (const Slice& slice : phase.load.slices) {
    slice_rates.push_back(PerSecond(slice.checks, slice.seconds));
  }
  std::printf(
      "{\"detail\": {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"build_type\": %s, \"compiler\": %s, \"setup_s_runs\": [%s], "
      "\"slice_checks_per_s\": [%s], %s"
      "\"cpu_s\": %s, \"client_cpu_s\": %s, "
      "\"request_samples\": %zu, \"mutation_samples\": %zu, "
      "\"failed_frac\": %s, \"verified\": %llu, \"mismatches\": %llu, "
      "\"oracle_audited\": %zu, \"first_mismatch\": %s, "
      "\"first_error\": %s, \"finish\": %s}}\n",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(), JsonList(setups).c_str(),
      JsonList(slice_rates).c_str(), extra.c_str(),
      JsonNumber(phase.cpu_s).c_str(), JsonNumber(phase.client_cpu_s).c_str(),
      phase.load.read_ns.size(),
      (phase.writes ? *phase.writes : phase.load).mutation_ns.size(),
      JsonNumber(phase.attempted > 0 ? static_cast<double>(phase.failed) /
                                           static_cast<double>(phase.attempted)
                                     : 0.0)
          .c_str(),
      static_cast<unsigned long long>(workload->verified),
      static_cast<unsigned long long>(workload->mismatches),
      workload->audited, JsonString(workload->first_mismatch).c_str(),
      JsonString(phase.first_error).c_str(),
      JsonString(finish.ok() ? "ok" : finish.ToString()).c_str());

  std::string body;
  for (const auto& [name, value] : metrics) {
    body += StrCat(body.empty() ? "" : ", ", JsonString(name),
                   ": {\"value\": ", JsonNumber(value.first),
                   ", \"unit\": ", JsonString(value.second), "}");
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(phase.attempted),
      static_cast<unsigned long long>(phase.failed), body.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <bcheck_cold|check_warm|"
                 "view_churn> --seed <n> --seconds <s> --trace <0|1>\n");
    return 64;
  }
  if (!perfbench::kMeasurableBuild) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build (Debug or "
                 "sanitizer); configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  return perfbench::Run(args);
}
