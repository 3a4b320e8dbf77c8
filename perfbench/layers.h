// Per-layer metrics of the traced run. Two sources feed them: the
// daemon's own METRICS and TRACE output over the traced phase, and spans
// the benchmark times around calls into each layer's public functions
// (dl, wire, engine, classifier, views) on the workload's own inputs.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/status.h"
#include "gen/dl_gen.h"
#include "loadgen.h"

namespace perfbench {

// name -> (value, unit), in report order.
using Metrics =
    std::vector<std::pair<std::string, std::pair<double, std::string>>>;

struct TracedRun {
  LoadResult load;               // the traced phase
  double untraced_checks_per_s = 0;  // the same workload, tracing off
  std::string metrics_before;    // METRICS at the start of the traced phase
  std::string metrics_after;     // METRICS after it drained
  std::vector<std::string> round_scrapes;  // see Workload::round_scrapes
  std::string trace_lines;       // TRACE output (JSON lines)
  std::string session;           // the workload's main session
  const oodb::gen::GeneratedDl* probe_dl = nullptr;
  uint64_t seed = 0;
};

// Every per-layer metric, in README order. Layers a workload does not
// exercise through the daemon read 0.
oodb::Result<Metrics> LayerMetrics(TracedRun& run);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
