// The benchmark's three workloads. Each one generates its inputs from the
// seed, brings a fresh daemon to its steady state, and then drives it as
// a loadgen Source whose every reply is judged against the in-process
// reference (see README.md for why these three).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "gen/dl_gen.h"
#include "loadgen.h"
#include "mirror.h"
#include "server/client.h"

namespace perfbench {

class Workload : public Source {
 public:
  // Generates the inputs and the reference verdicts (untimed).
  virtual oodb::Status Prepare(uint64_t seed) = 0;
  // Brings a freshly started daemon to the state the timed phase starts
  // from; timed as part of setup_s.
  virtual oodb::Status SetUp(oodb::server::Client& client) = 0;
  // Resets the traffic for a timed phase that follows SetUp. With
  // `scrape`, session-replacing workloads read METRICS before each
  // replacement so no session's counters are lost (traced run only).
  virtual void StartTraffic(uint64_t seed, bool scrape) = 0;
  // Checks the daemon's final state after the timed phase drained.
  virtual oodb::Status Finish(oodb::server::Client& client);
  // In-flight window per connection.
  virtual std::vector<size_t> Windows() const = 0;
  // Synchronous writes, one connection, run apart from the workload's own
  // traffic. Only a workload whose traffic has no mutations has one: every
  // workload reports the mutation metrics, and this is where such a
  // workload takes them from. Null otherwise.
  virtual Source* WriteProbe() { return nullptr; }

  // The session whose checker counters the traced run reports, and the
  // generated schema the in-process layer probes run on.
  const std::string& session() const { return session_; }
  const oodb::gen::GeneratedDl& probe_dl() const { return probe_dl_; }
  // METRICS texts read before each session replacement (see StartTraffic).
  const std::vector<std::string>& round_scrapes() const {
    return round_scrapes_;
  }

  // Counts one judged answer; `describe` names a wrong one (called only
  // on a mismatch, so the hot path builds no strings).
  template <typename Describe>
  void Judge(bool ok, Describe&& describe) {
    if (ok) {
      ++verified;
    } else if (mismatches++ == 0) {
      first_mismatch = describe();
    }
  }

  uint64_t verified = 0;    // answers judged right
  uint64_t mismatches = 0;  // answers judged wrong
  std::string first_mismatch;
  size_t audited = 0;       // reference pairs re-decided by the oracle

 protected:
  explicit Workload(std::string session) : session_(std::move(session)) {}

  std::string session_;
  oodb::gen::GeneratedDl probe_dl_;
  std::vector<std::string> round_scrapes_;
};

// bcheck_cold, check_warm or view_churn; null for any other name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

// The database state the view workloads and the views probe load.
std::string GenerateState(const oodb::gen::GeneratedDl& dl, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
