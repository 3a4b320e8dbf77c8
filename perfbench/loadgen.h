// Closed-loop load generator for the daemon's binary protocol: one thread
// drives every connection of a workload through poll(), keeping a fixed
// window of frames in flight per connection and timing each frame from
// the write that carried it to the read that delivered its reply.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "server/wire.h"

namespace perfbench {

// Latency samples in nanoseconds, kept as a log-linear histogram (exact
// below 128 ns, then 128 buckets per power of two: under 0.4 % quantile
// error) so a long run at 200k requests/s costs kilobytes, not the
// hundreds of megabytes raw samples would add to heap_mb.
class Samples {
 public:
  void Add(uint64_t ns);
  void Merge(const Samples& other);
  size_t size() const { return count_; }
  // Nearest-rank quantile, q in [0, 1], interpolated within its bucket;
  // 0 when empty.
  double Quantile(double q) const;

 private:
  std::vector<uint32_t> buckets_;  // allocated on the first Add
  size_t count_ = 0;
};

// Median of a handful of repeated measurements; 0 when empty.
double Median(std::vector<double> values);

// What one in-flight frame is, as far as the accounting cares.
struct Request {
  enum class Kind : uint8_t {
    kRead,      // CHECK / BCHECK / OPTIMIZE / CLASSIFY: request_* latency
    kMutation,  // LOAD / VIEW / UNDEFINE: mutation_* latency
    kScrape,    // METRICS read by the traced run: not counted at all
  };
  Kind kind = Kind::kRead;
  uint32_t checks = 0;  // verdicts the reply carries (CHECK 1, BCHECK n)
  uint32_t a = 0;       // workload-defined (e.g. schema, query index)
  uint32_t b = 0;       // workload-defined (e.g. target index)
};

// The traffic of one workload: what to send next on each connection and
// whether each reply is right.
class Source {
 public:
  virtual ~Source() = default;
  // Encodes the next frame for `conn` under request id `id` into *frame
  // and describes it in *req. Returns false when `conn` must wait (its
  // turn is synchronous, or the workload has nothing to send yet).
  virtual bool Next(size_t conn, size_t inflight, uint64_t id,
                    std::string* frame, Request* req) = 0;
  // Judges an OK reply; wrong answers are the source's to count.
  virtual void OnReply(size_t conn, const Request& req,
                       const std::string& payload) = 0;
};

struct LoadOptions {
  std::vector<size_t> windows;  // in-flight frames per connection
  double seconds = 1.0;
  // The window is also accounted in this many equal slices, so callers
  // can report medians over slices that a passing stall of the host
  // cannot move.
  size_t slices = 1;
  // Keep copies of the first frames sent and received (wire probes).
  size_t keep_frames = 0;
  // Keep the round trips of the last `tail` replies, drain included, so
  // they can be set beside the daemon's slow-query ring of the same size.
  size_t tail = 0;
};

// The round trip of one reply, in the order the replies arrived.
struct TailSample {
  uint64_t ns = 0;
  bool mutation = false;
};

// The counts of one slice of the measured window.
struct Slice {
  double seconds = 0.0;  // its length
  uint64_t checks = 0;
  Samples read_ns;      // one sample per read reply
  Samples mutation_ns;  // one sample per mutation reply
};

struct LoadResult {
  uint64_t attempted = 0;   // frames sent (scrapes excluded)
  uint64_t failed = 0;      // ERR, BUSY and frames lost to transport faults
  uint64_t transport_faults = 0;
  uint64_t checks = 0;      // verdicts returned inside the window
  uint64_t bytes_out = 0;   // request bytes sent inside the window
  uint64_t bytes_in = 0;    // reply bytes received inside the window
  double elapsed_s = 0.0;   // the measured window
  Samples read_ns;          // read replies completed inside the window
  Samples mutation_ns;      // mutation replies completed inside the window
  std::vector<Slice> slices;
  std::string first_error;  // first ERR/BUSY/transport diagnostic
  std::vector<std::string> request_frames;  // up to keep_frames each
  std::vector<std::string> reply_frames;
  std::vector<TailSample> tail;  // up to options.tail, oldest first
};

// Runs the closed loop for options.seconds, then stops issuing and waits
// for every frame still in flight (their replies are judged but fall
// outside the window's counts).
LoadResult RunClosedLoop(int port, Source& source, const LoadOptions& options);

// Folds `later`, a later window of the same traffic, into `into`: counts
// and samples add up, windows and slices join end to end, the kept frames
// stay the first ones and the tail becomes the last one.
void Append(LoadResult* into, LoadResult later);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
