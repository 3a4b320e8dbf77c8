#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// A frame still waiting for its reply.
struct Pending {
  Request req;
  Clock::time_point sent;
};

struct Conn {
  int fd = -1;
  std::string in;
  size_t in_pos = 0;
  std::unordered_map<uint64_t, Pending> inflight;
  bool dead = false;
};

// Connects to 127.0.0.1:port and negotiates the binary framing. Returns
// the socket or -1.
int ConnectBinary(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      !oodb::server::WriteFully(fd, oodb::server::kBinaryPreamble)) {
    ::close(fd);
    return -1;
  }
  return fd;
}

uint64_t Ns(Clock::duration d) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

constexpr int kSubBits = 7;  // 128 linear buckets per power of two
constexpr uint64_t kSub = uint64_t{1} << kSubBits;
constexpr int kMaxExp = 40;  // 2^40 ns is 18 minutes: far past any reply

size_t BucketOf(uint64_t ns) {
  if (ns < kSub) return static_cast<size_t>(ns);
  ns = std::min(ns, (uint64_t{1} << (kMaxExp + 1)) - 1);
  const int e = 63 - __builtin_clzll(ns);
  const uint64_t mantissa = (ns >> (e - kSubBits)) & (kSub - 1);
  return static_cast<size_t>(kSub + (e - kSubBits) * kSub + mantissa);
}

// A bucket's lower bound and width.
std::pair<double, double> BucketRange(size_t bucket) {
  if (bucket < kSub) return {static_cast<double>(bucket), 1.0};
  const size_t e = (bucket - kSub) / kSub + kSubBits;
  const uint64_t mantissa = (bucket - kSub) % kSub;
  return {static_cast<double>((kSub + mantissa) << (e - kSubBits)),
          static_cast<double>(uint64_t{1} << (e - kSubBits))};
}

}  // namespace

void Samples::Add(uint64_t ns) {
  if (buckets_.empty()) buckets_.resize(kSub + (kMaxExp - kSubBits + 1) * kSub);
  ++buckets_[BucketOf(ns)];
  ++count_;
}

void Samples::Merge(const Samples& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.resize(other.buckets_.size());
  for (size_t b = 0; b < buckets_.size(); ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
}

double Samples::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(q * static_cast<double>(count_))), 1,
      count_);
  // Interpolates within the bucket by rank, as if its samples were spread
  // evenly over its range.
  size_t seen = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    if (seen + buckets_[b] >= rank) {
      const auto [low, width] = BucketRange(b);
      return low + width * (static_cast<double>(rank - seen) - 0.5) /
                       static_cast<double>(buckets_[b]);
    }
    seen += buckets_[b];
  }
  return 0.0;  // unreachable: the counts sum to count_
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

LoadResult RunClosedLoop(int port, Source& source,
                         const LoadOptions& options) {
  LoadResult result;
  std::vector<Conn> conns(options.windows.size());
  for (Conn& conn : conns) {
    conn.fd = ConnectBinary(port);
    if (conn.fd < 0) {
      conn.dead = true;
      ++result.transport_faults;
      if (result.first_error.empty()) result.first_error = "connect failed";
    }
  }
  auto kill = [&](Conn& conn, const std::string& why) {
    if (conn.dead) return;
    conn.dead = true;
    ++result.transport_faults;
    for (const auto& [id, p] : conn.inflight) {
      if (p.req.kind != Request::Kind::kScrape) ++result.failed;
    }
    conn.inflight.clear();
    if (result.first_error.empty()) result.first_error = why;
  };

  uint64_t next_id = 1;
  size_t tail_next = 0;  // the oldest tail entry once the ring is full
  std::string frame;
  std::string batch;
  std::vector<pollfd> pfds(conns.size());
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  // A daemon that stops answering must not hang the benchmark.
  result.slices.resize(std::max<size_t>(options.slices, 1));
  const double slice_s =
      options.seconds / static_cast<double>(result.slices.size());
  for (Slice& slice : result.slices) slice.seconds = slice_s;
  const Clock::time_point give_up = deadline + std::chrono::seconds(60);

  for (;;) {
    const bool issuing = Clock::now() < deadline;
    size_t open = 0;
    for (size_t c = 0; c < conns.size(); ++c) {
      Conn& conn = conns[c];
      if (conn.dead) continue;
      if (issuing) {
        batch.clear();
        std::vector<uint64_t> ids;
        Request req;
        while (conn.inflight.size() < options.windows[c] &&
               source.Next(c, conn.inflight.size(), next_id, &frame, &req)) {
          if (req.kind != Request::Kind::kScrape) ++result.attempted;
          if (result.request_frames.size() < options.keep_frames &&
              req.kind != Request::Kind::kScrape) {
            result.request_frames.push_back(frame);
          }
          conn.inflight.emplace(next_id, Pending{req, {}});
          ids.push_back(next_id++);
          batch += frame;
        }
        if (!batch.empty()) {
          const Clock::time_point sent = Clock::now();
          for (uint64_t id : ids) conn.inflight[id].sent = sent;
          result.bytes_out += batch.size();
          if (!oodb::server::WriteFully(conn.fd, batch)) {
            kill(conn, "send failed");
            continue;
          }
        }
      }
      if (!conn.inflight.empty()) ++open;
    }
    if (!issuing && open == 0) break;
    if (Clock::now() > give_up) {
      for (Conn& conn : conns) kill(conn, "daemon stopped answering");
      break;
    }

    size_t n = 0;
    for (Conn& conn : conns) {
      if (conn.dead || conn.inflight.empty()) continue;
      pfds[n++] = pollfd{conn.fd, POLLIN, 0};
    }
    if (n == 0) continue;  // every source is waiting on itself: re-ask
    if (::poll(pfds.data(), n, 100) < 0 && errno != EINTR) {
      for (Conn& conn : conns) kill(conn, "poll failed");
      break;
    }
    size_t k = 0;
    for (size_t c = 0; c < conns.size(); ++c) {
      Conn& conn = conns[c];
      if (conn.dead || conn.inflight.empty()) continue;
      const short revents = pfds[k++].revents;
      if (revents == 0) continue;
      char buf[1 << 16];
      bool closed = false;
      for (;;) {
        const ssize_t got = ::recv(conn.fd, buf, sizeof(buf), MSG_DONTWAIT);
        if (got > 0) {
          conn.in.append(buf, static_cast<size_t>(got));
          if (static_cast<size_t>(got) < sizeof(buf)) break;
          continue;
        }
        if (got < 0 && errno == EINTR) continue;
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        closed = true;
        break;
      }
      const Clock::time_point arrived = Clock::now();
      const bool in_window = arrived <= deadline;
      for (;;) {
        size_t consumed = 0;
        oodb::server::BinaryReply reply;
        std::string error;
        const std::string_view view =
            std::string_view(conn.in).substr(conn.in_pos);
        const oodb::server::ParseStatus st =
            oodb::server::ParseBinaryReply(view, &consumed, &reply, &error);
        if (st == oodb::server::ParseStatus::kNeedMore) break;
        if (st == oodb::server::ParseStatus::kBad) {
          closed = true;
          break;
        }
        conn.in_pos += consumed;
        auto it = conn.inflight.find(reply.id);
        if (it == conn.inflight.end()) {
          closed = true;  // a reply to nothing: the stream is corrupt
          break;
        }
        const Pending p = it->second;
        conn.inflight.erase(it);
        if (p.req.kind == Request::Kind::kScrape) {
          if (reply.reply.kind == oodb::server::Reply::Kind::kOk) {
            source.OnReply(c, p.req, reply.reply.payload);
          }
          continue;
        }
        if (result.reply_frames.size() < options.keep_frames) {
          result.reply_frames.emplace_back(view.substr(0, consumed));
        }
        if (in_window) result.bytes_in += consumed;
        if (reply.reply.kind != oodb::server::Reply::Kind::kOk) {
          ++result.failed;
          if (result.first_error.empty()) {
            result.first_error =
                reply.reply.kind == oodb::server::Reply::Kind::kBusy
                    ? "BUSY"
                    : reply.reply.code + ": " + reply.reply.payload;
          }
          continue;
        }
        source.OnReply(c, p.req, reply.reply.payload);
        const uint64_t ns = Ns(arrived - p.sent);
        if (options.tail > 0) {
          const TailSample t{ns, p.req.kind == Request::Kind::kMutation};
          if (result.tail.size() < options.tail) {
            result.tail.push_back(t);
          } else {
            result.tail[tail_next] = t;
          }
          tail_next = (tail_next + 1) % options.tail;
        }
        if (!in_window) continue;
        Slice& slice = result.slices[std::min(
            result.slices.size() - 1,
            static_cast<size_t>(
                std::chrono::duration<double>(arrived - start).count() /
                slice_s))];
        if (p.req.kind == Request::Kind::kMutation) {
          result.mutation_ns.Add(ns);
          slice.mutation_ns.Add(ns);
        } else {
          result.read_ns.Add(ns);
          slice.read_ns.Add(ns);
        }
        result.checks += p.req.checks;
        slice.checks += p.req.checks;
      }
      if (conn.in_pos == conn.in.size()) {
        conn.in.clear();
        conn.in_pos = 0;
      }
      if (closed) kill(conn, "connection lost or corrupt reply stream");
    }
  }
  result.elapsed_s = std::chrono::duration<double>(
                         std::min(Clock::now(), deadline) - start)
                         .count();
  std::rotate(result.tail.begin(),
              result.tail.begin() +
                  static_cast<std::ptrdiff_t>(
                      result.tail.size() < options.tail ? 0 : tail_next),
              result.tail.end());
  for (Conn& conn : conns) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  return result;
}

void Append(LoadResult* into, LoadResult later) {
  into->attempted += later.attempted;
  into->failed += later.failed;
  into->transport_faults += later.transport_faults;
  into->checks += later.checks;
  into->bytes_out += later.bytes_out;
  into->bytes_in += later.bytes_in;
  into->elapsed_s += later.elapsed_s;
  into->read_ns.Merge(later.read_ns);
  into->mutation_ns.Merge(later.mutation_ns);
  for (Slice& slice : later.slices) into->slices.push_back(std::move(slice));
  if (into->first_error.empty()) into->first_error = later.first_error;
  if (into->request_frames.empty()) {
    into->request_frames = std::move(later.request_frames);
    into->reply_frames = std::move(later.reply_frames);
  }
  if (!later.tail.empty()) into->tail = std::move(later.tail);
}

}  // namespace perfbench
