// The daemon's verb table: a protocol verb's wire name, argument
// bounds, usage text, and the flags that decide how the daemon, the
// cluster client and the CLI treat it live in one row of kVerbs. The server
// dispatches on the Verb enum, the cluster client routes and retries by
// the flags, and tools/lint/check_consistency.py reads the rows to
// cross-check docs/server.md. Header-only, so the cluster client can
// read it without linking the daemon.
#ifndef OODB_SERVER_VERBS_H_
#define OODB_SERVER_VERBS_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>

namespace oodb::server {

// Protocol verbs, in kVerbs row order. kOther bins unknown commands.
enum class Verb : uint8_t {
  kPing,
  kLoad,
  kState,
  kView,
  kUndefine,
  kCheck,
  kBcheck,
  kClassify,
  kOptimize,
  kStats,
  kSleep,
  kShutdown,
  kMetrics,
  kTrace,
  kHealth,   // ok/degraded summary for load balancers and smoke tests
  kRepl,     // owner → replica: apply one logged mutation (cluster mode)
  kForward,  // peer → owner: proxy a request for a session we don't own
  kOther,
  kCount,
};

inline constexpr size_t kNumVerbs = static_cast<size_t>(Verb::kCount);

// max_args of a verb that takes any number of trailing arguments.
inline constexpr size_t kAnyArgs = ~size_t{0};

enum VerbFlag : uint8_t {
  // Answered on the event loop, never admitted to the pool, so it works
  // under overload and while draining. Every other verb is pooled and
  // gets a latency histogram.
  kInline = 1 << 0,
  // The first argument, when present, names a session: cluster routing
  // sends the request to that session's owner.
  kSession = 1 << 1,
  // Changes session state; the owner replicates it (REPL may carry it).
  kMutation = 1 << 2,
  // Safe to retry, and to serve from a session's replicas.
  kIdempotent = 1 << 3,
  // Carries a payload; the last argument is its byte count.
  kPayload = 1 << 4,
  // A cluster envelope (REPL, FORWARD) around another request, with an
  // optional `@<origin>:<trace>` header before its own arguments.
  kEnvelope = 1 << 5,
};

struct VerbSpec {
  std::string_view name;
  Verb verb;
  // Argument count bounds (for an envelope: after its header).
  size_t min_args;
  size_t max_args;
  std::string_view usage;  // the ERR proto message for a bad argument list
  uint8_t flags;

  constexpr bool Has(VerbFlag flag) const { return (flags & flag) != 0; }
  constexpr bool ArityOk(size_t nargs) const {
    return nargs >= min_args && nargs <= max_args;
  }
};

inline constexpr VerbSpec kVerbs[] = {
    {"PING", Verb::kPing, 0, kAnyArgs, "usage: PING", kInline | kIdempotent},
    {"LOAD", Verb::kLoad, 2, 2, "usage: LOAD <session> <nbytes>",
     kSession | kMutation | kPayload},
    {"STATE", Verb::kState, 2, 2, "usage: STATE <session> <nbytes>",
     kSession | kMutation | kPayload},
    {"VIEW", Verb::kView, 2, 2, "usage: VIEW <session> <query-class>",
     kSession | kMutation},
    {"UNDEFINE", Verb::kUndefine, 2, 2,
     "usage: UNDEFINE <session> <query-class>", kSession | kMutation},
    {"CHECK", Verb::kCheck, 3, 3, "usage: CHECK <session> <C> <D>",
     kSession | kIdempotent},
    {"BCHECK", Verb::kBcheck, 1, kAnyArgs,
     "usage: BCHECK <session> [<C> <D>]...", kSession | kIdempotent},
    {"CLASSIFY", Verb::kClassify, 1, 1, "usage: CLASSIFY <session>",
     kSession | kIdempotent},
    {"OPTIMIZE", Verb::kOptimize, 2, 2,
     "usage: OPTIMIZE <session> <query-class>", kSession},
    {"STATS", Verb::kStats, 0, kAnyArgs, "usage: STATS [session]",
     kSession | kIdempotent},
    {"SLEEP", Verb::kSleep, 1, 1, "usage: SLEEP <ms≤10000>", 0},
    {"SHUTDOWN", Verb::kShutdown, 0, kAnyArgs, "usage: SHUTDOWN", kInline},
    {"METRICS", Verb::kMetrics, 0, 0, "usage: METRICS",
     kInline | kIdempotent},
    {"TRACE", Verb::kTrace, 0, 1, "usage: TRACE [n]", kInline | kIdempotent},
    {"HEALTH", Verb::kHealth, 0, 0, "usage: HEALTH", kInline},
    {"REPL", Verb::kRepl, 3, kAnyArgs,
     "usage: REPL [@o:t] <seq> <verb> <session> ...", kEnvelope},
    {"FORWARD", Verb::kForward, 1, kAnyArgs,
     "usage: FORWARD [@o:t] <verb> ...", kEnvelope},
};

static_assert(std::size(kVerbs) == static_cast<size_t>(Verb::kOther),
              "one kVerbs row per wire verb");

constexpr bool RowsFollowEnumOrder() {
  for (size_t i = 0; i < std::size(kVerbs); ++i) {
    if (static_cast<size_t>(kVerbs[i].verb) != i) return false;
  }
  return true;
}
static_assert(RowsFollowEnumOrder(), "kVerbs rows must follow Verb order");

// The row for a wire token, or nullptr for an unknown command.
constexpr const VerbSpec* FindVerb(std::string_view token) {
  for (const VerbSpec& spec : kVerbs) {
    if (spec.name == token) return &spec;
  }
  return nullptr;
}

// "CHECK", "CLASSIFY", ... ("?" for kOther).
constexpr const char* VerbName(Verb verb) {
  return verb < Verb::kOther ? kVerbs[static_cast<size_t>(verb)].name.data()
                             : "?";
}

}  // namespace oodb::server

#endif  // OODB_SERVER_VERBS_H_
