// In-memory span recorder for the traced benchmark run.
//
// A span is (id, parent id, name, start, end) in integer steady-clock
// nanoseconds. Spans nest strictly (RAII scopes opened and closed on one
// thread), so a span's self time — its duration minus the durations of
// its direct children — sums over all spans to exactly the root span's
// duration; the benchmark checks that identity on every traced run.
// Disabled tracers record nothing and cost one branch per scope.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t now_ns();

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0: no parent (the root)
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  // Opens a child of the innermost open span; returns 0 when disabled.
  std::uint32_t open(std::string name);
  // Closes span `id`, which must be the innermost open span.
  void close(std::uint32_t id);

  const std::vector<Span>& spans() const { return spans_; }
  // Self time in ns, summed per span name.
  std::map<std::string, std::int64_t> self_ns_by_name() const;
  // Sum of every span's self time and the root span's duration; equal
  // whenever the spans nest (the traced run fails otherwise).
  std::int64_t total_self_ns() const;
  std::int64_t root_ns() const;
  // Writes {"spans": [...]} as JSON.
  void write_json(const std::string& path) const;

 private:
  std::vector<std::int64_t> self_ns() const;

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

// Opens a span for the lifetime of the object.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name)
      : tracer_(tracer),
        id_(tracer.enabled() ? tracer.open(std::move(name)) : 0) {}
  ~Scope() {
    if (id_ != 0) tracer_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

// Host nanoseconds one open/close pair costs, measured on a scratch
// tracer; the traced run reports (pairs recorded x this) / root duration
// as bench.trace_overhead_pct.
double span_pair_cost_ns();

}  // namespace perfbench
