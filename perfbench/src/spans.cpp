#include "spans.h"

#include <chrono>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t Tracer::open(std::string name) {
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = stack_.empty() ? 0 : stack_.back();
  s.name = std::move(name);
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::close(std::uint32_t id) {
  if (stack_.empty() || stack_.back() != id)
    throw std::logic_error("span closed out of order");
  spans_[id - 1].end_ns = now_ns();
  stack_.pop_back();
}

std::vector<std::int64_t> Tracer::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  for (const auto& s : spans_)
    if (s.parent != 0) self[s.parent - 1] -= s.end_ns - s.start_ns;
  return self;
}

std::map<std::string, std::int64_t> Tracer::self_ns_by_name() const {
  const auto self = self_ns();
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] += self[i];
  return out;
}

std::int64_t Tracer::total_self_ns() const {
  std::int64_t sum = 0;
  for (const auto v : self_ns()) sum += v;
  return sum;
}

std::int64_t Tracer::root_ns() const {
  return spans_.empty() ? 0 : spans_.front().end_ns - spans_.front().start_ns;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

double span_pair_cost_ns() {
  constexpr int kPairs = 20000;
  Tracer scratch(true);
  const auto root = scratch.open("root");
  const auto t0 = now_ns();
  for (int i = 0; i < kPairs; ++i) {
    Scope s(scratch, "probe");
  }
  const auto t1 = now_ns();
  scratch.close(root);
  return static_cast<double>(t1 - t0) / kPairs;
}

}  // namespace perfbench
