#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <utility>

namespace twoclock {

const char* SpanLog::label(Name n) {
  switch (n) {
    case kNetSend: return "net.send";
    case kNetBroadcast: return "net.broadcast";
    case kDeliver: return "kernel.deliver";
  }
  return "?";
}

std::int64_t SpanLog::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t SpanLog::open(Name name, std::uint64_t trace,
                            std::uint64_t frame) {
  if (!active_) return kNone;
  const auto idx = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(Span{now_ns(), -1, trace, frame, top_, name});
  top_ = idx;
  return idx;
}

void SpanLog::close(std::uint32_t token) {
  if (token == kNone) return;
  Span& s = spans_[token];
  s.end_ns = now_ns();
  top_ = s.parent;
}

double SpanLog::Totals::self_sum() const {
  double sum = 0.0;
  for (double s : self_s) sum += s;
  return sum;
}

SpanLog::Totals SpanLog::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNone) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  Totals t;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::int64_t dur = s.end_ns - s.start_ns;
    t.self_s[s.name] += static_cast<double>(dur - child_ns[i]) * 1e-9;
    if (s.parent == kNone) t.roots_s += static_cast<double>(dur) * 1e-9;
  }
  return t;
}

bool SpanLog::write_csv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,start_ns,end_ns,parent,trace,frame\n");
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%lld,%lld,%lld,%llu,%llu\n", label(s.name),
                 static_cast<long long>(s.start_ns - base),
                 static_cast<long long>(s.end_ns - base),
                 s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.trace),
                 static_cast<unsigned long long>(s.frame));
  }
  return std::fclose(f) == 0;
}

namespace {

// Closes the span on every exit path, exceptions included.
class SpanGuard {
 public:
  SpanGuard(SpanLog& log, SpanLog::Name name, const net::Frame& f)
      : log_(&log), token_(log.open(name, f.trace_id, f.id)) {}
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  ~SpanGuard() { log_->close(token_); }

 private:
  SpanLog* log_;
  std::uint32_t token_;
};

}  // namespace

void SpanMedium::attach(net::NodeId node, net::FrameHandler handler) {
  inner_->attach(node, [log = log_, h = std::move(handler)](
                           const net::Frame& frame) {
    SpanGuard g(*log, SpanLog::kDeliver, frame);
    h(frame);
  });
}

void SpanMedium::send(net::Frame frame) {
  SpanGuard g(*log_, SpanLog::kNetSend, frame);
  inner_->send(std::move(frame));
}

void SpanMedium::broadcast(net::Frame frame) {
  SpanGuard g(*log_, SpanLog::kNetBroadcast, frame);
  inner_->broadcast(std::move(frame));
}

}  // namespace twoclock
