// Host-time spans recorded from the benchmark's own files, around the
// calls into the net layer and back into the kernels.
//
// SpanMedium decorates a real net::Medium: it times every send and
// broadcast, and wraps each attached FrameHandler so the kernel's frame
// delivery is timed too.  The engine is single-threaded, so spans nest
// synchronously: a span's parent is whichever span is open when it
// begins (a kernel acknowledging inside its delivery callback opens a
// net.send inside a kernel.deliver).  Spans are kept in memory and only
// written out after the run.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.hpp"

namespace twoclock {

class SpanLog {
 public:
  enum Name : std::uint8_t { kNetSend = 0, kNetBroadcast = 1, kDeliver = 2 };
  static constexpr std::size_t kNames = 3;

  // Spans are recorded only while active (the measure window).
  void set_active(bool on) { active_ = on; }

  // Returns a token for close(); spans begun while inactive are skipped.
  [[nodiscard]] std::uint32_t open(Name name, std::uint64_t trace,
                                   std::uint64_t frame);
  void close(std::uint32_t token);

  // Sum of self times (duration minus the part covered by children) per
  // name, and of root-span durations, in seconds.
  struct Totals {
    std::array<double, kNames> self_s{};
    double roots_s = 0.0;
    [[nodiscard]] double self_sum() const;
  };
  [[nodiscard]] Totals totals() const;

  // One CSV line per span: name, start_ns, end_ns, parent, trace, frame.
  [[nodiscard]] bool write_csv(const std::string& path) const;

 private:
  [[nodiscard]] static const char* label(Name n);
  static constexpr std::uint32_t kNone = ~0u;
  struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    std::uint64_t trace = 0;
    std::uint64_t frame = 0;
    std::uint32_t parent = kNone;
    Name name = kNetSend;
  };
  [[nodiscard]] static std::int64_t now_ns();

  bool active_ = false;
  std::uint32_t top_ = kNone;  // innermost open span
  std::vector<Span> spans_;
};

class SpanMedium final : public net::Medium {
 public:
  SpanMedium(net::Medium& inner, SpanLog& log) : inner_(&inner), log_(&log) {}

  void attach(net::NodeId node, net::FrameHandler handler) override;
  void send(net::Frame frame) override;
  void broadcast(net::Frame frame) override;
  [[nodiscard]] std::uint64_t frames_sent() const override {
    return inner_->frames_sent();
  }
  [[nodiscard]] std::uint64_t bytes_sent() const override {
    return inner_->bytes_sent();
  }

 private:
  net::Medium* inner_;
  SpanLog* log_;
};

}  // namespace twoclock
