// Outside-in layer tracing. The benchmark opens its own spans around every
// call that crosses the net::Transport boundary — datagram handlers, timer
// callbacks, sends and the event loop — without instrumenting the program.
// A span's self time is its duration minus the spans it encloses, so the
// layers partition the traced wall time of a scan.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "dns/message.hpp"
#include "net/transport.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kNet,     // the transport itself: event dispatch, sends, timers queue
  kServer,  // authoritative servers answering queries
  kClient,  // the querier: engine, resolver, scanner, monitor, world motion
  kDecode,  // dns::Message::decode of every delivered datagram (re-run)
  kEncode,  // dns::Message::encode of the same messages (re-run)
  kCount,
};

// One thread's span stack and per-layer self-time totals.
class LayerClock {
 public:
  class Span {
   public:
    Span(LayerClock& clock, Layer layer) : clock_(clock) { clock_.enter(layer); }
    ~Span() { clock_.exit(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    LayerClock& clock_;
  };

  void enter(Layer layer) { stack_.push_back({layer, now_ns(), 0}); }
  void exit() {
    const Frame frame = stack_.back();
    stack_.pop_back();
    const std::int64_t duration = now_ns() - frame.start_ns;
    self_ns_[index(frame.layer)] += duration - frame.child_ns;
    ++spans_[index(frame.layer)];
    if (!stack_.empty()) stack_.back().child_ns += duration;
  }

  // The layer whose span is innermost, or `outside` when none is open.
  Layer current(Layer outside) const {
    return stack_.empty() ? outside : stack_.back().layer;
  }

  double self_seconds(Layer layer) const {
    return static_cast<double>(self_ns_[index(layer)]) * 1e-9;
  }
  std::uint64_t spans(Layer layer) const { return spans_[index(layer)]; }

 private:
  struct Frame {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  static std::size_t index(Layer layer) { return static_cast<std::size_t>(layer); }
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Frame> stack_;
  std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)> self_ns_{};
  std::array<std::uint64_t, static_cast<std::size_t>(Layer::kCount)> spans_{};
};

// Time the codec on one delivered datagram: decode it, then re-encode the
// decoded message. Runs after the real handler, so the handler still pays
// any first-sight name interning, exactly as in an untraced run.
inline void time_codec(LayerClock& clock, const dnsboot::Bytes& payload) {
  dnsboot::Result<dnsboot::dns::Message> message = [&] {
    LayerClock::Span span(clock, Layer::kDecode);
    return dnsboot::dns::Message::decode(payload);
  }();
  if (!message.ok()) return;
  LayerClock::Span span(clock, Layer::kEncode);
  dnsboot::Bytes wire = message.value().encode();
  asm volatile("" : : "g"(wire.data()) : "memory");
}

// A transport (SimNetwork or WireTransport) whose every handler, timer, send
// and run is wrapped in a span. Handlers take the layer set when they were
// bound; timers take the layer that scheduled them.
template <class Base>
class Traced final : public Base {
 public:
  template <class... Args>
  explicit Traced(LayerClock& clock, Args&&... args)
      : Base(std::forward<Args>(args)...), clock_(clock) {}

  void set_bind_layer(Layer layer) { bind_layer_ = layer; }

  void bind(const dnsboot::net::IpAddress& address,
            dnsboot::net::Transport::DatagramHandler handler) override {
    Base::bind(address, [this, layer = bind_layer_, handler = std::move(handler)](
                            const dnsboot::net::Datagram& dgram) {
      {
        LayerClock::Span span(clock_, layer);
        handler(dgram);
      }
      time_codec(clock_, dgram.payload);
    });
  }

  std::uint64_t schedule(dnsboot::net::SimTime delay,
                         dnsboot::net::Transport::TimerHandler fn) override {
    return Base::schedule(
        delay, [this, layer = clock_.current(Layer::kClient), fn = std::move(fn)] {
          LayerClock::Span span(clock_, layer);
          fn();
        });
  }

  void send(const dnsboot::net::IpAddress& source,
            const dnsboot::net::IpAddress& destination, dnsboot::Bytes payload,
            bool tcp = false) override {
    LayerClock::Span span(clock_, Layer::kNet);
    Base::send(source, destination, std::move(payload), tcp);
  }
  void send(dnsboot::net::Datagram dgram) override {
    LayerClock::Span span(clock_, Layer::kNet);
    Base::send(std::move(dgram));
  }

  std::size_t run(std::size_t max_events = SIZE_MAX) override {
    LayerClock::Span span(clock_, Layer::kNet);
    return Base::run(max_events);
  }

 private:
  LayerClock& clock_;
  Layer bind_layer_ = Layer::kServer;
};

}  // namespace perfbench
