// CountingUdp: a forwarding wrapper around UdpTransport that charges
// every sendto() byte to the kind of envelope that caused it.
//
// It exposes exactly the surface UdpTransport exposes to StoreCore's
// concept detection (broadcast_others/size, inbox, send, epoch), so a
// store over it runs the same features as UdpUcStore; the static_assert
// at the bottom checks that against the store's own detection. Each
// forwarding call reads the transport's bytes_sent before and after and
// charges the delta to the envelope's WireKind. All sends come from the
// store's owner thread, so the deltas add up to UdpTransportStats::
// bytes_sent exactly, which the benchmark checks. (A datagram the
// reorder injection holds back leaves with the next call and is charged
// to that call's kind.)
//
// It also times each send (net.send span) and keeps every Nth envelope
// it forwarded, so the wire codec can be priced on the real traffic.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "adt/register.hpp"
#include "bench_stats.hpp"
#include "net/udp_transport.hpp"
#include "spans.hpp"
#include "store/store_core.hpp"

namespace perfbench {

template <ucw::UqAdt A, typename Key = std::string>
class CountingUdp {
 public:
  using Inner = ucw::UdpTransport<A, Key>;
  using Payload = ucw::BatchEnvelope<A, Key>;
  using Envelope = typename Inner::Envelope;

  /// Envelopes kept for the codec measurement, and how often.
  static constexpr std::size_t kSampleEvery = 16;
  static constexpr std::size_t kMaxSamples = 512;

  CountingUdp(ucw::ProcessId pid, std::vector<ucw::UdpEndpoint> peers,
              ucw::UdpTransportOptions opts)
      : inner_(pid, std::move(peers), opts) {}

  CountingUdp(const CountingUdp&) = delete;
  CountingUdp& operator=(const CountingUdp&) = delete;

  [[nodiscard]] std::size_t size() const { return inner_.size(); }
  [[nodiscard]] std::uint64_t epoch(ucw::ProcessId p) const {
    return inner_.epoch(p);
  }
  [[nodiscard]] ucw::Inbox<Envelope>& inbox(ucw::ProcessId p) {
    return inner_.inbox(p);
  }

  void broadcast_others(ucw::ProcessId from, const Payload& payload) {
    const std::uint64_t before = inner_.stats().bytes_sent;
    {
      Span span("net.send");
      inner_.broadcast_others(from, payload);
    }
    charge(payload, before);
  }

  void send(ucw::ProcessId from, ucw::ProcessId to, const Payload& payload) {
    const std::uint64_t before = inner_.stats().bytes_sent;
    {
      Span span("net.send");
      inner_.send(from, to, payload);
    }
    charge(payload, before);
  }

  [[nodiscard]] Inner& inner() { return inner_; }
  [[nodiscard]] const KindBytes& kind_bytes() const { return kinds_; }
  [[nodiscard]] const std::vector<Payload>& samples() const {
    return samples_;
  }

 private:
  void charge(const Payload& payload, std::uint64_t before) {
    kinds_.add(classify(payload.kind, !payload.entries.empty()),
               inner_.stats().bytes_sent - before);
    if (calls_++ % kSampleEvery == 0 && samples_.size() < kMaxSamples) {
      samples_.push_back(payload);
    }
  }

  Inner inner_;
  KindBytes kinds_;
  std::uint64_t calls_ = 0;
  std::vector<Payload> samples_;
};

/// StoreCore's concept-detected capabilities for a transport type, read
/// through a derived class because the detection constants are
/// protected.
template <typename Net>
struct DetectedCapabilities : ucw::StoreCore<ucw::RegisterAdt<std::int64_t>,
                                             Net, std::string> {
  using Core =
      ucw::StoreCore<ucw::RegisterAdt<std::int64_t>, Net, std::string>;
  static constexpr std::array<bool, 7> kFlags = {
      Core::kPollableInbox, Core::kCrashAware,   Core::kInFlightAware,
      Core::kPointToPoint,  Core::kEpochAware,   Core::kCatchupCapable,
      Core::kReachabilityAware};
};

static_assert(
    DetectedCapabilities<CountingUdp<ucw::RegisterAdt<std::int64_t>>>::
            kFlags ==
        DetectedCapabilities<ucw::UdpTransport<
            ucw::RegisterAdt<std::int64_t>>>::kFlags,
    "CountingUdp must light up exactly the store features UdpTransport "
    "does");

}  // namespace perfbench
