// UdpTransport: real sockets under the same store contract as the
// in-process transports.
//
// One transport per OS process, one UDP socket bound to 127.0.0.1, a
// static peer table (index = pid), and a receiver thread that turns
// datagrams back into envelopes and queues them on the same Inbox type
// ThreadNetwork uses — so a ThreadUcStore runs over it unchanged. The
// capability surface it exposes to StoreCore's concept detection:
//
//   broadcast_others / size   — the required minimum;
//   inbox(pid)                — kPollableInbox (the store polls);
//   send(from, to, e)         — kPointToPoint;
//   epoch(p)                  — kEpochAware, so kCatchupCapable holds
//                               and catch-up + anti-entropy light up.
//
// Deliberately NOT exposed: crashed / in_flight_from / same_partition.
// A real network has no failure oracle — those features concept-gate
// off, which is the honest posture: gaps are detected from the (epoch,
// seq) stream itself and repaired by anti-entropy, not by asking an
// omniscient simulator.
//
// UDP gives no delivery, no ordering, and ~64 KiB per datagram. The
// wire codec's frames carry (msg id, fragment index/count), and the
// receiver reassembles multi-fragment messages per (sender, msg id)
// with a bounded table — an incomplete reassembly is evicted, which
// converts fragment loss into whole-envelope loss, which the store
// already repairs (SeqCoverage gap -> auto anti-entropy). All receive-
// side input is untrusted: a frame that fails validation increments a
// counter and is dropped; nothing a peer sends can crash this process.
//
// Test-only fault injection: sender-side drop/reorder filters (seeded,
// deterministic given a single sending thread) create real loss and
// real inversions on a real socket, so the loss-repair tests exercise
// the exact code path production losses would.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/thread_network.hpp"
#include "net/wire.hpp"
#include "store/envelope.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ucw {

/// One peer's address. Port 0 in this process's own entry = bind an
/// ephemeral port (tests); peers must then learn it out of band.
struct UdpEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct UdpTransportOptions {
  /// This process's incarnation (StoreCore reads it at construction;
  /// bump it when re-binding after a restart).
  std::uint64_t epoch = 1;
  /// Largest payload slice per datagram; snapshots beyond it fragment.
  std::size_t max_frame_payload = wire::kDefaultMaxFramePayload;
  /// In-progress multi-fragment reassemblies kept per transport before
  /// the oldest is evicted (fragment loss must not leak memory).
  std::size_t reassembly_slots = 64;
  /// TEST-ONLY sender-side fault injection: each outgoing datagram is
  /// independently dropped with probability `drop`; with probability
  /// `reorder` it is held and shipped after the next datagram (a real
  /// adjacent-pair inversion on the wire). Deterministic per seed when
  /// one thread sends.
  double drop = 0.0;
  double reorder = 0.0;
  std::uint64_t fault_seed = 1;
};

struct UdpTransportStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t envelopes_sent = 0;      ///< per destination
  std::uint64_t envelopes_received = 0;  ///< decoded + queued
  std::uint64_t send_errors = 0;         ///< sendto() failures
  std::uint64_t frames_rejected = 0;     ///< bad magic/version/len/CRC
  std::uint64_t envelopes_rejected = 0;  ///< frame ok, payload malformed
  std::uint64_t bad_sender = 0;          ///< sender pid outside the table
  std::uint64_t reassemblies_completed = 0;
  std::uint64_t reassemblies_evicted = 0;
  std::uint64_t injected_drops = 0;
  std::uint64_t injected_reorders = 0;
};

/// Socket transport for `BatchEnvelope<A, Key>` payloads.
template <UqAdt A, typename Key = std::string>
class UdpTransport {
 public:
  using Payload = BatchEnvelope<A, Key>;
  struct Envelope {
    ProcessId from;
    Payload payload;
  };

  /// Binds peers[pid] and starts the receiver. CHECK-fails on bad
  /// arguments; socket/bind failure is reported via bound() instead of
  /// a crash — a cluster launcher retries with fresh ports.
  UdpTransport(ProcessId pid, std::vector<UdpEndpoint> peers,
               UdpTransportOptions opts = {})
      : pid_(pid), peers_(std::move(peers)), opts_(opts) {
    UCW_CHECK(pid_ < peers_.size());
    UCW_CHECK(peers_.size() <= 0xFFFF);  // sender pid is u16 on the wire
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd_ < 0) return;
    // Generous receive buffer: a flush broadcasts to every peer at
    // once and the receiver thread may be mid-reassembly.
    int rcvbuf = 1 << 21;
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    // Poll-with-timeout so the receiver thread can notice stop().
    timeval tv{};
    tv.tv_usec = 50 * 1000;
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in self{};
    if (!to_sockaddr(peers_[pid_], &self)) {
      close_fd();
      return;
    }
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&self), sizeof(self)) != 0) {
      close_fd();
      return;
    }
    if (peers_[pid_].port == 0) {
      sockaddr_in bound_addr{};
      socklen_t len = sizeof(bound_addr);
      if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound_addr),
                        &len) == 0) {
        peers_[pid_].port = ntohs(bound_addr.sin_port);
      }
    }
    bound_ = true;
    receiver_ = std::thread([this] { receive_loop(); });
  }

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  ~UdpTransport() { close_all(); }

  /// Whether the socket bound successfully (false: port in use — the
  /// caller picks new ports and retries).
  [[nodiscard]] bool bound() const { return bound_; }
  /// The locally bound port (resolves port-0 ephemeral binds).
  [[nodiscard]] std::uint16_t local_port() const { return peers_[pid_].port; }

  /// Replaces the peer table (two-phase test setup: bind everyone on
  /// ephemeral ports first, then exchange the learned addresses). Call
  /// before any store sends; own entry must keep the bound port.
  void set_peers(std::vector<UdpEndpoint> peers) {
    UCW_CHECK(peers.size() == peers_.size());
    UCW_CHECK(peers[pid_].port == peers_[pid_].port);
    // Element-wise under the send lock, never a new vector: the
    // receiver thread reads the table's size concurrently.
    std::lock_guard lock(send_mutex_);
    std::copy(peers.begin(), peers.end(), peers_.begin());
  }

  [[nodiscard]] std::size_t size() const { return peers_.size(); }
  /// This process's incarnation; StoreCore only asks about itself.
  [[nodiscard]] std::uint64_t epoch(ProcessId) const { return opts_.epoch; }

  /// Sends one envelope to every other peer (wait-free for the caller:
  /// encode + per-peer sendto, never blocks on receivers).
  void broadcast_others(ProcessId from, const Payload& payload) {
    UCW_CHECK(from == pid_);
    std::vector<std::vector<std::uint8_t>> frames;
    encode_to_frames(payload, &frames);
    std::lock_guard lock(send_mutex_);
    for (ProcessId to = 0; to < peers_.size(); ++to) {
      if (to == from) continue;
      send_frames_locked(to, frames);
      stats_.envelopes_sent.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Point-to-point send (catch-up requests, snapshots, anti-entropy).
  void send(ProcessId from, ProcessId to, const Payload& payload) {
    UCW_CHECK(from == pid_ && to < peers_.size() && to != pid_);
    std::vector<std::vector<std::uint8_t>> frames;
    encode_to_frames(payload, &frames);
    std::lock_guard lock(send_mutex_);
    send_frames_locked(to, frames);
    stats_.envelopes_sent.fetch_add(1, std::memory_order_relaxed);
  }

  /// The local inbox the store polls; only this process's exists here.
  [[nodiscard]] Inbox<Envelope>& inbox(ProcessId p) {
    UCW_CHECK(p == pid_);
    return inbox_;
  }

  /// Stops the receiver, flushes any reorder-held datagram, closes the
  /// socket and the inbox. Idempotent.
  void close_all() {
    bool expected = false;
    if (!stop_.compare_exchange_strong(expected, true)) {
      if (receiver_.joinable()) receiver_.join();
      return;
    }
    {
      // A held (reorder-injected) datagram is in flight, not dropped —
      // release it so shutdown never manufactures phantom loss.
      std::lock_guard lock(send_mutex_);
      flush_held_locked();
    }
    if (receiver_.joinable()) receiver_.join();
    close_fd();
    inbox_.close();
  }

  [[nodiscard]] UdpTransportStats stats() const {
    UdpTransportStats s;
    s.datagrams_sent = stats_.datagrams_sent.load(std::memory_order_relaxed);
    s.datagrams_received =
        stats_.datagrams_received.load(std::memory_order_relaxed);
    s.bytes_sent = stats_.bytes_sent.load(std::memory_order_relaxed);
    s.bytes_received = stats_.bytes_received.load(std::memory_order_relaxed);
    s.envelopes_sent = stats_.envelopes_sent.load(std::memory_order_relaxed);
    s.envelopes_received =
        stats_.envelopes_received.load(std::memory_order_relaxed);
    s.send_errors = stats_.send_errors.load(std::memory_order_relaxed);
    s.frames_rejected =
        stats_.frames_rejected.load(std::memory_order_relaxed);
    s.envelopes_rejected =
        stats_.envelopes_rejected.load(std::memory_order_relaxed);
    s.bad_sender = stats_.bad_sender.load(std::memory_order_relaxed);
    s.reassemblies_completed =
        stats_.reassemblies_completed.load(std::memory_order_relaxed);
    s.reassemblies_evicted =
        stats_.reassemblies_evicted.load(std::memory_order_relaxed);
    s.injected_drops = stats_.injected_drops.load(std::memory_order_relaxed);
    s.injected_reorders =
        stats_.injected_reorders.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct AtomicStats {
    std::atomic<std::uint64_t> datagrams_sent{0};
    std::atomic<std::uint64_t> datagrams_received{0};
    std::atomic<std::uint64_t> bytes_sent{0};
    std::atomic<std::uint64_t> bytes_received{0};
    std::atomic<std::uint64_t> envelopes_sent{0};
    std::atomic<std::uint64_t> envelopes_received{0};
    std::atomic<std::uint64_t> send_errors{0};
    std::atomic<std::uint64_t> frames_rejected{0};
    std::atomic<std::uint64_t> envelopes_rejected{0};
    std::atomic<std::uint64_t> bad_sender{0};
    std::atomic<std::uint64_t> reassemblies_completed{0};
    std::atomic<std::uint64_t> reassemblies_evicted{0};
    std::atomic<std::uint64_t> injected_drops{0};
    std::atomic<std::uint64_t> injected_reorders{0};
  };

  struct Reassembly {
    std::uint16_t frag_count = 0;
    std::size_t received = 0;
    std::uint64_t admitted_at = 0;  ///< insertion order, for eviction
    std::vector<std::vector<std::uint8_t>> chunks;
    std::vector<bool> have;  ///< per fragment (a chunk may be empty)
  };

  static bool to_sockaddr(const UdpEndpoint& ep, sockaddr_in* out) {
    std::memset(out, 0, sizeof(*out));
    out->sin_family = AF_INET;
    out->sin_port = htons(ep.port);
    return ::inet_pton(AF_INET, ep.host.c_str(), &out->sin_addr) == 1;
  }

  void close_fd() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  void encode_to_frames(const Payload& payload,
                        std::vector<std::vector<std::uint8_t>>* frames) {
    std::vector<std::uint8_t> bytes;
    wire::encode_envelope(payload, &bytes);
    const std::uint32_t msg_id =
        next_msg_id_.fetch_add(1, std::memory_order_relaxed);
    wire::encode_frames(bytes.data(), bytes.size(),
                        static_cast<std::uint16_t>(pid_), msg_id, frames,
                        opts_.max_frame_payload);
  }

  // ----- send side (send_mutex_ held) ----------------------------------

  void send_frames_locked(ProcessId to,
                          const std::vector<std::vector<std::uint8_t>>& frames) {
    for (const auto& frame : frames) send_datagram_locked(to, frame);
  }

  void send_datagram_locked(ProcessId to,
                            const std::vector<std::uint8_t>& frame) {
    if (opts_.drop > 0.0 && fault_rng_.chance(opts_.drop)) {
      stats_.injected_drops.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (held_) {
      // A held datagram ships AFTER the current one: the adjacent pair
      // arrives inverted on the wire.
      const auto [held_to, held_frame] = std::move(*held_);
      held_.reset();
      raw_send(to, frame);
      raw_send(held_to, held_frame);
      return;
    }
    if (opts_.reorder > 0.0 && fault_rng_.chance(opts_.reorder)) {
      stats_.injected_reorders.fetch_add(1, std::memory_order_relaxed);
      held_.emplace(to, frame);
      return;
    }
    raw_send(to, frame);
  }

  void flush_held_locked() {
    if (!held_) return;
    const auto [to, frame] = std::move(*held_);
    held_.reset();
    raw_send(to, frame);
  }

  void raw_send(ProcessId to, const std::vector<std::uint8_t>& frame) {
    sockaddr_in dst{};
    if (fd_ < 0 || !to_sockaddr(peers_[to], &dst)) {
      stats_.send_errors.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const ssize_t n =
        ::sendto(fd_, frame.data(), frame.size(), 0,
                 reinterpret_cast<const sockaddr*>(&dst), sizeof(dst));
    if (n != static_cast<ssize_t>(frame.size())) {
      stats_.send_errors.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    stats_.datagrams_sent.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_sent.fetch_add(frame.size(), std::memory_order_relaxed);
  }

  // ----- receive side (receiver thread only) ---------------------------

  void receive_loop() {
    std::vector<std::uint8_t> buf(1 << 16);
    while (!stop_.load(std::memory_order_acquire)) {
      const ssize_t n = ::recvfrom(fd_, buf.data(), buf.size(), 0, nullptr,
                                   nullptr);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          continue;
        }
        break;  // socket closed underneath us
      }
      stats_.datagrams_received.fetch_add(1, std::memory_order_relaxed);
      stats_.bytes_received.fetch_add(static_cast<std::uint64_t>(n),
                                      std::memory_order_relaxed);
      handle_datagram(buf.data(), static_cast<std::size_t>(n));
    }
  }

  void handle_datagram(const std::uint8_t* data, std::size_t len) {
    wire::FrameHeader h;
    const std::uint8_t* payload = nullptr;
    if (!wire::decode_frame(data, len, &h, &payload)) {
      stats_.frames_rejected.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (h.sender >= peers_.size() || h.sender == pid_) {
      stats_.bad_sender.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (h.frag_count == 1) {
      decode_and_deliver(h.sender, payload, h.payload_len);
      return;
    }
    reassemble(h, payload);
  }

  void reassemble(const wire::FrameHeader& h, const std::uint8_t* payload) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(h.sender) << 32) | h.msg_id;
    auto it = partial_.find(key);
    if (it == partial_.end()) {
      if (partial_.size() >= opts_.reassembly_slots) evict_oldest();
      Reassembly fresh;
      fresh.frag_count = h.frag_count;
      fresh.admitted_at = admit_counter_++;
      fresh.chunks.resize(h.frag_count);
      fresh.have.assign(h.frag_count, false);
      it = partial_.emplace(key, std::move(fresh)).first;
    }
    Reassembly& re = it->second;
    if (h.frag_count != re.frag_count || h.frag_index >= re.frag_count) {
      // Inconsistent with the first fragment seen: garbage or replayed
      // msg id. Drop the whole reassembly rather than mix payloads.
      partial_.erase(it);
      stats_.frames_rejected.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (re.have[h.frag_index]) return;  // duplicate fragment
    re.have[h.frag_index] = true;
    re.chunks[h.frag_index].assign(payload, payload + h.payload_len);
    if (++re.received < re.frag_count) return;
    std::vector<std::uint8_t> whole;
    for (const auto& chunk : re.chunks) {
      whole.insert(whole.end(), chunk.begin(), chunk.end());
    }
    const ProcessId from = h.sender;
    partial_.erase(it);
    stats_.reassemblies_completed.fetch_add(1, std::memory_order_relaxed);
    decode_and_deliver(from, whole.data(), whole.size());
  }

  void evict_oldest() {
    auto oldest = partial_.begin();
    for (auto it = partial_.begin(); it != partial_.end(); ++it) {
      if (it->second.admitted_at < oldest->second.admitted_at) oldest = it;
    }
    if (oldest != partial_.end()) {
      partial_.erase(oldest);
      stats_.reassemblies_evicted.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void decode_and_deliver(ProcessId from, const std::uint8_t* payload,
                          std::size_t len) {
    Payload env;
    if (!wire::decode_envelope<A, Key>(payload, len, &env)) {
      stats_.envelopes_rejected.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    stats_.envelopes_received.fetch_add(1, std::memory_order_relaxed);
    inbox_.push(Envelope{from, std::move(env)});
  }

  ProcessId pid_;
  std::vector<UdpEndpoint> peers_;
  UdpTransportOptions opts_;
  int fd_ = -1;
  bool bound_ = false;
  Inbox<Envelope> inbox_;
  std::atomic<bool> stop_{false};
  std::thread receiver_;
  std::atomic<std::uint32_t> next_msg_id_{1};

  // Send-side state (serialized: flushes can come from several threads).
  std::mutex send_mutex_;
  Rng fault_rng_{opts_.fault_seed};
  std::optional<std::pair<ProcessId, std::vector<std::uint8_t>>> held_;

  // Receiver-thread-only state.
  std::map<std::uint64_t, Reassembly> partial_;
  std::uint64_t admit_counter_ = 0;

  AtomicStats stats_;
};

}  // namespace ucw
