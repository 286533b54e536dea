// udp_clean / udp_lossy: three unpooled register stores replicating
// over real UDP on loopback, all owned by one load thread.
//
// The load thread issues register writes open loop at a fixed offered
// rate, round-robin over the three origins, keys zipfian over kKeys.
// Every kProbeEveryUs each origin also writes the next sequence number
// to its own probe key; the load thread reads the probe keys on the
// remote replicas (get()) every kCheckEveryUs, and a probe is visible
// once every remote read shows its sequence number or a later one.
// Every kTickUs each store flushes (ship batches, heartbeat, GC, repair
// housekeeping) and polls its inbox. udp_lossy runs the same load with
// the transport's sender-side injection at 3% drop and 2% reorder, so
// gap detection and anti-entropy repair carry part of the bytes.
//
// After the load the load thread drains: flush/poll every store, with a
// rotating anti-entropy round every 20 passes for tail losses, until no
// stream is gapped, nothing is pending, every probe was seen and every
// replica holds every key's winning write.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "adt/register.hpp"
#include "counting_transport.hpp"
#include "harness.hpp"
#include "net/wire.hpp"
#include "runtime/keyspace.hpp"
#include "store/thread_store.hpp"

namespace perfbench {

namespace udp {

using Reg = ucw::RegisterAdt<std::int64_t>;
using Net = CountingUdp<Reg>;
using Store = ucw::ThreadUcStore<Reg, std::string, Net>;

inline constexpr std::size_t kNodes = 3;
inline constexpr std::size_t kKeys = 4096;
inline constexpr double kSkew = 0.99;
inline constexpr double kOfferedPerS = 12'000.0;  ///< all origins together
inline constexpr std::int64_t kTickUs = 2'000;
inline constexpr std::int64_t kProbeEveryUs = 5'000;  ///< per origin
inline constexpr std::int64_t kCheckEveryUs = 200;
inline constexpr int kSetups = 9;
inline constexpr double kDrainLimitS = 30.0;
/// Threads the workload runs: the load thread plus one receiver per node.
inline constexpr int kThreads = 1 + static_cast<int>(kNodes);

inline ucw::StoreConfig store_config() {
  ucw::StoreConfig cfg;
  cfg.batch_window = 8;
  cfg.gc = true;
  cfg.auto_anti_entropy = true;
  return cfg;
}

/// Transports and stores of one cluster. Stores are declared after the
/// transports they reference, so they are destroyed first.
struct Cluster {
  std::vector<std::unique_ptr<Net>> nets;
  std::vector<std::unique_ptr<Store>> stores;
};

inline std::unique_ptr<Cluster> build_cluster(std::uint64_t seed, double drop,
                                              double reorder) {
  auto c = std::make_unique<Cluster>();
  std::vector<ucw::UdpEndpoint> ephemeral(kNodes);
  for (std::size_t p = 0; p < kNodes; ++p) {
    ucw::UdpTransportOptions opt;
    opt.drop = drop;
    opt.reorder = reorder;
    opt.fault_seed = ucw::splitmix64(seed ^ (0xB0B + p));
    c->nets.push_back(
        std::make_unique<Net>(static_cast<ucw::ProcessId>(p), ephemeral, opt));
    if (!c->nets.back()->inner().bound()) return nullptr;
  }
  std::vector<ucw::UdpEndpoint> peers(kNodes);
  for (std::size_t p = 0; p < kNodes; ++p) {
    peers[p].port = c->nets[p]->inner().local_port();
  }
  for (auto& n : c->nets) n->inner().set_peers(peers);
  for (std::size_t p = 0; p < kNodes; ++p) {
    c->stores.push_back(std::make_unique<Store>(
        Reg{}, static_cast<ucw::ProcessId>(p), *c->nets[p], store_config()));
  }
  return c;
}

inline std::string probe_key(std::size_t origin) {
  return "probe-" + std::to_string(origin);
}

struct Probe {
  std::uint64_t seq = 0;
  std::int64_t due_ns = 0;
};

/// Load-thread state of the probe protocol.
class Probes {
 public:
  Probes() : outstanding_(kNodes), written_(kNodes, 0), keys_(kNodes) {
    for (std::size_t o = 0; o < kNodes; ++o) keys_[o] = probe_key(o);
  }

  void write(Cluster& c, std::size_t origin, std::int64_t due_ns,
             ExpectedState& expected) {
    const std::uint64_t seq = ++written_[origin];
    const auto v = static_cast<std::int64_t>(seq);
    ucw::Stamp stamp;
    {
      Span span("store.update");
      stamp = c.stores[origin]->update(keys_[origin], Reg::write(v));
    }
    expected.note(kKeys + origin, stamp, v);
    outstanding_[origin].push_back({seq, due_ns});
  }

  /// Reads each origin's probe key on every remote replica and retires
  /// the probes all of them show.
  void check(Cluster& c, PhaseResult& r) {
    for (std::size_t o = 0; o < kNodes; ++o) {
      if (outstanding_[o].empty()) continue;
      std::uint64_t seen = ~std::uint64_t{0};
      for (std::size_t q = 0; q < kNodes; ++q) {
        if (q == o) continue;
        const std::int64_t t0 = now_ns();
        std::int64_t v = 0;
        {
          Span span("store.get");
          v = c.stores[q]->get(keys_[o], Reg::read());
        }
        r.get_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
        const auto got = static_cast<std::uint64_t>(v);
        if (v < 0 || got > written_[o]) ++bad_reads_;  // never written
        seen = std::min(seen, got);
      }
      const std::int64_t now = now_ns();
      while (!outstanding_[o].empty() && outstanding_[o].front().seq <= seen) {
        r.visible_ms.push_back(
            static_cast<double>(now - outstanding_[o].front().due_ns) / 1e6);
        outstanding_[o].pop_front();
      }
    }
  }

  [[nodiscard]] bool any_outstanding() const {
    for (const auto& q : outstanding_) {
      if (!q.empty()) return true;
    }
    return false;
  }
  [[nodiscard]] std::uint64_t outstanding() const {
    std::uint64_t n = 0;
    for (const auto& q : outstanding_) n += q.size();
    return n;
  }
  [[nodiscard]] std::uint64_t written() const {
    std::uint64_t n = 0;
    for (const std::uint64_t w : written_) n += w;
    return n;
  }
  [[nodiscard]] std::uint64_t bad_reads() const { return bad_reads_; }

 private:
  std::vector<std::deque<Probe>> outstanding_;
  std::vector<std::uint64_t> written_;
  std::vector<std::string> keys_;
  std::uint64_t bad_reads_ = 0;
};

/// One flush/poll tick over every store.
inline std::size_t tick(Cluster& c, std::vector<double>* envelopes_per_poll) {
  std::size_t polled = 0;
  for (auto& s : c.stores) {
    {
      Span span("store.flush");
      (void)s->flush();
    }
    std::size_t got = 0;
    {
      Span span("store.poll");
      got = s->poll();
    }
    envelopes_per_poll->push_back(static_cast<double>(got));
    polled += got;
  }
  return polled;
}

/// Whether no stream is gapped and nothing waits in a batch.
inline bool quiet(Cluster& c) {
  for (std::size_t p = 0; p < kNodes; ++p) {
    if (c.stores[p]->pending() != 0) return false;
    for (std::size_t q = 0; q < kNodes; ++q) {
      if (q != p && c.stores[p]->stream_gapped(static_cast<ucw::ProcessId>(q))) {
        return false;
      }
    }
  }
  return true;
}

/// Keys some replica holds a value other than the expected winner for.
inline std::uint64_t wrong_keys(Cluster& c, const std::vector<std::string>& keys,
                                const ExpectedState& expected) {
  return expected.wrong_keys(kNodes, [&](std::size_t r, std::size_t k) {
    return c.stores[r]->state_of(keys[k]);
  });
}

/// Encode and decode cost of the envelopes the run really sent.
inline void price_codec(const Cluster& c, PhaseResult& r) {
  std::vector<Net::Payload> samples;
  for (const auto& n : c.nets) {
    samples.insert(samples.end(), n->samples().begin(), n->samples().end());
  }
  if (samples.empty()) return;
  constexpr int kReps = 20;
  std::vector<std::vector<std::uint8_t>> encoded(samples.size());
  double entries = 0.0;
  double entry_bytes = 0.0;
  std::int64_t enc_ns = 0;
  std::int64_t dec_ns = 0;
  bool all_decoded = true;
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t i = 0; i < samples.size(); ++i) {
      encoded[i].clear();
      const std::int64_t t0 = now_ns();
      {
        Span span("wire.encode");
        ucw::wire::encode_envelope(samples[i], &encoded[i]);
      }
      enc_ns += now_ns() - t0;
    }
    for (std::size_t i = 0; i < samples.size(); ++i) {
      Net::Payload out;
      const std::int64_t t0 = now_ns();
      bool ok = false;
      {
        Span span("wire.decode");
        ok = ucw::wire::decode_envelope<Reg, std::string>(
            encoded[i].data(), encoded[i].size(), &out);
      }
      dec_ns += now_ns() - t0;
      all_decoded = all_decoded && ok;
    }
  }
  if (!all_decoded) r.fail("wire: a sent envelope failed to decode");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (!samples[i].entries.empty()) {
      entries += static_cast<double>(samples[i].entries.size());
      entry_bytes += static_cast<double>(encoded[i].size());
    }
  }
  const double calls = static_cast<double>(kReps) *
                       static_cast<double>(samples.size());
  r.layer["wire.encode_ns_per_envelope"] = static_cast<double>(enc_ns) / calls;
  r.layer["wire.decode_ns_per_envelope"] = static_cast<double>(dec_ns) / calls;
  r.layer["wire.bytes_per_entry"] = entries > 0 ? entry_bytes / entries : 0.0;
}

}  // namespace udp

inline PhaseResult run_udp(const Options& opt, bool lossy) {
  using namespace udp;
  PhaseResult r;
  const double drop = lossy ? 0.03 : 0.0;
  const double reorder = lossy ? 0.02 : 0.0;
  tighten_timer_slack();
  ThreadWatch threads;

  // Set-up: transports bound, peers exchanged, stores built. Repeated;
  // the last cluster is the one measured.
  std::vector<double> setups;
  std::unique_ptr<Cluster> c;
  for (int i = 0; i < kSetups; ++i) {
    c.reset();
    const std::int64_t t0 = now_ns();
    c = build_cluster(opt.seed, drop, reorder);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!c) {
      r.fail("setup: a transport failed to bind");
      return r;
    }
  }
  r.setup_s = median(setups);
  threads.sample();

  // Load generator inputs, drawn from the seed before the clock starts.
  ucw::Rng rng = ucw::Rng(opt.seed).fork("udp-load");
  const ucw::ZipfianKeys keyspace(kKeys, kSkew);
  std::vector<std::string> keys(kKeys);
  for (std::size_t k = 0; k < kKeys; ++k) keys[k] = ucw::ZipfianKeys::key_name(k);
  for (std::size_t o = 0; o < kNodes; ++o) keys.push_back(probe_key(o));
  ExpectedState expected(keys.size());
  const auto total_ops =
      static_cast<std::size_t>(kOfferedPerS * opt.seconds);
  std::vector<std::uint32_t> op_key(total_ops);
  for (auto& k : op_key) k = static_cast<std::uint32_t>(keyspace.sample_index(rng));
  std::vector<std::uint64_t> written(kNodes, 0);
  Probes probes;
  std::vector<double> envelopes_per_poll;

  r.op_us.reserve(total_ops);
  r.due_us.reserve(total_ops);
  r.lag_us.reserve(total_ops);
  r.get_us.reserve(static_cast<std::size_t>(1e6 / kCheckEveryUs * opt.seconds) *
                       (kNodes - 1) * kNodes + 4096);
  const double op_gap_ns = 1e9 / kOfferedPerS;
  const CpuTimes cpu0 = cpu_times();
  const std::int64_t t0 = now_ns();
  const std::int64_t t_end = t0 + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::size_t next_op = 0;
  std::int64_t next_tick = t0 + kTickUs * 1000;
  std::int64_t next_check = t0 + kCheckEveryUs * 1000;
  std::vector<std::int64_t> next_probe(kNodes);
  for (std::size_t o = 0; o < kNodes; ++o) {
    next_probe[o] = t0 + static_cast<std::int64_t>(o) * kProbeEveryUs * 1000 /
                             static_cast<std::int64_t>(kNodes);
  }
  std::int64_t last_done = t0;
  std::int64_t next_thread_sample = t0;
  const auto op_due = [&](std::size_t i) {
    return t0 + static_cast<std::int64_t>(static_cast<double>(i) * op_gap_ns);
  };

  while (next_op < total_ops) {
    {
      Span span("gen.iteration");
      std::int64_t now = now_ns();
      while (next_op < total_ops && op_due(next_op) <= now) {
        const std::int64_t due = op_due(next_op);
        const std::size_t origin = next_op % kNodes;
        const std::int64_t start = now_ns();
        const std::int64_t v = encode_value(origin, written[origin]++);
        ucw::Stamp stamp;
        {
          Span op_span("store.update");
          stamp = c->stores[origin]->update(keys[op_key[next_op]], Reg::write(v));
        }
        expected.note(op_key[next_op], stamp, v);
        now = now_ns();
        r.lag_us.push_back(static_cast<double>(start - due) / 1e3);
        r.op_us.push_back(static_cast<double>(now - start) / 1e3);
        r.due_us.push_back(static_cast<double>(now - due) / 1e3);
        last_done = now;
        ++next_op;
      }
      for (std::size_t o = 0; o < kNodes; ++o) {
        if (next_probe[o] <= now && next_probe[o] < t_end) {
          probes.write(*c, o, next_probe[o], expected);
          next_probe[o] += kProbeEveryUs * 1000;
        }
      }
      if (now >= next_tick) {
        (void)tick(*c, &envelopes_per_poll);
        while (next_tick <= now) next_tick += kTickUs * 1000;
      }
      if (now >= next_check) {
        probes.check(*c, r);
        next_check = now + kCheckEveryUs * 1000;
      }
      if (now >= next_thread_sample) {
        threads.sample();
        next_thread_sample = now + 100'000'000;
      }
    }
    std::int64_t wake = std::min(next_tick, next_check);
    if (next_op < total_ops) wake = std::min(wake, op_due(next_op));
    for (const std::int64_t p : next_probe) {
      if (p < t_end) wake = std::min(wake, p);
    }
    sleep_until_ns(wake);
  }
  const CpuTimes cpu1 = cpu_times();
  r.wall_s = static_cast<double>(last_done - t0) / 1e9;
  r.updates = static_cast<double>(total_ops + probes.written());
  r.cpu_ops = r.updates;
  r.cpu = {cpu1.user_s - cpu0.user_s, cpu1.sys_s - cpu0.sys_s};
  r.offered_ops_per_s =
      static_cast<double>(total_ops) / (static_cast<double>(op_due(total_ops) - t0) / 1e9);

  // Drain until every replica holds every key's winning write.
  const std::uint64_t total_updates = total_ops + probes.written();
  const std::int64_t d0 = now_ns();
  int stable = 0;
  bool drained = false;
  for (int iter = 0; now_ns() - d0 < static_cast<std::int64_t>(kDrainLimitS * 1e9);
       ++iter) {
    (void)tick(*c, &envelopes_per_poll);
    probes.check(*c, r);
    if (iter % 20 == 19) {
      for (std::size_t p = 0; p < kNodes; ++p) {
        std::size_t peer = (p + 1 + static_cast<std::size_t>(iter) / 20) % kNodes;
        if (peer == p) peer = (p + 1) % kNodes;
        Span span("recovery.ae_round");
        (void)c->stores[p]->anti_entropy_round(static_cast<ucw::ProcessId>(peer),
                                               /*reciprocate=*/true);
      }
    }
    const bool done = quiet(*c) && !probes.any_outstanding() &&
                      wrong_keys(*c, keys, expected) == 0;
    stable = done ? stable + 1 : 0;
    if (stable >= 3) {
      drained = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  r.layer["recovery.drain_s"] = static_cast<double>(now_ns() - d0) / 1e9;
  threads.sample();
  r.threads_peak = threads.peak();

  // Correctness: every replica holds every key's winning write, every
  // probe was seen, no read returned a value never written, a clean
  // network rejected no frame, and the byte attribution adds up.
  const std::uint64_t wrong = wrong_keys(*c, keys, expected);
  if (!drained) r.fail("drain: replicas did not converge within the limit");
  if (wrong > 0) r.note(std::to_string(wrong) + " keys off their winning write");
  r.tally.add(total_updates, wrong);
  r.tally.add(probes.written(), probes.outstanding());
  r.tally.add(r.get_us.size(), probes.bad_reads());

  KindBytes kinds;
  ucw::UdpTransportStats ts;
  for (auto& n : c->nets) {
    const ucw::UdpTransportStats s = n->inner().stats();
    if (!bytes_reconcile(n->kind_bytes(), s.bytes_sent)) {
      r.fail("byte attribution does not add up to bytes_sent");
    }
    kinds += n->kind_bytes();
    ts.datagrams_sent += s.datagrams_sent;
    ts.datagrams_received += s.datagrams_received;
    ts.bytes_sent += s.bytes_sent;
    ts.frames_rejected += s.frames_rejected;
    ts.envelopes_rejected += s.envelopes_rejected;
    ts.injected_drops += s.injected_drops;
  }
  const std::uint64_t rejected = ts.frames_rejected + ts.envelopes_rejected;
  if (!lossy && rejected != 0) r.fail("clean network rejected frames");

  ucw::StoreStats st;
  std::uint64_t resident = 0;
  for (auto& s : c->stores) {
    const ucw::StoreStats one = s->stats();
    st.envelopes_sent += one.envelopes_sent;
    st.entries_sent += one.entries_sent;
    st.stream_gaps_detected += one.stream_gaps_detected;
    st.ae_rounds_completed += one.ae_rounds_completed;
    resident += s->log_entries_resident();
  }
  const double upd = static_cast<double>(total_updates);
  r.wire_bytes = static_cast<double>(ts.bytes_sent);
  r.layer["store.entries_per_flush"] =
      st.envelopes_sent > 0 ? static_cast<double>(st.entries_sent) /
                                  static_cast<double>(st.envelopes_sent)
                            : 0.0;
  double polled = 0.0;
  for (const double e : envelopes_per_poll) polled += e;
  r.layer["store.envelopes_per_poll"] =
      envelopes_per_poll.empty() ? 0.0
                                 : polled / static_cast<double>(envelopes_per_poll.size());
  r.layer["store.log_entries_resident"] = static_cast<double>(resident);
  r.layer["net.datagrams_per_update"] = static_cast<double>(ts.datagrams_sent) / upd;
  for (std::size_t k = 0; k < kWireKinds; ++k) {
    r.layer[std::string("net.bytes.") + kWireKindNames[k]] =
        static_cast<double>(kinds.bytes[k]) / upd;
  }
  r.layer["net.host_loss_share"] =
      ts.datagrams_sent > 0
          ? static_cast<double>(ts.datagrams_sent - std::min(ts.datagrams_sent,
                                                             ts.datagrams_received)) /
                static_cast<double>(ts.datagrams_sent)
          : 0.0;
  r.layer["net.frames_rejected"] = static_cast<double>(rejected);
  r.layer["recovery.stream_gaps"] = static_cast<double>(st.stream_gaps_detected);
  r.layer["recovery.ae_rounds_completed"] = static_cast<double>(st.ae_rounds_completed);
  r.layer["recovery.repair_bytes_per_update"] =
      static_cast<double>(kinds.of(WireKind::kAe) + kinds.of(WireKind::kSync)) / upd;
  price_codec(*c, r);
  c.reset();  // joins the receivers before the RSS read
  r.rss_mb = peak_rss_mb();
  return r;
}

}  // namespace perfbench
