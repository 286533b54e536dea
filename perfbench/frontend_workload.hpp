// frontend_mixed: one pooled ThreadUcStore (2 workers) and an unpooled
// peer over the in-process ThreadNetwork. No codec, no sockets.
//
// The main thread is the writer client: open-loop update()s on the
// pooled store at kOfferedPerS, keys zipfian over kKeys, plus a probe
// write every kProbeEveryUs. Between its sleeps it also owns the peer:
// the peer writes at kPeerPerS (so remote entries take the sharded
// inbox -> worker path on the pooled store), every kTickUs both stores
// flush and poll, and every kCheckEveryUs the main thread reads the
// probe key on the peer to time visibility. A reader client thread
// issues hot-biased get()s on the pooled store in a closed loop, in
// bursts of kReadBurst with a kReadPauseUs pause between bursts.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adt/register.hpp"
#include "harness.hpp"
#include "net/thread_network.hpp"
#include "runtime/keyspace.hpp"
#include "store/thread_store.hpp"

namespace perfbench {

namespace frontend {

using Reg = ucw::RegisterAdt<std::int64_t>;
using Net = ucw::ThreadNetwork<ucw::BatchEnvelope<Reg, std::string>>;
using Store = ucw::ThreadUcStore<Reg>;

inline constexpr std::size_t kWorkers = 2;
inline constexpr std::size_t kKeys = 4096;
inline constexpr double kSkew = 0.99;
inline constexpr double kOfferedPerS = 20'000.0;
inline constexpr double kPeerPerS = 500.0;
inline constexpr std::int64_t kTickUs = 2'000;
inline constexpr std::int64_t kProbeEveryUs = 2'000;
inline constexpr std::int64_t kCheckEveryUs = 200;
inline constexpr int kReadBurst = 16;
inline constexpr std::int64_t kReadPauseUs = 100;
/// Set-ups per run. The first few of a process run slow (allocator and
/// thread warm-up); the median of 21 lands among the warm ones.
inline constexpr int kSetups = 21;
inline constexpr double kDrainLimitS = 30.0;
/// Threads the workload runs: main (writer + peer), reader, workers.
inline constexpr int kThreads = 2 + static_cast<int>(kWorkers);
inline constexpr std::size_t kWriter = 0;  ///< value origin of the pooled store
inline constexpr std::size_t kPeer = 1;
inline const std::string kProbeKey = "probe";

struct Cluster {
  Net net{2};
  std::unique_ptr<Store> front;
  std::unique_ptr<Store> peer;
};

inline std::unique_ptr<Cluster> build_cluster() {
  auto c = std::make_unique<Cluster>();
  ucw::StoreConfig pooled;
  pooled.workers = kWorkers;
  pooled.max_producers = 4;
  pooled.gc = true;
  c->front = std::make_unique<Store>(Reg{}, 0, c->net, pooled);
  ucw::StoreConfig single;
  single.gc = true;
  c->peer = std::make_unique<Store>(Reg{}, 1, c->net, single);
  return c;
}

inline void tick(Cluster& c) {
  {
    Span span("store.flush");
    (void)c.front->flush();
  }
  {
    Span span("store.flush");
    (void)c.peer->flush();
  }
  {
    Span span("store.poll");
    (void)c.front->poll();
  }
  {
    Span span("store.poll");
    (void)c.peer->poll();
  }
}

/// The reader client: hot-biased closed-loop get()s, each answer
/// checked against what the writers had issued when it returned.
struct Reader {
  std::vector<double> get_us;
  std::uint64_t bad = 0;

  void run(Store& store, const std::vector<std::string>& keys,
           const std::vector<std::uint32_t>& picks,
           const std::atomic<std::uint64_t>* issued,
           const std::atomic<bool>& stop) {
    tighten_timer_slack();
    std::size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int b = 0; b < kReadBurst; ++b) {
        const std::string& key = keys[picks[i++ % picks.size()]];
        const std::int64_t t0 = now_ns();
        std::int64_t v = 0;
        {
          Span span("store.get");
          v = store.get(key, Reg::read());
        }
        get_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
        if (v != 0) {
          const std::size_t origin = value_origin(v);
          if (origin > kPeer ||
              value_counter(v) >=
                  issued[origin].load(std::memory_order_acquire)) {
            ++bad;  // a value nobody had written
          }
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(kReadPauseUs));
    }
  }
};

}  // namespace frontend

inline PhaseResult run_frontend(const Options& opt) {
  using namespace frontend;
  PhaseResult r;
  tighten_timer_slack();
  ThreadWatch threads;

  std::vector<double> setups;
  std::unique_ptr<Cluster> c;
  for (int i = 0; i < kSetups; ++i) {
    c.reset();
    const std::int64_t t0 = now_ns();
    c = build_cluster();
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  r.setup_s = median(setups);

  ucw::Rng rng = ucw::Rng(opt.seed).fork("frontend-load");
  const ucw::ZipfianKeys keyspace(kKeys, kSkew);
  std::vector<std::string> keys(kKeys);
  for (std::size_t k = 0; k < kKeys; ++k) keys[k] = ucw::ZipfianKeys::key_name(k);
  keys.push_back(kProbeKey);  // index kKeys
  ExpectedState expected(keys.size());
  const auto total_ops = static_cast<std::size_t>(kOfferedPerS * opt.seconds);
  const auto peer_ops = static_cast<std::size_t>(kPeerPerS * opt.seconds);
  std::vector<std::uint32_t> op_key(total_ops);
  for (auto& k : op_key) k = static_cast<std::uint32_t>(keyspace.sample_index(rng));
  std::vector<std::uint32_t> peer_key(peer_ops);
  for (auto& k : peer_key) k = static_cast<std::uint32_t>(keyspace.sample_index(rng));
  std::vector<std::uint32_t> read_key(1 << 16);
  for (auto& k : read_key) k = static_cast<std::uint32_t>(keyspace.sample_index(rng));

  // issued[o]: values origin o has written so far. A writer bumps it
  // before the update, so any value a read returns is below it.
  std::atomic<std::uint64_t> issued[2] = {0, 0};
  std::uint64_t probes_written = 0;
  std::deque<std::pair<std::uint64_t, std::int64_t>> outstanding;  // seq, due
  std::uint64_t bad_probe_reads = 0;
  const auto check_probe = [&] {
    if (outstanding.empty()) return;
    const std::int64_t t0 = now_ns();
    std::int64_t v = 0;
    {
      Span span("store.get");
      v = c->peer->get(kProbeKey, Reg::read());
    }
    const std::int64_t now = now_ns();
    r.get_us.push_back(static_cast<double>(now - t0) / 1e3);
    if (v < 0 || static_cast<std::uint64_t>(v) > probes_written) ++bad_probe_reads;
    while (!outstanding.empty() &&
           outstanding.front().first <= static_cast<std::uint64_t>(v)) {
      r.visible_ms.push_back(static_cast<double>(now - outstanding.front().second) / 1e6);
      outstanding.pop_front();
    }
  };

  std::atomic<bool> stop{false};
  Reader reader;
  // Sample buffers sized up front: growing them mid-run would copy and
  // put allocator steps into peak_rss_mb.
  reader.get_us.reserve(static_cast<std::size_t>(400'000 * opt.seconds));
  r.get_us.reserve(static_cast<std::size_t>(1e6 / kCheckEveryUs * opt.seconds) + 4096);
  r.op_us.reserve(total_ops);
  r.due_us.reserve(total_ops);
  r.lag_us.reserve(total_ops);
  const double op_gap_ns = 1e9 / kOfferedPerS;
  const double peer_gap_ns = 1e9 / kPeerPerS;
  const CpuTimes cpu0 = cpu_times();
  std::thread reader_thread([&] {
    reader.run(*c->front, keys, read_key, issued, stop);
  });
  const std::int64_t t0 = now_ns();
  const std::int64_t t_end = t0 + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::size_t next_op = 0;
  std::size_t next_peer = 0;
  std::int64_t next_tick = t0 + kTickUs * 1000;
  std::int64_t next_check = t0 + kCheckEveryUs * 1000;
  std::int64_t next_probe = t0;
  std::int64_t next_thread_sample = t0;
  std::int64_t last_done = t0;
  const auto op_due = [&](std::size_t i) {
    return t0 + static_cast<std::int64_t>(static_cast<double>(i) * op_gap_ns);
  };
  const auto peer_due = [&](std::size_t i) {
    return t0 + static_cast<std::int64_t>(static_cast<double>(i) * peer_gap_ns);
  };

  while (next_op < total_ops) {
    {
      Span span("gen.iteration");
      std::int64_t now = now_ns();
      while (next_op < total_ops && op_due(next_op) <= now) {
        const std::int64_t due = op_due(next_op);
        const std::int64_t start = now_ns();
        const std::int64_t v =
            encode_value(kWriter, issued[kWriter].fetch_add(1, std::memory_order_acq_rel));
        ucw::Stamp stamp;
        {
          Span op_span("store.update");
          stamp = c->front->update(keys[op_key[next_op]], Reg::write(v));
        }
        expected.note(op_key[next_op], stamp, v);
        now = now_ns();
        r.lag_us.push_back(static_cast<double>(start - due) / 1e3);
        r.op_us.push_back(static_cast<double>(now - start) / 1e3);
        r.due_us.push_back(static_cast<double>(now - due) / 1e3);
        last_done = now;
        ++next_op;
      }
      if (next_probe <= now && next_probe < t_end) {
        const auto v = static_cast<std::int64_t>(++probes_written);
        ucw::Stamp stamp;
        {
          Span op_span("store.update");
          stamp = c->front->update(kProbeKey, Reg::write(v));
        }
        expected.note(kKeys, stamp, v);
        outstanding.emplace_back(probes_written, next_probe);
        next_probe += kProbeEveryUs * 1000;
      }
      while (next_peer < peer_ops && peer_due(next_peer) <= now) {
        const std::int64_t v =
            encode_value(kPeer, issued[kPeer].fetch_add(1, std::memory_order_acq_rel));
        ucw::Stamp stamp;
        {
          Span op_span("store.update");
          stamp = c->peer->update(keys[peer_key[next_peer]], Reg::write(v));
        }
        expected.note(peer_key[next_peer], stamp, v);
        ++next_peer;
      }
      if (now >= next_tick) {
        tick(*c);
        while (next_tick <= now) next_tick += kTickUs * 1000;
      }
      if (now >= next_check) {
        check_probe();
        next_check = now + kCheckEveryUs * 1000;
      }
      if (now >= next_thread_sample) {
        threads.sample();
        next_thread_sample = now + 100'000'000;
      }
    }
    std::int64_t wake = std::min(next_tick, next_check);
    if (next_op < total_ops) wake = std::min(wake, op_due(next_op));
    if (next_peer < peer_ops) wake = std::min(wake, peer_due(next_peer));
    if (next_probe < t_end) wake = std::min(wake, next_probe);
    sleep_until_ns(wake);
  }
  stop.store(true, std::memory_order_relaxed);
  reader_thread.join();
  const CpuTimes cpu1 = cpu_times();
  r.wall_s = static_cast<double>(last_done - t0) / 1e9;
  r.updates = static_cast<double>(total_ops + probes_written + next_peer);
  r.cpu_ops = r.updates;
  r.cpu = {cpu1.user_s - cpu0.user_s, cpu1.sys_s - cpu0.sys_s};
  r.offered_ops_per_s =
      static_cast<double>(total_ops) / (static_cast<double>(op_due(total_ops) - t0) / 1e9);
  r.get_us.insert(r.get_us.end(), reader.get_us.begin(), reader.get_us.end());

  // Drain: both stores hold every key's winning write. Only this thread
  // touches the stores now.
  const auto wrong_keys = [&] {
    return expected.wrong_keys(2, [&](std::size_t r, std::size_t k) {
      return r == 0 ? c->front->state_of(keys[k]) : c->peer->state_of(keys[k]);
    });
  };
  const std::uint64_t total_updates = total_ops + probes_written + next_peer;
  const std::int64_t d0 = now_ns();
  bool drained = false;
  int stable = 0;
  while (now_ns() - d0 < static_cast<std::int64_t>(kDrainLimitS * 1e9)) {
    tick(*c);
    check_probe();
    const bool done = c->front->applied_entries() >= total_updates &&
                      c->peer->applied_entries() >= total_updates &&
                      c->front->pending() == 0 && c->peer->pending() == 0 &&
                      outstanding.empty() && wrong_keys() == 0;
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

  // Correctness: both stores hold every key's winning write, every probe
  // was seen, and no read returned a value never written.
  const std::uint64_t wrong = wrong_keys();
  if (!drained) r.fail("drain: stores did not converge within the limit");
  if (wrong > 0) r.note(std::to_string(wrong) + " keys off their winning write");
  r.tally.add(total_updates, wrong);
  r.tally.add(probes_written, outstanding.size());
  r.tally.add(r.get_us.size(), reader.bad + bad_probe_reads);

  const ucw::StoreStats st = c->front->stats();
  const double reads = static_cast<double>(reader.get_us.size());
  const double local = static_cast<double>(st.local_updates);
  r.layer["store.ring_cas_per_update"] =
      local > 0 ? (local - static_cast<double>(st.ring_batch_ops) +
                   static_cast<double>(st.ring_batch_claims)) / local
                : 0.0;
  r.layer["store.get_zero_copy_share"] =
      reads > 0 ? static_cast<double>(st.zero_copy_reads) / reads : 0.0;
  r.layer["store.get_ryw_fallback_share"] =
      reads > 0 ? static_cast<double>(st.ryw_ring_fallbacks) / reads : 0.0;
  const ucw::StoreStats pst = c->peer->stats();
  const double envelopes = static_cast<double>(st.envelopes_sent + pst.envelopes_sent);
  r.layer["store.entries_per_flush"] =
      envelopes > 0 ? static_cast<double>(st.entries_sent + pst.entries_sent) / envelopes
                    : 0.0;
  r.layer["store.log_entries_resident"] = static_cast<double>(
      c->front->log_entries_resident() + c->peer->log_entries_resident());
  c.reset();
  r.rss_mb = peak_rss_mb();
  return r;
}

}  // namespace perfbench
