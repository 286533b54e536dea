#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "util/assert.hpp"
#include "util/table.hpp"

namespace ucw::obs {

// ---------------------------------------------------------------------------
// Percentiles / LatencySummary

double exact_percentile(const std::vector<double>& sorted, double q) {
  UCW_CHECK(!sorted.empty());
  UCW_CHECK(q >= 0.0 && q <= 100.0);
  if (sorted.size() == 1) return sorted.front();
  const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

void LatencySummary::add(double sample) {
  samples_.push_back(sample);
  sum_ += sample;
  sum_sq_ += sample * sample;
  sorted_valid_ = false;
}

void LatencySummary::merge(const LatencySummary& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
  sorted_valid_ = false;
}

double LatencySummary::mean() const {
  UCW_CHECK(!samples_.empty());
  return sum_ / static_cast<double>(samples_.size());
}

double LatencySummary::stddev() const {
  UCW_CHECK(!samples_.empty());
  const double n = static_cast<double>(samples_.size());
  const double m = sum_ / n;
  const double var = std::max(0.0, sum_sq_ / n - m * m);
  return std::sqrt(var);
}

void LatencySummary::ensure_sorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double LatencySummary::min() const {
  UCW_CHECK(!samples_.empty());
  ensure_sorted();
  return sorted_.front();
}

double LatencySummary::max() const {
  UCW_CHECK(!samples_.empty());
  ensure_sorted();
  return sorted_.back();
}

double LatencySummary::percentile(double q) const {
  ensure_sorted();
  return exact_percentile(sorted_, q);
}

std::string LatencySummary::summary() const {
  std::ostringstream os;
  if (samples_.empty()) {
    os << "n=0";
    return os.str();
  }
  os << "n=" << count() << " mean=" << mean() << " p50=" << percentile(50)
     << " p99=" << percentile(99) << " max=" << max();
  return os.str();
}

// ---------------------------------------------------------------------------
// LogHistogram

namespace {

// v == 0 → bucket 0; otherwise the bit width, so bucket b covers
// [2^(b-1), 2^b).
std::size_t bucket_of(std::uint64_t v) {
  std::size_t b = 0;
  while (v != 0) {
    ++b;
    v >>= 1;
  }
  return b;
}

double bucket_lo(std::size_t b) {
  return b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b) - 1);
}

double bucket_hi(std::size_t b) {
  return b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b));
}

}  // namespace

void LogHistogram::record(std::uint64_t value) {
  buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

void LogHistogram::merge(const LogHistogramSnapshot& other) {
  for (std::size_t b = 0; b < kLogBuckets; ++b)
    if (other.buckets[b] != 0)
      buckets_[b].fetch_add(other.buckets[b], std::memory_order_relaxed);
  count_.fetch_add(other.count, std::memory_order_relaxed);
  sum_.fetch_add(other.sum, std::memory_order_relaxed);
}

LogHistogramSnapshot LogHistogram::snapshot() const {
  LogHistogramSnapshot s;
  for (std::size_t b = 0; b < kLogBuckets; ++b)
    s.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

double LogHistogramSnapshot::mean() const {
  return count == 0 ? 0.0
                    : static_cast<double>(sum) / static_cast<double>(count);
}

std::uint64_t LogHistogramSnapshot::max_bound() const {
  for (std::size_t b = kLogBuckets; b-- > 0;)
    if (buckets[b] != 0)
      return b == 0 ? 0
                    : (b >= 64 ? ~std::uint64_t{0}
                               : (std::uint64_t{1} << b) - 1);
  return 0;
}

double LogHistogramSnapshot::percentile(double q) const {
  UCW_CHECK(q >= 0.0 && q <= 100.0);
  if (count == 0) return 0.0;
  // Find the bucket the rank falls into, then interpolate linearly
  // inside its [lo, hi) range by the rank's offset into the bucket.
  const double rank = q / 100.0 * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kLogBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const double before = static_cast<double>(seen);
    seen += buckets[b];
    if (static_cast<double>(seen) >= rank) {
      if (b == 0) return 0.0;
      const double frac =
          std::clamp((rank - before) / static_cast<double>(buckets[b]), 0.0,
                     1.0);
      return bucket_lo(b) + frac * (bucket_hi(b) - bucket_lo(b));
    }
  }
  return static_cast<double>(max_bound());
}

std::string LogHistogramSnapshot::summary() const {
  std::ostringstream os;
  if (count == 0) {
    os << "n=0";
    return os.str();
  }
  os << "n=" << count << " mean=" << mean() << " p50=" << percentile(50)
     << " p99=" << percentile(99) << " max<=" << max_bound();
  return os.str();
}

// ---------------------------------------------------------------------------
// Tracing

const char* trace_event_name(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kUpdateStamp: return "update_stamp";
    case TraceEventKind::kApplyLocal: return "apply_local";
    case TraceEventKind::kBatchFlush: return "batch_flush";
    case TraceEventKind::kDeliver: return "deliver";
    case TraceEventKind::kApplyRemote: return "apply_remote";
    case TraceEventKind::kAckHeartbeat: return "ack_heartbeat";
    case TraceEventKind::kGcFold: return "gc_fold";
    case TraceEventKind::kSyncRequest: return "sync_request";
    case TraceEventKind::kSyncServe: return "sync_serve";
    case TraceEventKind::kSnapshotInstall: return "snapshot_install";
    case TraceEventKind::kAeRequest: return "ae_request";
    case TraceEventKind::kAeServe: return "ae_serve";
    case TraceEventKind::kAeInstall: return "ae_install";
    case TraceEventKind::kAeAdopt: return "ae_adopt";
    case TraceEventKind::kPartitionCut: return "partition_cut";
    case TraceEventKind::kPartitionDrop: return "partition_drop";
    case TraceEventKind::kPartitionHeal: return "partition_heal";
    case TraceEventKind::kFloorLag: return "floor_lag";
    case TraceEventKind::kReplicationLag: return "replication_lag";
    case TraceEventKind::kViewStaleness: return "view_staleness";
  }
  return "unknown";
}

std::vector<TraceEvent> TraceRing::snapshot() const {
  const std::uint64_t head = recorded();
  const std::uint64_t n =
      std::min<std::uint64_t>(head, static_cast<std::uint64_t>(buf_.size()));
  std::vector<TraceEvent> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = head - n; i < head; ++i)
    out.push_back(buf_[i & mask_]);
  return out;
}

Tracer::Tracer(std::uint32_t pid, std::size_t tracks,
               std::size_t ring_capacity_pow2, TraceNowFn now, void* now_ctx)
    : pid_(pid), now_(now), now_ctx_(now_ctx) {
  UCW_CHECK(tracks >= 1);
  rings_.reserve(tracks);
  for (std::size_t t = 0; t < tracks; ++t)
    rings_.push_back(std::make_unique<TraceRing>(ring_capacity_pow2));
  // Pin the wall-clock epoch now so tracers created at different times
  // share one timeline.
  (void)default_now_us();
}

std::uint64_t Tracer::dropped_total() const {
  std::uint64_t n = 0;
  for (const auto& r : rings_) n += r->dropped();
  return n;
}

double Tracer::default_now_us() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------
// Chrome trace export

namespace {

void write_json_event(std::ostream& os, bool& first, const char* name,
                      const char* ph, std::uint32_t pid, std::uint16_t tid,
                      double ts, const TraceEvent* args, const char* scope) {
  if (!first) os << ",\n";
  first = false;
  os << "{\"name\":\"" << name << "\",\"ph\":\"" << ph << "\",\"pid\":" << pid
     << ",\"tid\":" << tid << ",\"ts\":" << std::fixed << std::setprecision(3)
     << ts;
  if (scope != nullptr) os << ",\"s\":\"" << scope << "\"";
  if (args != nullptr) {
    if (args->phase == TracePhase::kCounter)
      os << ",\"args\":{\"value\":" << args->a << "}";
    else
      os << ",\"args\":{\"a\":" << args->a << ",\"b\":" << args->b << "}";
  }
  os << "}";
}

void write_metadata(std::ostream& os, bool& first, const char* kind,
                    std::uint32_t pid, std::uint16_t tid,
                    const std::string& value) {
  if (!first) os << ",\n";
  first = false;
  os << "{\"name\":\"" << kind << "\",\"ph\":\"M\",\"pid\":" << pid
     << ",\"tid\":" << tid << ",\"args\":{\"name\":\"" << value << "\"}}";
}

}  // namespace

void write_chrome_trace(std::ostream& os,
                        const std::vector<const Tracer*>& tracers) {
  os << "{\"traceEvents\":[\n";
  bool first = true;
  for (const Tracer* tr : tracers) {
    if (tr == nullptr) continue;
    write_metadata(os, first, "process_name", tr->pid(), 0,
                   "proc " + std::to_string(tr->pid()));
    for (std::size_t t = 0; t < tr->tracks(); ++t) {
      write_metadata(os, first, "thread_name", tr->pid(),
                     static_cast<std::uint16_t>(t),
                     t == 0 ? std::string("router/clients")
                            : "worker " + std::to_string(t - 1));
      const std::vector<TraceEvent> events = tr->ring(t).snapshot();
      // Span repair: ring overwrites can leave an "E" whose "B" was
      // lost, or (mid-run snapshots) a "B" with no "E". Walk in ring
      // order with a per-kind stack and keep only matched pairs.
      std::vector<char> keep(events.size(), 1);
      std::vector<std::size_t> open;  // indices of pending kBegin
      for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent& e = events[i];
        if (e.phase == TracePhase::kBegin) {
          open.push_back(i);
        } else if (e.phase == TracePhase::kEnd) {
          if (!open.empty() && events[open.back()].kind == e.kind) {
            open.pop_back();
          } else {
            keep[i] = 0;  // orphaned end
          }
        }
      }
      for (std::size_t i : open) keep[i] = 0;  // unclosed begins
      for (std::size_t i = 0; i < events.size(); ++i) {
        if (!keep[i]) continue;
        const TraceEvent& e = events[i];
        const char* name = trace_event_name(e.kind);
        const auto tid = static_cast<std::uint16_t>(t);
        switch (e.phase) {
          case TracePhase::kBegin:
            write_json_event(os, first, name, "B", tr->pid(), tid, e.ts_us,
                             &e, nullptr);
            break;
          case TracePhase::kEnd:
            write_json_event(os, first, name, "E", tr->pid(), tid, e.ts_us,
                             nullptr, nullptr);
            break;
          case TracePhase::kInstant:
            write_json_event(os, first, name, "i", tr->pid(), tid, e.ts_us,
                             &e, "t");
            break;
          case TracePhase::kCounter:
            write_json_event(os, first, name, "C", tr->pid(), tid, e.ts_us,
                             &e, nullptr);
            break;
        }
      }
    }
  }
  os << "\n]}\n";
}

// ---------------------------------------------------------------------------
// MetricsRegistry

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

LogHistogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<LogHistogram>();
  return *slot;
}

void MetricsRegistry::write_json(std::ostream& os, int indent) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string pad2 = pad + "  ";
  os << "{\n";
  os << pad2 << "\"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "" : ", ") << "\"" << name << "\": " << c->value();
    first = false;
  }
  os << "},\n" << pad2 << "\"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "" : ", ") << "\"" << name << "\": " << g->value();
    first = false;
  }
  os << "},\n" << pad2 << "\"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    const LogHistogramSnapshot s = h->snapshot();
    os << (first ? "" : ", ") << "\"" << name << "\": {\"count\": " << s.count
       << ", \"sum\": " << s.sum << ", \"mean\": " << s.mean()
       << ", \"p50\": " << s.percentile(50) << ", \"p99\": " << s.percentile(99)
       << ", \"max_bound\": " << s.max_bound() << ", \"buckets\": {";
    bool bfirst = true;
    for (std::size_t b = 0; b < kLogBuckets; ++b) {
      if (s.buckets[b] == 0) continue;
      os << (bfirst ? "" : ", ") << "\"" << b << "\": " << s.buckets[b];
      bfirst = false;
    }
    os << "}}";
    first = false;
  }
  os << "}\n" << pad << "}";
}

// ---------------------------------------------------------------------------
// Report

namespace {

bool any_recovery(const std::vector<StoreStats>& per) {
  for (const StoreStats& s : per)
    if (s.gc_folded != 0 || s.gc_runs != 0 || s.acks_sent != 0 ||
        s.sync_requests_sent != 0 || s.sync_requests_served != 0 ||
        s.snapshots_installed != 0 || s.snapshots_served != 0 ||
        s.entries_dropped_crash != 0 || s.acks_dropped_crash != 0)
      return true;
  return false;
}

bool any_anti_entropy(const std::vector<StoreStats>& per) {
  for (const StoreStats& s : per)
    if (s.stream_gaps_detected != 0 || s.ae_rounds_started != 0 ||
        s.ae_rounds_served != 0 || s.ae_rounds_completed != 0)
      return true;
  return false;
}

}  // namespace

void print_observability(std::ostream& os, const Report& report) {
  std::vector<StoreStats> per;
  per.reserve(report.processes.size());
  for (const ProcessReport& p : report.processes) per.push_back(p.store);

  print_store_table(os, per, report.net);
  print_saturation_line(os, per);
  if (any_recovery(per)) print_recovery_table(os, per);
  if (any_anti_entropy(per)) print_anti_entropy_table(os, per);

  if (report.show_shards) {
    for (std::size_t p = 0; p < report.processes.size(); ++p) {
      os << "shards, process " << p << ":\n";
      print_shard_table(os, report.processes[p].shards);
    }
  }

  bool any_lag = false;
  for (const ProcessReport& p : report.processes)
    any_lag = any_lag || !p.replication_lag.empty() || p.view_staleness != 0;
  if (any_lag) {
    TextTable t({"process", "repl lag n", "lag mean", "lag p50", "lag p99",
                 "lag max<=", "floor lag", "view staleness"});
    for (std::size_t p = 0; p < report.processes.size(); ++p) {
      const ProcessReport& pr = report.processes[p];
      const LogHistogramSnapshot& lag = pr.replication_lag;
      t.add(p, lag.count, lag.mean(), lag.percentile(50), lag.percentile(99),
            lag.max_bound(), pr.floor_lag, pr.view_staleness);
    }
    t.print(os);
  }

  // Every kind of silent loss, in one place. "none" is worth a line:
  // it says the run really was lossless, not that nobody checked.
  std::uint64_t env_crash = 0, ent_crash = 0, ack_crash = 0, trace_drop = 0;
  std::uint64_t history_drop = 0;
  for (const ProcessReport& p : report.processes) {
    env_crash += p.store.envelopes_dropped_crash;
    ent_crash += p.store.entries_dropped_crash;
    ack_crash += p.store.acks_dropped_crash;
    trace_drop += p.trace_events_dropped;
    history_drop += p.history_records_dropped;
  }
  const std::uint64_t total = env_crash + ent_crash + ack_crash + trace_drop +
                              history_drop +
                              report.net.messages_dropped_crash +
                              report.net.messages_dropped_partition;
  if (total == 0) {
    os << "losses: none\n";
  } else {
    os << "losses: " << ent_crash << " entries + " << env_crash
       << " envelopes + " << ack_crash << " acks dropped at crash, "
       << report.net.messages_dropped_crash << " messages dropped at crash, "
       << report.net.messages_dropped_partition
       << " messages dropped at partitions, " << trace_drop
       << " trace events overwritten, " << history_drop
       << " history records dropped\n";
  }
}

void fill_registry(MetricsRegistry& reg, const ProcessReport& proc) {
  const StoreStats& s = proc.store;
  const auto c = [&reg](const char* name, std::uint64_t v) {
    reg.counter(name).add(v);
  };
  c("local_updates", s.local_updates);
  c("remote_entries", s.remote_entries);
  c("duplicate_entries", s.duplicate_entries);
  c("queries", s.queries);
  c("published_reads", s.published_reads);
  c("ring_reads", s.ring_reads);
  c("inbox_deliveries", s.inbox_deliveries);
  c("ring_batch_claims", s.ring_batch_claims);
  c("ring_batch_ops", s.ring_batch_ops);
  c("zero_copy_reads", s.zero_copy_reads);
  c("ryw_ring_fallbacks", s.ryw_ring_fallbacks);
  c("worker_parks", s.worker_parks);
  c("worker_wakes", s.worker_wakes);
  c("envelopes_sent", s.envelopes_sent);
  c("entries_sent", s.entries_sent);
  c("flushes_full", s.flushes_full);
  c("flushes_manual", s.flushes_manual);
  c("bytes_batched", s.bytes_batched);
  c("bytes_unbatched", s.bytes_unbatched);
  c("gc_runs", s.gc_runs);
  c("gc_folded", s.gc_folded);
  c("acks_sent", s.acks_sent);
  c("sync_requests_sent", s.sync_requests_sent);
  c("sync_requests_served", s.sync_requests_served);
  c("sync_retries", s.sync_retries);
  c("syncs_completed", s.syncs_completed);
  c("snapshots_served", s.snapshots_served);
  c("snapshots_installed", s.snapshots_installed);
  c("snapshot_entries_served", s.snapshot_entries_served);
  c("snapshot_bytes_served", s.snapshot_bytes_served);
  c("catchup_keys", s.catchup_keys);
  c("catchup_entries", s.catchup_entries);
  c("snapshot_keys_served", s.snapshot_keys_served);
  c("snapshot_keys_skipped_delta", s.snapshot_keys_skipped_delta);
  c("stream_gaps_detected", s.stream_gaps_detected);
  c("ae_rounds_started", s.ae_rounds_started);
  c("ae_rounds_served", s.ae_rounds_served);
  c("ae_rounds_completed", s.ae_rounds_completed);
  c("ae_snapshots_installed", s.ae_snapshots_installed);
  c("ae_entries_installed", s.ae_entries_installed);
  c("ae_entries_served", s.ae_entries_served);
  c("ae_entries_skipped_covered", s.ae_entries_skipped_covered);
  c("ae_bytes_served", s.ae_bytes_served);
  c("trace_events_recorded", proc.trace_events_recorded);
  c("history_records_captured", proc.history_records_captured);
  // Canonical loss counters: every way this process can silently shed
  // data, under one `dropped_` prefix.
  c("dropped_envelopes_crash", s.envelopes_dropped_crash);
  c("dropped_entries_crash", s.entries_dropped_crash);
  c("dropped_acks_crash", s.acks_dropped_crash);
  c("dropped_trace_events", proc.trace_events_dropped);
  c("dropped_history_records", proc.history_records_dropped);

  reg.gauge("stability_floor").set(static_cast<std::int64_t>(s.stability_floor));
  reg.gauge("stability_floor_lag")
      .set(static_cast<std::int64_t>(s.stability_floor_lag));
  reg.gauge("published_view_staleness")
      .set(static_cast<std::int64_t>(proc.view_staleness));
  // Mean ops amortized per multi-slot ring CAS (rounded down; 0 when
  // nothing batched) — the saturation bench's CAS-per-op input.
  if (s.ring_batch_claims > 0) {
    reg.gauge("ring_ops_per_claim")
        .set(static_cast<std::int64_t>(s.ring_batch_ops /
                                       s.ring_batch_claims));
  }

  reg.histogram("replication_lag").merge(proc.replication_lag);
}

void export_metrics_json(std::ostream& os, const Report& report) {
  os << "{\n  \"processes\": [\n";
  for (std::size_t p = 0; p < report.processes.size(); ++p) {
    MetricsRegistry reg;
    fill_registry(reg, report.processes[p]);
    os << "    {\"pid\": " << p << ", \"metrics\": ";
    reg.write_json(os, 4);
    os << "}" << (p + 1 < report.processes.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"net\": ";
  MetricsRegistry net;
  net.counter("messages_sent").add(report.net.messages_sent);
  net.counter("broadcasts").add(report.net.broadcasts);
  net.counter("messages_delivered").add(report.net.messages_delivered);
  net.counter("messages_held_partition").add(report.net.messages_held_partition);
  net.counter("messages_duplicated").add(report.net.messages_duplicated);
  net.counter("restarts").add(report.net.restarts);
  net.counter("dropped_messages_crash").add(report.net.messages_dropped_crash);
  net.counter("dropped_messages_partition")
      .add(report.net.messages_dropped_partition);
  net.counter("dropped_messages_escalation")
      .add(report.net.messages_dropped_escalation);
  net.write_json(os, 2);
  os << "\n}\n";
}

}  // namespace ucw::obs
