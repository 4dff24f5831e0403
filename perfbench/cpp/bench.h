// Shared pieces of the serving benchmark: run configuration, the output oracle, the
// benchmark-side span recorder and the accumulators the workloads fill.
//
// Everything here sits outside the storage program: the oracle decides what a correct
// reply is from the writes the clients themselves made, and spans time only the
// benchmark's own calls into the public API (NodeServer, ShardStore, ClusterCoordinator).
// The program's span.*.ticks histograms count virtual-clock ticks, so they are never
// reported as times.

#ifndef PERFBENCH_CPP_BENCH_H_
#define PERFBENCH_CPP_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/lsm/lsm_index.h"

namespace perfbench {

using ss::Bytes;
using ss::ShardId;

// Closed-loop client threads of a measured mix (half of the 4 CPUs the benchmark was
// sized on).
constexpr int kClients = 2;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Self-test sizes: a few hundred keys and ops.
  bool tiny = false;
  // Self-test only: the oracle expects wrong bytes for some keys, so a correct program
  // must fail the run.
  bool corrupt_oracle = false;
  // Scratch root for FileDisk directories. Created and removed by the run.
  std::string work_dir;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

// Mixes a 64-bit value (splitmix64 finalizer).
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Zipfian ranks over [0, n) with a precomputed CDF; ranks are scrambled over the key
// space so the hot keys spread over every disk and every client's write partition.
class ZipfKeys {
 public:
  ZipfKeys(uint64_t n, double theta);
  ShardId Next(ss::Rng& rng) const;

 private:
  uint64_t n_;
  std::vector<double> cdf_;
};

// Output oracle. Every value carries its key and a per-key version in a 16-byte header;
// the rest is a pseudo-random fill derived from (data seed, key, version), so a reply
// can be checked byte for byte. Each key has exactly one writing client, so per key
// there is at most one write in flight and the bookkeeping is exact:
//   issued      - highest version handed to the program (stored before the call)
//   acked       - highest version whose write was acknowledged
//   last_delete - highest version that was a delete (0 = "absent" before any write)
// A read that began when `acked` was F is correct iff it returns a version v with
// F <= v <= issued-at-reply and the exact bytes of (key, v), or "absent" when a delete
// version >= F was issued by the time of the reply.
class Oracle {
 public:
  Oracle(uint64_t data_seed, size_t value_size, uint64_t key_space, bool corrupt);

  // Bytes a writer stores for (key, version).
  Bytes Value(ShardId key, uint64_t version) const;

  // Writer side. BeginWrite returns the version to write.
  uint64_t BeginWrite(ShardId key, bool is_delete);
  void Ack(ShardId key, uint64_t version);
  // Marks a preloaded key as written and acked at version 1.
  void Preloaded(ShardId key);

  // Reader side: the floor to capture before a read starts.
  uint64_t Floor(ShardId key) const;
  // `value` == nullptr means the program replied "absent". On mismatch fills `why`.
  bool Check(ShardId key, uint64_t floor, const Bytes* value, std::string* why) const;
  // Keys whose newest acked write is a put (quiescent use only).
  uint64_t LiveKeys() const;

 private:
  struct KeyState {
    std::atomic<uint64_t> issued{0};
    std::atomic<uint64_t> acked{0};
    std::atomic<uint64_t> last_delete{0};
  };

  Bytes Expected(ShardId key, uint64_t version) const;

  uint64_t data_seed_;
  size_t value_size_;
  uint64_t key_space_;
  bool corrupt_;
  std::unique_ptr<KeyState[]> keys_;
};

// One benchmark-side span: name, start, end, parent and request id.
struct SpanRecord {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Span ids, unique within the process.
inline std::atomic<uint64_t> next_span_id{0};

// Per-thread span buffer (one thread owns it). A disabled buffer makes every
// ScopedSpan a no-op.
class SpanBuffer {
 public:
  explicit SpanBuffer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  static uint64_t NextId() { return next_span_id.fetch_add(1, std::memory_order_relaxed) + 1; }
  void Add(const SpanRecord& rec) { records_.push_back(rec); }
  std::vector<SpanRecord>& records() { return records_; }

 private:
  bool enabled_;
  std::vector<SpanRecord> records_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer& buf, const char* name, uint64_t parent, uint64_t request)
      : buf_(buf.enabled() ? &buf : nullptr) {
    if (buf_ != nullptr) {
      rec_.name = name;
      rec_.id = buf_->NextId();
      rec_.parent = parent;
      rec_.request = request;
      rec_.start_ns = NowNs();
    }
  }
  ~ScopedSpan() {
    if (buf_ != nullptr) {
      rec_.end_ns = NowNs();
      buf_->Add(rec_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return rec_.id; }

 private:
  SpanBuffer* buf_;
  SpanRecord rec_;
};

// What one thread saw during a measured mix or a verification pass. Each thread that
// records gets its own log.
struct ClientLog {
  explicit ClientLog(bool trace) : spans(trace) {}

  std::vector<double> get_us;
  std::vector<double> write_us;
  std::vector<double> scan_us;
  uint64_t ops = 0;
  uint64_t failed = 0;      // refused or errored calls
  uint64_t retries = 0;     // cluster: quorum attempts repeated after "quorum not met"
  uint64_t mismatches = 0;  // oracle mismatches
  uint64_t scanned_items = 0;
  uint64_t acked_puts = 0;
  std::string first_error;
  std::string first_mismatch;
  SpanBuffer spans;

  void Fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) {
      first_error = what;
    }
  }
  void Mismatch(const std::string& what) {
    ++mismatches;
    if (first_mismatch.empty()) {
      first_mismatch = what;
    }
  }
};

// Span times aggregated per span name.
struct SpanTotals {
  uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
};

using Counters = std::map<std::string, uint64_t>;

// Everything one pass over a workload reports. A pass runs several epochs, each on a
// fresh node or cluster.
class RunStats {
 public:
  // Folds a log into the run: latencies, counts, failures and spans.
  void Absorb(ClientLog& log);
  // Adds counter deltas (after - before) under `prefix` + their names.
  void AddDeltas(const Counters& before, const Counters& after, const std::string& prefix = "");
  void AddCount(const std::string& name, double value) { counts_[name] += value; }
  double Count(const std::string& name) const;
  const std::map<std::string, double>& counts() const { return counts_; }
  // A set-up or recovery step failed: the run cannot be trusted.
  void Error(const std::string& what);
  bool Correct() const { return !broken && mismatches == 0 && lost_writes == 0; }

  std::vector<double> get_us, write_us, scan_us;
  std::vector<double> setup_s;     // one per set-up
  std::vector<double> recovery_s;  // one per crash-and-recover cycle (node) or epoch (cluster)
  std::vector<double> write_amp, space_amp;  // one per measured mix
  double mix_seconds = 0;  // wall time of the measured mixes
  double client_seconds = 0;  // summed over the clients of the measured mixes
  uint64_t mix_ops = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t lost_writes = 0;  // acked writes missing or stale after crash and recovery
  bool broken = false;
  std::string first_error;
  std::string first_mismatch;

  std::map<std::string, SpanTotals> span_totals;
  // Spans kept for the dump written at the end (bounded; totals cover every span).
  std::vector<SpanRecord> kept_spans;

 private:
  std::map<std::string, double> counts_;
};

// Exact nearest-rank quantile of `samples` (sorted in place); 0 when empty.
double Quantile(std::vector<double>& samples, double q);
// Middle value, or the mean of the two middle values of an even count; 0 when empty.
double Median(std::vector<double> samples);
double Ratio(double num, double den);
// Peak resident set size of this process in MiB.
double PeakRssMb();
// Total bytes of regular files below `dir` (0 when it does not exist).
uint64_t TreeBytes(const std::string& dir);
// Wall milliseconds of a fixed integer loop: the host's noise floor, timed in every run.
double CpuLoopMs();
// Wall milliseconds of a fixed pointer chase over 8 MiB: the host's noise floor for
// cache- and memory-bound work, which the CPU loop does not see.
double MemChaseMs();
// Whether `dir` is on tmpfs, the only file system write-durable is timed on: its
// FileDisk then writes and fsyncs to memory (see WORKLOADS.md, "Device model").
bool OnTmpfs(const std::string& dir);


// One pass of a workload: `clients` client threads run each measured mix, in every
// epoch of the workload or only in epoch `only_epoch`.
struct PassOptions {
  int clients = kClients;
  bool trace = false;
  int only_epoch = -1;
};

// Each returns the number of epochs the workload has.
int RunNodePass(const RunConfig& config, const PassOptions& pass, RunStats& stats);
int RunClusterPass(const RunConfig& config, const PassOptions& pass, RunStats& stats);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_BENCH_H_
