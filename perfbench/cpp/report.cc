// Oracle, key generator, span aggregation and small measurement helpers.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <unordered_map>

#include <linux/magic.h>
#include <sys/resource.h>
#include <sys/vfs.h>

#include "perfbench/cpp/bench.h"

namespace perfbench {

ZipfKeys::ZipfKeys(uint64_t n, double theta) : n_(n) {
  double norm = 0;
  for (uint64_t i = 1; i <= n; ++i) {
    norm += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  cdf_.reserve(n);
  double acc = 0;
  for (uint64_t i = 1; i <= n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i), theta) / norm;
    cdf_.push_back(acc);
  }
}

ShardId ZipfKeys::Next(ss::Rng& rng) const {
  const double u = rng.NextDouble();
  const uint64_t rank =
      std::min<uint64_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin(), n_ - 1);
  return (rank * 0x9E3779B97F4A7C15ULL) % n_;
}

Oracle::Oracle(uint64_t data_seed, size_t value_size, uint64_t key_space, bool corrupt)
    : data_seed_(data_seed),
      value_size_(value_size),
      key_space_(key_space),
      corrupt_(corrupt),
      keys_(new KeyState[key_space]) {}

namespace {

void PutLe64(uint8_t* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

uint64_t GetLe64(const uint8_t* in) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= uint64_t{in[i]} << (8 * i);
  }
  return v;
}

constexpr size_t kHeaderBytes = 16;
// A corrupted oracle gets the expected bytes of every 64th key wrong. Key 0 is the
// hottest zipfian key, and the read-back after recovery reads every live one.
constexpr ShardId kCorruptEvery = 64;

}  // namespace

Bytes Oracle::Value(ShardId key, uint64_t version) const {
  Bytes out(value_size_);
  PutLe64(out.data(), key);
  PutLe64(out.data() + 8, version);
  uint64_t state = Mix64(data_seed_ ^ Mix64(key) ^ (version * 0xD6E8FEB86659FD93ULL));
  for (size_t i = kHeaderBytes; i < value_size_; i += 8) {
    state = Mix64(state);
    uint8_t word[8];
    PutLe64(word, state);
    std::memcpy(out.data() + i, word, std::min<size_t>(8, value_size_ - i));
  }
  return out;
}

Bytes Oracle::Expected(ShardId key, uint64_t version) const {
  Bytes out = Value(key, version);
  if (corrupt_ && key % kCorruptEvery == 0) {
    out[kHeaderBytes] ^= 0x5a;
  }
  return out;
}

uint64_t Oracle::BeginWrite(ShardId key, bool is_delete) {
  KeyState& k = keys_[key];
  const uint64_t version = k.issued.load() + 1;
  if (is_delete) {
    k.last_delete.store(version);
  }
  k.issued.store(version);
  return version;
}

void Oracle::Ack(ShardId key, uint64_t version) { keys_[key].acked.store(version); }

void Oracle::Preloaded(ShardId key) {
  keys_[key].issued.store(1);
  keys_[key].acked.store(1);
}

uint64_t Oracle::Floor(ShardId key) const { return keys_[key].acked.load(); }

bool Oracle::Check(ShardId key, uint64_t floor, const Bytes* value, std::string* why) const {
  const KeyState& k = keys_[key];
  const uint64_t issued = k.issued.load();
  if (value == nullptr) {
    if (k.last_delete.load() >= floor) {
      return true;
    }
    *why = "key " + std::to_string(key) + ": absent, but version " + std::to_string(floor) +
           " was acked before the read";
    return false;
  }
  if (value->size() != value_size_) {
    *why = "key " + std::to_string(key) + ": value of " + std::to_string(value->size()) +
           " bytes";
    return false;
  }
  const uint64_t got_key = GetLe64(value->data());
  const uint64_t version = GetLe64(value->data() + 8);
  if (got_key != key) {
    *why = "key " + std::to_string(key) + ": value belongs to key " + std::to_string(got_key);
    return false;
  }
  if (version < floor || version > issued) {
    *why = "key " + std::to_string(key) + ": version " + std::to_string(version) +
           " outside [" + std::to_string(floor) + ", " + std::to_string(issued) + "]";
    return false;
  }
  if (*value != Expected(key, version)) {
    *why = "key " + std::to_string(key) + ": bytes of version " + std::to_string(version) +
           " differ from the expected value";
    return false;
  }
  return true;
}

uint64_t Oracle::LiveKeys() const {
  uint64_t live = 0;
  for (uint64_t key = 0; key < key_space_; ++key) {
    const KeyState& k = keys_[key];
    live += k.acked.load() > 0 && k.last_delete.load() != k.acked.load() ? 1 : 0;
  }
  return live;
}

void RunStats::Absorb(ClientLog& log) {
  const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(get_us, log.get_us);
  append(write_us, log.write_us);
  append(scan_us, log.scan_us);
  attempted += log.ops;
  failed += log.failed;
  mismatches += log.mismatches;
  counts_["bench.scanned_items"] += static_cast<double>(log.scanned_items);
  counts_["bench.quorum_retries"] += static_cast<double>(log.retries);
  if (first_error.empty() && !log.first_error.empty()) {
    first_error = log.first_error;
  }
  if (first_mismatch.empty() && !log.first_mismatch.empty()) {
    first_mismatch = log.first_mismatch;
  }
  // Self time = duration minus the time covered by the span's children. Within one
  // log, children end (and are appended) before their parent.
  std::unordered_map<uint64_t, int64_t> child_ns;
  constexpr size_t kKeptSpanLimit = 200000;
  for (const SpanRecord& rec : log.spans.records()) {
    const int64_t dur = rec.end_ns - rec.start_ns;
    int64_t covered = 0;
    if (auto it = child_ns.find(rec.id); it != child_ns.end()) {
      covered = it->second;
      child_ns.erase(it);
    }
    if (rec.parent != 0) {
      child_ns[rec.parent] += dur;
    }
    SpanTotals& t = span_totals[rec.name];
    ++t.count;
    t.total_us += static_cast<double>(dur) / 1e3;
    t.self_us += static_cast<double>(dur - covered) / 1e3;
    if (kept_spans.size() < kKeptSpanLimit) {
      kept_spans.push_back(rec);
    }
  }
  log.spans.records().clear();
}

void RunStats::AddDeltas(const std::map<std::string, uint64_t>& before,
                         const std::map<std::string, uint64_t>& after,
                         const std::string& prefix) {
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    const uint64_t base = it == before.end() ? 0 : it->second;
    counts_[prefix + name] += static_cast<double>(value - base);
  }
}

double RunStats::Count(const std::string& name) const {
  auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

void RunStats::Error(const std::string& what) {
  broken = true;
  if (first_error.empty()) {
    first_error = what;
  }
}

double Quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid] : (samples[mid - 1] + samples[mid]) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // reported in KiB
}

uint64_t TreeBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  if (!fs::exists(dir, ec)) {
    return 0;
  }
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      total += entry.file_size(ec);
    }
  }
  return total;
}

bool OnTmpfs(const std::string& dir) {
  struct statfs fs {};
  return statfs(dir.c_str(), &fs) == 0 && fs.f_type == TMPFS_MAGIC;
}

double CpuLoopMs() {
  // Median of five passes of a fixed dependent integer chain. Each pass's result is
  // stored through a volatile, so the compiler cannot drop the work.
  constexpr uint64_t kIterations = 20'000'000;
  static volatile uint64_t sink = 1;
  std::vector<double> passes;
  for (int pass = 0; pass < 5; ++pass) {
    uint64_t state = sink;
    const int64_t t0 = NowNs();
    for (uint64_t i = 0; i < kIterations; ++i) {
      state = Mix64(state);
    }
    sink = state;
    passes.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  return Median(passes);
}

double MemChaseMs() {
  // One walk of a random cycle through 2Mi slots (8 MiB): every load depends on the
  // one before, so the walk times the last-level cache, the TLB and memory, not the ALU.
  constexpr size_t kSlots = size_t{1} << 21;
  std::vector<uint32_t> next(kSlots);
  for (size_t i = 0; i < kSlots; ++i) {
    next[i] = static_cast<uint32_t>(i);
  }
  uint64_t state = 0x5eed;
  for (size_t i = kSlots - 1; i > 0; --i) {  // Sattolo's shuffle: a single cycle
    state = Mix64(state);
    std::swap(next[i], next[state % i]);
  }
  static volatile uint32_t sink = 0;
  uint32_t at = 0;
  const int64_t t0 = NowNs();
  for (size_t i = 0; i < kSlots; ++i) {
    at = next[at];
  }
  const double ms = static_cast<double>(NowNs() - t0) / 1e6;
  sink = at;
  return ms;
}

}  // namespace perfbench
