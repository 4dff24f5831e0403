// The two single-node workloads: read-zipf (in-memory disks, lookup-bound) and
// write-durable (FileDisk, barrier-bound). See perfbench/WORKLOADS.md for why each
// exists and how it is sized.
//
// Writers own disks: client c writes, barriers and reclaims only the keys whose disk d
// (NodeServer::DiskFor) has d % clients == c, while its Gets and Scans draw from the
// whole key space. Every disk then sees one writer's operations in one order, so the
// same seed gives the same program counts on every run.
//
// A pass runs a few epochs, each on a fresh node built from the epoch's seed: set-up,
// measured mix, scan sweep, crash and recovery, read-back. Every set-up is timed and
// every mix is measured, so no set-up is thrown away, and the state a mix builds up
// (LSM runs, used extents) stays within what one node's disks hold.

#include <filesystem>
#include <string>
#include <vector>

#include "perfbench/cpp/bench.h"
#include "src/disk/file_disk.h"
#include "src/rpc/node_server.h"
#include "src/sync/sync.h"

namespace perfbench {
namespace {

using ss::NodeServer;

constexpr uint64_t kScanWindow = 16;
constexpr int kDisks = 4;
constexpr size_t kPreloadBatch = 64;  // keys per PutBatch in the set-up

struct NodeParams {
  bool file_backend = false;
  uint64_t keys = 0;  // preloaded keys (key space)
  size_t value_size = 1024;
  // Mix, in percent; the scan share is the remainder.
  uint32_t get_pct = 0;
  uint32_t put_pct = 0;
  uint32_t delete_pct = 0;
  // Zipfian keys for gets, scans and writes; otherwise uniform writes over the client's
  // own keys and read-your-write gets of the key it wrote last.
  bool zipf = false;
  int epochs = 3;
  // Fixed operation budget per client and second of --seconds, over all epochs.
  uint64_t ops_per_client_second = 0;
  // Writes landed on a disk between two ReclaimAny calls on it, made by its owner.
  uint64_t reclaim_every = 0;
  uint64_t preload_barrier = 0;  // preloaded keys between FlushAllDisks barriers
  // A pass of 16-key scans over the whole key space after every part of the mix, for
  // a workload whose mix has no scans.
  bool sweep = false;
  // Parts of each epoch's mix; a crash-and-recover cycle follows every part.
  int segments = 5;
  ss::DiskGeometry geometry;
};

NodeParams ParamsFor(const RunConfig& config) {
  NodeParams p;
  if (config.workload == "read-zipf") {
    p.keys = 16384;
    p.get_pct = 89;
    p.put_pct = 5;
    p.zipf = true;
    p.ops_per_client_second = 7000;
    p.reclaim_every = 256;
    p.preload_barrier = 1024;
    p.epochs = 6;
    p.segments = 3;
    p.geometry = ss::DiskGeometry{.extent_count = 2048, .pages_per_extent = 64, .page_size = 256};
  } else {
    p.file_backend = true;
    p.keys = 2048;
    p.get_pct = 70;
    p.put_pct = 26;
    p.delete_pct = 4;
    p.ops_per_client_second = 9000;
    p.reclaim_every = 32;
    p.preload_barrier = 512;
    p.sweep = true;
    p.epochs = 18;
    p.segments = 2;
    p.geometry = ss::DiskGeometry{.extent_count = 1024, .pages_per_extent = 64, .page_size = 256};
  }
  if (config.tiny) {
    p.keys = 512;
    p.preload_barrier = 256;
    p.epochs = 2;
    p.reclaim_every = std::min<uint64_t>(p.reclaim_every, 8);
    p.segments = 2;
    p.geometry.extent_count = 256;
  }
  return p;
}

Counters NodeCounters(NodeServer& node, const std::string& dir) {
  Counters out = node.MetricsSnapshot().counters;
  uint64_t fsyncs = 0;
  for (int d = 0; d < node.disk_count(); ++d) {
    if (auto* file = dynamic_cast<ss::FileDisk*>(&node.disk(d))) {
      fsyncs += file->fsync_count();
    }
  }
  out["disk.fsyncs"] = fsyncs;
  out["disk.file_bytes"] = dir.empty() ? 0 : TreeBytes(dir);
  return out;
}

// One epoch: a fresh node, set-up, measured mix, sweep, crash and recovery, read-back.
class NodeEpoch {
 public:
  NodeEpoch(const RunConfig& config, const NodeParams& params, const PassOptions& pass,
            uint64_t epoch_seed, const ZipfKeys& zipf, RunStats& stats)
      : config_(config),
        p_(params),
        pass_(pass),
        epoch_seed_(epoch_seed),
        dir_(params.file_backend ? config.work_dir + "/node" : ""),
        stats_(stats),
        oracle_(Mix64(epoch_seed ^ 0xda7a), params.value_size, params.keys + kScanWindow,
                config.corrupt_oracle),
        zipf_(zipf) {}
  ~NodeEpoch() { Teardown(); }
  NodeEpoch(const NodeEpoch&) = delete;
  NodeEpoch& operator=(const NodeEpoch&) = delete;

  // Creates and preloads the node; false when that failed (recorded in stats).
  bool Setup() {
    if (p_.file_backend) {
      std::filesystem::create_directories(dir_);
    }
    const int64_t t0 = NowNs();
    ss::NodeServerOptions options;
    options.disk_count = kDisks;
    options.geometry = p_.geometry;
    options.store.lsm.memtable_flush_entries = 256;
    options.store.lsm.level0_compaction_trigger = 4;
    if (p_.file_backend) {
      options.disk_backend = ss::DiskBackendConfig{.kind = ss::DiskBackendKind::kFile,
                                                   .file_root = dir_};
    }
    auto created = NodeServer::Create(options);
    if (!created.ok()) {
      stats_.Error("create node: " + created.status().ToString());
      return false;
    }
    node_ = std::move(created).value();
    const Counters before = NodeCounters(*node_, dir_);
    std::vector<std::pair<ShardId, Bytes>> batch;
    std::vector<ss::Dependency> deps;
    const auto barrier = [&]() {
      ss::Status flushed = node_->FlushAllDisks();
      if (!flushed.ok()) {
        stats_.Error("preload barrier: " + flushed.ToString());
        return false;
      }
      for (const ss::Dependency& dep : deps) {
        if (!dep.IsPersistent()) {
          stats_.Error("preload write not persistent after the barrier");
          return false;
        }
      }
      deps.clear();
      return true;
    };
    for (ShardId key = 0; key < p_.keys; ++key) {
      batch.emplace_back(key, oracle_.Value(key, 1));
      if (batch.size() == kPreloadBatch || key + 1 == p_.keys) {
        ss::BatchResult result = node_->PutBatch(batch);
        if (!result.all_ok()) {
          stats_.Error("preload batch failed");
          return false;
        }
        deps.push_back(result.dep);
        batch.clear();
      }
      if (((key + 1) % p_.preload_barrier == 0 || key + 1 == p_.keys) && !barrier()) {
        return false;
      }
    }
    stats_.setup_s.push_back(SecondsSince(t0));
    stats_.AddDeltas(before, NodeCounters(*node_, dir_), "setup.");
    for (ShardId key = 0; key < p_.keys; ++key) {
      oracle_.Preloaded(key);
    }
    // The write partition: each key belongs to the client that owns its disk.
    owner_.assign(p_.keys, 0);
    own_keys_.assign(pass_.clients, {});
    for (ShardId key = 0; key < p_.keys; ++key) {
      owner_[key] = node_->DiskFor(key) % pass_.clients;
      own_keys_[owner_[key]].push_back(key);
    }
    return true;
  }

  // Measured closed-loop mix of `pass_.clients` threads, `ops` operations each, in
  // `segments` parts. Between two parts the clients stop, the scan sweep runs if the
  // workload has one, and every disk is crashed and recovered: that spreads the
  // scan_p50_us and recovery_s samples over the whole run, as the mix is, and checks
  // durability while the node serves. Only the parts count as mix time.
  void Mix(uint64_t ops) {
    std::vector<std::unique_ptr<ClientState>> clients;
    for (int c = 0; c < pass_.clients; ++c) {
      clients.push_back(std::make_unique<ClientState>(pass_.trace,
                                                      Mix64(epoch_seed_ ^ (0x51ed + uint64_t(c))),
                                                      own_keys_[c].front(), kDisks));
    }
    ClientLog recovery_log(pass_.trace);
    std::vector<std::unique_ptr<ClientLog>> sweep_logs;
    for (int c = 0; c < pass_.clients; ++c) {
      sweep_logs.push_back(std::make_unique<ClientLog>(pass_.trace));
    }
    double device_bytes = 0;
    for (int segment = 0; segment < p_.segments; ++segment) {
      const uint64_t part = ops * (segment + 1) / p_.segments - ops * segment / p_.segments;
      const Counters before = NodeCounters(*node_, dir_);
      const int64_t t0 = NowNs();
      {
        std::vector<ss::Thread> threads;
        for (int c = 0; c < pass_.clients; ++c) {
          threads.push_back(
              ss::Thread::Spawn([this, c, part, &clients] { Client(c, part, *clients[c]); }));
        }
        for (ss::Thread& t : threads) {
          t.Join();
        }
      }
      const double seconds = SecondsSince(t0);
      const Counters after = NodeCounters(*node_, dir_);
      stats_.AddDeltas(before, after);
      stats_.mix_seconds += seconds;
      stats_.client_seconds += seconds * pass_.clients;
      const auto delta = [&](const char* name) {
        return static_cast<double>(after.at(name) - before.at(name));
      };
      // Device bytes: what the FileDisk appended to its logs, or for in-memory disks
      // every issued IO record as one page plus the extra pages of coalesced records.
      device_bytes += p_.file_backend ? delta("disk.file_bytes")
                                      : (delta("io.issued") + delta("io.coalesced_pages")) *
                                            p_.geometry.page_size;
      if (p_.sweep) {
        Sweep(sweep_logs);
      }
      if (segment + 1 < p_.segments && !RecoverCycle(segment, recovery_log)) {
        break;
      }
    }
    stats_.Absorb(recovery_log);
    for (auto& log : sweep_logs) {
      stats_.Absorb(*log);
    }
    uint64_t acked_puts = 0;
    for (auto& client : clients) {
      stats_.mix_ops += client->log.ops;
      acked_puts += client->log.acked_puts;
      stats_.AddCount("bench.mix_scanned_items", static_cast<double>(client->log.scanned_items));
      stats_.Absorb(client->log);
    }
    stats_.AddCount("bench.acked_puts", static_cast<double>(acked_puts));
    stats_.write_amp.push_back(
        Ratio(device_bytes, static_cast<double>(acked_puts * p_.value_size)));
    uint64_t live_pages = 0;
    uint64_t runs = 0;
    for (int d = 0; d < node_->disk_count(); ++d) {
      live_pages += node_->disk(d).LivePages();
      if (auto store = node_->store(d)) {
        runs += store->index().RunCount();
      }
    }
    const double live_bytes = static_cast<double>(oracle_.LiveKeys() * p_.value_size);
    stats_.space_amp.push_back(
        Ratio(static_cast<double>(live_pages * p_.geometry.page_size), live_bytes));
    stats_.AddCount("end.live_pages", static_cast<double>(live_pages));
    stats_.AddCount("end.total_pages", static_cast<double>(node_->disk_count()) *
                                           p_.geometry.extent_count *
                                           p_.geometry.pages_per_extent);
    stats_.AddCount("end.runs", static_cast<double>(runs));
    stats_.AddCount("bench.epochs", 1);
  }

  // Quiescent scan sweep: every client scans its share of the 16-key windows.
  void Sweep(std::vector<std::unique_ptr<ClientLog>>& logs) {
    const uint64_t windows = p_.keys / kScanWindow;
    std::vector<ss::Thread> threads;
    for (int c = 0; c < pass_.clients; ++c) {
      threads.push_back(ss::Thread::Spawn([this, c, windows, &logs] {
        ClientLog& log = *logs[c];
        for (uint64_t w = c; w < windows; w += pass_.clients) {
          ScanOnce(w * kScanWindow, log, "bench.sweep_scan", 0, 0);
        }
      }));
    }
    for (ss::Thread& t : threads) {
      t.Join();
    }
  }

  // After the mix: one more crash-and-recover cycle, then every key is read back.
  void RecoverAndVerify() {
    ClientLog log(pass_.trace);
    if (!RecoverCycle(p_.segments, log)) {
      stats_.Absorb(log);
      return;
    }
    for (ShardId key = 0; key < p_.keys; ++key) {
      ++log.ops;
      auto got = node_->Get(key);
      std::string why;
      bool ok = false;
      if (got.ok()) {
        ok = oracle_.Check(key, oracle_.Floor(key), &got.value().value, &why);
      } else if (got.code() == ss::StatusCode::kNotFound) {
        ok = oracle_.Check(key, oracle_.Floor(key), nullptr, &why);
      } else {
        why = "key " + std::to_string(key) + ": " + got.status().ToString();
      }
      if (!ok) {
        ++stats_.lost_writes;
        log.Mismatch("after recovery: " + why);
      }
    }
    stats_.Absorb(log);
  }

  void Teardown() {
    node_.reset();
    if (p_.file_backend) {
      std::filesystem::remove_all(dir_);
    }
  }

 private:
  // What a client carries from one part of the mix to the next.
  struct ClientState {
    ClientState(bool trace, uint64_t seed, ShardId first_key, int disks)
        : log(trace), rng(seed), last_written(first_key), unreclaimed(disks, 0) {}
    ClientLog log;
    ss::Rng rng;
    ShardId last_written;
    // Writes landed on each disk this client owns since its last ReclaimAny there.
    std::vector<uint64_t> unreclaimed;
    uint64_t requests = 0;
  };

  // Crashes and recovers every disk; one recovery_s sample. False when it failed.
  bool RecoverCycle(int cycle, ClientLog& log) {
    const int64_t t0 = NowNs();
    for (int d = 0; d < node_->disk_count(); ++d) {
      ScopedSpan span(log.spans, "rpc.crash_recover", 0, 0);
      const uint64_t crash_seed = Mix64(epoch_seed_ ^ (0xc0ffee + 16 * cycle + uint64_t(d)));
      ss::Status status = node_->CrashAndRecoverDisk(d, crash_seed);
      if (!status.ok()) {
        stats_.Error("crash and recover disk " + std::to_string(d) + ": " + status.ToString());
        return false;
      }
    }
    stats_.recovery_s.push_back(SecondsSince(t0));
    return true;
  }

  // Closed-loop client: each op waits for its reply and, for writes, the barrier.
  void Client(int c, uint64_t ops, ClientState& state) {
    ClientLog& log = state.log;
    ss::Rng& rng = state.rng;
    const std::vector<ShardId>& own = own_keys_[c];
    ShardId& last_written = state.last_written;
    std::vector<uint64_t>& unreclaimed = state.unreclaimed;
    for (uint64_t i = 0; i < ops; ++i) {
      const uint64_t request = ++state.requests;
      ScopedSpan op(log.spans, "client.op", 0, request);
      const uint64_t roll = rng.Below(100);
      if (roll < p_.get_pct) {
        GetOnce(p_.zipf ? zipf_.Next(rng) : last_written, log, op.id(), request);
      } else if (roll < p_.get_pct + p_.put_pct + p_.delete_pct) {
        ShardId key = 0;
        if (p_.zipf) {
          do {
            key = zipf_.Next(rng);
          } while (owner_[key] != c);
        } else {
          key = own[rng.Below(own.size())];
        }
        const bool is_delete = roll >= p_.get_pct + p_.put_pct;
        const int disk = WriteOnce(c, key, is_delete, log, op.id(), request);
        if (disk < 0) {
          continue;
        }
        last_written = key;
        if (++unreclaimed[disk] == p_.reclaim_every) {
          unreclaimed[disk] = 0;
          ScopedSpan span(log.spans, "kv.reclaim_any", op.id(), request);
          ss::Status reclaimed = node_->store(disk)->ReclaimAny();
          if (!reclaimed.ok()) {
            log.Fail("reclaim disk " + std::to_string(disk) + ": " + reclaimed.ToString());
          }
        }
      } else {
        ScanOnce(p_.zipf ? zipf_.Next(rng) : rng.Below(p_.keys), log, "rpc.scan", op.id(),
                 request);
      }
    }
  }

  void GetOnce(ShardId key, ClientLog& log, uint64_t parent, uint64_t request) {
    ++log.ops;
    const uint64_t floor = oracle_.Floor(key);
    const int64_t t0 = NowNs();
    ss::Result<ss::GetResult> got = [&] {
      ScopedSpan span(log.spans, "rpc.get", parent, request);
      return node_->Get(key);
    }();
    log.get_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    std::string why;
    if (got.ok()) {
      if (!oracle_.Check(key, floor, &got.value().value, &why)) {
        log.Mismatch("get " + why);
      }
    } else if (got.code() == ss::StatusCode::kNotFound) {
      if (!oracle_.Check(key, floor, nullptr, &why)) {
        log.Mismatch("get " + why);
      }
    } else {
      log.Fail("get: " + got.status().ToString());
    }
  }

  // Put or Delete, then the barrier of the disk it landed on; acked only when the
  // write's dependency is persistent. Returns that disk, or -1 when the write failed.
  int WriteOnce(int c, ShardId key, bool is_delete, ClientLog& log, uint64_t parent,
                uint64_t request) {
    ++log.ops;
    const uint64_t version = oracle_.BeginWrite(key, is_delete);
    const Bytes value = is_delete ? Bytes{} : oracle_.Value(key, version);
    const int64_t t0 = NowNs();
    ss::Dependency dep;
    ss::Status status;
    int disk = -1;
    if (is_delete) {
      ScopedSpan span(log.spans, "rpc.delete", parent, request);
      auto deleted = node_->Delete(key);
      status = deleted.status();
      if (deleted.ok()) {
        dep = deleted.value().dep;
        disk = deleted.value().disk;
      }
    } else {
      ScopedSpan span(log.spans, "rpc.put", parent, request);
      auto put = node_->Put(key, ss::ByteSpan(value));
      status = put.status();
      if (put.ok()) {
        dep = put.value().dep;
        disk = put.value().disk;
      }
    }
    if (status.ok() && disk % pass_.clients != c) {
      status = ss::Status::Internal("write landed on disk " + std::to_string(disk) +
                                    ", which another client owns");
    }
    if (status.ok()) {
      ScopedSpan span(log.spans, "kv.flush_all", parent, request);
      status = node_->store(disk)->FlushAll();
    }
    const bool persistent = status.ok() && dep.IsPersistent();
    log.write_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (!persistent) {
      log.Fail(std::string(is_delete ? "delete" : "put") + " of key " + std::to_string(key) +
               (status.ok() ? ": not persistent after the barrier" : ": " + status.ToString()));
      return -1;
    }
    oracle_.Ack(key, version);
    log.acked_puts += is_delete ? 0 : 1;
    return disk;
  }

  // One 16-key Scan, checked by the oracle. The sweep's scans get their own span name,
  // so that share.rpc.scan counts only the measured mix.
  void ScanOnce(ShardId start, ClientLog& log, const char* span_name, uint64_t parent,
                uint64_t request) {
    ++log.ops;
    const ShardId end = start + kScanWindow;
    uint64_t floors[kScanWindow];
    for (uint64_t i = 0; i < kScanWindow; ++i) {
      floors[i] = oracle_.Floor(start + i);
    }
    const int64_t t0 = NowNs();
    ss::Result<ss::ScanResult> scanned = [&] {
      ScopedSpan span(log.spans, span_name, parent, request);
      return node_->Scan(start, end);
    }();
    log.scan_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (!scanned.ok()) {
      log.Fail("scan: " + scanned.status().ToString());
      return;
    }
    const std::vector<ss::ScanItem>& items = scanned.value().items;
    log.scanned_items += items.size();
    size_t next = 0;
    std::string why;
    for (ShardId key = start; key < end; ++key) {
      const Bytes* value = nullptr;
      if (next < items.size() && items[next].id == key) {
        value = &items[next].value;
        ++next;
      }
      if (!oracle_.Check(key, floors[key - start], value, &why)) {
        log.Mismatch("scan " + why);
        return;
      }
    }
    if (next != items.size()) {
      log.Mismatch("scan returned keys outside its window or out of order");
    }
  }

  const RunConfig& config_;
  const NodeParams& p_;
  const PassOptions& pass_;
  uint64_t epoch_seed_;
  std::string dir_;
  RunStats& stats_;
  Oracle oracle_;
  const ZipfKeys& zipf_;
  std::unique_ptr<NodeServer> node_;
  std::vector<int> owner_;                   // writing client of each key
  std::vector<std::vector<ShardId>> own_keys_;  // keys of each client
};

}  // namespace

int RunNodePass(const RunConfig& config, const PassOptions& pass, RunStats& stats) {
  const NodeParams p = ParamsFor(config);
  const ZipfKeys zipf(p.keys, 0.99);
  const uint64_t ops = config.tiny ? 150 : p.ops_per_client_second * config.seconds / p.epochs;
  for (int e = 0; e < p.epochs && !stats.broken; ++e) {
    if (pass.only_epoch >= 0 && e != pass.only_epoch) {
      continue;
    }
    NodeEpoch epoch(config, p, pass, Mix64(config.seed * 1000 + static_cast<uint64_t>(e)), zipf,
                    stats);
    if (!epoch.Setup()) {
      break;
    }
    epoch.Mix(ops);
    epoch.RecoverAndVerify();
  }
  return p.epochs;
}

}  // namespace perfbench
