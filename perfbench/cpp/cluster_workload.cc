// cluster-quorum: a five-member quorum cluster (N=3, R=2, W=2) over a lossy simulated
// network, with one member crashed and restarted on a fixed op schedule. The data set
// fits the members' buffer caches. See perfbench/WORKLOADS.md.
//
// The tier never reclaims, so one cluster takes a capped number of operations; a pass
// runs several epochs, each on a fresh cluster.

#include <atomic>
#include <string>
#include <vector>

#include "perfbench/cpp/bench.h"
#include "src/cluster/coordinator.h"
#include "src/sync/sync.h"

namespace perfbench {
namespace {

using ss::cluster::ClusterCoordinator;

constexpr int kMembers = 5;
constexpr uint64_t kWindow = 16;
// Quorum attempts per client operation. A quorum that cannot be met is retried, as an
// S3 front end retries a storage request; an operation fails only when every attempt
// failed.
constexpr int kQuorumAttempts = 4;

struct ClusterParams {
  uint64_t keys = 256;
  size_t value_size = 512;
  uint32_t get_pct = 50;
  uint64_t ops_per_epoch = 0;   // over all clients; below extent exhaustion
  int epochs_per_10s = 0;       // epochs scale with --seconds
  uint64_t crash_period = 0;    // ops between member crashes; restart half-way
  uint64_t tick_every = 0;      // ops between Tick() rounds
  uint32_t sweep_passes = 0;    // passes of 16-key window reads after recovery
  uint32_t outages = 0;         // member outages recovered after the mix, per epoch
  ss::DiskGeometry geometry;
};

ClusterParams ParamsFor(const RunConfig& config) {
  ClusterParams p;
  p.ops_per_epoch = 20000;
  p.epochs_per_10s = 14;
  p.crash_period = 2000;
  p.tick_every = 100;
  p.sweep_passes = 16;
  p.outages = 4;
  p.geometry = ss::DiskGeometry{.extent_count = 512, .pages_per_extent = 64, .page_size = 256};
  if (config.tiny) {
    p.keys = 64;
    p.ops_per_epoch = 300;
    p.crash_period = 200;
    p.tick_every = 25;
    p.sweep_passes = 2;
    p.outages = 2;
    p.geometry.extent_count = 128;
  }
  return p;
}

// Flat {"name":number,...} counter block that follows `anchor` in `json`.
std::map<std::string, uint64_t> CounterBlock(const std::string& json, const std::string& anchor) {
  std::map<std::string, uint64_t> out;
  size_t at = json.find(anchor);
  if (at == std::string::npos) {
    return out;
  }
  at = json.find("\"counters\":{", at);
  if (at == std::string::npos) {
    return out;
  }
  at += std::string("\"counters\":{").size();
  while (at < json.size() && json[at] == '"') {
    const size_t name_end = json.find('"', at + 1);
    const std::string name = json.substr(at + 1, name_end - at - 1);
    char* num_end = nullptr;
    out[name] = std::strtoull(json.c_str() + name_end + 2, &num_end, 10);
    at = static_cast<size_t>(num_end - json.c_str());
    if (at < json.size() && json[at] == ',') {
      ++at;
    }
  }
  return out;
}

// Coordinator counters plus the members' counters aggregated (prefixed "node.").
Counters ClusterCounters(ClusterCoordinator& cluster) {
  Counters out = cluster.MetricsSnapshot().counters;
  for (const auto& [name, value] :
       CounterBlock(cluster.ClusterSnapshotJson(), "\"nodes_aggregated\":")) {
    out["node." + name] = value;
  }
  return out;
}

// One epoch: fresh cluster, preload, measured mix, outage recovery with read-backs,
// window reads.
class ClusterEpoch {
 public:
  ClusterEpoch(const RunConfig& config, const ClusterParams& params, const PassOptions& pass,
               uint64_t epoch_seed, RunStats& stats)
      : p_(params),
        pass_(pass),
        epoch_seed_(epoch_seed),
        stats_(stats),
        oracle_(Mix64(epoch_seed ^ 0xda7a), params.value_size, params.keys,
                config.corrupt_oracle) {}

  bool Setup() {
    const int64_t t0 = NowNs();
    ss::cluster::ClusterOptions options;
    options.initial_nodes = kMembers;
    options.replication = 3;
    options.read_quorum = 2;
    options.write_quorum = 2;
    options.net.drop_rate = 0.01;
    options.net.rng_seed = Mix64(epoch_seed_ ^ 0x4e7);
    options.node.disk_count = 2;
    options.node.geometry = p_.geometry;
    options.node.store.lsm.memtable_flush_entries = 256;
    options.node.store.lsm.level0_compaction_trigger = 4;
    auto created = ClusterCoordinator::Create(options);
    if (!created.ok()) {
      stats_.Error("create cluster: " + created.status().ToString());
      return false;
    }
    cluster_ = std::move(created).value();
    before_setup_ = ClusterCounters(*cluster_);
    for (ShardId key = 0; key < p_.keys; ++key) {
      bool acked = false;
      for (int attempt = 0; attempt < 8 && !acked; ++attempt) {
        const uint64_t version = oracle_.BeginWrite(key, false);
        const Bytes value = oracle_.Value(key, version);
        if (cluster_->Put(key, ss::ByteSpan(value)).ok()) {
          oracle_.Ack(key, version);
          acked = true;
        }
      }
      if (!acked) {
        stats_.Error("preload of key " + std::to_string(key) + " never reached quorum");
        return false;
      }
    }
    stats_.setup_s.push_back(SecondsSince(t0));
    return true;
  }

  void Mix() {
    const Counters before = ClusterCounters(*cluster_);
    std::vector<std::unique_ptr<ClientLog>> logs;
    for (int c = 0; c < pass_.clients; ++c) {
      logs.push_back(std::make_unique<ClientLog>(pass_.trace));
    }
    const uint64_t ops_per_client = p_.ops_per_epoch / kClients;
    total_ops_ = ops_per_client * pass_.clients;
    const int64_t t0 = NowNs();
    {
      std::vector<ss::Thread> threads;
      for (int c = 0; c < pass_.clients; ++c) {
        threads.push_back(ss::Thread::Spawn(
            [this, c, ops_per_client, &logs] { Client(c, ops_per_client, *logs[c]); }));
      }
      for (ss::Thread& t : threads) {
        t.Join();
      }
    }
    const double seconds = SecondsSince(t0);
    const Counters after = ClusterCounters(*cluster_);
    stats_.AddDeltas(before, after);
    uint64_t acked_puts = 0;
    for (auto& log : logs) {
      stats_.mix_ops += log->ops;
      acked_puts += log->acked_puts;
      stats_.Absorb(*log);
    }
    stats_.mix_seconds += seconds;
    stats_.client_seconds += seconds * pass_.clients;
    stats_.AddCount("bench.acked_puts", static_cast<double>(acked_puts));
    // Pages the members appended: every enqueued IO record is one page-sized write,
    // plus the extra pages of coalesced data records.
    const auto pages = [](const Counters& a, const Counters& b) {
      const auto get = [](const Counters& m, const char* name) {
        auto it = m.find(name);
        return it == m.end() ? uint64_t{0} : it->second;
      };
      return static_cast<double>(get(b, "node.io.enqueued") - get(a, "node.io.enqueued") +
                                 get(b, "node.io.coalesced_pages") -
                                 get(a, "node.io.coalesced_pages"));
    };
    const double page = p_.geometry.page_size;
    stats_.write_amp.push_back(
        Ratio(pages(before, after) * page, static_cast<double>(acked_puts * p_.value_size)));
    // Nothing in the cluster tier reclaims, so every page appended since creation is
    // still allocated.
    stats_.space_amp.push_back(Ratio(pages(before_setup_, after) * page,
                                     static_cast<double>(oracle_.LiveKeys() * p_.value_size)));
  }

  // Recovery after member outages. The first outage is the member the mix left down;
  // each later one crashes another member and puts every key once while it is down.
  // Each recovery runs from the restart until every hint and pending move has drained,
  // the failure detector reports every member healthy, and every key has been read back
  // through the quorum and checked. The epoch's recovery_s sample is the sum over its
  // outages: one drain alone replays ~170 hints in about 5 ms, too short to time
  // steadily, and outages of different members take different times.
  void RecoverOutages() {
    ClientLog log(pass_.trace);
    double seconds = 0;
    for (uint32_t outage = 0; outage < p_.outages && !stats_.broken; ++outage) {
      if (outage > 0) {
        WaitHealthy();
        (void)cluster_->CrashNode(static_cast<int>(outage % kMembers));
        for (ShardId key = 0; key < p_.keys; ++key) {
          ++log.ops;
          QuorumPut(key, log, "cluster.outage_put", 0, 0);
        }
      }
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(log.spans, "cluster.restart_drain", 0, 0);
        for (int id = 0; id < kMembers; ++id) {
          if (cluster_->net().Crashed(id)) {
            (void)cluster_->RestartNode(id);
          }
        }
        int ticks = 0;
        while (cluster_->HintCount() > 0 || cluster_->PendingKeyCount() > 0) {
          ScopedSpan tick(log.spans, "cluster.drain_tick", span.id(), 0);
          cluster_->Tick();
          if (++ticks > 10000) {
            stats_.Error("hints never drained after the restart");
            return;
          }
        }
      }
      WaitHealthy();
      for (ShardId key = 0; key < p_.keys && !stats_.broken; ++key) {
        ++log.ops;
        VerifyGet(key, log);
      }
      seconds += SecondsSince(t0);
    }
    stats_.recovery_s.push_back(seconds);
    stats_.Absorb(log);
  }

  // 16-key window reads: the tier has no range scan, so a listing of 16 keys is 16
  // quorum Gets. Only the window latencies are kept.
  void Sweep() {
    std::vector<std::unique_ptr<ClientLog>> logs;
    for (int c = 0; c < pass_.clients; ++c) {
      logs.push_back(std::make_unique<ClientLog>(pass_.trace));
    }
    const uint64_t windows = p_.keys / kWindow;
    {
      std::vector<ss::Thread> threads;
      for (int c = 0; c < pass_.clients; ++c) {
        threads.push_back(ss::Thread::Spawn([this, c, windows, &logs] {
          ClientLog& log = *logs[c];
          uint64_t request = 0;
          for (uint32_t sweep = 0; sweep < p_.sweep_passes; ++sweep) {
            for (uint64_t w = c; w < windows; w += pass_.clients) {
              ScopedSpan op(log.spans, "cluster.window_read", 0, ++request);
              ++log.ops;
              const int64_t t0 = NowNs();
              for (ShardId key = w * kWindow; key < (w + 1) * kWindow; ++key) {
                CheckedGet(key, log, "cluster.window_get", op.id(), request, nullptr);
              }
              log.scan_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
              log.scanned_items += kWindow;
            }
          }
        }));
      }
      for (ss::Thread& t : threads) {
        t.Join();
      }
    }
    for (auto& log : logs) {
      stats_.Absorb(*log);
    }
  }

 private:
  void Client(int c, uint64_t ops, ClientLog& log) {
    ss::Rng rng(Mix64(epoch_seed_ ^ (0x51ed + uint64_t(c))));
    const uint64_t own_keys = p_.keys / pass_.clients;
    for (uint64_t i = 0; i < ops; ++i) {
      const uint64_t request = i + 1;
      ScopedSpan op(log.spans, "client.op", 0, request);
      Maintenance(next_op_.fetch_add(1), log, op.id(), request);
      if (rng.Below(100) < p_.get_pct) {
        ++log.ops;
        CheckedGet(rng.Below(p_.keys), log, "cluster.get", op.id(), request, &log.get_us);
        continue;
      }
      const ShardId key = rng.Below(own_keys) * pass_.clients + c;
      ++log.ops;
      const int64_t t0 = NowNs();
      const bool acked = QuorumPut(key, log, "cluster.put", op.id(), request);
      log.write_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      log.acked_puts += acked ? 1 : 0;
    }
  }

  // Puts a new version of `key` (only its own client writes it), one attempt per span,
  // until a write quorum acks it. True when acked; otherwise the operation failed.
  bool QuorumPut(ShardId key, ClientLog& log, const char* span_name, uint64_t parent,
                 uint64_t request) {
    ss::cluster::QuorumResult put;
    for (int attempt = 0; attempt < kQuorumAttempts; ++attempt) {
      log.retries += attempt > 0 ? 1 : 0;
      const uint64_t version = oracle_.BeginWrite(key, false);
      const Bytes value = oracle_.Value(key, version);
      {
        ScopedSpan span(log.spans, span_name, parent, request);
        put = cluster_->Put(key, ss::ByteSpan(value));
      }
      if (put.ok()) {
        oracle_.Ack(key, version);
        return true;
      }
    }
    log.Fail("cluster put of key " + std::to_string(key) + " in " +
             std::to_string(kQuorumAttempts) + " attempts: " + put.status.ToString());
    return false;
  }

  // Ticks until the failure detector reports every member healthy again (untimed).
  void WaitHealthy() {
    for (int round = 0; round < 1000; ++round) {
      bool healthy = true;
      for (int id = 0; id < kMembers; ++id) {
        healthy = healthy && cluster_->HealthOf(id) == ss::cluster::NodeHealth::kHealthy;
      }
      if (healthy) {
        return;
      }
      cluster_->Tick();
    }
    stats_.Error("a restarted member never became healthy again");
  }

  // The fixed op schedule: crash member k at op k*P, restart it at k*P + P/2 (except in
  // the last period, where RecoverOutages restarts it), and Tick() every tick_every ops.
  void Maintenance(uint64_t g, ClientLog& log, uint64_t parent, uint64_t request) {
    if (g > 0 && g % p_.crash_period == 0) {
      ScopedSpan span(log.spans, "cluster.crash", parent, request);
      (void)cluster_->CrashNode(static_cast<int>((g / p_.crash_period) % kMembers));
    } else if (g > p_.crash_period && g % p_.crash_period == p_.crash_period / 2 &&
               g + p_.crash_period / 2 < total_ops_) {
      ScopedSpan span(log.spans, "cluster.restart", parent, request);
      (void)cluster_->RestartNode(static_cast<int>((g / p_.crash_period) % kMembers));
    }
    if (g > 0 && g % p_.tick_every == 0) {
      ScopedSpan span(log.spans, "cluster.tick", parent, request);
      cluster_->Tick();
    }
  }

  // Read-back of one key after a recovery. A Get that finds no read quorum is retried;
  // a key that never gets a reply counts as a lost write, like a wrong one.
  void VerifyGet(ShardId key, ClientLog& log) {
    const uint64_t floor = oracle_.Floor(key);
    for (int attempt = 0; attempt < kQuorumAttempts; ++attempt) {
      ss::cluster::QuorumResult got = [&] {
        ScopedSpan span(log.spans, "cluster.verify_get", 0, 0);
        return cluster_->Get(key);
      }();
      if (!got.ok()) {
        continue;
      }
      std::string why;
      if (!oracle_.Check(key, floor, got.found ? &got.value : nullptr, &why)) {
        ++stats_.lost_writes;
        log.Mismatch("after recovery: cluster get " + why);
      }
      return;
    }
    ++stats_.lost_writes;
    log.Mismatch("after recovery: no read quorum for key " + std::to_string(key) + " in " +
                 std::to_string(kQuorumAttempts) + " attempts");
  }

  // One quorum Get checked by the oracle, one attempt per span until a read quorum
  // replies; its latency over all attempts lands in `latencies` when given.
  void CheckedGet(ShardId key, ClientLog& log, const char* span_name, uint64_t parent,
                  uint64_t request, std::vector<double>* latencies) {
    const uint64_t floor = oracle_.Floor(key);
    const int64_t t0 = NowNs();
    ss::cluster::QuorumResult got;
    for (int attempt = 0; attempt < kQuorumAttempts; ++attempt) {
      log.retries += attempt > 0 ? 1 : 0;
      {
        ScopedSpan span(log.spans, span_name, parent, request);
        got = cluster_->Get(key);
      }
      if (got.ok()) {
        break;
      }
    }
    if (latencies != nullptr) {
      latencies->push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    std::string why;
    if (!got.ok()) {
      log.Fail("cluster get of key " + std::to_string(key) + " in " +
               std::to_string(kQuorumAttempts) + " attempts: " + got.status.ToString());
    } else if (!oracle_.Check(key, floor, got.found ? &got.value : nullptr, &why)) {
      log.Mismatch("cluster get " + why);
    }
  }

  const ClusterParams& p_;
  const PassOptions& pass_;
  uint64_t epoch_seed_;
  RunStats& stats_;
  Oracle oracle_;
  std::unique_ptr<ClusterCoordinator> cluster_;
  Counters before_setup_;
  uint64_t total_ops_ = 0;
  std::atomic<uint64_t> next_op_{0};
};

}  // namespace

int RunClusterPass(const RunConfig& config, const PassOptions& pass, RunStats& stats) {
  const ClusterParams p = ParamsFor(config);
  const int epochs = config.tiny ? 2 : std::max(1, p.epochs_per_10s * config.seconds / 10);
  for (int e = 0; e < epochs && !stats.broken; ++e) {
    if (pass.only_epoch >= 0 && e != pass.only_epoch) {
      continue;
    }
    ClusterEpoch epoch(config, p, pass, Mix64(config.seed * 1000 + static_cast<uint64_t>(e)),
                       stats);
    if (!epoch.Setup()) {
      break;
    }
    epoch.Mix();
    epoch.RecoverOutages();
    epoch.Sweep();
  }
  return epochs;
}

}  // namespace perfbench
