// ssbench: runs one serving workload against the storage node or the cluster tier and
// prints one JSON result line.
//
//   ssbench --workload read-zipf|write-durable|cluster-quorum --seed N
//           --seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]
//   ssbench --selftest --work-dir DIR
//
// --trace 0 runs one untraced pass and reports the end-to-end metrics. --trace 1 runs
// three passes of a third of the epochs each on the same seed (untraced, traced, and
// untraced with one client), records benchmark-side spans around every call the traced
// pass makes into the program, and reports the per-layer metrics (spans go to
// --trace-out). write-durable's --work-dir must be on tmpfs, where its FileDisk is
// timed (run.py mounts one). The operation count is fixed by the workload and
// --seconds, so a faster build does the same work in less time.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/cpp/bench.h"

namespace perfbench {
namespace {

constexpr const char* kWorkloads[] = {"read-zipf", "write-durable", "cluster-quorum"};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

bool IsCluster(const RunConfig& config) { return config.workload == "cluster-quorum"; }

int RunPass(const RunConfig& config, const PassOptions& pass, RunStats& stats) {
  return IsCluster(config) ? RunClusterPass(config, pass, stats)
                           : RunNodePass(config, pass, stats);
}

double Throughput(const RunStats& stats) {
  return Ratio(static_cast<double>(stats.mix_ops), stats.mix_seconds);
}

std::vector<Metric> EndToEnd(RunStats& stats) {
  return {
      {"setup_s", Median(stats.setup_s), "s"},
      {"throughput_ops_s", Throughput(stats), "1/s"},
      {"get_p50_us", Quantile(stats.get_us, 0.50), "us"},
      {"write_p50_us", Quantile(stats.write_us, 0.50), "us"},
      {"scan_p50_us", Quantile(stats.scan_us, 0.50), "us"},
      {"write_amp", Median(stats.write_amp), "ratio"},
      {"space_amp", Median(stats.space_amp), "ratio"},
      {"recovery_s", Median(stats.recovery_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
}

// Per-layer metrics of a traced pass. Program counters are deltas over the measured
// mix (setup.* over the set-up); `node` prefixes the storage-stack counters ("node."
// on the cluster, whose members' registries are aggregated). Every ratio comes with its
// base (base.*). A layer a workload does not reach reports 0 with a 0 base.
std::vector<Metric> PerLayer(RunStats& stats, bool cluster, double client_scaling,
                             double trace_overhead) {
  const std::string node = cluster ? "node." : "";
  const auto c = [&](const std::string& name) { return stats.Count(name); };
  const auto n = [&](const std::string& name) { return stats.Count(node + name); };
  const auto span = [&](const std::string& name) -> const SpanTotals& {
    static const SpanTotals kNone;
    auto it = stats.span_totals.find(name);
    return it == stats.span_totals.end() ? kNone : it->second;
  };
  const auto self_us = [&](const std::string& name) {
    return Ratio(span(name).self_us, static_cast<double>(span(name).count));
  };
  const auto mean_us = [&](const std::string& name) {
    return Ratio(span(name).total_us, static_cast<double>(span(name).count));
  };
  const double client_us = stats.client_seconds * 1e6;
  const auto share = [&](const std::string& name) { return Ratio(span(name).total_us, client_us); };
  const double gets = static_cast<double>(stats.get_us.size());
  const double writes = static_cast<double>(stats.write_us.size());
  const double scans = static_cast<double>(stats.scan_us.size());
  const double reads = gets + c("bench.mix_scanned_items");
  const double ops = static_cast<double>(stats.mix_ops);
  const double barriers = static_cast<double>(span("kv.flush_all").count);
  const double cache_lookups = n("cache.hits") + n("cache.misses");
  const double absent_probes = n("lsm.bloom.false_positive") + n("lsm.bloom.miss");
  const double reclaim_chunks = n("chunk.evacuated") + n("chunk.dropped");
  const double setup_applies = c("setup.store.batch.applies");
  const double setup_items = c("setup.store.batch.items");
  const double cluster_ops = cluster ? ops : 0;
  const double cluster_gets = cluster ? gets : 0;
  const double cluster_writes = cluster ? writes : 0;
  const double node_writes = cluster ? 0 : writes;
  return {
      {"rpc.get.us", self_us("rpc.get"), "us"},
      {"rpc.put.us", self_us("rpc.put"), "us"},
      {"rpc.delete.us", self_us("rpc.delete"), "us"},
      {"rpc.scan.us", self_us("rpc.scan"), "us"},
      {"rpc.scan.items_per_scan", Ratio(c("bench.scanned_items"), cluster ? 0 : scans),
       "ratio"},
      {"rpc.crash_recover.us", self_us("rpc.crash_recover"), "us"},
      {"kv.flush_all.us", self_us("kv.flush_all"), "us"},
      {"kv.reclaim_any.us", self_us("kv.reclaim_any"), "us"},
      {"kv.reclaim_any.calls", static_cast<double>(span("kv.reclaim_any").count), "count"},
      {"kv.batch.items_per_apply", Ratio(setup_items, setup_applies), "ratio"},
      {"lsm.runs_probed_per_get",
       Ratio(n("lsm.bloom.hit") + n("lsm.bloom.miss") + n("lsm.bloom.false_positive"),
             n("lsm.gets")),
       "ratio"},
      {"lsm.bloom.fp_rate", Ratio(n("lsm.bloom.false_positive"), absent_probes), "ratio"},
      {"lsm.runs_end", Ratio(c("end.runs"), c("bench.epochs")), "count"},
      {"lsm.flushes_per_kwrite", Ratio(1000 * n("lsm.flushes"), writes), "ratio"},
      {"lsm.level_compactions_per_kwrite", Ratio(1000 * n("lsm.level_compactions"), writes),
       "ratio"},
      {"lsm.metadata_writes_per_kwrite", Ratio(1000 * n("lsm.metadata_writes"), writes), "ratio"},
      {"chunk.gets_per_read", Ratio(n("chunk.gets"), reads), "ratio"},
      {"chunk.puts_per_write", Ratio(n("chunk.puts"), writes), "ratio"},
      {"chunk.reclaim.live_frac", Ratio(n("chunk.evacuated"), reclaim_chunks), "ratio"},
      {"cache.hit_rate", Ratio(n("cache.hits"), cache_lookups), "ratio"},
      {"cache.evictions_per_read", Ratio(n("cache.evictions"), reads), "ratio"},
      {"cache.invalidated_per_kwrite", Ratio(1000 * n("cache.invalidated_pages"), writes),
       "ratio"},
      {"extent.batch_soft_wp_updates_per_item",
       Ratio(c("setup.extent.batch.soft_wp_updates"), setup_items), "ratio"},
      {"extent.used_frac_end", Ratio(c("end.live_pages"), c("end.total_pages")), "ratio"},
      {"io.records_per_barrier", Ratio(n("io.issued"), barriers), "ratio"},
      {"io.enqueued_per_write", Ratio(n("io.enqueued"), writes), "ratio"},
      {"io.coalesced_frac",
       Ratio(n("io.coalesced_pages"), n("io.enqueued") + n("io.coalesced_pages")), "ratio"},
      {"disk.fsyncs_per_write", Ratio(c("disk.fsyncs"), node_writes), "ratio"},
      {"disk.bytes_appended_per_write", Ratio(c("disk.file_bytes"), node_writes), "B"},
      {"cluster.get.us", self_us("cluster.get"), "us"},
      {"cluster.put.us", self_us("cluster.put"), "us"},
      {"cluster.net.msgs_per_op",
       Ratio(c("cluster.net.delivered") + c("cluster.net.dropped"), cluster_ops), "ratio"},
      {"cluster.rpc.retries_per_kop", Ratio(1000 * c("cluster.rpc.retries"), cluster_ops),
       "ratio"},
      {"cluster.client_retries_per_kop", Ratio(1000 * c("bench.quorum_retries"), cluster_ops),
       "ratio"},
      {"cluster.hints.stored_per_kwrite", Ratio(1000 * c("cluster.hints.stored"), cluster_writes),
       "ratio"},
      {"cluster.hints.replayed", c("cluster.hints.replayed"), "count"},
      {"cluster.tick.us", self_us("cluster.tick"), "us"},
      {"cluster.read_repairs_per_kget", Ratio(1000 * c("cluster.read_repairs"), cluster_gets),
       "ratio"},
      {"cluster.degraded_frac", Ratio(c("cluster.write.degraded"), cluster_writes), "ratio"},
      {"cluster.restart_drain.us", mean_us("cluster.restart_drain"), "us"},
      {"sync.client_scaling", client_scaling, "ratio"},
      {"tail.get_p99_us", Quantile(stats.get_us, 0.99), "us"},
      {"tail.write_p99_us", Quantile(stats.write_us, 0.99), "us"},
      {"tail.scan_p99_us", Quantile(stats.scan_us, 0.99), "us"},
      {"share.rpc.get", share("rpc.get"), "ratio"},
      {"share.rpc.put", share("rpc.put"), "ratio"},
      {"share.rpc.delete", share("rpc.delete"), "ratio"},
      {"share.rpc.scan", share("rpc.scan"), "ratio"},
      {"share.kv.flush_all", share("kv.flush_all"), "ratio"},
      {"share.kv.reclaim_any", share("kv.reclaim_any"), "ratio"},
      {"share.cluster.get", share("cluster.get"), "ratio"},
      {"share.cluster.put", share("cluster.put"), "ratio"},
      {"share.cluster.tick", share("cluster.tick"), "ratio"},
      {"share.cluster.crash_restart",
       Ratio(span("cluster.crash").total_us + span("cluster.restart").total_us, client_us),
       "ratio"},
      {"share.bench.client_self", Ratio(span("client.op").self_us, client_us), "ratio"},
      {"bench.client_self.us", self_us("client.op"), "us"},
      {"trace_overhead_frac", trace_overhead, "ratio"},
      {"base.ops", ops, "count"},
      {"base.gets", gets, "count"},
      {"base.writes", writes, "count"},
      {"base.scans", scans, "count"},
      {"base.reads", reads, "count"},
      {"base.barriers", barriers, "count"},
      {"base.lsm_gets", n("lsm.gets"), "count"},
      {"base.cache_lookups", cache_lookups, "count"},
      {"base.bloom_absent_probes", absent_probes, "count"},
      {"base.reclaim_chunks", reclaim_chunks, "count"},
      {"base.setup_batch_applies", setup_applies, "count"},
      {"base.setup_batch_items", setup_items, "count"},
      {"base.total_pages_end", c("end.total_pages"), "count"},
      {"base.epochs", c("bench.epochs"), "count"},
      {"base.client_us", client_us, "us"},
  };
}

void WriteSpans(const RunStats& stats, const std::string& path) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  for (const SpanRecord& s : stats.kept_spans) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

// Creates `dir` or empties it. It may be a mount point, so it is never removed itself.
void ClearDir(const std::string& dir) {
  std::filesystem::create_directories(dir);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::filesystem::remove_all(entry.path());
  }
}

// Human-readable summary of one pass on stderr.
void Summarize(const std::string& label, RunStats& stats) {
  std::cerr << label << ": ops=" << stats.mix_ops << " mix_s=" << stats.mix_seconds
            << " setups=" << stats.setup_s.size() << " attempted=" << stats.attempted
            << " failed=" << stats.failed << " mismatches=" << stats.mismatches
            << " lost=" << stats.lost_writes
            << " quorum_retries=" << stats.Count("bench.quorum_retries") << "\n";
  for (auto [name, samples] : {std::pair{"get", &stats.get_us}, std::pair{"write", &stats.write_us},
                                std::pair{"scan", &stats.scan_us}}) {
    std::cerr << "  " << name << "_us n=" << samples->size();
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
      std::cerr << " p" << q * 100 << "=" << Quantile(*samples, q);
    }
    std::cerr << "\n";
  }
  std::cerr << "  setup_s";
  for (double s : stats.setup_s) {
    std::cerr << " " << s;
  }
  std::cerr << "\n  recovery_s";
  for (double r : stats.recovery_s) {
    std::cerr << " " << r;
  }
  std::cerr << "\n  counters";
  for (const char* name : {"lsm.flushes", "lsm.level_compactions", "io.issued", "chunk.puts",
                           "disk.fsyncs", "node.lsm.flushes", "node.io.enqueued"}) {
    if (stats.counts().count(name) > 0) {
      std::cerr << " " << name << "=" << stats.Count(name);
    }
  }
  std::cerr << "\n";
  if (!stats.first_error.empty()) {
    std::cerr << "  first error: " << stats.first_error << "\n";
  }
  if (!stats.first_mismatch.empty()) {
    std::cerr << "  first oracle mismatch: " << stats.first_mismatch << "\n";
  }
}

// Runs one workload and prints its result line. The cluster's failed count is its
// tier's availability under the injected faults (operations whose every quorum attempt
// failed); a wrong reply makes `correct` false.
int RunWorkload(const RunConfig& config, const std::string& trace_out) {
  ClearDir(config.work_dir);
  if (config.workload == "write-durable" && !OnTmpfs(config.work_dir)) {
    std::cerr << "--work-dir must be on tmpfs: write-durable times FileDisk on memory only\n";
    return 2;
  }
  const double mem_chase_start_ms = MemChaseMs();
  std::cerr << config.workload << " seed=" << config.seed << " host.cpu_loop_ms=" << CpuLoopMs()
            << "\n";
  std::vector<Metric> metrics;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  const auto account = [&](const std::string& label, RunStats& stats) {
    Summarize(label, stats);
    correct = correct && stats.Correct();
    attempted += stats.attempted;
    failed += stats.failed + stats.mismatches;
  };
  if (!config.trace) {
    RunStats stats;
    RunPass(config, PassOptions{.clients = kClients}, stats);
    account("pass", stats);
    metrics = EndToEnd(stats);
  } else {
    // Same seed three times: untraced for the tracing overhead, traced for the
    // per-layer figures, and with one client for the scaling ratio. Each pass runs the
    // first third of the workload's epochs, so the traced run takes about as long as an
    // untraced one. The passes take turns epoch by epoch, in an order that rotates, so
    // that a slow phase of the host, or the state one epoch leaves to the next, falls
    // on all three rather than on one.
    constexpr int kPasses = 3;
    RunStats untraced, traced, single;
    const PassOptions options[kPasses] = {{.clients = kClients},
                                          {.clients = kClients, .trace = true},
                                          {.clients = 1}};
    RunStats* const results[kPasses] = {&untraced, &traced, &single};
    int pass_epochs = 1;  // known once the first epoch has run
    for (int e = 0; e < pass_epochs; ++e) {
      for (int turn = 0; turn < kPasses; ++turn) {
        const int which = (e + turn) % kPasses;
        PassOptions pass = options[which];
        pass.only_epoch = e;
        pass_epochs = std::max(1, RunPass(config, pass, *results[which]) / kPasses);
      }
    }
    account("untraced pass", untraced);
    account("traced pass", traced);
    account("one-client pass", single);
    if (!trace_out.empty()) {
      WriteSpans(traced, trace_out);
    }
    metrics = PerLayer(traced, IsCluster(config), Ratio(Throughput(untraced), Throughput(single)),
                       Ratio(traced.mix_seconds, untraced.mix_seconds) - 1);
  }
  ClearDir(config.work_dir);
  // Timed at both ends of the run, as the host's cache contention changes over minutes.
  std::cerr << "host.mem_chase_ms=" << (mem_chase_start_ms + MemChaseMs()) / 2 << "\n";
  if (attempted == 0) {
    std::cerr << "no operation was attempted\n";
    return 1;
  }
  std::cout << ResultJson(correct, attempted, failed, metrics) << std::endl;
  return 0;
}

// Counts that must repeat exactly on one seed when every disk has one writer.
constexpr const char* kExactCounters[] = {"lsm.flushes", "lsm.level_compactions", "io.issued",
                                          "chunk.puts", "disk.fsyncs"};

int SelfTest(const std::string& work_dir) {
  ClearDir(work_dir);
  int failures = 0;
  const auto run = [&](const std::string& workload, bool corrupt, bool trace, RunStats& stats) {
    RunConfig config;
    config.workload = workload;
    config.seed = 7;
    config.tiny = true;
    config.corrupt_oracle = corrupt;
    config.work_dir = work_dir + "/" + workload;
    std::filesystem::remove_all(config.work_dir);
    std::filesystem::create_directories(config.work_dir);
    RunPass(config, PassOptions{.clients = kClients, .trace = trace}, stats);
    std::filesystem::remove_all(config.work_dir);
  };
  const auto report = [&](const std::string& what, bool pass, const RunStats& stats) {
    std::cerr << "selftest " << what << ": attempted=" << stats.attempted
              << " failed=" << stats.failed << " mismatches=" << stats.mismatches
              << (stats.first_error.empty() ? "" : " first_error=\"" + stats.first_error + "\"")
              << (stats.first_mismatch.empty() ? ""
                                               : " first_mismatch=\"" + stats.first_mismatch + "\"")
              << (pass ? "  PASS" : "  FAIL") << "\n";
    failures += pass ? 0 : 1;
  };
  for (const char* workload : kWorkloads) {
    RunStats clean, corrupted, traced;
    run(workload, false, false, clean);
    report(std::string(workload) + " oracle", clean.Correct() && clean.attempted > 0, clean);
    run(workload, true, false, corrupted);
    report(std::string(workload) + " corrupted oracle is caught",
           !corrupted.Correct() && corrupted.mismatches > 0, corrupted);
    run(workload, false, true, traced);
    report(std::string(workload) + " traced oracle",
           traced.Correct() && !traced.span_totals.empty(), traced);
  }
  // Writers own disks, so a node run's program counts repeat exactly on one seed.
  for (const char* workload : {"read-zipf", "write-durable"}) {
    RunStats first, second;
    run(workload, false, false, first);
    run(workload, false, false, second);
    bool same = first.write_amp == second.write_amp && first.space_amp == second.space_amp;
    for (const char* name : kExactCounters) {
      if (first.Count(name) != second.Count(name)) {
        std::cerr << "  " << name << ": " << first.Count(name) << " vs " << second.Count(name)
                  << "\n";
        same = false;
      }
    }
    report(std::string(workload) + " same seed, same counts", same, second);
  }
  ClearDir(work_dir);
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string trace_out;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      config.workload = next();
    } else if (arg == "--seed") {
      config.seed = std::stoull(next());
    } else if (arg == "--seconds") {
      config.seconds = std::stoi(next());
    } else if (arg == "--trace") {
      config.trace = next() != "0";
    } else if (arg == "--work-dir") {
      config.work_dir = next();
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--selftest") {
      selftest = true;
    } else {
      std::cerr << "unknown argument " << arg << "\n";
      return 2;
    }
  }
  if (config.work_dir.empty() || config.seconds < 1) {
    std::cerr << "--work-dir is required and --seconds must be >= 1\n";
    return 2;
  }
  if (selftest) {
    return SelfTest(config.work_dir);
  }
  bool known = false;
  for (const char* workload : kWorkloads) {
    known = known || config.workload == workload;
  }
  if (!known) {
    std::cerr << "unknown workload " << config.workload << "\n";
    return 2;
  }
  return RunWorkload(config, trace_out);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
