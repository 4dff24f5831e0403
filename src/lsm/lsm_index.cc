#include "src/lsm/lsm_index.h"

#include <algorithm>
#include <set>

#include "src/chunk/chunk_format.h"
#include "src/common/cover.h"
#include "src/faults/faults.h"

namespace ss {

namespace {
// Run chunk payload format:
//   v1 (historic): [count u32][entries]
//   v2: [format u8][min_key u64][max_key u64][bloom][count u32][entries]
// The v2 header is the run's read-path pruning metadata; recovery decodes it without
// reading the entries. Entries are [id u64][live u8][record if live], sorted by id.
constexpr uint8_t kRunFormatVersion = 2;
// Serialized header bytes excluding the bloom filter: format + min + max + count.
constexpr size_t kRunHeaderBaseBytes = 1 + 8 + 8 + 4;
// Serialized bytes per chunk locator of a shard record.
constexpr size_t kLocatorBytes = 16;

// A run chunk payload read in place: Open parses the header, Next steps through the
// entries in key order, and a record is decoded only when Value asks for it.
class RunCursor {
 public:
  // `filter`, when given, receives the header's key span and bloom filter; otherwise
  // the filter's bytes are skipped.
  static Result<RunCursor> Open(ByteSpan payload, RunFilter* filter = nullptr) {
    RunCursor cursor(payload);
    Reader& r = cursor.r_;
    SS_ASSIGN_OR_RETURN(uint8_t format, r.GetU8());
    if (format != kRunFormatVersion) {
      return Status::Corruption("run: unknown format version");
    }
    RunFilter header;
    SS_ASSIGN_OR_RETURN(header.min_key, r.GetU64());
    SS_ASSIGN_OR_RETURN(header.max_key, r.GetU64());
    if (filter != nullptr) {
      SS_ASSIGN_OR_RETURN(header.bloom, BloomFilter::Deserialize(r));
      *filter = std::move(header);
    } else {
      SS_ASSIGN_OR_RETURN(uint32_t words, r.GetU32());
      SS_RETURN_IF_ERROR(r.Skip(uint64_t{words} * 8));
    }
    SS_ASSIGN_OR_RETURN(cursor.remaining_, r.GetU32());
    if (uint64_t{cursor.remaining_} * 9 > r.remaining()) {
      return Status::Corruption("run: entry count exceeds input");
    }
    return cursor;
  }

  // Steps to the next entry, skipping the current one's record if it was not read.
  // False past the last entry.
  Result<bool> Next() {
    if (unread_record_) {
      unread_record_ = false;
      SS_RETURN_IF_ERROR(r_.Skip(8));  // total_bytes
      SS_ASSIGN_OR_RETURN(uint32_t chunks, r_.GetU32());
      SS_RETURN_IF_ERROR(r_.Skip(uint64_t{chunks} * kLocatorBytes));
    }
    if (remaining_ == 0) {
      return false;
    }
    --remaining_;
    SS_ASSIGN_OR_RETURN(id_, r_.GetU64());
    SS_ASSIGN_OR_RETURN(uint8_t live, r_.GetU8());
    live_ = live != 0;
    unread_record_ = live_;
    return true;
  }

  ShardId id() const { return id_; }

  // The current entry's value (nullopt = tombstone). At most once per entry.
  Result<std::optional<ShardRecord>> Value() {
    if (!live_) {
      return std::optional<ShardRecord>();
    }
    unread_record_ = false;
    SS_ASSIGN_OR_RETURN(ShardRecord record, DeserializeShardRecord(r_));
    return std::optional<ShardRecord>(std::move(record));
  }

 private:
  explicit RunCursor(ByteSpan payload) : r_(payload) {}

  Reader r_;
  uint32_t remaining_ = 0;
  ShardId id_ = 0;
  bool live_ = false;
  bool unread_record_ = false;
};

// One key's entry in a run segment: absent, or present as a record or a tombstone.
struct RunLookup {
  bool found = false;
  std::optional<ShardRecord> value;
};

// Walks the segment's sorted entries up to `id`, skipping records, and decodes only
// the hit.
Result<RunLookup> FindInRun(ByteSpan payload, ShardId id) {
  SS_ASSIGN_OR_RETURN(RunCursor cursor, RunCursor::Open(payload));
  for (;;) {
    SS_ASSIGN_OR_RETURN(bool more, cursor.Next());
    if (!more || cursor.id() > id) {
      return RunLookup{};
    }
    if (cursor.id() == id) {
      SS_ASSIGN_OR_RETURN(std::optional<ShardRecord> value, cursor.Value());
      return RunLookup{true, std::move(value)};
    }
  }
}

}  // namespace

void SerializeShardRecord(const ShardRecord& record, Writer& w) {
  w.PutU64(record.total_bytes);
  w.PutU32(static_cast<uint32_t>(record.chunks.size()));
  for (const Locator& loc : record.chunks) {
    SerializeLocator(loc, w);
  }
}

Result<ShardRecord> DeserializeShardRecord(Reader& r) {
  ShardRecord record;
  SS_ASSIGN_OR_RETURN(record.total_bytes, r.GetU64());
  SS_ASSIGN_OR_RETURN(uint32_t count, r.GetU32());
  if (uint64_t{count} * 16 > r.remaining()) {
    return Status::Corruption("shard record: chunk count exceeds input");
  }
  record.chunks.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    SS_ASSIGN_OR_RETURN(Locator loc, DeserializeLocator(r));
    record.chunks.push_back(loc);
  }
  return record;
}

LsmIndex::LsmIndex(ExtentManager* extents, ChunkStore* chunks, LsmOptions options,
                   MetricRegistry* metrics)
    : extents_(extents),
      chunks_(chunks),
      options_(options),
      meta_rng_(options.meta_uuid_seed),
      current_(std::make_shared<const Version>()) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  puts_ = &metrics->counter("lsm.puts");
  deletes_ = &metrics->counter("lsm.deletes");
  gets_ = &metrics->counter("lsm.gets");
  scans_ = &metrics->counter("lsm.scans");
  scan_items_ = &metrics->counter("lsm.scan.items");
  flushes_ = &metrics->counter("lsm.flushes");
  compactions_ = &metrics->counter("lsm.compactions");
  level_compactions_ = &metrics->counter("lsm.level_compactions");
  tombstones_dropped_ = &metrics->counter("lsm.tombstones_dropped");
  metadata_writes_ = &metrics->counter("lsm.metadata_writes");
  batch_applies_ = &metrics->counter("lsm.batch.applies");
  batch_items_ = &metrics->counter("lsm.batch.items");
  bloom_hits_ = &metrics->counter("lsm.bloom.hit");
  bloom_misses_ = &metrics->counter("lsm.bloom.miss");
  bloom_false_positives_ = &metrics->counter("lsm.bloom.false_positive");
}

Result<std::unique_ptr<LsmIndex>> LsmIndex::Open(ExtentManager* extents, ChunkStore* chunks,
                                                 LsmOptions options, MetricRegistry* metrics) {
  std::unique_ptr<LsmIndex> index(new LsmIndex(extents, chunks, options, metrics));
  std::vector<ExtentId> meta = extents->ExtentsOwnedBy(ExtentOwner::kLsmMetadata);
  if (meta.size() > 2) {
    return Status::Corruption("more than two LSM metadata extents");
  }
  // Formatting is idempotent so it is crash-safe: a crash may persist zero, one, or two
  // of the metadata-extent ownership records, and recovery simply claims the missing
  // ones (any records on the surviving extents remain valid).
  while (meta.size() < 2) {
    SS_ASSIGN_OR_RETURN(ExtentId claimed, extents->ClaimExtent(ExtentOwner::kLsmMetadata));
    meta.push_back(claimed);
  }
  index->meta_extents_[0] = meta[0];
  index->meta_extents_[1] = meta[1];
  if (extents->WritePointer(meta[0]) == 0 && extents->WritePointer(meta[1]) == 0) {
    return index;  // nothing written yet: fresh (or crashed-before-first-flush) state
  }

  // Recovery: scan both metadata extents for framed records; adopt the highest version.
  bool found = false;
  uint64_t best_version = 0;
  std::vector<RunRef> runs;
  for (int m = 0; m < 2; ++m) {
    const ExtentId e = index->meta_extents_[m];
    const uint32_t wp = extents->WritePointer(e);
    uint32_t page = 0;
    while (page < wp) {
      auto head_or = extents->Read(e, page, 1);
      if (!head_or.ok()) {
        return head_or.status();
      }
      auto header_or = ParseChunkHeader(head_or.value());
      if (!header_or.ok()) {
        ++page;
        continue;
      }
      const uint32_t frame_pages = extents->PagesNeeded(ChunkFrameBytes(header_or.value().payload_len));
      if (uint64_t{page} + frame_pages > wp) {
        ++page;
        continue;
      }
      auto full_or = extents->Read(e, page, frame_pages);
      if (!full_or.ok()) {
        return full_or.status();
      }
      auto payload_or = DecodeChunkFrame(
          ByteSpan(full_or.value().data(), ChunkFrameBytes(header_or.value().payload_len)));
      if (!payload_or.ok()) {
        ++page;
        continue;
      }
      // Parse the metadata record.
      Reader r(payload_or.value());
      auto version_or = r.GetU64();
      auto seq_or = r.GetU64();
      auto count_or = r.GetU32();
      if (version_or.ok() && seq_or.ok() && count_or.ok()) {
        std::vector<std::pair<Locator, int>> run_locs;
        bool parse_ok = true;
        for (uint32_t i = 0; i < count_or.value(); ++i) {
          auto loc_or = DeserializeLocator(r);
          if (!loc_or.ok()) {
            parse_ok = false;
            break;
          }
          auto level_or = r.GetU8();
          if (!level_or.ok()) {
            parse_ok = false;
            break;
          }
          run_locs.push_back({loc_or.value(), static_cast<int>(level_or.value())});
        }
        if (parse_ok && (!found || version_or.value() > best_version)) {
          found = true;
          best_version = version_or.value();
          index->version_ = version_or.value();
          index->next_seq_ = seq_or.value();
          runs.clear();
          for (const auto& [loc, level] : run_locs) {
            // Recovered runs are durable by definition.
            runs.push_back(RunRef{loc, Dependency(), level, nullptr});
          }
          index->active_meta_ = m;
        }
      }
      page += frame_pages;
    }
  }
  // Rebuild each recovered run's pruning filter from its chunk header. Best effort: a
  // run whose chunk cannot be read right now keeps a null filter (lookups fall back to
  // reading the chunk), so recovery itself never fails on the rebuild.
  for (RunRef& run : runs) {
    auto payload_or = chunks->Get(run.loc);
    if (!payload_or.ok()) {
      continue;
    }
    auto filter = std::make_shared<RunFilter>();
    if (RunCursor::Open(payload_or.value(), filter.get()).ok()) {
      run.filter = std::move(filter);
    }
  }
  index->current_ = MakeVersion(std::move(runs));
  SS_COVER(found ? "lsm.recover_with_metadata" : "lsm.recover_empty");
  return index;
}

Dependency LsmIndex::Put(ShardId id, ShardRecord record, Dependency data_dep,
                         const SpanScope& scope) {
  Dependency promise = Dependency::MakePromise();
  bool want_flush = false;
  {
    Span span = scope.Child("lsm.insert");
    LockGuard lock(mu_);
    puts_->Increment();
    Entry entry;
    entry.value = std::move(record);
    entry.data_dep = data_dep;
    entry.seq = next_seq_++;
    pending_promises_.push_back({entry.seq, promise});
    memtable_[id] = std::move(entry);
    api_dirty_ = true;
    want_flush = memtable_.size() >= options_.memtable_flush_entries;
  }
  if (want_flush) {
    // Best-effort background-style flush; errors surface on the next explicit flush.
    (void)Flush(scope);
  }
  return promise.And(data_dep);
}

std::vector<Dependency> LsmIndex::ApplyBatch(std::vector<LsmBatchItem> items,
                                             bool* flush_wanted, const SpanScope& scope) {
  std::vector<Dependency> deps;
  deps.reserve(items.size());
  if (flush_wanted != nullptr) {
    *flush_wanted = false;
  }
  if (items.empty()) {
    return deps;
  }
  Span span = scope.Child("lsm.insert");
  Dependency promise = Dependency::MakePromise();
  {
    LockGuard lock(mu_);
    batch_applies_->Increment();
    batch_items_->Increment(items.size());
    uint64_t max_seq = 0;
    for (LsmBatchItem& item : items) {
      (item.record.has_value() ? puts_ : deletes_)->Increment();
      Entry entry;
      entry.value = std::move(item.record);
      entry.data_dep = item.data_dep;
      entry.seq = next_seq_++;
      max_seq = entry.seq;
      memtable_[item.id] = std::move(entry);
      deps.push_back(promise.And(item.data_dep));
    }
    // One promise at the batch's highest sequence: the covering metadata flush
    // snapshots the whole memtable under mu_, so all of the batch's entries — inserted
    // atomically above — resolve together at that single barrier.
    pending_promises_.push_back({max_seq, promise});
    api_dirty_ = true;
    if (flush_wanted != nullptr) {
      *flush_wanted = memtable_.size() >= options_.memtable_flush_entries;
    }
  }
  return deps;
}

Dependency LsmIndex::Delete(ShardId id, const SpanScope& scope) {
  Dependency promise = Dependency::MakePromise();
  {
    Span span = scope.Child("lsm.insert");
    LockGuard lock(mu_);
    deletes_->Increment();
    Entry entry;
    entry.value = std::nullopt;
    entry.seq = next_seq_++;
    pending_promises_.push_back({entry.seq, promise});
    memtable_[id] = std::move(entry);
    api_dirty_ = true;
  }
  return promise;
}

LsmIndex::BuiltRun LsmIndex::BuildRun(const RunMap& entries) {
  auto filter = std::make_shared<RunFilter>();
  filter->bloom = BloomFilter::ForKeys(entries.size());
  if (!entries.empty()) {
    filter->min_key = entries.begin()->first;
    filter->max_key = entries.rbegin()->first;
  }
  for (const auto& [id, value] : entries) {
    filter->bloom.Add(id);
  }
  Writer w;
  w.PutU8(kRunFormatVersion);
  w.PutU64(filter->min_key);
  w.PutU64(filter->max_key);
  filter->bloom.Serialize(w);
  w.PutU32(static_cast<uint32_t>(entries.size()));
  for (const auto& [id, value] : entries) {
    w.PutU64(id);
    w.PutU8(value.has_value() ? 1 : 0);
    if (value.has_value()) {
      SerializeShardRecord(*value, w);
    }
  }
  return BuiltRun{std::move(w).Take(), std::move(filter)};
}

std::shared_ptr<const LsmIndex::Version> LsmIndex::MakeVersion(std::vector<RunRef> runs) {
  auto version = std::make_shared<Version>();
  for (size_t i = 0; i < runs.size(); i = version->levels.back().end) {
    Version::Level level{runs[i].level, i, i, runs[i].level > 0};
    for (; level.end < runs.size() && runs[level.end].level == level.level; ++level.end) {
      const RunRef& run = runs[level.end];
      level.sorted = level.sorted && run.filter != nullptr &&
                     (level.end == level.begin ||
                      runs[level.end - 1].filter->max_key < run.filter->min_key);
    }
    version->levels.push_back(level);
  }
  version->runs = std::move(runs);
  return version;
}

size_t LsmIndex::Version::Seek(const Level& level, ShardId key) const {
  const auto first = runs.begin() + static_cast<ptrdiff_t>(level.begin);
  const auto last = runs.begin() + static_cast<ptrdiff_t>(level.end);
  const auto it = std::partition_point(
      first, last, [key](const RunRef& run) { return run.filter->max_key < key; });
  return static_cast<size_t>(it - runs.begin());
}

Result<std::optional<ShardRecord>> LsmIndex::Get(ShardId id, const SpanScope& scope) {
  Span span = scope.Child("lsm.lookup");
  const SpanScope child_scope = span.scope();
  Status last_error = Status::Ok();
  for (int attempt = 0; attempt < 4; ++attempt) {
    std::shared_ptr<const Version> version;
    {
      LockGuard lock(mu_);
      gets_->Increment();
      auto it = memtable_.find(id);
      if (it != memtable_.end()) {
        return it->second.value;
      }
      version = current_;
    }
    auto found_or = GetFromRuns(*version, id, child_scope);
    if (found_or.ok()) {
      return found_or;
    }
    // A concurrent compaction/reclamation may have invalidated the version; take the
    // current one and retry.
    last_error = found_or.status();
    YieldThread();
  }
  span.set_status(last_error.code());
  return last_error;
}

Result<std::optional<ShardRecord>> LsmIndex::GetFromRuns(const Version& version, ShardId id,
                                                         const SpanScope& scope) {
  for (auto level = version.levels.rbegin(); level != version.levels.rend(); ++level) {
    // A sorted level has one candidate: the segment whose span could hold `id`.
    size_t lo = level->begin;
    size_t hi = level->end;
    if (level->sorted) {
      lo = version.Seek(*level, id);
      hi = std::min(lo + 1, level->end);
    }
    for (size_t i = hi; i-- > lo;) {  // newest first
      const RunRef& run = version.runs[i];
      if (run.filter != nullptr && !run.filter->MayContainKey(id)) {
        // Definitely not in this segment: the chunk read is skipped entirely.
        bloom_misses_->Increment();
        continue;
      }
      SS_ASSIGN_OR_RETURN(Bytes payload, chunks_->Get(run.loc, scope));
      SS_ASSIGN_OR_RETURN(RunLookup hit, FindInRun(payload, id));
      if (hit.found) {
        if (run.filter != nullptr) {
          bloom_hits_->Increment();
        }
        return std::move(hit.value);
      }
      if (run.filter != nullptr) {
        bloom_false_positives_->Increment();
      }
    }
  }
  return std::optional<ShardRecord>(std::nullopt);
}

Status LsmIndex::AppendRunSlice(const Locator& loc, ShardId start, ShardId end, Slice* out,
                                const SpanScope& scope) {
  SS_ASSIGN_OR_RETURN(Bytes payload, chunks_->Get(loc, scope));
  SS_ASSIGN_OR_RETURN(RunCursor cursor, RunCursor::Open(payload));
  for (;;) {
    SS_ASSIGN_OR_RETURN(bool more, cursor.Next());
    if (!more || cursor.id() >= end) {
      return Status::Ok();
    }
    if (cursor.id() >= start) {
      SS_ASSIGN_OR_RETURN(std::optional<ShardRecord> value, cursor.Value());
      out->push_back({cursor.id(), std::move(value)});
    }
  }
}

Status LsmIndex::MergeRunInto(const Locator& loc, RunMap* out, const SpanScope& scope) {
  SS_ASSIGN_OR_RETURN(Bytes payload, chunks_->Get(loc, scope));
  SS_ASSIGN_OR_RETURN(RunCursor cursor, RunCursor::Open(payload));
  for (;;) {
    SS_ASSIGN_OR_RETURN(bool more, cursor.Next());
    if (!more) {
      return Status::Ok();
    }
    SS_ASSIGN_OR_RETURN((*out)[cursor.id()], cursor.Value());
  }
}

Result<std::vector<LsmScanItem>> LsmIndex::Scan(ShardId start, ShardId end,
                                                const SpanScope& scope) {
  Span span = scope.Child("lsm.scan");
  const SpanScope child_scope = span.scope();
  scans_->Increment();
  if (start >= end) {
    return std::vector<LsmScanItem>{};  // empty window
  }
  Status last_error = Status::Ok();
  for (int attempt = 0; attempt < 4; ++attempt) {
    std::shared_ptr<const Version> version;
    Slice memtable_slice;
    {
      // One mu_ hold for both snapshots: the memtable overlay and the run list are a
      // consistent point-in-time view (a racing flush moves entries run-ward, which
      // only makes both copies agree).
      LockGuard lock(mu_);
      version = current_;
      for (auto it = memtable_.lower_bound(start); it != memtable_.end() && it->first < end;
           ++it) {
        memtable_slice.push_back({it->first, it->second.value});
      }
    }
    // Sources in age order, oldest first; the memtable is appended last so the merge's
    // "highest source index wins" rule implements newest-shadows-oldest. A sorted
    // level's segments are disjoint and ascending, so together they are one source.
    std::vector<Slice> sources;
    Status status = Status::Ok();
    for (const Version::Level& level : version->levels) {
      if (level.sorted) {
        Slice slice;
        for (size_t i = version->Seek(level, start);
             status.ok() && i < level.end && version->runs[i].filter->min_key < end; ++i) {
          status = AppendRunSlice(version->runs[i].loc, start, end, &slice, child_scope);
        }
        sources.push_back(std::move(slice));
        continue;
      }
      for (size_t i = level.begin; status.ok() && i < level.end; ++i) {
        const RunRef& run = version->runs[i];
        if (run.filter != nullptr && !run.filter->OverlapsRange(start, end)) {
          continue;  // the run's key range misses the window: no chunk read
        }
        Slice slice;
        status = AppendRunSlice(run.loc, start, end, &slice, child_scope);
        sources.push_back(std::move(slice));
      }
    }
    if (!status.ok()) {
      // A concurrent compaction/reclamation may have invalidated the version.
      last_error = status;
      YieldThread();
      continue;
    }
    sources.push_back(std::move(memtable_slice));

    // K-way merge iterator: repeatedly emit the smallest key across all cursors; at
    // equal keys the newest source wins and every older cursor steps past (tombstones
    // are merged like values and suppress the key at the end).
    std::vector<size_t> cursor(sources.size(), 0);
    std::vector<LsmScanItem> out;
    for (;;) {
      bool any = false;
      ShardId next_key = 0;
      for (size_t s = 0; s < sources.size(); ++s) {
        if (cursor[s] < sources[s].size()) {
          const ShardId k = sources[s][cursor[s]].first;
          if (!any || k < next_key) {
            any = true;
            next_key = k;
          }
        }
      }
      if (!any) {
        break;
      }
      std::optional<ShardRecord> value;
      for (size_t s = 0; s < sources.size(); ++s) {  // ascending age rank: last wins
        if (cursor[s] < sources[s].size() && sources[s][cursor[s]].first == next_key) {
          value = std::move(sources[s][cursor[s]].second);
          ++cursor[s];
        }
      }
      if (value.has_value()) {
        out.push_back(LsmScanItem{next_key, std::move(*value)});
      }
    }
    scan_items_->Increment(out.size());
    return out;
  }
  span.set_status(last_error.code());
  return last_error;
}

Result<std::vector<ShardId>> LsmIndex::Keys() {
  for (int attempt = 0; attempt < 4; ++attempt) {
    std::shared_ptr<const Version> version;
    {
      LockGuard lock(mu_);
      version = current_;
    }
    RunMap merged;
    Status status = Status::Ok();
    for (const RunRef& run : version->runs) {  // oldest first; later entries override
      status = MergeRunInto(run.loc, &merged);
      if (!status.ok()) {
        break;
      }
    }
    if (!status.ok()) {
      YieldThread();
      continue;
    }
    std::map<ShardId, bool> live;
    for (const auto& [id, value] : merged) {
      live[id] = value.has_value();
    }
    {
      LockGuard lock(mu_);
      for (const auto& [id, entry] : memtable_) {
        live[id] = entry.value.has_value();
      }
    }
    std::vector<ShardId> out;
    for (const auto& [id, is_live] : live) {
      if (is_live) {
        out.push_back(id);
      }
    }
    return out;
  }
  return Status::Unavailable("keys: persistent snapshot churn");
}

Result<Dependency> LsmIndex::WriteMetadataLocked(const Version& version, Dependency input,
                                                 const SpanScope& scope) {
  ++version_;
  Writer w;
  w.PutU64(version_);
  w.PutU64(next_seq_);
  w.PutU32(static_cast<uint32_t>(version.runs.size()));
  // The record must not reach the disk before every run chunk it references is durable;
  // gating only on the newest change is unsound because the two metadata extents do not
  // share a FIFO ordering across the ping-pong switch.
  for (const RunRef& run : version.runs) {
    SerializeLocator(run.loc, w);
    w.PutU8(static_cast<uint8_t>(std::min(run.level, 255)));
    input = input.And(run.dep);
  }
  Bytes frame = EncodeChunkFrame(w.bytes(), Uuid::Random(meta_rng_));
  const uint32_t pages = extents_->PagesNeeded(frame.size());

  ExtentId target = meta_extents_[active_meta_];
  if (extents_->PagesFree(target) < pages) {
    // Ping-pong: write the record to the other extent, then reset this one once the
    // new record is durable.
    const ExtentId full = target;
    target = meta_extents_[1 - active_meta_];
    auto appended_or = extents_->Append(target, frame, input, scope);
    if (!appended_or.ok()) {
      // Nothing reached the disk: give the version number back so a caller that does
      // not publish its new run list leaves the index exactly as it was.
      --version_;
      return appended_or.status();
    }
    const AppendResult appended = appended_or.value();
    extents_->Reset(full, appended.dep);
    active_meta_ = 1 - active_meta_;
    metadata_writes_->Increment();
    last_meta_dep_ = appended.dep;
    api_dirty_ = false;
    internal_dirty_ = false;
    return appended.dep;
  }
  auto appended_or = extents_->Append(target, frame, input, scope);
  if (!appended_or.ok()) {
    --version_;
    return appended_or.status();
  }
  const AppendResult appended = appended_or.value();
  metadata_writes_->Increment();
  last_meta_dep_ = appended.dep;
  api_dirty_ = false;
  internal_dirty_ = false;
  return appended.dep;
}

void LsmIndex::ResolvePromisesLocked(uint64_t max_seq, const Dependency& meta_dep) {
  auto it = pending_promises_.begin();
  while (it != pending_promises_.end()) {
    if (it->first <= max_seq) {
      it->second.ResolvePromise(meta_dep);
      it = pending_promises_.erase(it);
    } else {
      ++it;
    }
  }
}

Status LsmIndex::Flush(const SpanScope& scope) {
  Span span = scope.Child("lsm.flush");
  LockGuard flush_lock(flush_mu_);
  Status status = FlushLocked(span.scope());
  if (status.ok() && options_.level0_compaction_trigger > 0) {
    MaybeCompactLevelsLocked(span.scope());
  }
  span.set_status(status.code());
  return status;
}

std::vector<LsmIndex::RunMap> LsmIndex::PartitionRun(const RunMap& entries,
                                                     size_t max_payload) {
  // Split a run into segments whose serialized form — header, bloom filter, and
  // entries — fits one chunk each. A segment always accepts at least one entry (a
  // single oversized entry is a configuration error caught by the chunk store).
  std::vector<RunMap> segments;
  RunMap current;
  size_t entry_bytes_sum = 0;
  auto projected_bytes = [](size_t count, size_t entry_sum) {
    return kRunHeaderBaseBytes + BloomFilter::SerializedBytesForKeys(count) + entry_sum;
  };
  for (const auto& [id, value] : entries) {
    size_t entry_bytes = 8 + 1;
    if (value.has_value()) {
      entry_bytes += 8 + 4 + value->chunks.size() * 16;
    }
    if (!current.empty() &&
        projected_bytes(current.size() + 1, entry_bytes_sum + entry_bytes) > max_payload) {
      segments.push_back(std::move(current));
      current = RunMap{};
      entry_bytes_sum = 0;
    }
    current[id] = value;
    entry_bytes_sum += entry_bytes;
  }
  if (!current.empty()) {
    segments.push_back(std::move(current));
  }
  return segments;
}

Status LsmIndex::FlushLocked(const SpanScope& scope) {
  RunMap entries;
  std::vector<Dependency> data_deps;
  uint64_t max_seq = 0;
  {
    LockGuard lock(mu_);
    if (memtable_.empty()) {
      return Status::Ok();
    }
    for (const auto& [id, entry] : memtable_) {
      entries[id] = entry.value;
      data_deps.push_back(entry.data_dep);
      max_seq = std::max(max_seq, entry.seq);
    }
  }
  // Serialize into one or more level-0 run chunks (a run larger than the chunk store's
  // max payload is split into segments). No run chunk may persist before the data its
  // entries point to (Figure 2's ordering), hence the input dependency. Put pins each
  // destination extent; the pins are held until the metadata references the runs.
  // Seeded bug #14 releases them immediately, reproducing the flush/compaction-vs-
  // reclamation race.
  const Dependency data_gate = Dependency::AndAll(data_deps);
  std::vector<ChunkPutResult> puts;
  std::vector<std::shared_ptr<const RunFilter>> filters;
  Status status = Status::Ok();
  for (const RunMap& segment : PartitionRun(entries, chunks_->max_payload_bytes())) {
    BuiltRun built = BuildRun(segment);
    auto put_or = chunks_->Put(std::move(built.payload), data_gate, scope);
    if (!put_or.ok()) {
      status = put_or.status();
      break;
    }
    puts.push_back(put_or.value());
    filters.push_back(std::move(built.filter));
    if (BugEnabled(SeededBug::kCompactReclaimMetadataRace)) {
      SS_COVER("lsm.bug14_early_unpin");
      chunks_->Unpin(put_or.value().locator.extent);
    }
  }
  if (!status.ok()) {
    for (const ChunkPutResult& put : puts) {
      if (!BugEnabled(SeededBug::kCompactReclaimMetadataRace)) {
        chunks_->Unpin(put.locator.extent);
      }
    }
    return status;
  }
  YieldThread();  // the preemption window behind bug #14

  {
    LockGuard lock(mu_);
    std::vector<RunRef> runs = current_->runs;
    Dependency runs_dep;
    for (size_t i = 0; i < puts.size(); ++i) {
      runs.push_back(RunRef{puts[i].locator, puts[i].dep, 0, filters[i]});
      runs_dep = runs_dep.And(puts[i].dep);
    }
    std::shared_ptr<const Version> next = MakeVersion(std::move(runs));
    auto meta_or = WriteMetadataLocked(*next, runs_dep, scope);
    if (!meta_or.ok()) {
      status = meta_or.status();  // the new runs are never published
    } else {
      current_ = std::move(next);
      flushes_->Increment();
      ResolvePromisesLocked(max_seq, meta_or.value());
      // Drop only the entries the run covers; concurrent overwrites stay.
      auto it = memtable_.begin();
      while (it != memtable_.end()) {
        if (it->second.seq <= max_seq) {
          it = memtable_.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  if (!BugEnabled(SeededBug::kCompactReclaimMetadataRace)) {
    for (const ChunkPutResult& put : puts) {
      chunks_->Unpin(put.locator.extent);
    }
  }
  return status;
}

Status LsmIndex::Compact() {
  LockGuard flush_lock(flush_mu_);
  return CompactInternal(std::nullopt, {});
}

Status LsmIndex::CompactLevel(int level, const SpanScope& scope) {
  if (level < 0) {
    return Status::InvalidArgument("compact: negative level");
  }
  Span span = scope.Child("lsm.compact_level");
  LockGuard flush_lock(flush_mu_);
  Status status = CompactInternal(level, span.scope());
  span.set_status(status.code());
  return status;
}

void LsmIndex::MaybeCompactLevelsLocked(const SpanScope& scope) {
  constexpr int kMaxLevels = 8;  // bounds the cascade; fanout^8 runs is out of reach
  if (RunCountAtLevel(0) < options_.level0_compaction_trigger) {
    return;
  }
  // Best effort: a failed background merge surfaces through metrics and the next
  // explicit compaction, never through the flush that triggered it.
  if (!CompactInternal(0, scope).ok()) {
    return;
  }
  for (int level = 1; level < kMaxLevels; ++level) {
    if (RunCountAtLevel(level) <= options_.level_fanout) {
      break;
    }
    if (!CompactInternal(level, scope).ok()) {
      return;
    }
  }
}

Status LsmIndex::CompactInternal(std::optional<int> level, const SpanScope& scope) {
  Status last_error = Status::Ok();
  for (int attempt = 0; attempt < 3; ++attempt) {
    size_t begin = 0;
    size_t count = 0;
    int out_level = 1;
    bool bottom = false;
    std::vector<Locator> input_locs;
    Dependency runs_durable;
    {
      LockGuard lock(mu_);
      const std::vector<RunRef>& runs = current_->runs;
      if (level.has_value()) {
        // Levels are non-increasing along the oldest-first run list, so the runs at
        // {level, level+1} form one contiguous block; everything before it is deeper.
        while (begin < runs.size() && runs[begin].level > *level + 1) {
          ++begin;
        }
        size_t end = begin;
        size_t at_level = 0;
        while (end < runs.size() && runs[end].level >= *level) {
          at_level += runs[end].level == *level ? 1 : 0;
          ++end;
        }
        if (at_level == 0) {
          return Status::Ok();  // nothing to merge at this level
        }
        count = end - begin;
        out_level = *level + 1;
        // The tombstone lifetime rule: dropping is safe only when no run deeper than
        // the merge's output remains to resurrect an older version.
        bottom = begin == 0;
      } else {
        if (runs.size() <= 1) {
          return Status::Ok();
        }
        count = runs.size();
        out_level = std::max(1, runs.front().level);  // full merge: output is the bottom
        bottom = true;
      }
      for (size_t i = begin; i < begin + count; ++i) {
        input_locs.push_back(runs[i].loc);
        runs_durable = runs_durable.And(runs[i].dep);
      }
      runs_durable = runs_durable.And(last_meta_dep_);
    }
    RunMap merged;
    Status load_error = Status::Ok();
    for (const Locator& loc : input_locs) {  // oldest -> newest
      load_error = MergeRunInto(loc, &merged, scope);
      if (!load_error.ok()) {
        break;
      }
    }
    if (!load_error.ok()) {
      // A stale snapshot (reclamation moved or truncated a run under us) can surface as
      // almost any code — InvalidArgument, NotFound, Corruption — so those get a fresh
      // snapshot and another attempt. Only a permanently failed disk aborts
      // immediately, instead of burning the remaining attempts against dead hardware.
      // No chunk has been written yet on this path, so there are no pins or orphans to
      // clean up.
      if (load_error.code() == StatusCode::kDiskFailed) {
        return load_error;
      }
      last_error = load_error;
      YieldThread();
      continue;
    }
    if (bottom || options_.seeded_bug_drop_tombstones_above_bottom) {
      if (!bottom) {
        SS_COVER("lsm.seeded_tombstone_drop_above_bottom");
      }
      size_t dropped = 0;
      auto it = merged.begin();
      while (it != merged.end()) {
        if (!it->second.has_value()) {
          it = merged.erase(it);
          ++dropped;
        } else {
          ++it;
        }
      }
      tombstones_dropped_->Increment(dropped);
    }
    std::vector<ChunkPutResult> puts;
    std::vector<std::shared_ptr<const RunFilter>> filters;
    Status status = Status::Ok();
    for (const RunMap& segment : PartitionRun(merged, chunks_->max_payload_bytes())) {
      BuiltRun built = BuildRun(segment);
      auto put_or = chunks_->Put(std::move(built.payload), runs_durable, scope);
      if (!put_or.ok()) {
        status = put_or.status();
        break;
      }
      puts.push_back(put_or.value());
      filters.push_back(std::move(built.filter));
      if (BugEnabled(SeededBug::kCompactReclaimMetadataRace)) {
        SS_COVER("lsm.bug14_early_unpin");
        chunks_->Unpin(put_or.value().locator.extent);
      }
    }
    if (!status.ok()) {
      for (const ChunkPutResult& put : puts) {
        if (!BugEnabled(SeededBug::kCompactReclaimMetadataRace)) {
          chunks_->Unpin(put.locator.extent);
        }
      }
      return status;
    }
    YieldThread();  // the preemption window behind bug #14 (paper's issue example)

    {
      LockGuard lock(mu_);
      // Membership and order of the runs are stable while flush_mu_ is held (relocations
      // may swap a locator/dep, which the merged content does not depend on), so the
      // snapshot's [begin, begin+count) block is still the merge's input.
      const std::vector<RunRef>& old_runs = current_->runs;
      const auto block = old_runs.begin() + static_cast<ptrdiff_t>(begin);
      std::vector<RunRef> runs(old_runs.begin(), block);
      Dependency runs_dep;
      for (size_t i = 0; i < puts.size(); ++i) {
        runs.push_back(RunRef{puts[i].locator, puts[i].dep, out_level, filters[i]});
        runs_dep = runs_dep.And(puts[i].dep);
      }
      runs.insert(runs.end(), block + static_cast<ptrdiff_t>(count), old_runs.end());
      std::shared_ptr<const Version> next = MakeVersion(std::move(runs));
      auto meta_or = WriteMetadataLocked(*next, runs_dep, scope);
      if (!meta_or.ok()) {
        // The new run list never persisted, so it is not published: the index keeps the
        // runs the durable metadata still references. Publishing the unreferenced new
        // runs would let reclamation treat the OLD chunks as garbage while a post-crash
        // recovery still points at them — silent data loss.
        status = meta_or.status();
      } else {
        current_ = std::move(next);
        (level.has_value() ? level_compactions_ : compactions_)->Increment();
      }
    }
    if (!BugEnabled(SeededBug::kCompactReclaimMetadataRace)) {
      for (const ChunkPutResult& put : puts) {
        chunks_->Unpin(put.locator.extent);
      }
    }
    return status;
  }
  return last_error;
}

bool LsmIndex::NeedsShutdownFlush() const {
  LockGuard lock(mu_);
  if (BugEnabled(SeededBug::kShutdownMetadataSkipAfterReset)) {
    // Buggy path: trusts the API-mutation flag, missing memtables that only contain
    // internal mutations (e.g. reclamation relocations after an extent reset).
    SS_COVER("lsm.bug3_shutdown_flag");
    return api_dirty_;
  }
  return !memtable_.empty() || api_dirty_ || internal_dirty_;
}

Result<std::optional<ShardId>> LsmIndex::FindShardReferencing(const Locator& loc) {
  // Memtable first: most recent state wins.
  std::shared_ptr<const Version> version;
  {
    LockGuard lock(mu_);
    for (const auto& [id, entry] : memtable_) {
      if (entry.value.has_value()) {
        for (const Locator& c : entry.value->chunks) {
          if (c == loc) {
            return std::optional<ShardId>(id);
          }
        }
      }
    }
    version = current_;
  }
  // Then the runs, newest first. A shard's newest entry (memtable or newer run,
  // including tombstones) shadows older entries: a chunk referenced only by a
  // superseded record is garbage.
  std::set<ShardId> decided;
  {
    LockGuard lock(mu_);
    for (const auto& [id, entry] : memtable_) {
      decided.insert(id);
    }
  }
  for (auto run = version->runs.rbegin(); run != version->runs.rend(); ++run) {
    RunMap entries;
    SS_RETURN_IF_ERROR(MergeRunInto(run->loc, &entries));
    for (const auto& [id, value] : entries) {
      if (!decided.insert(id).second) {
        continue;  // shadowed by a newer entry
      }
      if (!value.has_value()) {
        continue;  // tombstone: this shard references nothing
      }
      for (const Locator& c : value->chunks) {
        if (c == loc) {
          return std::optional<ShardId>(id);
        }
      }
    }
  }
  return std::optional<ShardId>(std::nullopt);
}

bool LsmIndex::MetadataReferences(const Locator& loc) const {
  LockGuard lock(mu_);
  for (const RunRef& run : current_->runs) {
    if (run.loc == loc) {
      return true;
    }
  }
  return false;
}

Result<Dependency> LsmIndex::RelocateShardChunk(const Locator& old_loc, const Locator& new_loc,
                                                const Dependency& new_dep) {
  SS_ASSIGN_OR_RETURN(std::optional<ShardId> owner, FindShardReferencing(old_loc));
  if (!owner.has_value()) {
    // The reference disappeared concurrently (overwrite/delete); nothing to update.
    return Dependency();
  }
  // Fetch the current record and rewrite the locator.
  SS_ASSIGN_OR_RETURN(std::optional<ShardRecord> record_opt, Get(*owner));
  if (!record_opt.has_value()) {
    return Dependency();
  }
  ShardRecord record = std::move(*record_opt);
  bool replaced = false;
  for (Locator& c : record.chunks) {
    if (c == old_loc) {
      c = new_loc;
      replaced = true;
    }
  }
  if (!replaced) {
    return Dependency();
  }
  Dependency promise = Dependency::MakePromise();
  {
    LockGuard lock(mu_);
    Entry entry;
    entry.value = std::move(record);
    entry.data_dep = new_dep;
    entry.seq = next_seq_++;
    pending_promises_.push_back({entry.seq, promise});
    memtable_[*owner] = std::move(entry);
    internal_dirty_ = true;  // deliberately *not* api_dirty_ (see bug #3)
  }
  SS_COVER("lsm.relocate_shard_chunk");
  return promise;
}

Result<Dependency> LsmIndex::RelocateRunChunk(const Locator& old_loc, const Locator& new_loc,
                                              const Dependency& new_dep) {
  LockGuard lock(mu_);
  std::vector<RunRef> runs = current_->runs;
  bool replaced = false;
  for (RunRef& run : runs) {
    if (run.loc == old_loc) {
      run.loc = new_loc;
      run.dep = new_dep;  // the evacuated copy is what the metadata now references
      replaced = true;
    }
  }
  if (!replaced) {
    return Dependency();
  }
  SS_COVER("lsm.relocate_run_chunk");
  // The new run list must be durable before the old chunk's extent is reset; the new
  // metadata record is gated on the evacuated copy. Until it is written the old chunk
  // stays the referenced one, so a failed write publishes nothing.
  std::shared_ptr<const Version> next = MakeVersion(std::move(runs));
  SS_ASSIGN_OR_RETURN(Dependency meta_dep, WriteMetadataLocked(*next, new_dep));
  current_ = std::move(next);
  return meta_dep;
}

Dependency LsmIndex::StateDurableGate() {
  LockGuard lock(mu_);
  if (memtable_.empty()) {
    return last_meta_dep_;
  }
  Dependency promise = Dependency::MakePromise();
  pending_promises_.push_back({next_seq_ - 1, promise});
  return promise.And(last_meta_dep_);
}

size_t LsmIndex::MemtableEntries() const {
  LockGuard lock(mu_);
  return memtable_.size();
}

size_t LsmIndex::RunCount() const {
  LockGuard lock(mu_);
  return current_->runs.size();
}

size_t LsmIndex::RunCountAtLevel(int level) const {
  LockGuard lock(mu_);
  size_t count = 0;
  for (const Version::Level& l : current_->levels) {
    count += l.level == level ? l.end - l.begin : 0;
  }
  return count;
}

std::vector<int> LsmIndex::RunLevels() const {
  LockGuard lock(mu_);
  std::vector<int> out;
  out.reserve(current_->runs.size());
  for (const RunRef& run : current_->runs) {
    out.push_back(run.level);
  }
  return out;
}

uint64_t LsmIndex::MetadataVersion() const {
  LockGuard lock(mu_);
  return version_;
}

std::vector<Locator> LsmIndex::RunLocators() const {
  LockGuard lock(mu_);
  std::vector<Locator> out;
  out.reserve(current_->runs.size());
  for (const RunRef& run : current_->runs) {
    out.push_back(run.loc);
  }
  return out;
}

std::vector<std::shared_ptr<const RunFilter>> LsmIndex::RunFilters() const {
  LockGuard lock(mu_);
  std::vector<std::shared_ptr<const RunFilter>> out;
  out.reserve(current_->runs.size());
  for (const RunRef& run : current_->runs) {
    out.push_back(run.filter);
  }
  return out;
}

}  // namespace ss
