#include "storage/store.h"

#include <algorithm>
#include <utility>

#include "base/query_context.h"
#include "storage/codec.h"
#include "storage/page.h"

namespace maybms::storage {

namespace {

constexpr uint32_t kRootMagic = 0x4D42524F;  // "MBRO"
// The manifest magic doubles as its format version. "MBMF" manifests
// stored every run as one contiguous page range; "MBM2" manifests store
// runs as page extents.
constexpr uint32_t kContiguousManifestMagic = 0x4D424D46;  // "MBMF"
constexpr uint32_t kManifestMagic = 0x4D424D32;            // "MBM2"

// Smallest encodings of manifest entries, which bound the counts read
// from disk by the bytes that follow them.
constexpr size_t kExtentBytes = 16;
constexpr size_t kRunBytes = 16 + kExtentBytes;
constexpr size_t kRelationRefBytes = 4 + 8;
constexpr size_t kWorldBytes = 8 + 8;
constexpr size_t kComponentBytes = 8;
constexpr size_t kAlternativeBytes = 8 + 8;
constexpr size_t kContributionBytes = 4 + kRunBytes;
constexpr size_t kMetadataBytes = 4 + 4;

std::vector<std::byte> EncodeRoot(uint64_t generation,
                                  uint64_t manifest_start,
                                  uint64_t manifest_pages,
                                  uint64_t next_free_page) {
  std::vector<std::byte> out;
  codec::PutU32(&out, kRootMagic);
  codec::PutU64(&out, generation);
  codec::PutU64(&out, manifest_start);
  codec::PutU64(&out, manifest_pages);
  codec::PutU64(&out, next_free_page);
  return out;
}

/// Reads a u64 count of entries of at least `min_entry_bytes` each. A
/// count the remaining bytes cannot hold is corruption, caught here
/// rather than by a reserve() that throws.
Result<uint64_t> DecodeCount(codec::Reader* r, size_t min_entry_bytes,
                             const char* what) {
  MAYBMS_ASSIGN_OR_RETURN(uint64_t n, r->U64());
  if (n > r->remaining() / min_entry_bytes) {
    return Status::DataLoss("store manifest: " + std::string(what) +
                            " count " + std::to_string(n) +
                            " exceeds the manifest's size");
  }
  return n;
}

void EncodeRun(std::vector<std::byte>* out, const PageRun& run) {
  codec::PutU64(out, run.num_rows);
  codec::PutU64(out, run.extents.size());
  for (const PageExtent& extent : run.extents) {
    codec::PutU64(out, extent.first_page);
    codec::PutU64(out, extent.page_count);
  }
}

/// Decodes a run whose pages must all lie in the data pages below
/// `end_page` (the root's next free page).
Result<PageRun> DecodeRun(codec::Reader* r, uint64_t end_page) {
  PageRun run;
  MAYBMS_ASSIGN_OR_RETURN(run.num_rows, r->U64());
  MAYBMS_ASSIGN_OR_RETURN(uint64_t num_extents,
                          DecodeCount(r, kExtentBytes, "run extent"));
  if (num_extents == 0) {
    return Status::DataLoss("store manifest: a run with no pages");
  }
  run.extents.reserve(num_extents);
  uint64_t pages = 0;
  for (uint64_t i = 0; i < num_extents; ++i) {
    PageExtent extent;
    MAYBMS_ASSIGN_OR_RETURN(extent.first_page, r->U64());
    MAYBMS_ASSIGN_OR_RETURN(extent.page_count, r->U64());
    // A run's pages are distinct data pages, so together they fit below
    // end_page; checked without overflow.
    if (extent.page_count == 0 || extent.first_page < 2 ||
        extent.first_page >= end_page ||
        extent.page_count > end_page - extent.first_page ||
        extent.page_count > end_page - 2 - pages) {
      return Status::DataLoss("store manifest: run extent out of bounds");
    }
    pages += extent.page_count;
    run.extents.push_back(extent);
  }
  return run;
}
/// Calls fn(place, relation) for every relation the snapshot binds: the
/// certain core is place 0, world w is place w + 1.
template <typename Fn>
void ForEachBinding(const DurableSnapshot& snapshot, Fn fn) {
  for (const auto& ref : snapshot.certain) fn(size_t{0}, ref);
  for (size_t w = 0; w < snapshot.worlds.size(); ++w) {
    for (const auto& ref : snapshot.worlds[w].relations) fn(w + 1, ref);
  }
}

/// The manifest skeleton before table runs are materialized into handles.
struct ManifestData {
  std::string engine;
  std::vector<PageRun> table_runs;
  std::vector<DurableSnapshot::WorldRef> worlds;
  std::vector<DurableSnapshot::RelationRef> certain;
  struct AlternativeRuns {
    double probability = 1.0;
    std::vector<std::pair<std::string, PageRun>> contributions;
  };
  struct ComponentRuns {
    std::vector<AlternativeRuns> alternatives;
  };
  std::vector<ComponentRuns> components;
  std::vector<std::pair<std::string, std::string>> metadata;
};

void EncodeRelationRefs(std::vector<std::byte>* out,
                        const std::vector<DurableSnapshot::RelationRef>& refs) {
  codec::PutU64(out, refs.size());
  for (const auto& ref : refs) {
    codec::PutString(out, ref.name);
    codec::PutU64(out, ref.table_index);
  }
}

Result<std::vector<DurableSnapshot::RelationRef>> DecodeRelationRefs(
    codec::Reader* r) {
  MAYBMS_ASSIGN_OR_RETURN(uint64_t n,
                          DecodeCount(r, kRelationRefBytes, "relation"));
  std::vector<DurableSnapshot::RelationRef> refs;
  refs.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    DurableSnapshot::RelationRef ref;
    MAYBMS_ASSIGN_OR_RETURN(ref.name, r->String());
    MAYBMS_ASSIGN_OR_RETURN(uint64_t index, r->U64());
    ref.table_index = static_cast<size_t>(index);
    refs.push_back(std::move(ref));
  }
  return refs;
}

std::vector<std::byte> EncodeManifest(const ManifestData& m) {
  std::vector<std::byte> out;
  codec::PutU32(&out, kManifestMagic);
  codec::PutString(&out, m.engine);

  codec::PutU64(&out, m.table_runs.size());
  for (const PageRun& run : m.table_runs) EncodeRun(&out, run);

  codec::PutU64(&out, m.worlds.size());
  for (const auto& world : m.worlds) {
    codec::PutDouble(&out, world.probability);
    EncodeRelationRefs(&out, world.relations);
  }

  EncodeRelationRefs(&out, m.certain);

  codec::PutU64(&out, m.components.size());
  for (const auto& component : m.components) {
    codec::PutU64(&out, component.alternatives.size());
    for (const auto& alt : component.alternatives) {
      codec::PutDouble(&out, alt.probability);
      codec::PutU64(&out, alt.contributions.size());
      for (const auto& [relation, run] : alt.contributions) {
        codec::PutString(&out, relation);
        EncodeRun(&out, run);
      }
    }
  }

  codec::PutU64(&out, m.metadata.size());
  for (const auto& [key, value] : m.metadata) {
    codec::PutString(&out, key);
    codec::PutString(&out, value);
  }
  return out;
}

Result<ManifestData> DecodeManifest(const std::vector<std::byte>& bytes,
                                    uint64_t end_page) {
  codec::Reader r(bytes.data(), bytes.size());
  ManifestData m;
  MAYBMS_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic == kContiguousManifestMagic) {
    return Status::DataLoss(
        "store manifest: written in the contiguous-run format (\"MBMF\"), "
        "which this version does not read; the store must be recreated");
  }
  if (magic != kManifestMagic) {
    return Status::DataLoss("store manifest: bad magic");
  }
  MAYBMS_ASSIGN_OR_RETURN(m.engine, r.String());

  MAYBMS_ASSIGN_OR_RETURN(uint64_t num_tables,
                          DecodeCount(&r, kRunBytes, "table"));
  m.table_runs.reserve(num_tables);
  for (uint64_t i = 0; i < num_tables; ++i) {
    MAYBMS_ASSIGN_OR_RETURN(PageRun run, DecodeRun(&r, end_page));
    m.table_runs.push_back(std::move(run));
  }

  MAYBMS_ASSIGN_OR_RETURN(uint64_t num_worlds,
                          DecodeCount(&r, kWorldBytes, "world"));
  m.worlds.reserve(num_worlds);
  for (uint64_t i = 0; i < num_worlds; ++i) {
    DurableSnapshot::WorldRef world;
    MAYBMS_ASSIGN_OR_RETURN(world.probability, r.Double());
    MAYBMS_ASSIGN_OR_RETURN(world.relations, DecodeRelationRefs(&r));
    m.worlds.push_back(std::move(world));
  }

  MAYBMS_ASSIGN_OR_RETURN(m.certain, DecodeRelationRefs(&r));

  MAYBMS_ASSIGN_OR_RETURN(uint64_t num_components,
                          DecodeCount(&r, kComponentBytes, "component"));
  m.components.reserve(num_components);
  for (uint64_t i = 0; i < num_components; ++i) {
    ManifestData::ComponentRuns component;
    MAYBMS_ASSIGN_OR_RETURN(uint64_t num_alts,
                            DecodeCount(&r, kAlternativeBytes, "alternative"));
    component.alternatives.reserve(num_alts);
    for (uint64_t a = 0; a < num_alts; ++a) {
      ManifestData::AlternativeRuns alt;
      MAYBMS_ASSIGN_OR_RETURN(alt.probability, r.Double());
      MAYBMS_ASSIGN_OR_RETURN(
          uint64_t num_contribs,
          DecodeCount(&r, kContributionBytes, "contribution"));
      alt.contributions.reserve(num_contribs);
      for (uint64_t c = 0; c < num_contribs; ++c) {
        MAYBMS_ASSIGN_OR_RETURN(std::string relation, r.String());
        MAYBMS_ASSIGN_OR_RETURN(PageRun run, DecodeRun(&r, end_page));
        alt.contributions.emplace_back(std::move(relation), std::move(run));
      }
      component.alternatives.push_back(std::move(alt));
    }
    m.components.push_back(std::move(component));
  }

  MAYBMS_ASSIGN_OR_RETURN(uint64_t num_metadata,
                          DecodeCount(&r, kMetadataBytes, "metadata"));
  m.metadata.reserve(num_metadata);
  for (uint64_t i = 0; i < num_metadata; ++i) {
    MAYBMS_ASSIGN_OR_RETURN(std::string key, r.String());
    MAYBMS_ASSIGN_OR_RETURN(std::string value, r.String());
    m.metadata.emplace_back(std::move(key), std::move(value));
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("store manifest: trailing bytes");
  }
  return m;
}

}  // namespace

Result<std::unique_ptr<PagedStore>> PagedStore::Open(const std::string& path,
                                                     size_t pool_pages) {
  MAYBMS_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                          File::Open(path, /*create=*/true));
  std::unique_ptr<PagedStore> store(
      new PagedStore(std::move(file), pool_pages));

  // Recovery: the valid root slot with the highest generation wins. An
  // INVALID slot (bad checksum, bad magic, truncated) is not an error —
  // it is a slot no commit ever completed into (or the slot torn by the
  // crash this reopen is recovering from). An UNREADABLE slot is: a
  // device-level kIOError must propagate, because "recovering" an empty
  // store from a disk that merely failed to answer would let the next
  // commit overwrite data that is still there.
  bool found = false;
  RootRecord best;
  for (uint64_t slot = 0; slot < 2; ++slot) {
    Result<RootRecord> root = store->ReadRootSlot(slot);
    if (!root.ok() && root.status().code() == StatusCode::kIOError) {
      return root.status();
    }
    if (root.ok() && (!found || root.value().generation > best.generation)) {
      best = root.value();
      found = true;
    }
  }
  if (found) {
    store->has_data_ = true;
    store->root_ = best;
    store->generation_ = best.generation;
    store->next_free_page_ = best.next_free_page;
  }
  return store;
}

Result<PagedStore::RootRecord> PagedStore::ReadRootSlot(uint64_t slot) const {
  MAYBMS_ASSIGN_OR_RETURN(uint64_t size, file_->Size());
  if (size < (slot + 1) * kPageSize) {
    return Status::DataLoss("store root slot " + std::to_string(slot) +
                            ": beyond end of file");
  }
  auto page = std::make_unique<Page>();
  MAYBMS_RETURN_NOT_OK(
      file_->ReadAt(slot * kPageSize, page->data(), kPageSize));
  MAYBMS_RETURN_NOT_OK(page->VerifyChecksum(slot));
  MAYBMS_ASSIGN_OR_RETURN(auto record, page->Record(0));

  codec::Reader r(record.first, record.second);
  MAYBMS_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kRootMagic) {
    return Status::DataLoss("store root slot " + std::to_string(slot) +
                            ": bad root magic");
  }
  RootRecord root;
  MAYBMS_ASSIGN_OR_RETURN(root.generation, r.U64());
  MAYBMS_ASSIGN_OR_RETURN(root.manifest_start, r.U64());
  MAYBMS_ASSIGN_OR_RETURN(root.manifest_pages, r.U64());
  MAYBMS_ASSIGN_OR_RETURN(root.next_free_page, r.U64());
  return root;
}

Status PagedStore::WriteRootSlot(const RootRecord& root) {
  const uint64_t slot = root.generation % 2;
  auto page = std::make_unique<Page>();
  page->Format(slot);
  const std::vector<std::byte> record =
      EncodeRoot(root.generation, root.manifest_start, root.manifest_pages,
                 root.next_free_page);
  if (!page->AppendRecord(record.data(), record.size())) {
    return Status::RuntimeError("store: root record does not fit a page");
  }
  page->SealChecksum();
  return file_->WriteAt(slot * kPageSize, page->data(), kPageSize);
}

Status PagedStore::Commit(const DurableSnapshot& snapshot) {
  // All page allocation is speculative until the root swap: work on a
  // local cursor and a fresh dedup map, and install them only on success.
  uint64_t next = next_free_page_;
  std::map<const void*, RunInfo> persisted;
  std::map<Binding, const void*> bindings;
  // The runs of an instance the committed generation already holds, kept
  // for the new generation too; null if it must be written.
  auto reuse = [&](const void* instance) -> const RunInfo* {
    auto it = persisted_.find(instance);
    if (it == persisted_.end()) return nullptr;
    return &persisted.insert(*it).first->second;
  };

  Status status = [&]() -> Status {
    ManifestData manifest;
    manifest.engine = snapshot.engine;
    manifest.worlds = snapshot.worlds;
    manifest.certain = snapshot.certain;
    manifest.metadata = snapshot.metadata;

    // The predecessor of each table instance: what the committed
    // generation bound to the first place the instance is bound to.
    std::vector<const RunInfo*> predecessors(snapshot.tables.size(), nullptr);
    ForEachBinding(snapshot, [&](size_t place, const auto& ref) {
      if (ref.table_index >= snapshot.tables.size()) return;
      Binding binding{place, ref.name};
      bindings[binding] = snapshot.tables[ref.table_index].get();
      const RunInfo*& predecessor = predecessors[ref.table_index];
      auto bound = bindings_.find(binding);
      if (predecessor != nullptr || bound == bindings_.end()) return;
      auto it = persisted_.find(bound->second);
      if (it != persisted_.end() && it->second.table != nullptr) {
        predecessor = &it->second;
      }
    });

    // 1. Table runs, pointer-deduped against the committed generation:
    // only instances not already durable are written, and of those only
    // the pages that differ from their predecessor's.
    manifest.table_runs.reserve(snapshot.tables.size());
    for (size_t t = 0; t < snapshot.tables.size(); ++t) {
      const Database::TableHandle& handle = snapshot.tables[t];
      if (const RunInfo* info = reuse(handle.get())) {
        manifest.table_runs.push_back(info->runs.front());
        continue;
      }
      const RunInfo* predecessor = predecessors[t];
      PagedTable::Base base;
      if (predecessor != nullptr) {
        base = {&predecessor->runs.front(), &predecessor->fills,
                &predecessor->table->schema(), &predecessor->table->rows()};
      }
      MAYBMS_ASSIGN_OR_RETURN(
          PagedTable paged,
          PagedTable::Write(handle->schema(), handle->rows(), &pool_, &next,
                            predecessor != nullptr ? &base : nullptr));
      manifest.table_runs.push_back(paged.run());
      persisted[handle.get()] =
          RunInfo{{paged.run()}, paged.fills(), handle.get(), handle};
    }

    // 2. Component contributions as schema-less tuple runs, deduped the
    // same way on the component instance.
    manifest.components.reserve(snapshot.components.size());
    for (const auto& component : snapshot.components) {
      const RunInfo* reused = component.instance != nullptr
                                  ? reuse(component.instance.get())
                                  : nullptr;
      if (reused != nullptr) {
        size_t contributions = 0;
        for (const auto& alt : component.alternatives) {
          contributions += alt.contributions.size();
        }
        if (contributions != reused->runs.size()) {
          return Status::InvalidArgument(
              "store: a component instance changed after it was committed");
        }
      }
      std::vector<PageRun> runs;
      ManifestData::ComponentRuns component_runs;
      component_runs.alternatives.reserve(component.alternatives.size());
      for (const auto& alt : component.alternatives) {
        ManifestData::AlternativeRuns alt_runs;
        alt_runs.probability = alt.probability;
        alt_runs.contributions.reserve(alt.contributions.size());
        for (const auto& [relation, tuples] : alt.contributions) {
          if (reused != nullptr) {
            runs.push_back(reused->runs[runs.size()]);
          } else {
            MAYBMS_ASSIGN_OR_RETURN(
                PagedTable run,
                PagedTable::Write(Schema(), tuples, &pool_, &next));
            runs.push_back(run.run());
          }
          alt_runs.contributions.emplace_back(relation, runs.back());
        }
        component_runs.alternatives.push_back(std::move(alt_runs));
      }
      if (reused == nullptr && component.instance != nullptr) {
        persisted[component.instance.get()] =
            RunInfo{std::move(runs), {}, nullptr, component.instance};
      }
      manifest.components.push_back(std::move(component_runs));
    }

    // 3. The manifest itself, chunked into records across fresh pages.
    const std::vector<std::byte> bytes = EncodeManifest(manifest);
    const uint64_t manifest_start = next;
    {
      size_t pos = 0;
      PageRef current;
      // A zero-length manifest chunk is still one record on one page, so
      // manifest_pages >= 1 and Load always has something to decode.
      do {
        const size_t chunk =
            std::min(bytes.size() - pos, Page::kMaxRecordSize);
        if (!current.valid() ||
            !current.mutable_page()->CanFit(chunk)) {
          current.Release();
          MAYBMS_ASSIGN_OR_RETURN(current, pool_.NewPage(next++));
        }
        if (!current.mutable_page()->AppendRecord(bytes.data() + pos,
                                                  chunk)) {
          return Status::RuntimeError(
              "store: manifest chunk rejected by a fresh page");
        }
        pos += chunk;
      } while (pos < bytes.size());
    }
    const uint64_t manifest_pages = next - manifest_start;

    // LAST cancellation point of the commit. Everything before this —
    // run writing, manifest chunking — only touched speculative pages
    // the durable root does not reference, so an abort rolls back for
    // free (InvalidateUnpinned below). From here on the commit NEVER
    // polls: once the root slot flips, disk state has advanced and the
    // in-memory install must follow unconditionally.
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());

    // 4. Durability barrier: every speculative page on disk before the
    // root can point at it.
    MAYBMS_RETURN_NOT_OK(pool_.FlushAll());
    MAYBMS_RETURN_NOT_OK(file_->Sync());

    // 5. The atomic switch: write the NEXT generation's root slot (the
    // previous generation's slot is untouched), then make it durable.
    RootRecord root;
    root.generation = generation_ + 1;
    root.manifest_start = manifest_start;
    root.manifest_pages = manifest_pages;
    root.next_free_page = next;
    MAYBMS_RETURN_NOT_OK(WriteRootSlot(root));
    MAYBMS_RETURN_NOT_OK(file_->Sync());

    root_ = root;
    return Status::OK();
  }();

  if (!status.ok()) {
    // Drop speculative cached pages, and never reuse their ids: a commit
    // that died on its final fsync may have landed its root, which then
    // references them, and a retry overwriting them would leave that
    // root over foreign pages after a crash.
    pool_.InvalidateUnpinned();
    next_free_page_ = next;
    return status;
  }

  generation_ += 1;
  next_free_page_ = next;
  persisted_ = std::move(persisted);
  bindings_ = std::move(bindings);
  loaded_components_.clear();
  has_data_ = true;
  return Status::OK();
}

Result<DurableSnapshot> PagedStore::Load() {
  if (!has_data_) {
    return Status::NotFound("store: no committed generation to load");
  }

  // Reassemble the manifest bytes from its chunk records.
  std::vector<std::byte> bytes;
  for (uint64_t p = 0; p < root_.manifest_pages; ++p) {
    MAYBMS_ASSIGN_OR_RETURN(PageRef ref, pool_.Pin(root_.manifest_start + p));
    const Page& page = ref.page();
    for (uint16_t slot = 0; slot < page.num_records(); ++slot) {
      MAYBMS_ASSIGN_OR_RETURN(auto record, page.Record(slot));
      bytes.insert(bytes.end(), record.first, record.first + record.second);
    }
  }
  MAYBMS_ASSIGN_OR_RETURN(ManifestData manifest,
                          DecodeManifest(bytes, root_.next_free_page));

  DurableSnapshot snapshot;
  snapshot.engine = std::move(manifest.engine);
  snapshot.worlds = std::move(manifest.worlds);
  snapshot.certain = std::move(manifest.certain);
  snapshot.metadata = std::move(manifest.metadata);

  // Materialize each deduped table instance ONCE and prime the dedup map
  // with the fresh handles (and the page fills the scan saw): worlds
  // sharing a table index share the restored instance, and the next
  // Commit rewrites none of them.
  std::map<const void*, RunInfo> persisted;
  snapshot.tables.reserve(manifest.table_runs.size());
  for (PageRun& run : manifest.table_runs) {
    PagedTable paged(&pool_, run);
    std::vector<PageFill> fills;
    MAYBMS_ASSIGN_OR_RETURN(Database::TableHandle handle,
                            paged.Materialize(&fills));
    persisted[handle.get()] =
        RunInfo{{std::move(run)}, std::move(fills), handle.get(), handle};
    snapshot.tables.push_back(std::move(handle));
  }
  std::map<Binding, const void*> bindings;
  ForEachBinding(snapshot, [&](size_t place, const auto& ref) {
    if (ref.table_index < snapshot.tables.size()) {
      bindings[{place, ref.name}] = snapshot.tables[ref.table_index].get();
    }
  });

  std::vector<LoadedComponent> loaded_components;
  snapshot.components.reserve(manifest.components.size());
  loaded_components.reserve(manifest.components.size());
  for (auto& component_runs : manifest.components) {
    DurableSnapshot::ComponentRef component;
    LoadedComponent loaded;
    loaded.alternatives = component_runs.alternatives.size();
    component.alternatives.reserve(component_runs.alternatives.size());
    for (auto& alt_runs : component_runs.alternatives) {
      DurableSnapshot::AlternativeRef alt;
      alt.probability = alt_runs.probability;
      alt.contributions.reserve(alt_runs.contributions.size());
      for (auto& [relation, run] : alt_runs.contributions) {
        PagedTable paged(&pool_, run);
        MAYBMS_ASSIGN_OR_RETURN(std::vector<Tuple> tuples,
                                paged.MaterializeTuples());
        alt.contributions.emplace_back(relation, std::move(tuples));
        loaded.runs.push_back(std::move(run));
      }
      component.alternatives.push_back(std::move(alt));
    }
    snapshot.components.push_back(std::move(component));
    loaded_components.push_back(std::move(loaded));
  }

  persisted_ = std::move(persisted);
  bindings_ = std::move(bindings);
  loaded_components_ = std::move(loaded_components);
  return snapshot;
}

void PagedStore::AdoptLoadedComponents(const DurableSnapshot& restored) {
  const size_t count =
      std::min(restored.components.size(), loaded_components_.size());
  for (size_t c = 0; c < count; ++c) {
    const DurableSnapshot::ComponentRef& component = restored.components[c];
    LoadedComponent& loaded = loaded_components_[c];
    // The same alternatives, and per contribution the same row count.
    auto same_shape = [&] {
      if (component.alternatives.size() != loaded.alternatives) return false;
      size_t run = 0;
      for (const auto& alt : component.alternatives) {
        for (const auto& contribution : alt.contributions) {
          if (run == loaded.runs.size() ||
              loaded.runs[run++].num_rows != contribution.second.size()) {
            return false;
          }
        }
      }
      return run == loaded.runs.size();
    };
    if (component.instance == nullptr || !same_shape()) continue;
    persisted_[component.instance.get()] =
        RunInfo{std::move(loaded.runs), {}, nullptr, component.instance};
  }
  loaded_components_.clear();
}

std::vector<std::pair<const void*, PageRun>> PagedStore::PersistedRuns()
    const {
  std::vector<std::pair<const void*, PageRun>> runs;
  for (const auto& [instance, info] : persisted_) {
    for (const PageRun& run : info.runs) runs.emplace_back(instance, run);
  }
  return runs;
}

}  // namespace maybms::storage
