#include "storage/store.h"

#include <algorithm>
#include <utility>

#include "base/query_context.h"
#include "storage/codec.h"
#include "storage/page.h"

namespace maybms::storage {

namespace {

constexpr uint32_t kRootMagic = 0x4D42524F;      // "MBRO"
constexpr uint32_t kManifestMagic = 0x4D424D46;  // "MBMF"

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

void EncodeRun(std::vector<std::byte>* out, const PageRun& run) {
  codec::PutU64(out, run.first_page);
  codec::PutU64(out, run.page_count);
  codec::PutU64(out, run.num_rows);
}

Result<PageRun> DecodeRun(codec::Reader* r) {
  PageRun run;
  MAYBMS_ASSIGN_OR_RETURN(run.first_page, r->U64());
  MAYBMS_ASSIGN_OR_RETURN(run.page_count, r->U64());
  MAYBMS_ASSIGN_OR_RETURN(run.num_rows, r->U64());
  return run;
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
  MAYBMS_ASSIGN_OR_RETURN(uint64_t n, r->U64());
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

Result<ManifestData> DecodeManifest(const std::vector<std::byte>& bytes) {
  codec::Reader r(bytes.data(), bytes.size());
  ManifestData m;
  MAYBMS_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kManifestMagic) {
    return Status::DataLoss("store manifest: bad magic");
  }
  MAYBMS_ASSIGN_OR_RETURN(m.engine, r.String());

  MAYBMS_ASSIGN_OR_RETURN(uint64_t num_tables, r.U64());
  m.table_runs.reserve(num_tables);
  for (uint64_t i = 0; i < num_tables; ++i) {
    MAYBMS_ASSIGN_OR_RETURN(PageRun run, DecodeRun(&r));
    m.table_runs.push_back(run);
  }

  MAYBMS_ASSIGN_OR_RETURN(uint64_t num_worlds, r.U64());
  m.worlds.reserve(num_worlds);
  for (uint64_t i = 0; i < num_worlds; ++i) {
    DurableSnapshot::WorldRef world;
    MAYBMS_ASSIGN_OR_RETURN(world.probability, r.Double());
    MAYBMS_ASSIGN_OR_RETURN(world.relations, DecodeRelationRefs(&r));
    m.worlds.push_back(std::move(world));
  }

  MAYBMS_ASSIGN_OR_RETURN(m.certain, DecodeRelationRefs(&r));

  MAYBMS_ASSIGN_OR_RETURN(uint64_t num_components, r.U64());
  m.components.reserve(num_components);
  for (uint64_t i = 0; i < num_components; ++i) {
    ManifestData::ComponentRuns component;
    MAYBMS_ASSIGN_OR_RETURN(uint64_t num_alts, r.U64());
    component.alternatives.reserve(num_alts);
    for (uint64_t a = 0; a < num_alts; ++a) {
      ManifestData::AlternativeRuns alt;
      MAYBMS_ASSIGN_OR_RETURN(alt.probability, r.Double());
      MAYBMS_ASSIGN_OR_RETURN(uint64_t num_contribs, r.U64());
      alt.contributions.reserve(num_contribs);
      for (uint64_t c = 0; c < num_contribs; ++c) {
        MAYBMS_ASSIGN_OR_RETURN(std::string relation, r.String());
        MAYBMS_ASSIGN_OR_RETURN(PageRun run, DecodeRun(&r));
        alt.contributions.emplace_back(std::move(relation), run);
      }
      component.alternatives.push_back(std::move(alt));
    }
    m.components.push_back(std::move(component));
  }

  MAYBMS_ASSIGN_OR_RETURN(uint64_t num_metadata, r.U64());
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

    // 1. Table runs, pointer-deduped against the committed generation:
    // only instances not already durable are written.
    manifest.table_runs.reserve(snapshot.tables.size());
    for (const Database::TableHandle& handle : snapshot.tables) {
      if (const RunInfo* info = reuse(handle.get())) {
        manifest.table_runs.push_back(info->runs.front());
        continue;
      }
      MAYBMS_ASSIGN_OR_RETURN(PagedTable paged,
                              PagedTable::Write(*handle, &pool_, &next));
      manifest.table_runs.push_back(paged.run());
      persisted[handle.get()] = RunInfo{{paged.run()}, handle};
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
                PagedTable run, PagedTable::WriteTuples(tuples, &pool_, &next));
            runs.push_back(run.run());
          }
          alt_runs.contributions.emplace_back(relation, runs.back());
        }
        component_runs.alternatives.push_back(std::move(alt_runs));
      }
      if (reused == nullptr && component.instance != nullptr) {
        persisted[component.instance.get()] =
            RunInfo{std::move(runs), component.instance};
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
  MAYBMS_ASSIGN_OR_RETURN(ManifestData manifest, DecodeManifest(bytes));

  DurableSnapshot snapshot;
  snapshot.engine = std::move(manifest.engine);
  snapshot.worlds = std::move(manifest.worlds);
  snapshot.certain = std::move(manifest.certain);
  snapshot.metadata = std::move(manifest.metadata);

  // Materialize each deduped table instance ONCE and prime the dedup map
  // with the fresh handles: worlds sharing a table index share the
  // restored instance, and the next Commit rewrites none of them.
  std::map<const void*, RunInfo> persisted;
  snapshot.tables.reserve(manifest.table_runs.size());
  for (const PageRun& run : manifest.table_runs) {
    PagedTable paged(&pool_, run);
    MAYBMS_ASSIGN_OR_RETURN(Database::TableHandle handle, paged.Materialize());
    persisted[handle.get()] = RunInfo{{run}, handle};
    snapshot.tables.push_back(std::move(handle));
  }

  snapshot.components.reserve(manifest.components.size());
  for (const auto& component_runs : manifest.components) {
    DurableSnapshot::ComponentRef component;
    component.alternatives.reserve(component_runs.alternatives.size());
    for (const auto& alt_runs : component_runs.alternatives) {
      DurableSnapshot::AlternativeRef alt;
      alt.probability = alt_runs.probability;
      alt.contributions.reserve(alt_runs.contributions.size());
      for (const auto& [relation, run] : alt_runs.contributions) {
        PagedTable paged(&pool_, run);
        MAYBMS_ASSIGN_OR_RETURN(std::vector<Tuple> tuples,
                                paged.MaterializeTuples());
        alt.contributions.emplace_back(relation, std::move(tuples));
      }
      component.alternatives.push_back(std::move(alt));
    }
    snapshot.components.push_back(std::move(component));
  }

  persisted_ = std::move(persisted);
  return snapshot;
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
