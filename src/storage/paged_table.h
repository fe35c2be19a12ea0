#ifndef MAYBMS_STORAGE_PAGED_TABLE_H_
#define MAYBMS_STORAGE_PAGED_TABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "base/result.h"
#include "storage/buffer_pool.h"
#include "storage/table.h"
#include "types/schema.h"
#include "types/tuple.h"

namespace maybms::storage {

/// Consecutive page ids [first_page, first_page + page_count).
struct PageExtent {
  uint64_t first_page = 0;
  uint64_t page_count = 0;

  bool operator==(const PageExtent& other) const {
    return first_page == other.first_page && page_count == other.page_count;
  }
};

/// The pages holding one relation (or one schema-less tuple run, e.g. a
/// decomposed component's contributions), in row order. The pages need
/// not be contiguous: a run rewritten by a commit keeps the pages of its
/// predecessor whose rows did not change and adds fresh pages from the
/// file tail for the rows that did. Adjacent page ids coalesce into one
/// extent, so a run written in one go is a single extent.
struct PageRun {
  std::vector<PageExtent> extents;
  uint64_t num_rows = 0;

  uint64_t page_count() const;
  /// Appends one page id, extending the last extent when it is adjacent.
  void AppendPage(uint64_t page_id);
};

/// How full one page of a run is, recorded at write time (and rebuilt by
/// a scan at load) so a later rewrite can reuse or absorb the page without
/// reading it.
struct PageFill {
  uint32_t rows = 0;   // tuple records (a first page's schema excluded)
  uint32_t bytes = 0;  // record and slot bytes in use
};

/// The durable form of one Table: a schema record followed by its tuples,
/// in row order, across a page run. Reads pin pages on demand through the
/// buffer pool — a scan touches O(pool) memory however large the
/// relation, and every page read is checksum-verified before a single
/// value is decoded.
///
/// Record encoding (self-describing, little-endian):
///   schema record: u16 num_columns, then per column
///                  {u8 type tag, u32 name_len, name, u32 qual_len, qual}
///   tuple record:  u16 num_values, then per value a u8 type tag and
///                  payload — int64/double as 8 raw bytes (doubles as bit
///                  patterns, so restored probabilities are bit-identical),
///                  text as u32 length + bytes, boolean as 1 byte.
///
/// The first page of a run starts with the schema record; tuples follow,
/// spilling onto later pages (which hold only tuple records). A record
/// must fit one page (Page::kMaxRecordSize ≈ 8 KiB) — oversized rows are
/// a clean kUnsupported error at write time, not a torn encoding.
class PagedTable {
 public:
  /// The durable predecessor of a run being written: its pages, their
  /// fills, and the rows and schema they encode.
  struct Base {
    const PageRun* run = nullptr;
    const std::vector<PageFill>* fills = nullptr;
    const Schema* schema = nullptr;
    const std::vector<Tuple>* rows = nullptr;
  };

  /// Writes `rows` under `schema` (empty for a schema-less tuple run) as a
  /// run. New pages are taken from *next_page_id, which is advanced, and
  /// are left dirty in the pool; the commit protocol flushes and syncs
  /// them.
  ///
  /// With a `base` of the same schema, only the rows between the longest
  /// common prefix and suffix of `rows` and the base's rows are encoded:
  /// base pages holding nothing but prefix rows, or nothing but suffix
  /// rows, are reused as they are (same rows, same order, so the same
  /// bytes and checksums). To keep pages full without a compaction pass,
  /// the fresh region also re-encodes the reused page before it when the
  /// region's first row would still fit there, and each reused page after
  /// it whose records fit in the fresh tail page. Without a base, or with
  /// nothing in common, every row is encoded — the same writer over one
  /// region that covers the whole run.
  static Result<PagedTable> Write(const Schema& schema,
                                  const std::vector<Tuple>& rows,
                                  BufferPool* pool, uint64_t* next_page_id,
                                  const Base* base = nullptr);

  /// Re-attaches to an existing run (after recovery/reopen).
  PagedTable(BufferPool* pool, PageRun run)
      : pool_(pool), run_(std::move(run)) {}

  const PageRun& run() const { return run_; }
  uint64_t num_rows() const { return run_.num_rows; }
  /// Per-page fills in run order; filled by Write, empty when re-attached.
  const std::vector<PageFill>& fills() const { return fills_; }

  /// Decodes the schema record.
  Result<Schema> ReadSchema() const;

  /// Streams every row in order through `fn`, pinning one page at a time.
  /// When `fills` is given it receives the fill of every page scanned.
  Status Scan(const std::function<Status(Tuple)>& fn,
              std::vector<PageFill>* fills = nullptr) const;

  /// Rebuilds the full in-memory Table (schema + rows).
  Result<std::shared_ptr<const Table>> Materialize(
      std::vector<PageFill>* fills = nullptr) const;

  /// Rebuilds just the rows (for schema-less runs).
  Result<std::vector<Tuple>> MaterializeTuples() const;

 private:
  BufferPool* pool_;
  PageRun run_;
  std::vector<PageFill> fills_;
};

}  // namespace maybms::storage

#endif  // MAYBMS_STORAGE_PAGED_TABLE_H_
