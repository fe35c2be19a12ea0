#include "storage/paged_table.h"

#include <algorithm>
#include <string>
#include <utility>

#include "base/query_context.h"
#include "storage/codec.h"

namespace maybms::storage {

namespace {

/// Record and slot bytes one page can hold.
constexpr size_t kPageCapacity = kPageSize - Page::kHeaderSize;

/// The most rows a page can hold: every tuple record is at least its u16
/// arity, plus a slot.
constexpr uint64_t kMaxRowsPerPage = kPageCapacity / (Page::kSlotSize + 2);

/// Appends records to fresh pages, opening a new page whenever the
/// current one is full, and records each page in the run with its fill.
class RunWriter {
 public:
  RunWriter(BufferPool* pool, uint64_t* next_page_id, PageRun* run,
            std::vector<PageFill>* fills)
      : pool_(pool), next_page_id_(next_page_id), run_(run), fills_(fills) {}

  Status Append(const std::vector<std::byte>& record, bool is_row) {
    if (record.size() > Page::kMaxRecordSize) {
      return Status::Unsupported(
          "paged storage: record of " + std::to_string(record.size()) +
          " bytes exceeds the one-page limit of " +
          std::to_string(Page::kMaxRecordSize) + " bytes");
    }
    if (!current_.valid() ||
        !current_.mutable_page()->CanFit(record.size())) {
      MAYBMS_RETURN_NOT_OK(OpenNextPage());
    }
    if (!current_.mutable_page()->AppendRecord(record.data(),
                                               record.size())) {
      return Status::RuntimeError(
          "paged storage: record rejected by a fresh page");
    }
    PageFill& fill = fills_->back();
    fill.rows += is_row ? 1 : 0;
    fill.bytes += static_cast<uint32_t>(record.size() + Page::kSlotSize);
    return Status::OK();
  }

  /// Free record and slot bytes on the open page (0 when none is open).
  size_t free_bytes() const {
    return current_.valid() ? kPageCapacity - fills_->back().bytes : 0;
  }

  /// Unpins the last page.
  void Close() { current_.Release(); }

 private:
  Status OpenNextPage() {
    // Page granularity is the storage write path's cancellation point.
    // Aborting here only strands speculative pages past the committed
    // root — the next successful commit reuses the file tail, so no
    // durable state is torn (see PagedStore::Commit).
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    current_.Release();  // unpin before grabbing the next frame
    MAYBMS_ASSIGN_OR_RETURN(current_, pool_->NewPage(*next_page_id_));
    run_->AppendPage((*next_page_id_)++);
    fills_->push_back(PageFill{});
    return Status::OK();
  }

  BufferPool* pool_;
  uint64_t* next_page_id_;
  PageRun* run_;
  std::vector<PageFill>* fills_;
  PageRef current_;
};

}  // namespace

uint64_t PageRun::page_count() const {
  uint64_t pages = 0;
  for (const PageExtent& extent : extents) pages += extent.page_count;
  return pages;
}

void PageRun::AppendPage(uint64_t page_id) {
  if (!extents.empty() &&
      extents.back().first_page + extents.back().page_count == page_id) {
    ++extents.back().page_count;
  } else {
    extents.push_back(PageExtent{page_id, 1});
  }
}

Result<PagedTable> PagedTable::Write(const Schema& schema,
                                     const std::vector<Tuple>& rows,
                                     BufferPool* pool, uint64_t* next_page_id,
                                     const Base* base) {
  const std::vector<std::byte> schema_record = codec::EncodeSchema(schema);
  PagedTable result(pool, PageRun{});
  result.run_.num_rows = rows.size();

  // The base's pages in run order, with the index of each one's first
  // row. A base under another schema record is no base: its first page
  // would carry the wrong schema.
  std::vector<uint64_t> old_ids;
  std::vector<size_t> old_start;
  size_t old_rows = 0;
  if (base != nullptr && base->run->page_count() == base->fills->size() &&
      codec::EncodeSchema(*base->schema) == schema_record) {
    for (const PageExtent& extent : base->run->extents) {
      for (uint64_t p = 0; p < extent.page_count; ++p) {
        old_ids.push_back(extent.first_page + p);
        old_start.push_back(old_rows);
        old_rows += (*base->fills)[old_start.size() - 1].rows;
      }
    }
    if (old_rows != base->rows->size()) {
      old_ids.clear();
      old_start.clear();
      old_rows = 0;
    }
  }
  const size_t m = old_ids.size();

  // The longest common prefix and suffix, compared by encoding so a kept
  // page never differs from the row it stands for.
  size_t prefix = 0;
  size_t suffix = 0;
  if (m > 0) {
    const std::vector<Tuple>& old = *base->rows;
    const size_t common = std::min(rows.size(), old.size());
    while (prefix < common &&
           codec::EncodesIdentically(rows[prefix], old[prefix])) {
      ++prefix;
    }
    while (suffix < common - prefix &&
           codec::EncodesIdentically(rows[rows.size() - 1 - suffix],
                                     old[old.size() - 1 - suffix])) {
      ++suffix;
    }
  }

  // Old pages [0, k) hold only prefix rows and old pages [j, m) only
  // suffix rows; the first page is never a suffix page, because its
  // schema record must start the run. New rows [a, b) lie between them.
  const std::vector<PageFill>* old_fills = m > 0 ? base->fills : nullptr;
  auto rows_before = [&](size_t page) {
    return page < m ? old_start[page] : old_rows;
  };
  size_t k = 0;
  while (k < m && rows_before(k + 1) <= prefix) ++k;
  size_t j = m;
  while (j > std::max<size_t>(k, 1) &&
         old_start[j - 1] >= old_rows - suffix) {
    --j;
  }
  size_t a = rows_before(k);
  size_t b = rows.size() - (old_rows - rows_before(j));

  // Re-encode the kept page before the fresh rows too when the first of
  // them still fits on it, so appends and edits fill pages up.
  if (k > 0 && a < b &&
      (*old_fills)[k - 1].bytes + codec::EncodeTuple(rows[a]).size() +
              Page::kSlotSize <=
          kPageCapacity) {
    --k;
    a = rows_before(k);
  }

  PageRun& run = result.run_;
  std::vector<PageFill>& fills = result.fills_;
  for (size_t p = 0; p < k; ++p) {
    run.AppendPage(old_ids[p]);
    fills.push_back((*old_fills)[p]);
  }
  RunWriter writer(pool, next_page_id, &run, &fills);
  if (k == 0) {
    MAYBMS_RETURN_NOT_OK(writer.Append(schema_record, /*is_row=*/false));
  }
  for (size_t i = a; i < b; ++i) {
    MAYBMS_RETURN_NOT_OK(writer.Append(codec::EncodeTuple(rows[i]), true));
  }
  // A kept page after the fresh rows whose records fit in the last fresh
  // page is re-encoded into it instead of being kept.
  while (j < m && (*old_fills)[j].bytes <= writer.free_bytes()) {
    for (size_t i = b; i < b + (*old_fills)[j].rows; ++i) {
      MAYBMS_RETURN_NOT_OK(writer.Append(codec::EncodeTuple(rows[i]), true));
    }
    b += (*old_fills)[j].rows;
    ++j;
  }
  writer.Close();
  for (size_t p = j; p < m; ++p) {
    run.AppendPage(old_ids[p]);
    fills.push_back((*old_fills)[p]);
  }
  return result;
}

Result<Schema> PagedTable::ReadSchema() const {
  if (run_.extents.empty()) {
    return Status::DataLoss("paged storage: run has no pages");
  }
  MAYBMS_ASSIGN_OR_RETURN(PageRef page,
                          pool_->Pin(run_.extents.front().first_page));
  MAYBMS_ASSIGN_OR_RETURN(auto record, page.page().Record(0));
  return codec::DecodeSchema(record.first, record.second);
}

Status PagedTable::Scan(const std::function<Status(Tuple)>& fn,
                        std::vector<PageFill>* fills) const {
  uint64_t rows_seen = 0;
  bool first_page = true;
  for (const PageExtent& extent : run_.extents) {
    for (uint64_t p = 0; p < extent.page_count; ++p) {
      // Page-granularity poll on the read path; scans feed local state
      // only, so an abort mid-scan tears nothing.
      MAYBMS_RETURN_NOT_OK(base::GovernPoll());
      MAYBMS_ASSIGN_OR_RETURN(PageRef ref, pool_->Pin(extent.first_page + p));
      const Page& page = ref.page();
      // Record 0 of the first page is the schema, not a row.
      const uint16_t first_slot = first_page ? 1 : 0;
      first_page = false;
      uint32_t page_rows = 0;
      for (uint16_t slot = first_slot; slot < page.num_records(); ++slot) {
        MAYBMS_ASSIGN_OR_RETURN(auto record, page.Record(slot));
        MAYBMS_ASSIGN_OR_RETURN(
            Tuple row, codec::DecodeTuple(record.first, record.second));
        MAYBMS_RETURN_NOT_OK(fn(std::move(row)));
        ++page_rows;
      }
      rows_seen += page_rows;
      if (fills != nullptr) {
        fills->push_back(PageFill{
            page_rows,
            static_cast<uint32_t>(kPageCapacity - page.FreeSpace())});
      }
    }
  }
  if (rows_seen != run_.num_rows) {
    return Status::DataLoss(
        "paged storage: run at page " +
        std::to_string(run_.extents.empty() ? 0
                                            : run_.extents.front().first_page) +
        " decoded " + std::to_string(rows_seen) + " rows, manifest says " +
        std::to_string(run_.num_rows));
  }
  return Status::OK();
}

Result<std::shared_ptr<const Table>> PagedTable::Materialize(
    std::vector<PageFill>* fills) const {
  MAYBMS_ASSIGN_OR_RETURN(Schema schema, ReadSchema());
  auto table = std::make_shared<Table>(std::move(schema));
  MAYBMS_RETURN_NOT_OK(Scan(
      [&table](Tuple row) {
        table->AppendUnchecked(std::move(row));
        return Status::OK();
      },
      fills));
  return std::shared_ptr<const Table>(std::move(table));
}

Result<std::vector<Tuple>> PagedTable::MaterializeTuples() const {
  // The row count comes off disk: bound it by what the pages can hold
  // before reserving for it.
  if (run_.num_rows > run_.page_count() * kMaxRowsPerPage) {
    return Status::DataLoss("paged storage: run claims " +
                            std::to_string(run_.num_rows) + " rows in " +
                            std::to_string(run_.page_count()) + " pages");
  }
  std::vector<Tuple> rows;
  rows.reserve(run_.num_rows);
  MAYBMS_RETURN_NOT_OK(Scan([&rows](Tuple row) {
    rows.push_back(std::move(row));
    return Status::OK();
  }));
  return rows;
}

}  // namespace maybms::storage
