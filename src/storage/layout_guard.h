#ifndef MAYBMS_STORAGE_LAYOUT_GUARD_H_
#define MAYBMS_STORAGE_LAYOUT_GUARD_H_

// Table and Database (storage/table.h, storage/catalog.h) carry Debug-only
// members, so their layout depends on NDEBUG. A program must be compiled
// with the same NDEBUG setting as the library it links against; a mix
// reads every Table at the wrong offsets. This header makes the mix fail
// at link time: the library defines one of two symbols, chosen by its own
// NDEBUG (storage/table.cc), and every translation unit that includes
// table.h or catalog.h references the one its NDEBUG selects.

namespace maybms::storage {

#ifdef NDEBUG
extern const char kBuiltWithNDEBUG;
[[gnu::used]] static const char* const kLayoutGuard = &kBuiltWithNDEBUG;
#else
extern const char kBuiltWithoutNDEBUG;
[[gnu::used]] static const char* const kLayoutGuard = &kBuiltWithoutNDEBUG;
#endif

}  // namespace maybms::storage

#endif  // MAYBMS_STORAGE_LAYOUT_GUARD_H_
