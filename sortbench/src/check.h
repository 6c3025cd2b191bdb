// Copyright 2026 the rowsort authors. Licensed under the MIT license.
//
// Output checks of the tracked benchmark. They are independent of the engine:
// order is decided on `Value`s of the ORDER BY columns (never on normalized
// keys), and row-multiset equality uses an order-independent hash over every
// column.
#pragma once

#include <cstdint>
#include <string>

#include "sortkey/sort_spec.h"
#include "workload/tables.h"

namespace sortbench {

/// The checks run after timing stops and spread a table's chunks over up to
/// this many threads. Callers whose checks overlap other timed work (the
/// service clients) pass 1, so a check runs on the calling thread alone.
constexpr uint64_t kCheckThreads = 4;

/// Order-independent digest of a bag of rows: equal for two tables exactly
/// when (up to hash collisions) they hold the same rows with the same
/// multiplicities, whatever the order.
struct RowMultiset {
  uint64_t rows = 0;
  uint64_t sum = 0;      ///< sum of row hashes (mod 2^64)
  uint64_t mix_sum = 0;  ///< sum of a second mix of each row hash

  void Add(uint64_t row_hash);
  bool operator==(const RowMultiset& other) const {
    return rows == other.rows && sum == other.sum && mix_sum == other.mix_sum;
  }
  bool operator!=(const RowMultiset& other) const { return !(*this == other); }
};

RowMultiset MultisetOf(const rowsort::Table& table,
                        uint64_t threads = kCheckThreads);

/// Order-dependent checksum of a table (row order matters): the input
/// fingerprint that must repeat for a repeated seed.
uint64_t SequenceChecksum(const rowsort::Table& table);

/// "" when \p table is ordered by \p spec, else a description of the first
/// out-of-order pair.
std::string CheckSorted(const rowsort::Table& table,
                        const rowsort::SortSpec& spec,
                        uint64_t threads = kCheckThreads);

/// Full check of a sort's output: ordered by \p spec and the same row
/// multiset as the input. Returns "" on success.
std::string CheckSortOutput(const rowsort::Table& output,
                            const rowsort::SortSpec& spec,
                            const RowMultiset& expected,
                            uint64_t threads = kCheckThreads);

}  // namespace sortbench
