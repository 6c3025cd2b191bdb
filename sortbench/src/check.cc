// Copyright 2026 the rowsort authors. Licensed under the MIT license.
#include "check.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string_view>
#include <thread>

#include "types/value.h"

namespace sortbench {

using rowsort::DataChunk;
using rowsort::NullOrder;
using rowsort::OrderType;
using rowsort::SortSpec;
using rowsort::Table;
using rowsort::TypeId;
using rowsort::Value;

namespace {

uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

uint64_t HashBytes(std::string_view bytes) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return Mix(h);
}

uint64_t HashValue(const Value& value) {
  const uint64_t type_tag = static_cast<uint64_t>(value.type().id());
  if (value.is_null()) return Mix(0x6E756C6CULL + type_tag);
  uint64_t bits = 0;
  switch (value.type().id()) {
    case TypeId::kVarchar:
      return HashBytes(value.varchar_value()) ^ type_tag;
    case TypeId::kBool:
      bits = value.bool_value();
      break;
    case TypeId::kInt8:
      bits = static_cast<uint64_t>(value.int8_value());
      break;
    case TypeId::kInt16:
      bits = static_cast<uint64_t>(value.int16_value());
      break;
    case TypeId::kInt32:
    case TypeId::kDate:
      bits = static_cast<uint64_t>(value.int32_value());
      break;
    case TypeId::kInt64:
      bits = static_cast<uint64_t>(value.int64_value());
      break;
    case TypeId::kUint32:
      bits = value.uint32_value();
      break;
    case TypeId::kUint64:
      bits = value.uint64_value();
      break;
    case TypeId::kFloat: {
      const float f = value.float_value();
      uint32_t narrow = 0;
      std::memcpy(&narrow, &f, sizeof(narrow));
      bits = narrow;
      break;
    }
    case TypeId::kDouble: {
      const double d = value.double_value();
      std::memcpy(&bits, &d, sizeof(bits));
      break;
    }
    default:
      break;
  }
  return Mix(bits + 0x9E3779B97F4A7C15ULL * (type_tag + 1));
}

uint64_t HashRow(const DataChunk& chunk, uint64_t row) {
  uint64_t h = 0x243F6A8885A308D3ULL;
  for (uint64_t col = 0; col < chunk.ColumnCount(); ++col) {
    h = Mix(h ^ (HashValue(chunk.GetValue(col, row)) + col));
  }
  return h;
}

/// Three-way comparison of two rows on the ORDER BY columns of \p spec,
/// honouring direction and NULL placement, decided on `Value`s.
int CompareRows(const DataChunk& a, uint64_t a_row, const DataChunk& b,
                uint64_t b_row, const SortSpec& spec) {
  for (const auto& column : spec.columns()) {
    const Value va = a.GetValue(column.column_index, a_row);
    const Value vb = b.GetValue(column.column_index, b_row);
    if (va.is_null() || vb.is_null()) {
      if (va.is_null() && vb.is_null()) continue;
      const bool nulls_first = column.null_order == NullOrder::kNullsFirst;
      return va.is_null() == nulls_first ? -1 : 1;
    }
    int cmp = va.Compare(vb);
    if (cmp == 0) continue;
    if (column.order == OrderType::kDescending) cmp = -cmp;
    return cmp < 0 ? -1 : 1;
  }
  return 0;
}

/// Runs fn(chunk_index) for every chunk of \p table on up to \p threads
/// threads, the calling one included.
void ForEachChunk(const Table& table, uint64_t threads,
                  const std::function<void(uint64_t)>& fn) {
  const uint64_t chunks = table.ChunkCount();
  const uint64_t workers = std::min<uint64_t>(
      {threads, std::max(1u, std::thread::hardware_concurrency()), chunks});
  std::atomic<uint64_t> next{0};
  auto drain = [&] {
    for (uint64_t c = next.fetch_add(1); c < chunks; c = next.fetch_add(1)) {
      fn(c);
    }
  };
  std::vector<std::thread> helpers;
  for (uint64_t t = 1; t < workers; ++t) helpers.emplace_back(drain);
  drain();
  for (auto& t : helpers) t.join();
}

}  // namespace

void RowMultiset::Add(uint64_t row_hash) {
  rows += 1;
  sum += row_hash;
  mix_sum += Mix(row_hash ^ 0x452821E638D01377ULL);
}

RowMultiset MultisetOf(const Table& table, uint64_t threads) {
  std::vector<RowMultiset> per_chunk(table.ChunkCount());
  ForEachChunk(table, threads, [&](uint64_t c) {
    const DataChunk& chunk = table.chunk(c);
    for (uint64_t r = 0; r < chunk.size(); ++r) {
      per_chunk[c].Add(HashRow(chunk, r));
    }
  });
  RowMultiset set;
  for (const RowMultiset& part : per_chunk) {
    set.rows += part.rows;
    set.sum += part.sum;
    set.mix_sum += part.mix_sum;
  }
  return set;
}

uint64_t SequenceChecksum(const Table& table) {
  std::vector<uint64_t> per_chunk(table.ChunkCount());
  ForEachChunk(table, kCheckThreads, [&](uint64_t c) {
    const DataChunk& chunk = table.chunk(c);
    uint64_t h = Mix(chunk.size());
    for (uint64_t r = 0; r < chunk.size(); ++r) {
      h = Mix(h ^ HashRow(chunk, r));
    }
    per_chunk[c] = h;
  });
  uint64_t h = Mix(table.row_count());
  for (uint64_t part : per_chunk) h = Mix(h ^ part);
  return h;
}

std::string CheckSorted(const Table& table, const SortSpec& spec,
                        uint64_t threads) {
  // Each chunk checks its own rows and the pair across its leading boundary;
  // the first failing chunk in output order is reported.
  std::vector<std::string> errors(table.ChunkCount());
  std::vector<uint64_t> first_row(table.ChunkCount(), 0);
  for (uint64_t c = 1; c < table.ChunkCount(); ++c) {
    first_row[c] = first_row[c - 1] + table.chunk(c - 1).size();
  }
  ForEachChunk(table, threads, [&](uint64_t c) {
    const DataChunk& chunk = table.chunk(c);
    const DataChunk* prev_chunk = nullptr;
    uint64_t prev_row = 0;
    for (uint64_t p = c; p > 0 && prev_chunk == nullptr; --p) {
      if (table.chunk(p - 1).size() > 0) {
        prev_chunk = &table.chunk(p - 1);
        prev_row = prev_chunk->size() - 1;
      }
    }
    for (uint64_t r = 0; r < chunk.size(); ++r) {
      if (prev_chunk != nullptr &&
          CompareRows(*prev_chunk, prev_row, chunk, r, spec) > 0) {
        const uint64_t position = first_row[c] + r;
        char buf[160];
        std::snprintf(buf, sizeof(buf), "rows %llu and %llu out of order",
                      static_cast<unsigned long long>(position - 1),
                      static_cast<unsigned long long>(position));
        errors[c] = buf;
        return;
      }
      prev_chunk = &chunk;
      prev_row = r;
    }
  });
  for (const std::string& error : errors) {
    if (!error.empty()) return error;
  }
  return "";
}

std::string CheckSortOutput(const Table& output, const SortSpec& spec,
                            const RowMultiset& expected, uint64_t threads) {
  std::string error = CheckSorted(output, spec, threads);
  if (!error.empty()) return error;
  const RowMultiset got = MultisetOf(output, threads);
  if (got.rows != expected.rows) {
    return "row count " + std::to_string(got.rows) + " != input " +
           std::to_string(expected.rows);
  }
  if (got != expected) return "row multiset differs from the input";
  return "";
}

}  // namespace sortbench
