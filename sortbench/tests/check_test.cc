// Copyright 2026 the rowsort authors. Licensed under the MIT license.
//
// Self-tests of the benchmark's output checker: a correct sort passes, and a
// single swapped row, a dropped row or a changed value is rejected. Build
// and run with `python3 sortbench/selftest.py`.
#include <cstdio>
#include <string>
#include <vector>

#include "check.h"
#include "engine/sort_engine.h"
#include "workload/tables.h"

using namespace rowsort;

namespace {

int failures = 0;

void Expect(bool cond, const char* what) {
  std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) failures += 1;
}

/// Rows (k, name); k may be NULL. Split across chunks of 3 rows so checks
/// cross chunk boundaries.
Table MakeTable(const std::vector<std::pair<Value, std::string>>& rows) {
  Table table({LogicalType(TypeId::kInt32), LogicalType(TypeId::kVarchar)});
  for (size_t begin = 0; begin < rows.size(); begin += 3) {
    DataChunk chunk = table.NewChunk();
    size_t n = std::min<size_t>(3, rows.size() - begin);
    for (size_t r = 0; r < n; ++r) {
      chunk.SetValue(0, r, rows[begin + r].first);
      chunk.SetValue(1, r, Value::Varchar(rows[begin + r].second));
    }
    chunk.SetSize(n);
    table.Append(std::move(chunk));
  }
  return table;
}

Value I(int32_t v) { return Value::Int32(v); }
Value Null() { return Value::Null(LogicalType(TypeId::kInt32)); }

}  // namespace

int main() {
  const SortSpec spec({SortColumn(0, TypeId::kInt32),
                       SortColumn(1, TypeId::kVarchar)});
  const std::vector<std::pair<Value, std::string>> sorted = {
      {I(1), "a"}, {I(2), "b"}, {I(2), "c"}, {I(5), "x"},
      {I(7), "y"}, {I(9), "z"}, {Null(), "n"}};
  const Table input = MakeTable(
      {{I(9), "z"}, {I(2), "c"}, {Null(), "n"}, {I(1), "a"}, {I(7), "y"},
       {I(2), "b"}, {I(5), "x"}});
  const sortbench::RowMultiset expected = sortbench::MultisetOf(input);

  Expect(sortbench::CheckSortOutput(MakeTable(sorted), spec, expected).empty(),
         "a correct ascending, NULLS LAST output passes");

  auto swapped = sorted;
  std::swap(swapped[3], swapped[4]);
  Expect(!sortbench::CheckSortOutput(MakeTable(swapped), spec, expected)
              .empty(),
         "a single swapped pair of rows is rejected");

  auto swapped_tie = sorted;
  std::swap(swapped_tie[1], swapped_tie[2]);  // equal first key, second decides
  Expect(!sortbench::CheckSorted(MakeTable(swapped_tie), spec).empty(),
         "a swap decided by the second key column is rejected");

  Expect(!sortbench::CheckSortOutput(MakeTable(swapped), spec, expected, 1)
              .empty(),
         "the same swap is rejected when the check runs on one thread");

  auto dropped = sorted;
  dropped.erase(dropped.begin() + 2);
  Expect(!sortbench::CheckSortOutput(MakeTable(dropped), spec, expected)
              .empty(),
         "a dropped row is rejected");

  auto changed = sorted;
  changed[4].second = "yy";  // still sorted, same row count
  Expect(!sortbench::CheckSortOutput(MakeTable(changed), spec, expected)
              .empty(),
         "a changed value is rejected");

  auto duplicated = sorted;
  duplicated[1] = duplicated[2];  // one row twice, another missing
  Expect(!sortbench::CheckSortOutput(MakeTable(duplicated), spec, expected)
              .empty(),
         "a duplicated row replacing another is rejected");

  const SortSpec desc_nulls_first({SortColumn(
      0, TypeId::kInt32, OrderType::kDescending, NullOrder::kNullsFirst)});
  Expect(sortbench::CheckSorted(
             MakeTable({{Null(), "n"}, {I(9), "z"}, {I(2), "b"}, {I(1), "a"}}),
             desc_nulls_first)
             .empty(),
         "DESC NULLS FIRST order passes");
  Expect(!sortbench::CheckSorted(
              MakeTable({{I(9), "z"}, {Null(), "n"}, {I(1), "a"}}),
              desc_nulls_first)
              .empty(),
         "a NULL after a value under NULLS FIRST is rejected");

  Expect(sortbench::SequenceChecksum(MakeTable(sorted)) !=
             sortbench::SequenceChecksum(MakeTable(swapped)),
         "the input checksum depends on row order");
  Expect(sortbench::MultisetOf(MakeTable(sorted)) ==
             sortbench::MultisetOf(MakeTable(swapped)),
         "the multiset digest does not");

  // The engine's own output on a generated table passes the checker.
  const Table ints = MakeShuffledIntegerTable(50000, 7);
  const SortSpec int_spec({SortColumn(0, TypeId::kInt32)});
  SortEngineConfig config;
  config.threads = 2;
  config.run_size_rows = 8192;
  auto out = RelationalSort::SortTable(ints, int_spec, config);
  Expect(out.ok() && sortbench::CheckSortOutput(
                         out.value(), int_spec, sortbench::MultisetOf(ints))
                         .empty(),
         "an engine sort of 50000 shuffled integers passes");
  Expect(sortbench::MultisetOf(ints, 1) == sortbench::MultisetOf(ints),
         "the multiset digest does not depend on the check's thread count");

  std::printf("%s\n", failures == 0 ? "all checker self-tests passed"
                                    : "checker self-tests FAILED");
  return failures == 0 ? 0 : 1;
}
