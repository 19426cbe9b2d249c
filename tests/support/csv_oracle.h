#ifndef FAIRLAW_TESTS_SUPPORT_CSV_ORACLE_H_
#define FAIRLAW_TESTS_SUPPORT_CSV_ORACLE_H_

#include <cstddef>
#include <string>

#include "base/result.h"
#include "data/csv.h"
#include "data/table.h"

namespace fairlaw::data {

/// Reference CSV reader: a byte-at-a-time row scanner over a 64 KiB read
/// buffer, per-column int64/double/bool flags fed every non-null cell,
/// and one std::optional<Cell> per parsed cell. It holds the whole input
/// as rows of std::string, so it is slow and memory-hungry on purpose;
/// ReadCsvString and CsvChunkReader must give the same schema, values,
/// validity and first-defect error text.
FAIRLAW_NODISCARD Result<Table> ReadCsvOracle(const std::string& text,
                                              const CsvOptions& options = {});

/// Empty when `got` equals rows [offset, offset + got.num_rows()) of
/// `want`: same schema, validity and values (doubles bitwise), and each
/// string column's dictionary holding exactly the distinct non-null
/// values of those rows in first-seen order. Otherwise says where they
/// first differ.
std::string RowsDiffer(const Table& want, size_t offset, const Table& got);

}  // namespace fairlaw::data

#endif  // FAIRLAW_TESTS_SUPPORT_CSV_ORACLE_H_
