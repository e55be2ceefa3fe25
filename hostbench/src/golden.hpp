// Reference tables: the repository's bench goldens (bench/goldens/*.txt)
// and the outputs pinned in hostbench/pinned/, both in the bench Table
// format -- "== title ==" banners, a header, a dashed rule, then rows.
#pragma once

#include <string>
#include <vector>

namespace hostbench {

struct GoldenTable {
  std::string title;
  std::vector<std::vector<std::string>> rows;  ///< whitespace-split cells
};

/// Parses `path`; throws std::runtime_error when it cannot be read.
std::vector<GoldenTable> load_golden(const std::string& path);

/// The row of table `title` whose first cell is `key`, or nullptr.
const std::vector<std::string>* find_row(const std::vector<GoldenTable>& tables,
                                         const std::string& title, const std::string& key);

/// Whole-file read; throws std::runtime_error when it cannot be read.
std::string read_file(const std::string& path);

}  // namespace hostbench
