#include "golden.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace hostbench {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<GoldenTable> load_golden(const std::string& path) {
  std::istringstream in(read_file(path));
  std::vector<GoldenTable> tables;
  bool in_rows = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("== ", 0) == 0 && line.size() > 6 && line.substr(line.size() - 3) == " ==") {
      tables.push_back(GoldenTable{line.substr(3, line.size() - 6), {}});
      in_rows = false;
      continue;
    }
    if (tables.empty()) continue;
    if (line.rfind("---", 0) == 0) {
      in_rows = true;
      continue;
    }
    std::istringstream cells(line);
    std::vector<std::string> row;
    for (std::string c; cells >> c;) row.push_back(c);
    if (row.empty()) {
      in_rows = false;
    } else if (in_rows) {
      tables.back().rows.push_back(std::move(row));
    }
  }
  return tables;
}

const std::vector<std::string>* find_row(const std::vector<GoldenTable>& tables,
                                         const std::string& title, const std::string& key) {
  for (const GoldenTable& t : tables) {
    if (t.title != title) continue;
    for (const auto& r : t.rows)
      if (!r.empty() && r[0] == key) return &r;
  }
  return nullptr;
}

}  // namespace hostbench
