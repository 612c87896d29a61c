// Doc-drift guard: the E4/E6 table in EXPERIMENTS.md records what
// `bench_code_metrics` measures.  The measured rows must equal what
// metrics::profile_*() reports for the tree being built, so a change
// that grows or shrinks a backend cannot land with a stale table.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/complexity.hpp"

namespace metrics {
namespace {

// The cells of `row` ("| name | a | b | c |") in the table under the
// EXPERIMENTS.md heading that starts with `section`; empty if absent.
std::vector<std::string> table_row(const std::string& path,
                                   const std::string& section,
                                   const std::string& row) {
  std::ifstream in(path);
  std::string line;
  bool in_section = false;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0) in_section = line.rfind(section, 0) == 0;
    if (!in_section || line.rfind("| " + row + " |", 0) != 0) continue;
    std::vector<std::string> cells;
    std::stringstream ss(line);
    std::string cell;
    std::getline(ss, cell, '|');  // before the leading bar
    while (std::getline(ss, cell, '|')) {
      const auto b = cell.find_first_not_of(' ');
      const auto e = cell.find_last_not_of(' ');
      if (b != std::string::npos) cells.push_back(cell.substr(b, e - b + 1));
    }
    return cells;
  }
  return {};
}

std::array<std::size_t, 3> recorded(const std::string& row) {
  const std::vector<std::string> cells =
      table_row(std::string(RELYNX_SOURCE_DIR) + "/EXPERIMENTS.md",
                "## E4/E6", row);
  EXPECT_EQ(cells.size(), 4u) << "E4/E6 row '" << row << "' not found";
  std::array<std::size_t, 3> out{};
  for (std::size_t i = 0; i < 3 && i + 1 < cells.size(); ++i) {
    out[i] = std::stoul(cells[i + 1]);
  }
  return out;
}

TEST(DocDrift, ExperimentsE4E6MatchesMeasuredProfiles) {
  const BackendProfile ch = profile_charlotte();
  const BackendProfile so = profile_soda();
  const BackendProfile cy = profile_chrysalis();
  using Row = std::array<std::size_t, 3>;
  EXPECT_EQ(recorded("backend source lines (measured)"),
            (Row{ch.source_lines, so.source_lines, cy.source_lines}))
      << "re-record EXPERIMENTS.md E4/E6 from bench_code_metrics";
  EXPECT_EQ(recorded("special-case lines (measured)"),
            (Row{ch.special_case_lines, so.special_case_lines,
                 cy.special_case_lines}))
      << "re-record EXPERIMENTS.md E4/E6 from bench_code_metrics";
}

}  // namespace
}  // namespace metrics
