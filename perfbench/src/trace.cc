#include "trace.h"

#include <algorithm>
#include <map>
#include <utility>

namespace perfbench {

bool Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"parent\":%d,\"doc\":%lld}\n",
                 i, s.name, s.start_us, s.end_us, s.parent, static_cast<long long>(s.doc));
  }
  return std::fclose(f) == 0;
}

void Tracer::PrintSelfTimeTable(FILE* out) const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      const Span& p = spans_[static_cast<size_t>(s.parent)];
      children[static_cast<size_t>(s.parent)].emplace_back(std::max(s.start_us, p.start_us),
                                                            std::min(s.end_us, p.end_us));
    }
  }
  struct Row {
    size_t count = 0;
    double total = 0;
    double self = 0;
  };
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0, reach = s.start_us;
    for (const auto& [a, b] : kids) {
      const double from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    Row& row = rows[s.name];
    ++row.count;
    row.total += s.end_us - s.start_us;
    row.self += std::max(0.0, s.end_us - s.start_us - covered);
  }
  std::fprintf(out, "%-28s %10s %14s %14s %12s\n", "span", "count", "total_ms", "self_ms",
               "self_us/span");
  for (const auto& [name, row] : rows) {
    std::fprintf(out, "%-28s %10zu %14.3f %14.3f %12.2f\n", name.c_str(), row.count,
                 row.total / 1e3, row.self / 1e3, row.self / static_cast<double>(row.count));
  }
}

}  // namespace perfbench
