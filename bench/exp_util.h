// Shared helpers for the experiment harnesses: aligned table printing and
// header banners, so every bench emits the same readable report format.
#pragma once

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace tart::bench {

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Paper reference: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print() const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i)
      width[i] = headers_[i].size();
    for (const auto& r : rows_)
      for (std::size_t i = 0; i < r.size() && i < width.size(); ++i)
        width[i] = std::max(width[i], r[i].size());

    auto print_row = [&](const std::vector<std::string>& cells) {
      for (std::size_t i = 0; i < cells.size() && i < width.size(); ++i)
        std::printf("| %-*s ", static_cast<int>(width[i]), cells[i].c_str());
      std::printf("|\n");
    };
    print_row(headers_);
    for (std::size_t i = 0; i < headers_.size(); ++i)
      std::printf("|%s", std::string(width[i] + 2, '-').c_str());
    std::printf("|\n");
    for (const auto& r : rows_) print_row(r);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(const char* format, ...) {
  char buf[128];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

}  // namespace tart::bench
