#include "util/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>

namespace unify::strings {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i != 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

std::string_view trim(std::string_view text) noexcept {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin])) != 0) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool starts_with(std::string_view text, std::string_view prefix) noexcept {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) noexcept {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string format_double(double value) {
  std::string out;
  append_double(out, value);
  return out;
}

void append_double(std::string& out, double value) {
  // std::to_chars with an explicit precision prints exactly what printf
  // does with the matching conversion, without the locale or format parse.
  char buf[32];
  const bool integral = std::isfinite(value) && value == std::floor(value) &&
                        std::fabs(value) < 1e15;
  const auto [end, ec] =
      integral ? std::to_chars(buf, buf + sizeof(buf), value,
                               std::chars_format::fixed, 0)
               : std::to_chars(buf, buf + sizeof(buf), value,
                               std::chars_format::general, 6);
  (void)ec;  // 32 bytes hold any "%.0f" below 1e15 and any "%.6g"
  out.append(buf, end);
}

}  // namespace unify::strings
