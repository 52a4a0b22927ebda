// Small string helpers shared by codecs, ids and visualization.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace unify::strings {

/// Splits on a single character; empty fields are preserved
/// ("a,,b" -> {"a","","b"}). An empty input yields {""}.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char sep);

/// Joins pieces with `sep` between them.
[[nodiscard]] std::string join(const std::vector<std::string>& pieces,
                               std::string_view sep);

/// Strips ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view text) noexcept;

[[nodiscard]] bool starts_with(std::string_view text,
                               std::string_view prefix) noexcept;
[[nodiscard]] bool ends_with(std::string_view text,
                             std::string_view suffix) noexcept;

/// Formats a double compactly: integral values below 1e15 in magnitude
/// without trailing ".0" (printf "%.0f"), otherwise 6 significant digits
/// (printf "%.6g": "0.25", "13.3333", "1e+15").
[[nodiscard]] std::string format_double(double value);

/// Appends format_double(value) to `out` without a temporary string.
void append_double(std::string& out, double value);

}  // namespace unify::strings
