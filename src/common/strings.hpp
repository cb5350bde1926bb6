// Small string utilities used throughout the library.
//
// Everything here is allocation-conscious: functions accept
// std::string_view and only materialize std::string where the caller
// needs ownership.
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace damocles {

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// Splits `text` on `separator`, trimming each piece. Empty pieces are
/// preserved ("a,,b" -> {"a", "", "b"}) so positional formats stay intact.
std::vector<std::string> Split(std::string_view text, char separator);

/// Splits on runs of ASCII whitespace; never yields empty pieces.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// Joins `pieces` with `separator`.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view separator);

/// True if `text` starts with / ends with the given prefix or suffix.
bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// ASCII lower-casing (the blueprint language is case-sensitive, but
/// event names are conventionally lower case; tools use this to
/// normalize user input).
std::string ToLower(std::string_view text);

/// Wraps `text` in double quotes, escaping embedded quotes and
/// backslashes; inverse of UnquoteString.
std::string QuoteString(std::string_view text);

/// Parses a double-quoted string starting at `pos` in `text`. On success
/// stores the unescaped contents in `out`, advances `pos` past the
/// closing quote and returns true.
bool UnquoteString(std::string_view text, size_t& pos, std::string& out);

/// True if `name` is a valid identifier for blocks, views, properties and
/// events: [A-Za-z_][A-Za-z0-9_.-]*.
bool IsIdentifier(std::string_view name);

/// Parses the whole of `word` as a decimal integer. False for an empty
/// word, trailing characters, a sign `Int` cannot hold or overflow —
/// std::stoull would read "3xyz" as 3, wrap "-1" and throw on overflow.
template <typename Int>
bool ParseWhole(std::string_view word, Int& out) {
  const auto [ptr, ec] =
      std::from_chars(word.data(), word.data() + word.size(), out);
  return ec == std::errc{} && ptr == word.data() + word.size();
}

/// Replaces every occurrence of `from` in `text` with `to`.
std::string ReplaceAll(std::string_view text, std::string_view from,
                       std::string_view to);

}  // namespace damocles
