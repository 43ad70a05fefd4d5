// Printing and parsing of object literals.
//
// Concrete syntax (round-trips through ParseValue):
//   atoms   null  true  false  42  6.5  "a string"  hp  3/3/1985
//   tuples  (name: hp, sal: 10000)
//   sets    {(date: 3/3/1985, clsPrice: 50), ...}
//
// Bare lowercase identifiers denote string atoms (the paper writes `hp`,
// `ibm` unquoted); strings that do not lex as identifiers print quoted.

#ifndef IDL_OBJECT_VALUE_IO_H_
#define IDL_OBJECT_VALUE_IO_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "common/result.h"
#include "object/value.h"

namespace idl {

// Compact single-line rendering.
std::string ToString(const Value& v);

// Pretty multi-line rendering with 2-space indentation; sets/tuples with
// more than `wrap_threshold` entries are broken across lines.
std::string ToPrettyString(const Value& v, size_t wrap_threshold = 4);

// Deepest tuple/set nesting ParseValue accepts, and the deepest expression
// nesting the script parser accepts (syntax/parser.h), so any value a
// script can spell also reloads from a snapshot. Deeper input is rejected
// with a positioned ParseError instead of exhausting the stack.
inline constexpr int kMaxNestingDepth = 256;

// Parses a literal produced by ToString (or written by hand).
Result<Value> ParseValue(std::string_view text);

std::ostream& operator<<(std::ostream& os, const Value& v);

}  // namespace idl

#endif  // IDL_OBJECT_VALUE_IO_H_
