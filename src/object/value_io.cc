#include "object/value_io.h"

#include <cctype>
#include <charconv>
#include <ostream>
#include <sstream>

#include "common/str_util.h"

namespace idl {

namespace {

bool IsBareIdentifier(const std::string& s) {
  if (s.empty()) return false;
  if (!std::islower(static_cast<unsigned char>(s[0]))) return false;
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  // Reserved words must be quoted to round-trip.
  return s != "null" && s != "true" && s != "false";
}

void Print(const Value& v, std::string* out) {
  switch (v.kind()) {
    case ValueKind::kNull:
      *out += "null";
      return;
    case ValueKind::kBool:
      *out += v.as_bool() ? "true" : "false";
      return;
    case ValueKind::kInt:
      *out += StrCat(v.as_int());
      return;
    case ValueKind::kDouble:
      *out += DoubleToString(v.as_double());
      return;
    case ValueKind::kString:
      if (IsBareIdentifier(v.as_string())) {
        *out += v.as_string();
      } else {
        *out += QuoteString(v.as_string());
      }
      return;
    case ValueKind::kDate:
      *out += v.as_date().ToString();
      return;
    case ValueKind::kTuple: {
      *out += '(';
      bool first = true;
      for (const auto& f : v.fields()) {
        if (!first) *out += ", ";
        first = false;
        *out += f.name;
        *out += ": ";
        Print(f.value, out);
      }
      *out += ')';
      return;
    }
    case ValueKind::kSet: {
      *out += '{';
      bool first = true;
      for (const auto& e : v.elements()) {
        if (!first) *out += ", ";
        first = false;
        Print(e, out);
      }
      *out += '}';
      return;
    }
  }
}

void PrintPretty(const Value& v, size_t wrap, int indent, std::string* out) {
  auto pad = [&](int n) { out->append(static_cast<size_t>(n) * 2, ' '); };
  switch (v.kind()) {
    case ValueKind::kTuple: {
      if (v.TupleSize() <= wrap) {
        Print(v, out);
        return;
      }
      *out += "(\n";
      bool first = true;
      for (const auto& f : v.fields()) {
        if (!first) *out += ",\n";
        first = false;
        pad(indent + 1);
        *out += f.name;
        *out += ": ";
        PrintPretty(f.value, wrap, indent + 1, out);
      }
      *out += '\n';
      pad(indent);
      *out += ')';
      return;
    }
    case ValueKind::kSet: {
      if (v.SetSize() <= wrap) {
        Print(v, out);
        return;
      }
      *out += "{\n";
      bool first = true;
      for (const auto& e : v.elements()) {
        if (!first) *out += ",\n";
        first = false;
        pad(indent + 1);
        PrintPretty(e, wrap, indent + 1, out);
      }
      *out += '\n';
      pad(indent);
      *out += '}';
      return;
    }
    default:
      Print(v, out);
  }
}

// Minimal recursive-descent literal parser (independent of the IDL language
// lexer; object literals are a lower layer than the language).
class LiteralParser {
 public:
  explicit LiteralParser(std::string_view text) : text_(text) {}

  Result<Value> Parse() {
    IDL_ASSIGN_OR_RETURN(Value v, ParseOne());
    SkipSpace();
    if (pos_ != text_.size()) {
      return ParseError(StrCat("trailing characters at offset ", pos_));
    }
    return v;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  bool Consume(char c) {
    SkipSpace();
    if (Peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<Value> ParseOne() {
    SkipSpace();
    char c = Peek();
    if (c == '(' || c == '{') {
      if (depth_ == kMaxNestingDepth) {
        return ParseError(StrCat("nesting deeper than ", kMaxNestingDepth,
                                 " at offset ", pos_));
      }
      ++depth_;
      Result<Value> v = c == '(' ? ParseTuple() : ParseSet();
      --depth_;
      return v;
    }
    if (c == '"') return ParseQuoted();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return ParseNumberOrDate();
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      return ParseWord();
    }
    return ParseError(StrCat("unexpected character '", std::string(1, c),
                             "' at offset ", pos_));
  }

  Result<Value> ParseTuple() {
    Consume('(');
    Value t = Value::EmptyTuple();
    SkipSpace();
    if (Consume(')')) return t;
    while (true) {
      SkipSpace();
      size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        ++pos_;
      }
      if (pos_ == start) {
        return ParseError(StrCat("expected attribute name at offset ", pos_));
      }
      std::string name(text_.substr(start, pos_ - start));
      if (!Consume(':')) {
        return ParseError(StrCat("expected ':' after attribute '", name, "'"));
      }
      IDL_ASSIGN_OR_RETURN(Value v, ParseOne());
      t.SetField(name, std::move(v));
      if (Consume(',')) continue;
      if (Consume(')')) return t;
      return ParseError(StrCat("expected ',' or ')' at offset ", pos_));
    }
  }

  Result<Value> ParseSet() {
    Consume('{');
    Value s = Value::EmptySet();
    SkipSpace();
    if (Consume('}')) return s;
    while (true) {
      IDL_ASSIGN_OR_RETURN(Value v, ParseOne());
      s.Insert(std::move(v));
      if (Consume(',')) continue;
      if (Consume('}')) return s;
      return ParseError(StrCat("expected ',' or '}' at offset ", pos_));
    }
  }

  Result<Value> ParseQuoted() {
    Consume('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        char e = text_[pos_++];
        switch (e) {
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case 'r':
            out += '\r';
            break;
          case 'x': {
            // QuoteString's escape for other control bytes: exactly two
            // lowercase hex digits ("\x00", "\x1b", "\x7f").
            auto hex = [](char h) -> int {
              if (h >= '0' && h <= '9') return h - '0';
              if (h >= 'a' && h <= 'f') return h - 'a' + 10;
              if (h >= 'A' && h <= 'F') return h - 'A' + 10;
              return -1;
            };
            if (pos_ + 1 >= text_.size()) {
              return ParseError(
                  StrCat("truncated \\x escape at offset ", pos_ - 2));
            }
            int hi = hex(text_[pos_]);
            int lo = hex(text_[pos_ + 1]);
            if (hi < 0 || lo < 0) {
              return ParseError(
                  StrCat("bad \\x escape at offset ", pos_ - 2));
            }
            pos_ += 2;
            out += static_cast<char>(hi * 16 + lo);
            break;
          }
          default:
            out += e;
        }
      } else {
        out += c;
      }
    }
    if (pos_ == text_.size()) return ParseError("unterminated string literal");
    ++pos_;  // closing quote
    return Value::String(std::move(out));
  }

  Result<Value> ParseNumberOrDate() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == '/' || text_[pos_] == 'e' ||
            text_[pos_] == 'E' ||
            ((text_[pos_] == '+' || text_[pos_] == '-') &&
             (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
      ++pos_;
    }
    std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.find('/') != std::string_view::npos) {
      IDL_ASSIGN_OR_RETURN(Date d, Date::Parse(tok));
      return Value::Of(d);
    }
    if (tok.find('.') != std::string_view::npos ||
        tok.find('e') != std::string_view::npos ||
        tok.find('E') != std::string_view::npos) {
      double d = 0;
      auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), d);
      if (ec != std::errc() || p != tok.data() + tok.size()) {
        return ParseError(StrCat("bad number '", tok, "'"));
      }
      return Value::Real(d);
    }
    int64_t i = 0;
    auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), i);
    if (ec != std::errc() || p != tok.data() + tok.size()) {
      return ParseError(StrCat("bad number '", tok, "'"));
    }
    return Value::Int(i);
  }

  Result<Value> ParseWord() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    std::string word(text_.substr(start, pos_ - start));
    if (word == "null") return Value::Null();
    if (word == "true") return Value::Bool(true);
    if (word == "false") return Value::Bool(false);
    return Value::String(std::move(word));
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;  // tuples and sets currently open
};

}  // namespace

std::string ToString(const Value& v) {
  std::string out;
  Print(v, &out);
  return out;
}

std::string ToPrettyString(const Value& v, size_t wrap_threshold) {
  std::string out;
  PrintPretty(v, wrap_threshold, 0, &out);
  return out;
}

Result<Value> ParseValue(std::string_view text) {
  return LiteralParser(text).Parse();
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << ToString(v);
}

}  // namespace idl
