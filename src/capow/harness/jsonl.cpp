#include "capow/harness/jsonl.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace capow::harness::jsonl {

std::string json_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u':
        if (i + 4 < s.size()) {
          out += static_cast<char>(
              std::strtol(s.substr(i + 1, 4).c_str(), nullptr, 16));
          i += 4;
        }
        break;
      default: out += s[i];
    }
  }
  return out;
}

bool find_value(const std::string& line, const std::string& key,
                std::string& out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  std::size_t pos = at + needle.size();
  while (pos < line.size() && line[pos] == ' ') ++pos;
  if (pos >= line.size()) return false;
  if (line[pos] == '"') {
    // String value: scan to the next unescaped quote.
    std::size_t end = pos + 1;
    while (end < line.size()) {
      if (line[end] == '\\') {
        end += 2;
        continue;
      }
      if (line[end] == '"') break;
      ++end;
    }
    if (end >= line.size()) return false;
    out = line.substr(pos + 1, end - pos - 1);
    return true;
  }
  std::size_t end = pos;
  while (end < line.size() && line[end] != ',' && line[end] != '}' &&
         line[end] != ']') {
    ++end;
  }
  if (end == pos) return false;
  out = line.substr(pos, end - pos);
  return true;
}

bool parse_double(const std::string& tok, double& out) {
  char* end = nullptr;
  out = std::strtod(tok.c_str(), &end);
  return !tok.empty() && end == tok.c_str() + tok.size();
}

bool parse_u64(const std::string& tok, unsigned long long& out) {
  char* end = nullptr;
  out = std::strtoull(tok.c_str(), &end, 10);
  return !tok.empty() && end == tok.c_str() + tok.size();
}

void for_each_line(const std::string& path,
                   const std::function<void(const std::string&)>& fn) {
  std::ifstream in(path, std::ios::binary);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) fn(line);
  }
}

}  // namespace capow::harness::jsonl
