#include "runtime/journal_format.hpp"

#include <bit>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <span>
#include <system_error>

#include "core/contracts.hpp"
#include "phy/crc16.hpp"

namespace bhss::runtime::journal {

std::uint16_t line_crc(const std::string& body) {
  return phy::crc16_ccitt(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(body.data()), body.size()));
}

std::string seal_line(const std::string& body) {
  char tail[16];
  std::snprintf(tail, sizeof(tail), " crc=%04X", line_crc(body));
  return body + tail;
}

bool unseal_line(const std::string& line, std::string& body) {
  static constexpr std::size_t kTail = 9;  // " crc=XXXX"
  if (line.size() < kTail) return false;
  const std::size_t split = line.size() - kTail;
  if (line.compare(split, 5, " crc=") != 0) return false;
  unsigned crc = 0;
  if (std::sscanf(line.c_str() + split + 5, "%4x", &crc) != 1) return false;
  body = line.substr(0, split);
  return line_crc(body) == static_cast<std::uint16_t>(crc);
}

std::string format_header(int schema_version, const std::string& figure_id,
                          const std::string& build_sha) {
  char header[256];
  std::snprintf(header, sizeof(header), "bhss-journal v%d schema=%d figure=%s git=%s",
                kFormatVersion, schema_version, figure_id.c_str(),
                build_sha.empty() ? "unknown" : build_sha.c_str());
  return header;
}

bool parse_header(const std::string& body, Header& out) {
  char figure[128] = {0};
  char git[128] = {0};
  int version = 0;
  int schema = 0;
  if (std::sscanf(body.c_str(), "bhss-journal v%d schema=%d figure=%127s git=%127s",
                  &version, &schema, figure, git) != 4) {
    return false;
  }
  out.format_version = version;
  out.schema_version = schema;
  out.figure_id = figure;
  out.build_sha = git;
  return true;
}

namespace {

// One token per LinkStats field: counters in decimal, doubles as their
// 16-hex-digit IEEE-754 bit pattern.
void append_token(std::string& out, std::size_t v) { out += std::to_string(v); }

void append_token(std::string& out, double v) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, std::bit_cast<std::uint64_t>(v));
  out += hex;
}

// Strict token readers: digits only (no sign, no leading space, no
// overflow), and a double must be exactly 16 hex digits.
bool read_token(const char*& p, const char* end, std::size_t& v) {
  const auto [next, ec] = std::from_chars(p, end, v);
  if (ec != std::errc{}) return false;
  p = next;
  return true;
}

bool read_token(const char*& p, const char* end, double& v) {
  static constexpr std::ptrdiff_t kHexDigits = 16;
  if (end - p < kHexDigits) return false;
  std::uint64_t bits = 0;
  const auto [next, ec] = std::from_chars(p, p + kHexDigits, bits, 16);
  if (ec != std::errc{} || next != p + kHexDigits) return false;
  v = std::bit_cast<double>(bits);
  p = next;
  return true;
}

}  // namespace

std::string format_stats(const core::LinkStats& s) {
  std::string out;
#define BHSS_FORMAT_FIELD(type, name, summed) \
  if (!out.empty()) out += ' ';               \
  append_token(out, s.name);
  BHSS_LINK_STATS_FIELDS(BHSS_FORMAT_FIELD)
#undef BHSS_FORMAT_FIELD
  return out;
}

bool parse_stats(const char* text, core::LinkStats& s) {
  BHSS_REQUIRE(text != nullptr, "journal::parse_stats: null text");
  const char* p = text;
  const char* const end = text + std::strlen(text);
  // Every field but the first follows exactly one space (a successful read
  // always advances p, so p != text means a field has been read).
#define BHSS_PARSE_FIELD(type, name, summed)                    \
  if (p != text && (p == end || *p++ != ' ')) return false;     \
  if (!read_token(p, end, s.name)) return false;
  BHSS_LINK_STATS_FIELDS(BHSS_PARSE_FIELD)
#undef BHSS_PARSE_FIELD
  return p == end;  // nothing may follow the last field
}

}  // namespace bhss::runtime::journal
