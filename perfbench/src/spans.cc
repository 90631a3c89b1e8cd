#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanRecorder::begin(std::string name, int point) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.point = point;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  spans_.back().start_ns = now_ns();
  return id;
}

void SpanRecorder::end(int id) {
  const std::int64_t t = now_ns();
  if (open_.empty() || open_.back() != id)
    throw std::logic_error("SpanRecorder: span closed out of order");
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    const std::int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    std::int64_t covered = 0, cursor = lo;
    for (const auto& [b, e] : iv) {
      const std::int64_t from = std::max(b, cursor), to = std::min(e, hi);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[i] = static_cast<double>(hi - lo - covered) * 1e-9;
  }
  return self;
}

std::map<std::string, NameTotals> totals_by_name(const std::vector<Span>& spans) {
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = out[spans[i].name];
    t.total_s += spans[i].seconds();
    t.self_s += self[i];
    ++t.count;
  }
  return out;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace

std::string chrome_trace_json(const std::vector<Span>& spans,
                              const std::map<std::string, std::string>& metadata) {
  std::string out = "{\"displayTimeUnit\":\"ms\"";
  for (const auto& [k, v] : metadata) out += "," + json_string(k) + ":" + json_string(v);
  out += ",\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"point\":%d}}",
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i, s.parent,
                  s.point);
    out += (i ? ",{" : "{");
    out += "\"name\":" + json_string(s.name) + ",\"cat\":" + json_string(layer) + buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
