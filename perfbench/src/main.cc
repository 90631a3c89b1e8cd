// The perfbench program: runs one named workload through exp::run_sweep at
// jobs = 1 with the result cache off, for a given seed and measuring time,
// and prints its metrics. perfbench/run.py builds and invokes it; see
// perfbench/README.md for the workloads and every metric.
//
//   perfbench --workload NAME --seed N --seconds S [--trace 0|1]
//             [--digests FILE] [--record] [--trace-out FILE]
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics (name -> {value, unit}), and the run's metadata, digest
// and per-metric samples. Exit code 0 on a completed run (check `correct`),
// 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "digest.h"
#include "exp/cache_key.h"
#include "exp/context.h"
#include "exp/runner.h"
#include "layers.h"
#include "serve/serve_sim.h"
#include "sim/training_sim.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string digests;
  bool record = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "[--trace 0|1] [--digests FILE] [--record] [--trace-out FILE]\n"
               "workloads:";
  for (const auto& w : workloads()) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--record") {
      a.record = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("bad --seed " + v);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0.0) || a.seconds > 3600.0)
        usage("bad --seconds " + v);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace " + v);
      a.trace = v == "1";
    } else if (k == "--digests") {
      a.digests = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage("unknown argument " + k);
    }
  }
  if (!find_workload(a.workload)) usage("unknown workload '" + a.workload + "'");
  return a;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  return "unknown";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Recorded point digests of (workload, seed), read from the digests file:
///   {"schema": N, "default_seed": S, "held_out_seeds": [...],
///    "workloads": {"<name>": {"<seed>": ["<hex>", ...]}}}
struct Recorded {
  std::string status = "unrecorded";  ///< unrecorded | unverified | checked
  std::vector<std::string> points;
};

Recorded read_recorded(const Args& a) {
  Recorded r;
  if (a.digests.empty()) return r;
  std::ifstream in(a.digests);
  if (!in) return r;
  std::stringstream ss;
  ss << in.rdbuf();
  const auto doc = mixnet::json::parse(ss.str());
  if (!doc || !doc->is_object()) throw std::runtime_error("malformed " + a.digests);
  const auto* w = doc->get("workloads");
  const auto* per_seed = w ? w->get(a.workload) : nullptr;
  const auto* list = per_seed ? per_seed->get(std::to_string(a.seed)) : nullptr;
  if (!list || !list->is_array()) return r;
  const auto* schema = doc->get("schema");
  if (!schema || schema->as_i64() != mixnet::exp::kCacheSchemaVersion) {
    r.status = "unverified";
    return r;
  }
  r.status = "checked";
  for (const auto& item : list->items()) r.points.push_back(item.as_string());
  return r;
}

/// Rewrite the digests file with this (workload, seed)'s point digests.
void record_digests(const Args& a, const std::vector<std::uint64_t>& points) {
  std::optional<mixnet::json::Value> doc;
  {
    std::ifstream in(a.digests);
    std::stringstream ss;
    ss << in.rdbuf();
    if (in) doc = mixnet::json::parse(ss.str());
  }
  // Rebuild the document: entries of other (workload, seed) pairs are kept
  // only if they were recorded under the current schema.
  std::map<std::string, std::map<std::string, std::vector<std::string>>> entries;
  std::string default_seed = "1", held_out = "[]";
  if (doc && doc->is_object()) {
    const auto* schema = doc->get("schema");
    const bool same = schema && schema->as_i64() == mixnet::exp::kCacheSchemaVersion;
    if (const auto* d = doc->get("default_seed")) default_seed = std::to_string(d->as_u64());
    if (const auto* h = doc->get("held_out_seeds")) {
      held_out = "[";
      for (const auto& s : h->items())
        held_out += (held_out.size() > 1 ? ", " : "") + std::to_string(s.as_u64());
      held_out += "]";
    }
    if (const auto* w = doc->get("workloads"); w && same)
      for (const auto& [name, seeds] : w->members())
        for (const auto& [seed, list] : seeds.members())
          for (const auto& item : list.items())
            entries[name][seed].push_back(item.as_string());
  }
  auto& mine = entries[a.workload][std::to_string(a.seed)];
  mine.clear();
  for (const auto d : points) mine.push_back(hex64(d));
  std::ofstream out(a.digests);
  out << "{\n  \"schema\": " << mixnet::exp::kCacheSchemaVersion
      << ",\n  \"default_seed\": " << default_seed
      << ",\n  \"held_out_seeds\": " << held_out << ",\n  \"workloads\": {";
  bool first_w = true;
  for (const auto& [name, seeds] : entries) {
    out << (first_w ? "" : ",") << "\n    " << quoted(name) << ": {";
    first_w = false;
    bool first_s = true;
    for (const auto& [seed, list] : seeds) {
      out << (first_s ? "" : ",") << "\n      " << quoted(seed) << ": [";
      first_s = false;
      for (std::size_t i = 0; i < list.size(); ++i)
        out << (i ? ", " : "") << quoted(list[i]);
      out << "]";
    }
    out << "\n    }";
  }
  out << "\n  }\n}\n";
}

/// Correctness bookkeeping of one workload run.
struct Checker {
  const std::vector<mixnet::exp::SweepPoint>& points;
  Recorded recorded;
  std::vector<std::uint64_t> first;  ///< point digests of the first pass
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> problems;

  void check(const std::vector<mixnet::exp::PointResult>& results) {
    std::vector<std::uint64_t> digests;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const std::uint64_t d = point_digest(results[i]);
      digests.push_back(d);
      ++attempted;
      std::string why = check_point(points[i], results[i]);
      if (why.empty() && recorded.status == "checked" &&
          (i >= recorded.points.size() || recorded.points[i] != hex64(d)))
        why = "digest " + hex64(d) + " differs from the recorded one";
      if (why.empty() && !first.empty() && first[i] != d)
        why = "digest differs between passes";
      if (!why.empty()) {
        ++failed;
        if (problems.size() < 8)
          problems.push_back("point " + std::to_string(i) + ": " + why);
      }
    }
    if (first.empty()) first = digests;
  }
};

double min_of(const std::vector<double>& xs) {
  return *std::min_element(xs.begin(), xs.end());
}

std::string samples_json(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) out += (i ? "," : "") + num(xs[i]);
  return out + "]";
}

/// Host seconds constructing each point's simulator.
std::vector<double> time_setup(const std::vector<mixnet::exp::SweepPoint>& points) {
  std::vector<double> out;
  for (const auto& p : points) {
    const auto t0 = Clock::now();
    try {
      if (p.serve)
        mixnet::serve::ServeSimulator s(p.cfg, *p.serve);
      else
        mixnet::sim::TrainingSimulator s(p.cfg);
    } catch (const std::exception&) {
      // The sweep pass records the failure.
    }
    out.push_back(since(t0));
  }
  return out;
}

double total(const std::vector<double>& xs) {
  double t = 0.0;
  for (const double x : xs) t += x;
  return t;
}

/// The fastest time of every part of a pass, over all passes of a run.
struct FastestParts {
  std::vector<double> best;

  void add(const std::vector<double>& parts) {
    if (best.empty()) {
      best = parts;
    } else if (parts.size() == best.size()) {
      for (std::size_t i = 0; i < parts.size(); ++i)
        best[i] = std::min(best[i], parts[i]);
    }
  }
};

int run(const Args& a) {
  const Workload& w = *find_workload(a.workload);
  const auto points = w.points(a.seed);
  // Recording replaces whatever was recorded before, so it checks nothing
  // against it.
  Checker checker{points, a.record ? Recorded{} : read_recorded(a), {}, 0, 0, {}};
  mixnet::exp::RunContext ctx;
  ctx.jobs = 1;
  ctx.scenario = w.name;
  mixnet::exp::SweepStats sweep_stats;
  ctx.stats = &sweep_stats;

  std::cout << "perfbench: workload " << w.name << " (" << points.size()
            << " points), seed " << a.seed << ", "
            << (a.trace ? "traced" : "untraced") << "\n";
  std::string metrics, extra;
  const auto t_run = Clock::now();
  if (!a.trace) {
    // Passes repeat while another one fits in the measuring time. Other
    // tenants of the host slow passes down, never speed them up, in regimes
    // lasting seconds to minutes (README.md "Measurement"). So a run reports, per part
    // of a pass, the fastest time any pass took for it, summed over the
    // parts. Training points run through one run_sweep call, so whatever
    // the engine shares across points counts; each is a part that ends when
    // its probe fires after its last iteration. Serving points share nothing
    // (each has its own seed) and run_sweep cannot mark them, so each runs
    // through a run_sweep call of its own and is a part.
    std::vector<Clock::time_point> marks;
    std::vector<std::vector<mixnet::exp::SweepPoint>> calls;
    for (const auto& p : points) {
      if (p.serve || calls.empty() || calls.back().front().serve) calls.emplace_back();
      calls.back().push_back(p);
      if (!p.serve)
        calls.back().back().probe = [&marks](mixnet::sim::TrainingSimulator&,
                                             mixnet::exp::PointResult&) {
          marks.push_back(Clock::now());
        };
    }
    std::vector<double> wall, setup;
    FastestParts wall_parts, setup_parts;
    for (double last = 0.0; wall.empty() || since(t_run) + last <= a.seconds;) {
      const auto t_pass = Clock::now();
      const std::vector<double> setups = time_setup(points);
      setup.push_back(total(setups));
      setup_parts.add(setups);
      std::vector<mixnet::exp::PointResult> results;
      std::vector<double> parts;
      for (const auto& call : calls) {
        marks.clear();
        const auto t0 = Clock::now();
        auto out = mixnet::exp::run_sweep(call, ctx);
        const auto t1 = Clock::now();
        // The time after the last probe (the call returning) joins the
        // last point's part.
        auto from = t0;
        for (const auto& m : marks) {
          parts.push_back(std::chrono::duration<double>(m - from).count());
          from = m;
        }
        if (marks.empty()) parts.emplace_back(0.0);
        parts.back() += std::chrono::duration<double>(t1 - from).count();
        for (auto& r : out) results.push_back(std::move(r));
      }
      wall.push_back(total(parts));
      wall_parts.add(parts);
      last = since(t_pass);
      checker.check(results);
      std::cout << "  pass " << wall.size() << ": wall_s " << num(wall.back())
                << " setup_s " << num(setup.back()) << "\n";
    }
    for (const auto& [name, xs] : {std::pair{"wall_s", &wall}, {"setup_s", &setup}}) {
      std::cout << "  " << name << " over " << xs->size() << " passes: fastest "
                << num(min_of(*xs)) << ", median " << num(median(*xs));
      if (xs->size() > 1) {
        const auto q = quartiles(*xs);
        std::cout << ", quartiles " << num(q[0]) << " .. " << num(q[2]);
      }
      std::cout << "\n";
    }
    const double rss = peak_rss_mb();
    metrics = "\"wall_s\":{\"value\":" + num(total(wall_parts.best)) +
              ",\"unit\":\"s\"},\"setup_s\":{\"value\":" + num(total(setup_parts.best)) +
              ",\"unit\":\"s\"},\"peak_rss_mb\":{\"value\":" + num(rss) +
              ",\"unit\":\"MB\"}";
    extra = ",\"samples\":{\"wall_s\":" + samples_json(wall) +
            ",\"setup_s\":" + samples_json(setup) + "}";
  } else {
    SpanRecorder rec;
    double base_wall = 0.0;
    std::vector<mixnet::exp::PointResult> base;
    {
      Scope s(rec, "exp.sweep", -1);
      const auto t0 = Clock::now();
      base = mixnet::exp::run_sweep(points, ctx);
      base_wall = since(t0);
    }
    checker.check(base);
    const TracedRun traced = run_traced(points, rec, base_wall);
    checker.check(traced.results);
    for (const auto& [name, t] : totals_by_name(rec.spans()))
      std::printf("  span %-22s %8lld calls %12.6f s total %12.6f s self\n",
                  name.c_str(), static_cast<long long>(t.count), t.total_s, t.self_s);
    for (const auto& [name, m] : traced.layers)
      metrics += (metrics.empty() ? "" : ",") + quoted(name) + ":{\"value\":" +
                 num(m.value) + ",\"unit\":" + quoted(m.unit) + "}";
    if (!a.trace_out.empty()) {
      std::ofstream out(a.trace_out);
      out << chrome_trace_json(rec.spans(), {{"workload", w.name},
                                             {"seed", std::to_string(a.seed)}});
      if (!out) throw std::runtime_error("cannot write " + a.trace_out);
    }
  }

  std::vector<std::uint64_t> digests = checker.first;
  if (a.record && checker.failed == 0 && !a.digests.empty())
    record_digests(a, digests);
  for (const auto& p : checker.problems) std::cout << "  FAILED " << p << "\n";
  const bool correct = checker.failed == 0;
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << checker.attempted
            << ",\"failed\":" << checker.failed << ",\"metrics\":{" << metrics
            << "},\"digest\":{\"workload\":" << quoted(hex64(workload_digest(digests)))
            << ",\"recorded\":" << quoted(checker.recorded.status)
            << "},\"meta\":{\"workload\":" << quoted(w.name)
            << ",\"seed\":" << a.seed << ",\"points\":" << points.size()
            << ",\"seconds\":" << num(a.seconds)
            << ",\"schema\":" << mixnet::exp::kCacheSchemaVersion
            << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
            << ",\"compiler\":" << quoted(PERFBENCH_COMPILER)
            << ",\"nproc\":" << std::thread::hardware_concurrency()
            << ",\"cpu\":" << quoted(cpu_model()) << ",\"jobs\":1,\"cache\":false}"
            << extra << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
