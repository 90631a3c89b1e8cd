// mixnet-bench: single CLI over the scenario registry (DESIGN.md §7, §9).
//
//   mixnet-bench --list                      enumerate registered scenarios
//   mixnet-bench --list --format json        machine-readable listing
//   mixnet-bench --run fig13                 run one scenario (text output)
//   mixnet-bench --run fig12,fig13 --jobs 8  run several, 8 worker threads
//   mixnet-bench --run 'serve*' --check      trailing-* prefix glob + checks
//   mixnet-bench --run all --format json     every scenario, JSON to stdout
//   mixnet-bench --run fig13 --shard 1/4     execute this shard's points
//   mixnet-bench --run fig13                 then render from the cache
//
// Sweep points execute through the staged engine (plan -> cache-lookup ->
// execute -> stream -> merge): each point's canonical content key is looked
// up in the disk-backed result cache (.mixnet-cache/ by default; see
// DESIGN.md §9) before any simulation runs, and completed points stream
// their record to disk as they finish, so a killed run resumes with zero
// recomputation. `--shard i/N` executes only this process's residue class
// of the point grid; per-point seeds derive from (base seed, index), so N
// sharded runs followed by a plain `--run` over their cache are
// byte-identical to a serial run.
//
// Exit codes (README "Exit codes"): 0 success; 1 unknown scenario or
// scenario failure; 2 usage error; 3 paper-shape check violation;
// 4 one or more sweep points failed (summary on stderr).
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "exp/registry.h"
#include "exp/result_cache.h"
#include "net/transport.h"

namespace {

using mixnet::exp::ResultCache;
using mixnet::exp::RunContext;
using mixnet::exp::ScenarioInfo;
using mixnet::exp::ScenarioRegistry;
using mixnet::exp::ScenarioResult;
using mixnet::exp::SweepStats;

int usage(const char* argv0, int code) {
  std::fprintf(
      code == 0 ? stdout : stderr,
      "Usage: %s [--list] [--run NAME[,NAME...]|all] [--jobs N]\n"
      "          [--format text|csv|json] [--check] [--cache DIR|--no-cache]\n"
      "          [--shard I/N] [--stats FILE]\n"
      "          [--backend analytic|flow|packet]\n"
      "\n"
      "  --list         list registered scenarios and exit (--format json\n"
      "                 for a machine-readable listing)\n"
      "  --run NAMES    comma-separated scenario names, 'all', or trailing-*\n"
      "                 prefix globs such as 'serve*' (quote them from the\n"
      "                 shell)\n"
      "  --jobs N       worker threads for sweep points, N >= 1 (default 1)\n"
      "  --format FMT   output format: text (default), csv, json\n"
      "  --check        run registered paper-shape checks after each\n"
      "                 scenario; exit 3 on any violation (CI smoke gate)\n"
      "  --cache DIR    result-cache directory (default .mixnet-cache)\n"
      "  --no-cache     disable the result cache (every point recomputes)\n"
      "  --shard I/N    execute only points with index %% N == I, streaming\n"
      "                 records into the cache; table output is suppressed\n"
      "                 (once all shards finish, --run over the same cache\n"
      "                 renders the complete tables)\n"
      "  --stats FILE   write per-scenario cache hit/miss and gate-trace\n"
      "                 counts as JSON\n"
      "  --backend B    override the network fidelity ladder for every point\n"
      "                 (analytic, flow, packet; DESIGN.md §12). Scenarios\n"
      "                 that pin backends per point (e.g. fidelity-ladder)\n"
      "                 reject the override\n",
      argv0);
  return code;
}

void list_scenarios() {
  std::printf("%-10s %-20s %s\n", "name", "figure", "description");
  for (const auto& s : ScenarioRegistry::paper().scenarios())
    std::printf("%-10s %-20s %s\n", s.name.c_str(), s.figure.c_str(),
                s.title.c_str());
}

/// Parses all of `s` as a base-10 int: no sign other than '-', no
/// whitespace, no trailing characters, no overflow.
bool parse_int(const std::string& s, int* out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

std::vector<std::string> split_names(const std::string& arg) {
  std::vector<std::string> names;
  std::string cur;
  for (char c : arg) {
    if (c == ',') {
      if (!cur.empty()) names.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) names.push_back(cur);
  return names;
}

struct ScenarioStatsEntry {
  std::string name;
  SweepStats stats;
};

std::string stats_json_object(const std::string& name, const SweepStats& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"points\":%zu,\"hits\":%zu,"
                "\"computed\":%zu,\"skipped\":%zu,\"failed\":%zu,"
                "\"gate_traces\":%zu}",
                name.c_str(), s.points, s.hits, s.computed, s.skipped,
                s.failed, s.gate_traces);
  return buf;
}

bool write_stats_file(const std::string& path,
                      const std::vector<ScenarioStatsEntry>& entries) {
  SweepStats totals;
  std::string out = "{\"scenarios\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i) out += ',';
    out += stats_json_object(entries[i].name, entries[i].stats);
    totals.points += entries[i].stats.points;
    totals.hits += entries[i].stats.hits;
    totals.computed += entries[i].stats.computed;
    totals.skipped += entries[i].stats.skipped;
    totals.failed += entries[i].stats.failed;
    totals.gate_traces += entries[i].stats.gate_traces;
  }
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "],\"totals\":{\"points\":%zu,\"hits\":%zu,\"computed\":%zu,"
                "\"skipped\":%zu,\"failed\":%zu,\"gate_traces\":%zu}}\n",
                totals.points, totals.hits, totals.computed, totals.skipped,
                totals.failed, totals.gate_traces);
  out += buf;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs(out.c_str(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool list = false;
  bool check = false;
  bool no_cache = false;
  std::vector<std::string> names;
  std::string format = "text";
  std::string cache_dir;
  std::string stats_path;
  int shard_index = 0, shard_count = 1;
  bool shard_set = false;
  RunContext ctx;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires an argument\n", arg.c_str());
        std::exit(usage(argv[0], 2));
      }
      return argv[++i];
    };
    if (arg == "--list") {
      list = true;
    } else if (arg == "--run") {
      for (auto& n : split_names(next())) names.push_back(std::move(n));
    } else if (arg == "--jobs") {
      const std::string value = next();
      if (!parse_int(value, &ctx.jobs) || ctx.jobs < 1) {
        std::fprintf(stderr, "--jobs expects an integer >= 1, got: %s\n",
                     value.c_str());
        return usage(argv[0], 2);
      }
    } else if (arg == "--format") {
      format = next();
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--cache") {
      cache_dir = next();
    } else if (arg == "--no-cache") {
      no_cache = true;
    } else if (arg == "--shard") {
      const std::string spec = next();
      const auto slash = spec.find('/');
      if (slash == std::string::npos ||
          !parse_int(spec.substr(0, slash), &shard_index) ||
          !parse_int(spec.substr(slash + 1), &shard_count) ||
          shard_index < 0 || shard_index >= shard_count) {
        std::fprintf(stderr, "--shard expects I/N with 0 <= I < N, got: %s\n",
                     spec.c_str());
        return usage(argv[0], 2);
      }
      shard_set = true;
    } else if (arg == "--stats") {
      stats_path = next();
    } else if (arg == "--backend") {
      const std::string b = next();
      mixnet::net::NetBackend backend;
      if (!mixnet::net::parse_net_backend(b, &backend)) {
        std::fprintf(stderr,
                     "unknown backend: %s (expected analytic, flow, packet)\n",
                     b.c_str());
        return usage(argv[0], 2);
      }
      ctx.backend_override = backend;
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0], 0);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return usage(argv[0], 2);
    }
  }
  if (format != "text" && format != "csv" && format != "json") {
    std::fprintf(stderr, "unknown format: %s\n", format.c_str());
    return usage(argv[0], 2);
  }
  if (no_cache && (!cache_dir.empty() || shard_set)) {
    std::fprintf(stderr, "--no-cache cannot be combined with --cache/--shard\n");
    return usage(argv[0], 2);
  }

  const ScenarioRegistry& registry = ScenarioRegistry::paper();
  if (list) {
    if (format == "json")
      std::fputs(list_scenarios_json(registry).c_str(), stdout);
    else
      list_scenarios();
    return 0;
  }
  if (names.empty()) return usage(argv[0], 2);
  if (names.size() == 1 && names[0] == "all") {
    names.clear();
    for (const auto& s : registry.scenarios()) names.push_back(s.name);
  }

  // Trailing-* prefix globs (e.g. --run 'serve*') expand against the
  // registry in registration order; exact names pass through untouched.
  // Duplicates arising from overlapping patterns are dropped, first
  // occurrence wins, so table output order stays predictable.
  {
    std::vector<std::string> expanded;
    for (const auto& n : names) {
      if (n.size() >= 2 && n.back() == '*') {
        const std::string prefix = n.substr(0, n.size() - 1);
        bool matched = false;
        for (const auto& s : registry.scenarios())
          if (s.name.compare(0, prefix.size(), prefix) == 0) {
            expanded.push_back(s.name);
            matched = true;
          }
        if (!matched) {
          std::fprintf(stderr, "no scenario matches pattern: %s (try --list)\n",
                       n.c_str());
          return 1;
        }
      } else {
        expanded.push_back(n);
      }
    }
    names.clear();
    for (auto& n : expanded)
      if (std::find(names.begin(), names.end(), n) == names.end())
        names.push_back(std::move(n));
  }

  // Resolve everything up front so a typo fails before hours of sweeps.
  std::vector<const ScenarioInfo*> selected;
  for (const auto& n : names) {
    const ScenarioInfo* s = registry.find(n);
    if (!s) {
      std::fprintf(stderr, "unknown scenario: %s (try --list)\n", n.c_str());
      return 1;
    }
    selected.push_back(s);
  }

  // A sweep-wide backend override would silently undo a scenario that sets
  // the backend per point (the fidelity ladder's whole purpose) — refuse.
  if (ctx.backend_override) {
    for (const ScenarioInfo* s : selected) {
      if (s->pins_backend) {
        std::fprintf(stderr,
                     "--backend cannot override scenario '%s': it pins the "
                     "network backend per point\n",
                     s->name.c_str());
        return usage(argv[0], 2);
      }
    }
  }

  if (cache_dir.empty()) cache_dir = ".mixnet-cache";
  std::unique_ptr<ResultCache> cache;
  if (!no_cache) cache = std::make_unique<ResultCache>(cache_dir);
  ctx.cache = cache.get();
  ctx.shard_index = shard_index;
  ctx.shard_count = shard_count;

  // Shard mode renders nothing: partial grids make partial tables, and the
  // deliverable is the streamed cache records; a later --run renders them.
  const bool render = !shard_set;

  // JSON buffers the whole array so a scenario failure mid-run never leaves
  // an unterminated array on stdout.
  std::string json_out = "[";
  bool json_first = true;
  int shape_violations = 0;
  std::size_t failed_points = 0;
  std::vector<ScenarioStatsEntry> stats_entries;
  for (const ScenarioInfo* s : selected) {
    ScenarioResult result;
    SweepStats stats;
    ctx.scenario = s->name;
    ctx.stats = &stats;  // point failures land here instead of throwing
    try {
      result = s->run(ctx);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "scenario %s failed: %s\n", s->name.c_str(),
                   e.what());
      return 1;
    }
    if (render) {
      if (format == "json") {
        if (!json_first) json_out += ",\n";
        json_out += result.to_json();
        json_first = false;
      } else if (format == "csv") {
        std::fputs(result.to_csv().c_str(), stdout);
      } else {
        std::fputs(result.to_text().c_str(), stdout);
      }
    }
    // Cache hit/miss report: one stderr line per scenario, machine-collected
    // by scripts/verify.sh into BENCH_verify.json via --stats.
    if (ctx.cache || shard_set) {
      const std::string prefix =
          shard_set ? "shard " + std::to_string(shard_index) + "/" +
                          std::to_string(shard_count)
                    : "cache";
      std::fprintf(stderr,
                   "%s [%s]: %zu points, %zu hits, %zu computed, %zu skipped, "
                   "%zu failed\n",
                   prefix.c_str(), s->name.c_str(), stats.points, stats.hits,
                   stats.computed, stats.skipped, stats.failed);
    }
    failed_points += stats.failed;
    for (const auto& f : stats.failures)
      std::fprintf(stderr, "point FAILED: %s\n", f.c_str());
    stats_entries.push_back({s->name, stats});
    if (check && render) {
      if (!s->check) {
        std::fprintf(stderr, "shape check: %s has no registered check\n",
                     s->name.c_str());
      } else {
        const auto violations = s->check(result);
        for (const auto& v : violations)
          std::fprintf(stderr, "shape check FAILED [%s]: %s\n", s->name.c_str(),
                       v.c_str());
        if (violations.empty())
          std::fprintf(stderr, "shape check OK [%s]\n", s->name.c_str());
        shape_violations += static_cast<int>(violations.size());
      }
    }
  }
  if (render && format == "json") std::printf("%s]\n", json_out.c_str());
  if (!stats_path.empty() && !write_stats_file(stats_path, stats_entries))
    std::fprintf(stderr, "could not write stats file: %s\n",
                 stats_path.c_str());
  if (failed_points > 0)
    std::fprintf(stderr, "%zu sweep point(s) failed\n", failed_points);
  if (shape_violations > 0) return 3;
  return failed_points > 0 ? 4 : 0;
}
