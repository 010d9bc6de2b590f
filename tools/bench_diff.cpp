// bench_diff — perf-trajectory gate over the committed BENCH_*.json files.
//
// Every bench writes a machine-readable timing file (BENCH_<name>.json,
// see bench/common.hpp) and the repo commits one copy per bench as the
// baseline. This tool compares a directory of freshly emitted files
// against those baselines and prints a trajectory table: one row per
// bench, wall-clock then vs now, and the relative delta. BENCH_simcore.json
// adds one row per event-queue mix for its median events/sec
// (`queue_eps_median`, higher is better). Rows whose workload knobs
// (iters / runs for wall clock, ref_ops / reps for the queue mixes) differ
// between the two files are reported but never flagged — the numbers are
// not comparable.
//
//   bench_diff <baseline_dir> <fresh_dir> [--max-regress-pct P]
//
// With --max-regress-pct, exits nonzero when any comparable row got worse
// by more than P percent. CI runs this as a non-fatal stage (wall
// clock on shared runners is noisy); the ctest registration compares the
// repo against itself, pinning the parser and the zero-delta path.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

/// Extracts the number following `"key":` at any depth; false when absent.
bool extract_number(const std::string& text, const std::string& key,
                    double* out) {
  std::string needle = "\"" + key + "\"";
  std::size_t at = text.find(needle);
  if (at == std::string::npos) return false;
  at = text.find(':', at + needle.size());
  if (at == std::string::npos) return false;
  const char* start = text.c_str() + at + 1;
  char* end = nullptr;
  double v = std::strtod(start, &end);
  if (end == start) return false;
  *out = v;
  return true;
}

/// The flat object that follows `"key":`, braces included, so a lookup
/// inside it cannot match the same key in another object; "" when absent.
std::string extract_object(const std::string& text, const std::string& key) {
  std::string needle = "\"" + key + "\"";
  std::size_t at = text.find(needle);
  if (at == std::string::npos) return "";
  std::size_t open = text.find_first_not_of(" :", at + needle.size());
  if (open == std::string::npos || text[open] != '{') return "";
  std::size_t close = text.find('}', open);
  if (close == std::string::npos) return "";
  return text.substr(open, close - open + 1);
}

/// Event-queue mixes in BENCH_simcore.json, one object each.
constexpr const char* kSimcoreMixes[] = {"fifo_mix", "cancel_heavy",
                                         "mixed_horizon"};

struct BenchFile {
  std::string name;  ///< "attribution" from BENCH_attribution.json
  std::string text;
  double wall_s = 0.0;
  double iters = 0.0;
  double runs = 0.0;
  double ref_ops = 0.0;
  double reps = 0.0;
  bool ok = false;
};

BenchFile load(const std::filesystem::path& path) {
  BenchFile b;
  std::string stem = path.stem().string();  // BENCH_<name>
  b.name = stem.size() > 6 ? stem.substr(6) : stem;
  std::ifstream in(path);
  if (!in) return b;
  std::ostringstream ss;
  ss << in.rdbuf();
  b.text = ss.str();
  b.ok = extract_number(b.text, "wall_s", &b.wall_s);
  extract_number(b.text, "iters", &b.iters);
  extract_number(b.text, "runs", &b.runs);
  extract_number(b.text, "ref_ops", &b.ref_ops);
  extract_number(b.text, "reps", &b.reps);
  return b;
}

/// One trajectory row: prints it and tallies it into the totals.
struct Tally {
  double max_regress_pct = -1.0;  // <0 = report only, never fail
  int compared = 0;
  int regressions = 0;
  int skipped = 0;

  /// `decimals` is the printed precision of the base and fresh values.
  void row(const std::string& label, const char* metric, double base,
           double fresh, int decimals, bool higher_is_better, bool comparable) {
    if (!comparable) {
      std::printf("%-22s %-17s %12.*f %12.*f %9s  workload changed (skipped)\n",
                  label.c_str(), metric, decimals, base, decimals, fresh, "-");
      ++skipped;
      return;
    }
    double delta_pct = base > 0.0 ? (fresh - base) / base * 100.0 : 0.0;
    double worse_pct = higher_is_better ? -delta_pct : delta_pct;
    bool flagged = max_regress_pct >= 0.0 && worse_pct > max_regress_pct;
    std::printf("%-22s %-17s %12.*f %12.*f %+8.1f%%  %s\n", label.c_str(),
                metric, decimals, base, decimals, fresh, delta_pct,
                flagged ? "REGRESSION" : "ok");
    ++compared;
    if (flagged) ++regressions;
  }

  /// One row per simcore queue mix, each key looked up inside its mix's
  /// own object.
  void simcore_mixes(const BenchFile& base, const BenchFile& fresh) {
    bool comparable = base.ref_ops == fresh.ref_ops && base.reps == fresh.reps;
    for (const char* mix : kSimcoreMixes) {
      std::string label = fresh.name + "/" + mix;
      double base_eps = 0.0;
      double fresh_eps = 0.0;
      if (!extract_number(extract_object(base.text, mix), "queue_eps_median",
                          &base_eps) ||
          !extract_number(extract_object(fresh.text, mix), "queue_eps_median",
                          &fresh_eps)) {
        std::printf("%-22s %-17s %12s %12s %9s  missing (skipped)\n",
                    label.c_str(), "queue_eps_median", "-", "-", "-");
        ++skipped;
        continue;
      }
      row(label, "queue_eps_median", base_eps, fresh_eps, /*decimals=*/0,
          /*higher_is_better=*/true, comparable);
    }
  }
};

std::vector<std::filesystem::path> bench_files(const std::string& dir) {
  std::vector<std::filesystem::path> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 &&
        entry.path().extension() == ".json") {
      out.push_back(entry.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_diff <baseline_dir> <fresh_dir> "
               "[--max-regress-pct P]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_dir, fresh_dir;
  Tally tally;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--max-regress-pct") {
      if (i + 1 >= argc) return usage();
      tally.max_regress_pct = std::atof(argv[++i]);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) return usage();
  baseline_dir = positional[0];
  fresh_dir = positional[1];

  std::printf("%-22s %-17s %12s %12s %9s  %s\n", "bench", "metric", "base",
              "fresh", "delta%", "status");
  for (const std::filesystem::path& fresh_path : bench_files(fresh_dir)) {
    std::filesystem::path base_path =
        std::filesystem::path(baseline_dir) / fresh_path.filename();
    std::error_code ec;
    if (!std::filesystem::exists(base_path, ec)) {
      std::printf("%-22s %-17s %12s %12s %9s  new bench (no baseline)\n",
                  load(fresh_path).name.c_str(), "-", "-", "-", "-");
      continue;
    }
    BenchFile base = load(base_path);
    BenchFile fresh = load(fresh_path);
    if (!base.ok || !fresh.ok) {
      std::printf("%-22s %-17s %12s %12s %9s  no comparable wall_s (skipped)\n",
                  fresh.name.c_str(), "wall_s", "-", "-", "-");
      ++tally.skipped;
      continue;
    }
    tally.row(fresh.name, "wall_s", base.wall_s, fresh.wall_s,
              /*decimals=*/3, /*higher_is_better=*/false,
              base.iters == fresh.iters && base.runs == fresh.runs);
    if (fresh.name == "simcore") tally.simcore_mixes(base, fresh);
  }
  std::printf("\n%d compared, %d skipped, %d regression%s", tally.compared,
              tally.skipped, tally.regressions,
              tally.regressions == 1 ? "" : "s");
  if (tally.max_regress_pct >= 0.0) {
    std::printf(" worse than %.0f%%", tally.max_regress_pct);
  }
  std::printf("\n");
  return tally.regressions > 0 ? 1 : 0;
}
