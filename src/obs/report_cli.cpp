#include "obs/report_cli.hpp"

#include <limits>
#include <string>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/export.hpp"
#include "obs/html.hpp"
#include "obs/reader.hpp"
#include "obs/streaming.hpp"
#include "simcore/flags.hpp"

namespace tls::obs {

namespace {

constexpr sim::FlagSpec kFlags[] = {
    {"diff", nullptr, "compare two traces, A then B"},
    {"follow", nullptr, "tail a growing trace, re-rendering --html"},
    {"stream", nullptr, "analyze in bounded memory"},
    {"quiet", nullptr, "no text report on stdout"},
    {"csv", "PATH", "report (or diff) as tidy long CSV"},
    {"json", "PATH", "report (or diff) as JSON"},
    {"html", "PATH", "self-contained HTML dashboard"},
    {"label-a", "NAME", "--diff name of A (default: file basename)"},
    {"label-b", "NAME", "--diff name of B (default: file basename)"},
    {"poll-ms", "N", "--follow poll interval (500)"},
    {"max-polls", "N", "--follow stops after N polls (0 = no limit)"},
    {"idle-polls", "N",
     "--follow stops after N polls without growth\n(0 = no limit)"},
    {"help", nullptr, "this text (also -h)"},
};

std::string usage() {
  return "usage: tlsreport <trace.csv> [flags]             one run\n"
         "       tlsreport --diff <a.csv> <b.csv> [flags]  A/B policy diff\n"
         "       tlsreport --follow <trace.csv> --html PATH [flags]\n\n"
         "Post-hoc straggler attribution from a tlsim --trace-csv file:\n"
         "per-iteration critical-path decomposition and contention blame.\n"
         "Text goes to stdout. Flags are --name VALUE or --name=VALUE.\n\n"
         "flags:\n" +
         sim::flag_help(kFlags);
}

/// Writes an artifact unless its path is empty (not requested); false
/// after reporting a failed write on `err`.
bool save(const std::string& path, const std::string& content,
          std::ostream& err) {
  std::string error;
  if (path.empty() || write_file(path, content, &error)) return true;
  err << "tlsreport: " << error << "\n";
  return false;
}

/// Derives a short run label from a path: basename without extension.
std::string label_from_path(const std::string& path) {
  std::size_t slash = path.find_last_of("/\\");
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  std::size_t dot = base.find_last_of('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

/// When --follow stops polling; 0 = no limit.
struct Polls {
  long interval_ms = 500;
  long max = 0;
  long idle = 0;
};

/// Tails the trace with a StreamingAnalyzer, re-rendering the dashboard
/// whenever a poll delivered new events. Returns the exit code.
int run_follow(const sim::Flags& flags, const Polls& limits,
               const ReportCliHooks& hooks, std::ostream& out,
               std::ostream& err) {
  const std::string& path = flags.positional[0];
  const std::string html_path = flags.get("html");
  StreamingAnalyzer analyzer;
  TraceCsvTail tail(path);
  HtmlOptions html_opts;
  html_opts.title = "tlsreport: " + label_from_path(path);
  html_opts.label_a = label_from_path(path);
  html_opts.refresh_seconds = static_cast<int>(
      limits.interval_ms >= 1000 ? limits.interval_ms / 1000 : 1);

  long polls = 0;
  long idle = 0;
  std::uint64_t seen = 0;
  for (;;) {
    std::string error;
    bool ok =
        tail.poll([&analyzer](const TraceEvent& e) { analyzer.ingest(e); },
                  &error);
    if (!ok) {
      // "cannot open" just means the writer has not created the file yet;
      // anything else is a malformed line and will never get better.
      if (error.find("cannot open") == std::string::npos) {
        err << "tlsreport: " << error << "\n";
        return 2;
      }
    }
    ++polls;
    if (tail.events_read() != seen) {
      seen = tail.events_read();
      idle = 0;
      analyzer.set_health(tail.health());
      RunReport snap = analyzer.snapshot();
      if (!save(html_path, report_html(report_json(snap), "", html_opts),
                err)) {
        return 2;
      }
    } else {
      ++idle;
    }
    if (limits.max > 0 && polls >= limits.max) break;
    if (limits.idle > 0 && idle >= limits.idle) break;
    if (hooks.sleep_ms) hooks.sleep_ms(static_cast<int>(limits.interval_ms));
  }

  analyzer.set_health(tail.health());
  RunReport final_report = analyzer.finish();
  HtmlOptions final_opts = html_opts;
  final_opts.refresh_seconds = 0;  // the run is over; stop reloading
  if (!save(html_path, report_html(report_json(final_report), "", final_opts),
            err)) {
    return 2;
  }
  if (!flags.has("quiet")) out << report_text(final_report);
  return save(flags.get("json"), report_json(final_report), err) ? 0 : 2;
}

}  // namespace

int run_report_cli(int argc, const char* const* argv, std::ostream& out,
                   std::ostream& err) {
  return run_report_cli(argc, argv, out, err, ReportCliHooks{});
}

int run_report_cli(int argc, const char* const* argv, std::ostream& out,
                   std::ostream& err, const ReportCliHooks& hooks) {
  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::string& arg : args) {
    if (arg == "-h") arg = "--help";
  }
  sim::Flags flags;
  std::string error;
  if (!flags.parse(args, kFlags, &error)) {
    err << "tlsreport: " << error << "\n" << usage();
    return 2;
  }
  if (flags.has("help")) {
    out << usage();
    return 0;
  }
  Polls limits;
  constexpr long kMax = std::numeric_limits<long>::max();
  if (!flags.integer("poll-ms", 500, 0, kMax, &limits.interval_ms, &error) ||
      !flags.integer("max-polls", 0, 0, kMax, &limits.max, &error) ||
      !flags.integer("idle-polls", 0, 0, kMax, &limits.idle, &error)) {
    err << "tlsreport: " << error << " (expects a non-negative integer)\n"
        << usage();
    return 2;
  }
  const std::vector<std::string>& inputs = flags.positional;
  const bool diff = flags.has("diff");
  const bool quiet = flags.has("quiet");
  const std::string csv_path = flags.get("csv");
  const std::string json_path = flags.get("json");
  const std::string html_path = flags.get("html");

  if (flags.has("follow") && diff) {
    err << "tlsreport: --follow and --diff are mutually exclusive\n"
        << usage();
    return 2;
  }

  std::size_t expected = diff ? 2u : 1u;
  if (inputs.size() != expected) {
    err << "tlsreport: expected " << expected << " trace CSV path"
        << (expected == 1 ? "" : "s") << ", got " << inputs.size() << "\n"
        << usage();
    return 2;
  }

  if (flags.has("follow")) {
    if (html_path.empty()) {
      err << "tlsreport: --follow requires --html PATH (the live "
             "dashboard)\n"
          << usage();
      return 2;
    }
    return run_follow(flags, limits, hooks, out, err);
  }

  std::vector<RunReport> reports;
  for (const std::string& path : inputs) {
    if (flags.has("stream")) {
      // Bounded memory: events flow straight from the chunked reader into
      // the streaming engine, never materializing the full vector.
      StreamingAnalyzer analyzer;
      TraceHealth health;
      if (!for_each_trace_csv_event(
              path,
              [&analyzer](const TraceEvent& e) { analyzer.ingest(e); },
              &health, &error)) {
        err << "tlsreport: " << error << "\n";
        return 2;
      }
      analyzer.set_health(health);
      reports.push_back(analyzer.finish());
    } else {
      std::vector<TraceEvent> events;
      TraceHealth health;
      if (!read_trace_csv_file(path, &events, &health, &error)) {
        err << "tlsreport: " << error << "\n";
        return 2;
      }
      RunReport r = analyze(events);
      r.health = health;
      reports.push_back(std::move(r));
    }
  }

  if (diff) {
    std::string label_a = flags.get("label-a");
    std::string label_b = flags.get("label-b");
    if (label_a.empty()) label_a = label_from_path(inputs[0]);
    if (label_b.empty()) label_b = label_from_path(inputs[1]);
    DiffReport d = diff_reports(reports[0], reports[1], label_a, label_b);
    if (!quiet) out << diff_text(d);
    if (!save(csv_path, diff_csv(d), err) ||
        !save(json_path, diff_json(d), err)) {
      return 2;
    }
    if (!html_path.empty()) {
      HtmlOptions opts;
      opts.title = "tlsreport diff: " + label_a + " vs " + label_b;
      opts.label_a = label_a;
      opts.label_b = label_b;
      if (!save(html_path,
                report_html(report_json(reports[0]), report_json(reports[1]),
                            opts),
                err)) {
        return 2;
      }
    }
    return 0;
  }

  const RunReport& r = reports[0];
  if (!quiet) out << report_text(r);
  if (!save(csv_path, report_csv(r), err) ||
      !save(json_path, report_json(r), err)) {
    return 2;
  }
  if (!html_path.empty()) {
    HtmlOptions opts;
    opts.title = "tlsreport: " + label_from_path(inputs[0]);
    opts.label_a = label_from_path(inputs[0]);
    if (!save(html_path, report_html(report_json(r), "", opts), err)) {
      return 2;
    }
  }
  return 0;
}

}  // namespace tls::obs
