// Command-line core of the `tlsreport` tool, kept in the library so tests
// drive it without spawning processes. The tools/tlsreport.cpp main is a
// two-line trampoline into run_report_cli().
//
// `tlsreport --help` prints the usage and the flag table (report_cli.cpp).
// It analyzes one run's trace CSV (or, with --diff, compares two) and
// prints the text report to `out`; --csv/--json/--html additionally write
// the machine-readable and dashboard forms. --stream runs the
// bounded-memory StreamingAnalyzer over the file instead of buffering
// every event; --follow tails a growing trace CSV, re-rendering the --html
// dashboard as new iterations finalize. Exit codes: 0 success, 2
// usage/input/output error.
//
// The library never sleeps or reads wall clocks (determinism lint); the
// pause between --follow polls is injected by the caller through
// ReportCliHooks — tools/tlsreport.cpp passes a real sleeper, tests pass a
// hook that appends trace rows instead.
#pragma once

#include <functional>
#include <ostream>

namespace tls::obs {

struct ReportCliHooks {
  /// Called between --follow polls with the configured poll interval.
  /// Null means polls run back-to-back (tests drive file growth here).
  std::function<void(int poll_ms)> sleep_ms;
};

int run_report_cli(int argc, const char* const* argv, std::ostream& out,
                   std::ostream& err);
int run_report_cli(int argc, const char* const* argv, std::ostream& out,
                   std::ostream& err, const ReportCliHooks& hooks);

}  // namespace tls::obs
