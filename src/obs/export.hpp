// tls::obs — trace/metrics file renderers.
//
// Pure functions from an in-memory Tracer/Registry to file contents; the
// caller (exp::run_experiment, tests) decides where bytes land. Formats:
//
//  * chrome_trace_json(): Chrome trace-event JSON (the `traceEvents` array
//    form), loadable in Perfetto and chrome://tracing. Tracks: one "thread"
//    per host NIC under a "net" process, one per job under a "jobs"
//    process, and a "tensorlights" process for controller activity.
//    Timestamps are simulation nanoseconds rendered as microseconds with
//    three fixed decimals — integer arithmetic only, so output bytes are a
//    pure function of the event list.
//
//  * trace_csv(): the same events in compact long form, one row per event,
//    for ad-hoc grep/pandas work without a JSON parser.
//
// write_file() is the one checked file writer every artifact goes through.
#pragma once

#include <string>

#include "obs/trace.hpp"

namespace tls::obs {

/// Stable lower-case name of an event kind ("chunk_enqueue", ...).
const char* to_string(EventKind kind);

/// Renders the full Chrome trace-event JSON document.
std::string chrome_trace_json(const Tracer& tracer);

/// Renders events as CSV: at_ns,kind,cat,host,job,band,flow,bytes,a,b,dur_ns.
std::string trace_csv(const Tracer& tracer);

/// Writes `content` to `path`, replacing it; false and a message when the
/// file cannot be opened or the write fails (e.g. a full disk).
bool write_file(const std::string& path, const std::string& content,
                std::string* error);

}  // namespace tls::obs
