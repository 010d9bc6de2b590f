// tlsim command-line front end (library part, testable without a process).
// `tlsim help` lists the commands and, rendered from the flag table in
// cli.cpp, the flags each command accepts.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "simcore/flags.hpp"

namespace tls::runtime {

using CliArgs = sim::Flags;

/// Parses raw arguments (excluding argv[0]) against every tlsim flag.
/// Returns false and writes a message when a flag is unknown or malformed.
bool parse_args(const std::vector<std::string>& raw, CliArgs* out,
                std::string* error);

/// Executes a tlsim invocation. `args` excludes the program name.
/// Returns the process exit code (0 ok, 1 run or artifact failure, 2 usage
/// error).
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

}  // namespace tls::runtime
