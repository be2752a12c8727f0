// Minimal command-line flag parsing for the tools.
//
// Supports --name value and --name=value, plus boolean switches (flags whose
// default is "true" or "false"). Unknown flags and value flags given no value
// abort with usage; tools declare flags up front so --help is generated
// automatically.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace alpha::tools {

class Flags {
 public:
  Flags(std::string program, std::string description)
      : program_(std::move(program)), description_(std::move(description)) {}

  void define(const std::string& name, const std::string& default_value,
              const std::string& help) {
    values_[name] = default_value;
    help_.emplace_back(name, default_value, help);
  }

  /// Parses argv; on --help or errors prints usage and exits.
  void parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        usage();
        std::exit(0);
      }
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        usage();
        std::exit(2);
      }
      arg = arg.substr(2);
      std::string value;
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        value = arg.substr(eq + 1);
        arg = arg.substr(0, eq);
      }
      if (!values_.contains(arg)) {
        std::fprintf(stderr, "unknown flag: --%s\n", arg.c_str());
        usage();
        std::exit(2);
      }
      if (eq == std::string::npos) {
        if (is_switch(arg)) {
          value = "true";
        } else if (i + 1 < argc) {
          value = argv[++i];
        } else {
          std::fprintf(stderr, "flag --%s needs a value\n", arg.c_str());
          usage();
          std::exit(2);
        }
      }
      values_[arg] = value;
    }
  }

  std::string str(const std::string& name) const { return values_.at(name); }
  long num(const std::string& name) const {
    return std::strtol(values_.at(name).c_str(), nullptr, 10);
  }
  double real(const std::string& name) const {
    return std::strtod(values_.at(name).c_str(), nullptr);
  }
  bool flag(const std::string& name) const {
    return values_.at(name) == "true";
  }

  /// Boolean switch: a flag whose default is "true" or "false" takes no
  /// value; every other flag must be given one.
  bool is_switch(const std::string& name) const {
    for (const auto& [flag, def, help] : help_) {
      if (flag == name) return def == "true" || def == "false";
    }
    return false;
  }

  void usage() const {
    std::printf("%s -- %s\n\nflags:\n", program_.c_str(),
                description_.c_str());
    for (const auto& [name, def, help] : help_) {
      std::printf("  --%-12s %s (default: %s)\n", name.c_str(), help.c_str(),
                  def.c_str());
    }
  }

 private:
  std::string program_;
  std::string description_;
  std::map<std::string, std::string> values_;
  std::vector<std::tuple<std::string, std::string, std::string>> help_;
};

}  // namespace alpha::tools
