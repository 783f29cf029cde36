// Minimal command-line flag parsing for benches and examples.
// Supports "--name=value" and "--name value"; unknown flags are an error so
// typos in sweep scripts fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace srm::util {

// A flag value that does not parse, whole, as the requested number or
// boolean; the message names the flag and the offending value.
class FlagError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class Flags {
 public:
  // Parses argv; throws std::invalid_argument on malformed input.
  Flags(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  // The numeric getters throw FlagError unless the entire value parses;
  // get_bool accepts true/false, 1/0, yes/no and a bare flag (true), and
  // throws FlagError on any other spelling.
  std::string get_string(const std::string& name,
                         const std::string& default_value) const;
  std::int64_t get_int(const std::string& name,
                       std::int64_t default_value) const;
  double get_double(const std::string& name, double default_value) const;
  bool get_bool(const std::string& name, bool default_value) const;
  std::uint64_t get_seed(std::uint64_t default_value) const;

  // Positional (non-flag) arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace srm::util
