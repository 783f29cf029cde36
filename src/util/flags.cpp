#include "util/flags.h"

#include <charconv>

namespace srm::util {
namespace {

template <typename T>
T parse_number(const std::string& name, const std::string& value,
               const char* expected) {
  T out{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec != std::errc() || ptr != end) {
    throw FlagError("--" + name + ": expected " + expected + ", got '" +
                    value + "'");
  }
  return out;
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare boolean flag
    }
  }
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::get_string(const std::string& name,
                              const std::string& default_value) const {
  const auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return parse_number<std::int64_t>(name, it->second, "an integer");
}

double Flags::get_double(const std::string& name, double default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return parse_number<double>(name, it->second, "a number");
}

bool Flags::get_bool(const std::string& name, bool default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw FlagError("--" + name + ": expected true/false/1/0/yes/no, got '" +
                  v + "'");
}

std::uint64_t Flags::get_seed(std::uint64_t default_value) const {
  const auto it = values_.find("seed");
  if (it == values_.end()) return default_value;
  return parse_number<std::uint64_t>("seed", it->second,
                                    "a non-negative integer");
}

}  // namespace srm::util
