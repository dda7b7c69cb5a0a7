#include "support/cli.hpp"

#include <charconv>
#include <iostream>
#include <stdexcept>

#include "support/assert.hpp"
#include "support/version.hpp"

namespace flsa {

CliParser::CliParser(std::string program_description)
    : description_(std::move(program_description)) {}

void CliParser::add_flag(const std::string& name, bool default_value,
                         const std::string& help) {
  Entry e;
  e.kind = Kind::kBool;
  e.help = help;
  e.bool_value = default_value;
  e.default_repr = default_value ? "true" : "false";
  entries_[name] = std::move(e);
}

void CliParser::add_int(const std::string& name, std::int64_t default_value,
                        const std::string& help) {
  Entry e;
  e.kind = Kind::kInt;
  e.help = help;
  e.int_value = default_value;
  e.default_repr = std::to_string(default_value);
  entries_[name] = std::move(e);
}

void CliParser::add_double(const std::string& name, double default_value,
                           const std::string& help) {
  Entry e;
  e.kind = Kind::kDouble;
  e.help = help;
  e.double_value = default_value;
  e.default_repr = std::to_string(default_value);
  entries_[name] = std::move(e);
}

void CliParser::add_string(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  Entry e;
  e.kind = Kind::kString;
  e.help = help;
  e.string_value = default_value;
  e.default_repr = default_value.empty() ? "\"\"" : default_value;
  entries_[name] = std::move(e);
}

bool CliParser::parse(int argc, const char* const* argv) {
  if (argc > 0) program_name_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help(std::cout);
      return false;
    }
    if (arg == "--version") {
      std::cout << version_string() << "\n";
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::optional<std::string> value;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      throw std::invalid_argument("unknown flag --" + name);
    }
    Entry& e = it->second;
    if (e.kind == Kind::kBool) {
      if (value) {
        e.bool_value = (*value == "true" || *value == "1");
      } else {
        e.bool_value = true;
      }
      continue;
    }
    if (!value) {
      if (i + 1 >= argc) {
        throw std::invalid_argument("flag --" + name + " expects a value");
      }
      value = argv[++i];
    }
    switch (e.kind) {
      case Kind::kInt: {
        std::int64_t parsed = 0;
        auto [ptr, ec] = std::from_chars(
            value->data(), value->data() + value->size(), parsed);
        if (ec != std::errc{} || ptr != value->data() + value->size()) {
          throw std::invalid_argument("flag --" + name +
                                      " expects an integer, got " + *value);
        }
        e.int_value = parsed;
        break;
      }
      case Kind::kDouble: {
        try {
          std::size_t pos = 0;
          e.double_value = std::stod(*value, &pos);
          if (pos != value->size()) throw std::invalid_argument("trailing");
        } catch (const std::exception&) {
          throw std::invalid_argument("flag --" + name +
                                      " expects a number, got " + *value);
        }
        break;
      }
      case Kind::kString:
        e.string_value = *value;
        break;
      case Kind::kBool:
        break;  // handled above
    }
  }
  return true;
}

const CliParser::Entry& CliParser::lookup(const std::string& name,
                                          Kind kind) const {
  auto it = entries_.find(name);
  FLSA_REQUIRE(it != entries_.end());
  FLSA_REQUIRE(it->second.kind == kind);
  return it->second;
}

CliParser::Entry& CliParser::lookup(const std::string& name, Kind kind) {
  return const_cast<Entry&>(
      static_cast<const CliParser*>(this)->lookup(name, kind));
}

bool CliParser::get_flag(const std::string& name) const {
  return lookup(name, Kind::kBool).bool_value;
}

std::int64_t CliParser::get_int(const std::string& name) const {
  return lookup(name, Kind::kInt).int_value;
}

bool CliParser::int_in_range(const std::string& name, std::int64_t lo,
                             std::int64_t hi) const {
  const std::int64_t value = get_int(name);
  if (value >= lo && value <= hi) return true;
  std::cerr << "error: --" << name << " must be between " << lo << " and "
            << hi << " (got " << value << ")\n";
  return false;
}

double CliParser::get_double(const std::string& name) const {
  return lookup(name, Kind::kDouble).double_value;
}

const std::string& CliParser::get_string(const std::string& name) const {
  return lookup(name, Kind::kString).string_value;
}

void CliParser::print_help(std::ostream& os) const {
  os << description_ << "\n\nusage: " << program_name_
     << " [flags]\n  --version  print \"" << version_string()
     << "\" and exit\n";
  for (const auto& [name, e] : entries_) {
    os << "  --" << name << "  (default " << e.default_repr << ")\n      "
       << e.help << "\n";
  }
}

}  // namespace flsa
