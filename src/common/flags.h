#pragma once

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace dema {

/// \brief Minimal `--key=value` command-line parser shared by the benchmark
/// harnesses and the `demactl` tool.
///
/// Bare flags (`--verbose`) parse as "1". Every lookup (`Get*`, `Has`)
/// records its key, so after parsing its settings a command can reject the
/// flags it never read (`Unread`) — a typo or a flag of another command —
/// instead of running its defaults. Binaries that share argv with framework
/// flags (e.g. google-benchmark's) simply never ask. A lookup marks the flag
/// it finds, so a `Flags` is not safe to read from two threads at once.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(arg);
        continue;
      }
      size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)].text = "1";
      } else {
        values_[arg.substr(2, eq - 2)].text = arg.substr(eq + 1);
      }
    }
  }

  /// Integer flag with default.
  int64_t GetInt(const std::string& key, int64_t def) const {
    auto it = Find(key);
    return it == values_.end()
               ? def
               : std::strtoll(it->second.text.c_str(), nullptr, 10);
  }
  /// Floating-point flag with default.
  double GetDouble(const std::string& key, double def) const {
    auto it = Find(key);
    return it == values_.end() ? def
                               : std::strtod(it->second.text.c_str(), nullptr);
  }
  /// String flag with default.
  std::string GetString(const std::string& key, const std::string& def) const {
    auto it = Find(key);
    return it == values_.end() ? def : it->second.text;
  }
  /// True when the flag was given (with or without a value).
  bool Has(const std::string& key) const { return Find(key) != values_.end(); }

  /// Comma-separated list of doubles, e.g. `--quantiles=0.25,0.5,0.75`.
  std::vector<double> GetDoubleList(const std::string& key,
                                    std::vector<double> def) const {
    auto it = Find(key);
    if (it == values_.end()) return def;
    std::vector<double> out;
    const std::string& s = it->second.text;
    size_t pos = 0;
    while (pos <= s.size()) {
      size_t comma = s.find(',', pos);
      if (comma == std::string::npos) comma = s.size();
      if (comma > pos) out.push_back(std::strtod(s.substr(pos, comma - pos).c_str(),
                                                 nullptr));
      pos = comma + 1;
    }
    return out.empty() ? def : out;
  }

  /// Non-flag arguments (subcommands), in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags given that no lookup has asked for yet, sorted by name.
  std::vector<std::string> Unread() const {
    std::vector<std::string> unread;
    for (const auto& [key, value] : values_) {
      if (!value.read) unread.push_back(key);
    }
    return unread;
  }

 private:
  struct Value {
    std::string text;
    /// Set by the first lookup of the flag.
    mutable bool read = false;
  };

  std::map<std::string, Value>::const_iterator Find(
      const std::string& key) const {
    auto it = values_.find(key);
    if (it != values_.end()) it->second.read = true;
    return it;
  }

  std::map<std::string, Value> values_;
  std::vector<std::string> positional_;
};

}  // namespace dema
