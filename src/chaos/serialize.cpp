#include "chaos/serialize.hpp"

#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "common/parse.hpp"

namespace dtpsim::chaos {

namespace {

FaultKind kind_from_name(const std::string& name) {
  static const FaultKind all[] = {
      FaultKind::kLinkFlap,  FaultKind::kFlapStorm,       FaultKind::kPortFail,
      FaultKind::kBerBurst,  FaultKind::kBeaconLoss,      FaultKind::kNodeCrash,
      FaultKind::kRogueOscillator, FaultKind::kPcieStorm,
      FaultKind::kGpsLoss,   FaultKind::kRogueGrandmaster,
      FaultKind::kIslandPartition, FaultKind::kStratumFlap,
      FaultKind::kAsymmetricDelay, FaultKind::kLimpingPort,
      FaultKind::kSilentCorruption, FaultKind::kFrozenCounter,
  };
  for (FaultKind k : all)
    if (name == fault_class_name(k)) return k;
  throw std::invalid_argument("chaos::serialize: unknown fault kind '" + name + "'");
}

}  // namespace

std::string fault_to_line(const FaultSpec& d) {
  if (d.kind == FaultKind::kPcieStorm)
    throw std::invalid_argument(
        "chaos::serialize: pcie_storm targets a daemon, not a named device; "
        "it cannot be serialized");
  std::ostringstream out;
  out << "fault kind=" << fault_class_name(d.kind) << " a=" << d.a;
  if (is_link_fault(d.kind)) out << " b=" << d.b;
  out << " at=" << d.at << " dur=" << d.duration << " count=" << d.count
      << " period=" << d.period << " mag=" << format_real(d.magnitude);
  if (d.probe_threshold_ticks != 0)
    out << " probe_threshold=" << format_real(d.probe_threshold_ticks);
  if (d.probe_sample_period != 0) out << " probe_period=" << d.probe_sample_period;
  if (d.probe_timeout != 0) out << " probe_timeout=" << d.probe_timeout;
  if (!d.label.empty()) out << " label=" << d.label;
  return out.str();
}

FaultSpec fault_from_line(const std::string& line) {
  std::istringstream in(line);
  std::string word;
  if (!(in >> word) || word != "fault")
    throw std::invalid_argument("chaos::serialize: fault line must start with 'fault'");

  std::unordered_map<std::string, std::string> kv;
  std::string label;
  bool have_label = false;
  while (in >> word) {
    const auto eq = word.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("chaos::serialize: expected key=value, got '" + word + "'");
    const std::string key = word.substr(0, eq);
    std::string value = word.substr(eq + 1);
    if (key == "label") {
      // label runs to end of line (may contain spaces).
      std::string rest;
      std::getline(in, rest);
      label = value + rest;
      have_label = true;
      break;
    }
    if (!kv.emplace(key, value).second)
      throw std::invalid_argument("chaos::serialize: duplicate key '" + key + "'");
  }

  auto take = [&kv](const std::string& key) {
    auto it = kv.find(key);
    if (it == kv.end())
      throw std::invalid_argument("chaos::serialize: missing key '" + key + "'");
    std::string v = it->second;
    kv.erase(it);
    return v;
  };
  auto take_opt = [&kv](const std::string& key, const std::string& fallback) {
    auto it = kv.find(key);
    if (it == kv.end()) return fallback;
    std::string v = it->second;
    kv.erase(it);
    return v;
  };

  FaultSpec d;
  d.kind = kind_from_name(take("kind"));
  d.a = take("a");
  if (is_link_fault(d.kind)) d.b = take("b");
  // Times, durations and counts must fit their field and not be negative.
  const std::string ctx = "chaos::serialize: ";
  d.at = parse_int<fs_t>(ctx + "at", take("at"), 0);
  d.duration = parse_int<fs_t>(ctx + "dur", take("dur"), 0);
  d.count = parse_int<int>(ctx + "count", take("count"), 0);
  d.period = parse_int<fs_t>(ctx + "period", take("period"), 0);
  d.magnitude = parse_real(ctx + "mag", take("mag"));
  d.probe_threshold_ticks = parse_real(ctx + "probe_threshold", take_opt("probe_threshold", "0"));
  d.probe_sample_period = parse_int<fs_t>(ctx + "probe_period", take_opt("probe_period", "0"), 0);
  d.probe_timeout = parse_int<fs_t>(ctx + "probe_timeout", take_opt("probe_timeout", "0"), 0);
  if (have_label) d.label = label;

  if (!kv.empty())
    throw std::invalid_argument("chaos::serialize: unknown key '" + kv.begin()->first + "'");
  validate(d);
  fault_end(d);  // throws if the fault would end past the fs_t range
  return d;
}

}  // namespace dtpsim::chaos
