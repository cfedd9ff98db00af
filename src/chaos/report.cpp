#include "chaos/report.hpp"

#include <algorithm>
#include <iomanip>

#include "common/stats.hpp"
#include "obs/json.hpp"

namespace dtpsim::chaos {

std::map<std::string, ClassSummary> CampaignReport::by_class() const {
  std::map<std::string, SampleSeries> times;
  std::map<std::string, ClassSummary> out;
  for (const ProbeResult& r : results_) {
    ClassSummary& c = out[r.fault_class];
    ++c.n;
    if (r.converged) {
      ++c.converged;
      times[r.fault_class].add(r.reconverge_beacons);
    }
    c.stall_ok = c.stall_ok && r.stall_ok;
    c.isolated = c.isolated || r.peer_isolated;
  }
  for (auto& [name, c] : out) {
    auto it = times.find(name);
    if (it == times.end()) continue;
    c.p50_bi = it->second.percentile(50);  // q in [0, 100]
    c.p99_bi = it->second.percentile(99);
    c.worst_bi = it->second.max();
  }
  return out;
}

ClassSummary CampaignReport::summary(const std::string& fault_class) const {
  auto all = by_class();
  auto it = all.find(fault_class);
  return it == all.end() ? ClassSummary{} : it->second;
}

void CampaignReport::print(std::ostream& os) const {
  os << "chaos campaign: " << results_.size() << " fault(s)\n";
  os << std::left << std::setw(18) << "  class" << std::right << std::setw(6) << "n"
     << std::setw(10) << "conv" << std::setw(10) << "p50[T]" << std::setw(10)
     << "p99[T]" << std::setw(8) << "stall" << std::setw(10) << "isolated" << "\n";
  for (const auto& [name, c] : by_class()) {
    os << "  " << std::left << std::setw(16) << name << std::right << std::setw(6)
       << c.n << std::setw(7) << c.converged << "/" << std::left << std::setw(2)
       << c.n << std::right << std::fixed << std::setprecision(2) << std::setw(10)
       << c.p50_bi << std::setw(10) << c.p99_bi << std::setw(8)
       << (c.stall_ok ? "ok" : "FAIL") << std::setw(10) << (c.isolated ? "yes" : "-")
       << "\n";
  }
  os.unsetf(std::ios::fixed);
  for (const ProbeResult& r : results_) {
    if (!r.converged) {
      os << "  !! " << r.fault_class << (r.label.empty() ? "" : " (" + r.label + ")")
         << " did not reconverge (residual " << r.residual_ticks << " ticks)\n";
    }
  }
  if (!app_verdicts_.empty()) {
    os << "app workloads: " << app_verdicts_.size() << " verdict(s)\n";
    os << std::left << std::setw(18) << "  app" << std::right << std::setw(10)
       << "ops" << std::setw(10) << "fail" << std::setw(10) << "detect"
       << std::setw(14) << "worst[ns]" << "\n";
    for (const AppVerdict& v : app_verdicts_) {
      os << "  " << std::left << std::setw(16) << v.app << std::right
         << std::setw(10) << v.ops << std::setw(10) << v.failures
         << std::setw(10) << v.detected << std::fixed << std::setprecision(1)
         << std::setw(14) << v.worst_error_ns << "\n";
      os.unsetf(std::ios::fixed);
      if (!v.detail.empty()) os << "      " << v.detail << "\n";
    }
  }
}

std::string CampaignReport::rows_json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < results_.size(); ++i) {
    const ProbeResult& r = results_[i];
    if (i) out += ", ";
    out += "{\"class\": \"" + obs::json_escape(r.fault_class) + "\"";
    if (!r.label.empty()) out += ", \"label\": \"" + obs::json_escape(r.label) + "\"";
    out += ", \"injected_at\": " + std::to_string(r.injected_at);
    out += ", \"recovery_start\": " + std::to_string(r.recovery_start);
    out += ", \"converged\": " + std::string(r.converged ? "true" : "false");
    out += ", \"reconverge_beacons\": " + obs::json_double(r.reconverge_beacons);
    out += ", \"stall_ok\": " + std::string(r.stall_ok ? "true" : "false");
    out += ", \"peer_isolated\": " + std::string(r.peer_isolated ? "true" : "false");
    out += ", \"residual_ticks\": " + obs::json_double(r.residual_ticks);
    out += ", \"repro\": \"" + obs::json_escape(r.repro) + "\"}";
  }
  return out + "]";
}

}  // namespace dtpsim::chaos
