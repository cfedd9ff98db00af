#include "obs/metrics.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/json.hpp"

namespace dtpsim::obs {

const char* metric_kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
    case MetricKind::kProbe: return "probe";
  }
  return "?";
}

MetricId MetricsRegistry::intern(const std::string& name, MetricKind kind) {
  for (MetricId i = 0; i < metrics_.size(); ++i)
    if (metrics_[i].name == name) return i;
  Metric m;
  m.name = name;
  m.kind = kind;
  m.points.reserve(snapshot_times_.capacity());
  // A cell registered after snapshots began (a counter registered where it
  // is first bumped) held its initial zero at each of them; a late probe
  // cannot be evaluated in the past, so its series starts here.
  if (kind != MetricKind::kProbe)
    for (const fs_t t : snapshot_times_) m.points.push_back(Point{t, 0.0});
  metrics_.push_back(std::move(m));
  return static_cast<MetricId>(metrics_.size() - 1);
}

MetricId MetricsRegistry::counter(const std::string& name) {
  return intern(name, MetricKind::kCounter);
}

MetricId MetricsRegistry::gauge(const std::string& name) {
  return intern(name, MetricKind::kGauge);
}

MetricId MetricsRegistry::histogram(const std::string& name) {
  return intern(name, MetricKind::kHistogram);
}

MetricId MetricsRegistry::probe(const std::string& name, std::function<double()> fn) {
  const MetricId id = intern(name, MetricKind::kProbe);
  metrics_[id].probe = std::move(fn);
  return id;
}

void MetricsRegistry::add(MetricId id, double delta) { metrics_.at(id).value += delta; }

void MetricsRegistry::set(MetricId id, double v) { metrics_.at(id).value = v; }

void MetricsRegistry::observe(MetricId id, double sample) {
  Metric& m = metrics_.at(id);
  if (m.samples == 0) {
    m.min = m.max = sample;
  } else {
    if (sample < m.min) m.min = sample;
    if (sample > m.max) m.max = sample;
  }
  ++m.samples;
  m.sum += sample;
  m.value = sample;
}

void MetricsRegistry::before_snapshot(std::function<void()> fn) {
  pre_snapshot_.push_back(std::move(fn));
}

void MetricsRegistry::snapshot(fs_t t) {
  for (const auto& fn : pre_snapshot_) fn();
  snapshot_times_.push_back(t);
  for (Metric& m : metrics_) {
    double v = m.value;
    switch (m.kind) {
      case MetricKind::kProbe:
        v = m.probe ? m.probe() : 0.0;
        m.value = v;
        break;
      case MetricKind::kHistogram:
        v = static_cast<double>(m.samples);
        break;
      default:
        break;
    }
    m.points.push_back(Point{t, v});
  }
}

const MetricsRegistry::Metric* MetricsRegistry::find(const std::string& name) const {
  for (const Metric& m : metrics_)
    if (m.name == name) return &m;
  return nullptr;
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{\n";
  out += "  \"snapshot_count\": " + std::to_string(snapshot_times_.size()) + ",\n";
  out += "  \"metrics\": [\n";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += "    {\"name\": \"" + json_escape(m.name) + "\", \"kind\": \"";
    out += metric_kind_name(m.kind);
    out += "\"";
    if (m.kind == MetricKind::kHistogram) {
      out += ", \"samples\": " + std::to_string(m.samples);
      out += ", \"sum\": " + json_double(m.sum);
      if (m.samples > 0) {
        // An empty histogram has no min/max/mean — omitted, never faked as 0.
        out += ", \"min\": " + json_double(m.min);
        out += ", \"max\": " + json_double(m.max);
        out += ", \"mean\": " + json_double(m.sum / static_cast<double>(m.samples));
      }
    } else {
      out += ", \"value\": " + json_double(m.value);
    }
    out += ", \"points\": [";
    for (std::size_t p = 0; p < m.points.size(); ++p) {
      if (p != 0) out += ", ";
      out += "[" + std::to_string(m.points[p].t) + ", " + json_double(m.points[p].value) +
             "]";
    }
    out += "]}";
    out += i + 1 < metrics_.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

bool MetricsRegistry::write_json(const std::string& path, std::string* err) const {
  const std::string body = to_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (err) *err = "cannot open " + path + ": " + std::strerror(errno);
    return false;
  }
  const bool wrote = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  const bool flushed = std::fflush(f) == 0 && std::ferror(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !flushed || !closed) {
    if (err) *err = "short write to " + path + ": " + std::strerror(errno);
    return false;
  }
  return true;
}

}  // namespace dtpsim::obs
