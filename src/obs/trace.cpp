#include "obs/trace.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/json.hpp"

namespace dtpsim::obs {

namespace {

/// Chrome trace timestamps are microseconds. Simulated time arrives in fs
/// (1e9 fs per µs), wall time in ns (1e3 ns per µs); both fit a double with
/// sub-ns precision over any run this repo performs.
std::string ts_us_from_fs(fs_t fs) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6f", static_cast<double>(fs) / 1e9);
  return buf;
}

std::string ts_us_from_ns(std::uint64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e3);
  return buf;
}

}  // namespace

std::uint32_t TraceSink::track(const std::string& label) {
  std::lock_guard<std::mutex> lock(mu_);
  // tid 0 is the global track.
  const auto [it, added] =
      track_ids_.try_emplace(label, static_cast<std::uint32_t>(track_ids_.size() + 1));
  const std::uint32_t tid = it->second;
  if (!added) return tid;
  Event e;
  e.ph = 'M';
  e.tid = tid;
  e.name = "thread_name";
  e.args = "\"name\": \"" + json_escape(label) + "\"";
  push(std::move(e));
  return tid;
}

void TraceSink::instant(std::uint32_t track, fs_t t, const std::string& name,
                        const std::string& args_json) {
  Event e;
  e.ph = 'i';
  e.tid = track;
  e.ts_fs = t;
  e.name = name;
  e.args = args_json;
  std::lock_guard<std::mutex> lock(mu_);
  push(std::move(e));
}

void TraceSink::instant_global(fs_t t, const std::string& name,
                               const std::string& args_json) {
  Event e;
  e.ph = 'i';
  e.tid = 0;
  e.ts_fs = t;
  e.global_scope = true;
  e.name = name;
  e.args = args_json;
  std::lock_guard<std::mutex> lock(mu_);
  push(std::move(e));
}

void TraceSink::counter(std::uint32_t track, fs_t t, const std::string& name,
                        double value) {
  Event e;
  e.ph = 'C';
  e.tid = track;
  e.ts_fs = t;
  e.name = name;
  e.args = "\"value\": " + json_double(value);
  std::lock_guard<std::mutex> lock(mu_);
  push(std::move(e));
}

void TraceSink::complete_wall(const std::string& name, std::uint64_t start_ns,
                              std::uint64_t dur_ns) {
  Event e;
  e.ph = 'X';
  e.pid = kWallPid;
  e.tid = 1;
  e.ts_ns = start_ns;
  e.dur_ns = dur_ns;
  e.name = name;
  std::lock_guard<std::mutex> lock(mu_);
  push(std::move(e));
}

void TraceSink::push(Event e) {
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(e));
}

std::size_t TraceSink::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::uint64_t TraceSink::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void TraceSink::append_event_json(std::string& out, const Event& e) {
  out += "{\"name\": \"" + json_escape(e.name) + "\", \"ph\": \"";
  out += e.ph;
  out += "\", \"pid\": " + std::to_string(e.pid);
  out += ", \"tid\": " + std::to_string(e.tid);
  out += ", \"ts\": ";
  out += e.pid == kWallPid ? ts_us_from_ns(e.ts_ns) : ts_us_from_fs(e.ts_fs);
  if (e.ph == 'X') out += ", \"dur\": " + ts_us_from_ns(e.dur_ns);
  if (e.ph == 'i') out += std::string(", \"s\": \"") + (e.global_scope ? "g" : "t") + "\"";
  out += ", \"args\": {" + e.args + "}}";
}

std::string TraceSink::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Stable sort by (pid, ts): metadata first (ts 0), then time order; ties
  // keep emission order so equal-timestamp events stay readable.
  std::vector<const Event*> order;
  order.reserve(events_.size() + 2);
  for (const Event& e : events_) order.push_back(&e);
  std::stable_sort(order.begin(), order.end(), [](const Event* a, const Event* b) {
    if (a->ph == 'M' && b->ph != 'M') return true;
    if (a->ph != 'M' && b->ph == 'M') return false;
    if (a->pid != b->pid) return a->pid < b->pid;
    if (a->pid == kWallPid) return a->ts_ns < b->ts_ns;
    return a->ts_fs < b->ts_fs;
  });

  std::string out = "[\n";
  // Process names + the drop count as leading metadata.
  out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
         "\"ts\": 0, \"args\": {\"name\": \"simulated time\"}},\n";
  out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, \"tid\": 0, "
         "\"ts\": 0, \"args\": {\"name\": \"wall clock (profiling)\"}},\n";
  out += "{\"name\": \"trace_dropped_events\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
         "\"ts\": 0, \"args\": {\"count\": " + std::to_string(dropped_) + "}}";
  for (const Event* e : order) {
    out += ",\n";
    append_event_json(out, *e);
  }
  out += "\n]\n";
  return out;
}

bool TraceSink::write(const std::string& path, std::string* err) const {
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
