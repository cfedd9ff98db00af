// Observability layer (DESIGN.md §11): trace-file schema round-trip,
// metrics-snapshot determinism across engine modes, and the guarantee that
// disabled observability leaves a run bit-identical.
//
// The trace check is a *strict* parse: a hand-rolled recursive-descent JSON
// reader that rejects anything outside the grammar (trailing commas, bare
// words, unterminated strings), so a malformed emitter fails here rather
// than in Perfetto.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "stress/runner.hpp"

using namespace dtpsim;

namespace {

// ---------------------------------------------------------------------------
// Strict JSON parser for the Chrome trace "JSON Array Format": a bare array
// of event objects. Scalar members of each top-level object are collected
// into a string map (strings unescaped, numbers/bools kept as raw text);
// nested objects ("args") are validated recursively but not collected.
// ---------------------------------------------------------------------------
struct TraceEvent {
  std::map<std::string, std::string> fields;
};

class StrictTraceParser {
 public:
  explicit StrictTraceParser(const std::string& text) : s_(text) {}

  bool parse(std::vector<TraceEvent>* out, std::string* err) {
    skip_ws();
    if (!expect('[')) return fail(err, "expected top-level array");
    skip_ws();
    if (peek() == ']') {
      ++pos_;
    } else {
      while (true) {
        TraceEvent ev;
        if (!parse_object(&ev)) return fail(err, "bad event object");
        out->push_back(std::move(ev));
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          skip_ws();
          continue;
        }
        if (peek() == ']') {
          ++pos_;
          break;
        }
        return fail(err, "expected ',' or ']' after event");
      }
    }
    skip_ws();
    if (pos_ != s_.size()) return fail(err, "trailing bytes after array");
    return true;
  }

 private:
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  bool expect(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  bool fail(std::string* err, const char* what) {
    if (err != nullptr) {
      std::ostringstream o;
      o << what << " at byte " << pos_;
      *err = o.str();
    }
    return false;
  }

  bool parse_string(std::string* out) {
    if (!expect('"')) return false;
    std::string v;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') {
        if (out != nullptr) *out = std::move(v);
        return true;
      }
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_++];
        switch (e) {
          case '"': v += '"'; break;
          case '\\': v += '\\'; break;
          case '/': v += '/'; break;
          case 'b': v += '\b'; break;
          case 'f': v += '\f'; break;
          case 'n': v += '\n'; break;
          case 'r': v += '\r'; break;
          case 't': v += '\t'; break;
          case 'u': {
            for (int i = 0; i < 4; ++i) {
              if (pos_ >= s_.size() ||
                  !std::isxdigit(static_cast<unsigned char>(s_[pos_])))
                return false;
              ++pos_;
            }
            v += '?';  // code point value irrelevant to the schema check
            break;
          }
          default:
            return false;
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control char
      v += c;
    }
    return false;  // unterminated
  }

  bool parse_number(std::string* out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (out != nullptr) *out = s_.substr(start, pos_ - start);
    return true;
  }

  bool parse_value(std::string* scalar_out) {
    skip_ws();
    const char c = peek();
    if (c == '"') return parse_string(scalar_out);
    if (c == '{') return parse_object(nullptr);
    if (c == '[') {
      ++pos_;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        if (!parse_value(nullptr)) return false;
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        if (peek() == ']') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c)))
      return parse_number(scalar_out);
    for (const char* lit : {"true", "false", "null"}) {
      const std::size_t n = std::strlen(lit);
      if (s_.compare(pos_, n, lit) == 0) {
        if (scalar_out != nullptr) *scalar_out = lit;
        pos_ += n;
        return true;
      }
    }
    return false;
  }

  /// Parse an object; when `ev` is non-null, collect its scalar members.
  bool parse_object(TraceEvent* ev) {
    skip_ws();
    if (!expect('{')) return false;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      const bool nested = peek() == '{' || peek() == '[';
      std::string val;
      if (!parse_value(&val)) return false;
      if (ev != nullptr && !nested) ev->fields[key] = val;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        skip_ws();
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string tmp_path(const std::string& leaf) { return testing::TempDir() + leaf; }

/// Small deterministic campaign on the paper tree with one link flap —
/// enough activity for offset tracks, fault marks, and recovery instants.
stress::StressSpec obs_spec(std::uint32_t threads) {
  stress::StressSpec s;
  s.sim_seed = 4321;
  s.topo = stress::TopoKind::kPaperTree;
  s.beacon_interval_ticks = 200;
  s.ppm_spread = 100.0;
  s.propagation_delay = from_us(1);  // lookahead for the parallel engine
  s.n_flows = 3;
  s.frame_bytes = 512;
  s.rate_gbps = 2.0;
  s.threads = threads;
  s.settle = from_ms(3);
  s.horizon = from_ms(5);

  chaos::FaultSpec flap;
  flap.kind = chaos::FaultKind::kLinkFlap;
  flap.a = "S0";
  flap.b = "S2";
  flap.at = from_ms(3) + from_us(300);
  flap.duration = from_us(80);
  s.faults.push_back(flap);
  return s;
}

bool any_event(const std::vector<TraceEvent>& evs, const char* ph,
               const std::string& name_prefix) {
  for (const auto& e : evs) {
    const auto p = e.fields.find("ph");
    const auto n = e.fields.find("name");
    if (p != e.fields.end() && n != e.fields.end() && p->second == ph &&
        n->second.rfind(name_prefix, 0) == 0)
      return true;
  }
  return false;
}

}  // namespace

// Emit a real trace from a chaos campaign, strict-parse it, and check the
// schema fields Perfetto relies on.
TEST(Obs, TraceFileRoundTripsThroughStrictParse) {
  const std::string trace = tmp_path("obs_roundtrip.trace.json");
  stress::ObsOptions oo;
  oo.trace_path = trace;
  const stress::CampaignResult r = stress::run_campaign(obs_spec(1), &oo);
  for (const auto& v : r.violations) ADD_FAILURE() << v.to_string();

  const std::string text = slurp(trace);
  std::vector<TraceEvent> evs;
  std::string err;
  StrictTraceParser parser(text);
  ASSERT_TRUE(parser.parse(&evs, &err)) << err;
  ASSERT_FALSE(evs.empty());

  // Every event carries the mandatory trace_event fields.
  for (const auto& e : evs) {
    EXPECT_TRUE(e.fields.count("ph")) << "event missing ph";
    EXPECT_TRUE(e.fields.count("pid")) << "event missing pid";
    EXPECT_TRUE(e.fields.count("name")) << "event missing name";
  }

  // Device tracks are named via thread_name metadata records.
  EXPECT_TRUE(any_event(evs, "M", "thread_name"));
  // Per-device offset counter samples.
  EXPECT_TRUE(any_event(evs, "C", "offset_ticks"));
  // Fault begin/end and the recovery probe's verdict appear as instants.
  EXPECT_TRUE(any_event(evs, "i", "fault:link_down"));
  EXPECT_TRUE(any_event(evs, "i", "heal:link_up"));
  EXPECT_TRUE(any_event(evs, "i", "recovered:"));
  // Fault instants are global-scope so Perfetto draws them across tracks.
  bool fault_is_global = false;
  for (const auto& e : evs) {
    const auto n = e.fields.find("name");
    if (n == e.fields.end() || n->second.rfind("fault:", 0) != 0) continue;
    const auto s = e.fields.find("s");
    fault_is_global = s != e.fields.end() && s->second == "g";
    break;
  }
  EXPECT_TRUE(fault_is_global);
  std::remove(trace.c_str());
}

// The metrics snapshot process fires at conservative sync points, so a
// serial and a 2-thread run of the same seed must write byte-identical
// metrics JSON.
TEST(Obs, MetricsSnapshotsDeterministicAcrossEngines) {
  const std::string serial_path = tmp_path("obs_metrics_serial.json");
  const std::string par_path = tmp_path("obs_metrics_par.json");

  stress::ObsOptions oo;
  oo.metrics_path = serial_path;
  stress::CampaignResult rs = stress::run_campaign(obs_spec(1), &oo);
  for (const auto& v : rs.violations) ADD_FAILURE() << v.to_string();

  oo.metrics_path = par_path;
  stress::CampaignResult rp = stress::run_campaign(obs_spec(2), &oo);
  for (const auto& v : rp.violations) ADD_FAILURE() << v.to_string();
  EXPECT_GT(rp.shards, 1) << "spec did not actually exercise the parallel engine";

  const std::string serial_json = slurp(serial_path);
  const std::string par_json = slurp(par_path);
  EXPECT_FALSE(serial_json.empty());
  EXPECT_EQ(serial_json, par_json);
  std::remove(serial_path.c_str());
  std::remove(par_path.c_str());
}

// Observability off must mean *off*: a run with no ObsOptions and a run with
// empty ObsOptions produce bit-identical sentinel digests (no snapshot
// events, no perturbed schedule).
TEST(Obs, DisabledObservabilityLeavesDigestUntouched) {
  const stress::StressSpec spec = obs_spec(1);
  const stress::CampaignResult plain = stress::run_campaign(spec);
  stress::ObsOptions empty;  // no trace path, no metrics path → no session
  const stress::CampaignResult with_empty = stress::run_campaign(spec, &empty);
  EXPECT_EQ(plain.digest.hex(), with_empty.digest.hex());
  EXPECT_EQ(plain.events_executed, with_empty.events_executed);
}

// Enabling observability changes the event schedule (snapshot events exist)
// but must not change behavior: the instrumented run stays violation-free
// and both engine modes agree on the digest *with* obs enabled too.
TEST(Obs, EnabledObservabilityIsDeterministicAcrossEngines) {
  const std::string p1 = tmp_path("obs_digest_serial.metrics.json");
  const std::string p2 = tmp_path("obs_digest_par.metrics.json");
  stress::ObsOptions oo;
  oo.metrics_path = p1;
  const stress::CampaignResult serial = stress::run_campaign(obs_spec(1), &oo);
  oo.metrics_path = p2;
  const stress::CampaignResult par = stress::run_campaign(obs_spec(2), &oo);
  for (const auto& v : serial.violations) ADD_FAILURE() << v.to_string();
  for (const auto& v : par.violations) ADD_FAILURE() << v.to_string();
  EXPECT_EQ(serial.digest.hex(), par.digest.hex());
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}
