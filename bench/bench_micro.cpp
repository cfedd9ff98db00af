/// Microbenchmarks (google-benchmark): throughput of the event engine and
/// the end-to-end event rate of a synchronized DTP pair.

#include <benchmark/benchmark.h>

#include <cctype>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dtp/agent.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace dtpsim;

void BM_EventQueueChurn(benchmark::State& state) {
  sim::Simulator sim(4);
  fs_t t = 0;
  for (auto _ : state) {
    t += 1000;
    sim.schedule_at(t, [] {});
    sim.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueChurn);

void BM_DtpPairSimulatedMillisecond(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim(5);
    net::Network net(sim);
    auto& a = net.add_host("a", 100.0);
    auto& b = net.add_host("b", -100.0);
    net.connect(a, b);
    dtp::Agent agent_a(a, {}), agent_b(b, {});
    state.ResumeTiming();
    sim.run_until(from_ms(1));
    benchmark::DoNotOptimize(agent_a.global_at(sim.now()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DtpPairSimulatedMillisecond)->Unit(benchmark::kMillisecond);

/// Console reporter that also captures each benchmark's adjusted real time
/// into the flat BENCH_micro.json artifact.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  benchutil::BenchJson json;

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      std::string key = r.benchmark_name();
      for (char& c : key)
        if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
      json.add(key + "_real_ns", r.GetAdjustedRealTime());
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

}  // namespace

int main(int argc, char** argv) {
  // google-benchmark rejects flags it does not know; peel off the artifact
  // path before handing argv over.
  benchutil::Flags flags(argc, argv);
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--json-out", 0) == 0) continue;
    bench_argv.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());

  CaptureReporter reporter;
  reporter.json.add("bench", std::string("micro"));
  benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.json.add("pass", true);
  reporter.json.write(benchutil::json_out_path(flags, "micro"));
  return 0;
}
