// Tests for the observability subsystem: metrics primitives, the
// registry, the Chrome-trace recorder, phase timers, and the tile-span
// funnel shared by all executors. Runs under TSan in CI, so the
// concurrency tests double as data-race checks.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include "core/tile_executor.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace flsa {
namespace obs {
namespace {

// The registry, enabled flag and active trace are process globals; every
// test starts and ends from a clean slate.
class Obs : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    set_active_trace(nullptr);
    metrics().reset();
  }
  void TearDown() override {
    set_enabled(false);
    set_active_trace(nullptr);
    metrics().reset();
  }
};

TEST_F(Obs, CounterBasics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(Obs, GaugeHoldsLatestValue) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-2.0);
  EXPECT_EQ(g.value(), -2.0);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST_F(Obs, HistogramSnapshotStats) {
  Histogram h;
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  for (double v : {1.0, 2.0, 4.0, 8.0}) h.observe(v);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum, 15.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 8.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.75);
  h.reset();
  EXPECT_EQ(h.snapshot().count, 0u);
}

TEST_F(Obs, HistogramQuantilesAreMonotonic) {
  Histogram h;
  // Values spread over many power-of-two buckets, including sub-1.0
  // timings and giga-scale throughputs.
  for (int i = 0; i < 200; ++i) {
    h.observe(1e-6 * static_cast<double>(1 + i));
    h.observe(1e9 / static_cast<double>(1 + i));
  }
  const double q10 = h.quantile(0.10);
  const double q50 = h.quantile(0.50);
  const double q99 = h.quantile(0.99);
  EXPECT_GT(q10, 0.0);
  EXPECT_LE(q10, q50);
  EXPECT_LE(q50, q99);
  // Quantiles are bucket upper bounds, so they can be off by at most one
  // power of two: the true p99 here is ~2.5e8, whose bucket ends at 2^28.
  EXPECT_GE(q99, static_cast<double>(1u << 28) * 0.99);
  EXPECT_LE(q99, 1e9);
}

TEST_F(Obs, UptimeIsMonotonicAndSurvivesReset) {
  const std::uint64_t before = metrics().uptime_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const std::uint64_t after = metrics().uptime_ms();
  EXPECT_GE(after, before + 4) << "uptime_ms is not advancing";
  // reset() zeroes instruments but never the clock — a monitor comparing
  // two snapshots must be able to tell "restarted" from "counters were
  // zeroed".
  metrics().reset();
  EXPECT_GE(metrics().uptime_ms(), after);
}

TEST_F(Obs, SnapshotAlwaysCarriesUptime) {
  bool found = false;
  double value = -1.0;
  for (const MetricsRegistry::Sample& sample : metrics().snapshot()) {
    if (sample.name == "uptime_ms") {
      found = true;
      value = sample.value;
    }
  }
  EXPECT_TRUE(found) << "snapshot() lost the synthetic uptime_ms sample";
  EXPECT_GE(value, 0.0);
}

TEST_F(Obs, RegistryReturnsStableInstruments) {
  Counter& a = metrics().counter("test.registry.counter");
  Counter& b = metrics().counter("test.registry.counter");
  EXPECT_EQ(&a, &b);
  a.add(7);
  EXPECT_EQ(b.value(), 7u);
  Gauge& g = metrics().gauge("test.registry.gauge");
  EXPECT_EQ(&g, &metrics().gauge("test.registry.gauge"));
  Histogram& h = metrics().histogram("test.registry.hist");
  EXPECT_EQ(&h, &metrics().histogram("test.registry.hist"));
  // reset() zeroes values but keeps references valid.
  metrics().reset();
  EXPECT_EQ(a.value(), 0u);
  a.add(1);
  EXPECT_EQ(metrics().counter("test.registry.counter").value(), 1u);
}

TEST_F(Obs, RegistryReportListsInstruments) {
  metrics().counter("test.report.jobs").add(3);
  metrics().gauge("test.report.threads").set(8);
  metrics().histogram("test.report.seconds").observe(0.25);
  std::ostringstream os;
  metrics().report(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("test.report.jobs"), std::string::npos);
  EXPECT_NE(text.find("test.report.threads"), std::string::npos);
  EXPECT_NE(text.find("test.report.seconds"), std::string::npos);
  EXPECT_NE(text.find("3"), std::string::npos);
}

TEST_F(Obs, ConcurrentCountersAndHistograms) {
  Counter& c = metrics().counter("test.concurrent.counter");
  Histogram& h = metrics().histogram("test.concurrent.hist");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 10000; ++i) {
        c.add(1);
        if (i % 100 == 0) h.observe(static_cast<double>(t + 1));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), 40000u);
  EXPECT_EQ(h.snapshot().count, 400u);
}

TEST_F(Obs, TraceRecorderCollectsSpans) {
  TraceRecorder trace;
  EXPECT_EQ(trace.size(), 0u);
  const auto start = TraceRecorder::now();
  TraceSpan span;
  span.name = "tile";
  span.category = "fill-grid";
  span.tid = 2;
  span.tile_row = 1;
  span.tile_col = 3;
  span.cells = 4096;
  trace.record(span, start, TraceRecorder::now());
  ASSERT_EQ(trace.size(), 1u);
  const std::vector<TraceSpan> spans = trace.spans();
  EXPECT_STREQ(spans[0].name, "tile");
  EXPECT_EQ(spans[0].tid, 2u);
  EXPECT_EQ(spans[0].tile_row, 1);
  EXPECT_EQ(spans[0].cells, 4096);
  EXPECT_GE(spans[0].ts_us, 0.0);
  EXPECT_GE(spans[0].dur_us, 0.0);
}

TEST_F(Obs, ChromeTraceJsonShape) {
  TraceRecorder trace;
  const auto t0 = TraceRecorder::now();
  TraceSpan worker_span;
  worker_span.name = "tile";
  worker_span.category = "base-case";
  worker_span.tid = 0;
  worker_span.tile_row = 0;
  worker_span.tile_col = 1;
  worker_span.cells = 64;
  trace.record(worker_span, t0, TraceRecorder::now());
  TraceSpan phase_span;
  phase_span.name = "align";
  phase_span.category = "phase";
  phase_span.tid = kPhaseLane;
  trace.record(phase_span, t0, TraceRecorder::now());

  std::ostringstream os;
  trace.write_chrome_trace(os);
  const std::string json = os.str();

  // Structural sanity: one top-level object, balanced braces/brackets,
  // the traceEvents array, and both lane names.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  std::ptrdiff_t braces = 0, brackets = 0;
  for (char ch : json) {
    braces += (ch == '{') - (ch == '}');
    brackets += (ch == '[') - (ch == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("worker 0"), std::string::npos);
  EXPECT_NE(json.find("phases"), std::string::npos);
  // Optional args present only when set: the phase span has no tile args.
  EXPECT_NE(json.find("\"tile_row\":0"), std::string::npos);
  EXPECT_EQ(json.find("\"tile_row\":-1"), std::string::npos);
}

TEST_F(Obs, ChromeTraceEscapesStrings) {
  TraceRecorder trace;
  const auto t0 = TraceRecorder::now();
  TraceSpan span;
  span.name = "we\"ird\\name\n";
  span.category = "cat";
  trace.record(span, t0, TraceRecorder::now());
  std::ostringstream os;
  trace.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("we\\\"ird\\\\name\\u000a"), std::string::npos);
}

TEST_F(Obs, ConcurrentTraceRecording) {
  TraceRecorder trace;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 4; ++t) {
    threads.emplace_back([&trace, t] {
      for (int i = 0; i < 500; ++i) {
        const auto start = TraceRecorder::now();
        TraceSpan span;
        span.name = "tile";
        span.category = "fill-grid";
        span.tid = t;
        trace.record(span, start, TraceRecorder::now());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(trace.size(), 2000u);
}

TEST_F(Obs, PhaseNames) {
  EXPECT_STREQ(to_string(Phase::kAlign), "align");
  EXPECT_STREQ(to_string(Phase::kFillGrid), "fill-grid");
  EXPECT_STREQ(to_string(Phase::kBaseCase), "base-case");
  EXPECT_STREQ(to_string(Phase::kRecursion), "recursion");
  EXPECT_STREQ(to_string(Phase::kHirschberg), "hirschberg");
}

#if !defined(FLSA_OBS_OFF)

TEST_F(Obs, DisabledRecordingIsDropped) {
  ASSERT_FALSE(enabled());
  {
    PhaseTimer timer(Phase::kBaseCase);
    timer.add_cells(100);
  }
  count("test.disabled.counter", 5);
  EXPECT_EQ(metrics().counter("phase.base-case.invocations").value(), 0u);
  EXPECT_EQ(metrics().counter("test.disabled.counter").value(), 0u);
}

TEST_F(Obs, PhaseTimerRecordsMetrics) {
  set_enabled(true);
  {
    PhaseTimer timer(Phase::kFillGrid);
    timer.add_cells(1u << 20);
  }
  { PhaseTimer timer(Phase::kFillGrid); }
  EXPECT_EQ(metrics().counter("phase.fill-grid.invocations").value(), 2u);
  EXPECT_EQ(metrics().counter("phase.fill-grid.cells").value(), 1u << 20);
  EXPECT_EQ(metrics().histogram("phase.fill-grid.seconds").snapshot().count,
            2u);
  const Histogram::Snapshot throughput =
      metrics().histogram("phase.fill-grid.cells_per_s").snapshot();
  EXPECT_EQ(throughput.count, 1u);  // cells attributed once
  EXPECT_GT(throughput.min, 0.0);
}

TEST_F(Obs, PhaseTimerSuppressedMetricsStillTrace) {
  set_enabled(true);
  TraceRecorder trace;
  set_active_trace(&trace);
  {
    PhaseTimer timer(Phase::kRecursion, /*depth=*/3,
                     /*record_metrics=*/false);
  }
  set_active_trace(nullptr);
  EXPECT_EQ(metrics().counter("phase.recursion.invocations").value(), 0u);
  ASSERT_EQ(trace.size(), 1u);
  const TraceSpan span = trace.spans()[0];
  EXPECT_STREQ(span.name, "recursion");
  EXPECT_EQ(span.depth, 3);
  EXPECT_EQ(span.tid, kPhaseLane);
}

TEST_F(Obs, ConvenienceRecorders) {
  set_enabled(true);
  count("test.conv.counter", 2);
  count("test.conv.counter");
  observe("test.conv.hist", 4.0);
  set_gauge("test.conv.gauge", 12.0);
  EXPECT_EQ(metrics().counter("test.conv.counter").value(), 3u);
  EXPECT_EQ(metrics().histogram("test.conv.hist").snapshot().count, 1u);
  EXPECT_EQ(metrics().gauge("test.conv.gauge").value(), 12.0);
}

TEST_F(Obs, RunTileEmitsWorkerSpans) {
  TraceRecorder trace;
  set_active_trace(&trace);
  SequentialExecutor exec;
  exec.run(
      2, 3, [](std::size_t ti, std::size_t tj) { return ti == 1 && tj == 2; },
      [](std::size_t ti, std::size_t tj, unsigned) {
        return static_cast<std::uint64_t>(10 * ti + tj);
      },
      TilePhase::kFillCache);
  set_active_trace(nullptr);
  const std::vector<TraceSpan> spans = trace.spans();
  ASSERT_EQ(spans.size(), 5u);  // 6 tiles, 1 skipped
  for (const TraceSpan& span : spans) {
    EXPECT_STREQ(span.name, "tile");
    EXPECT_STREQ(span.category, "fill-grid");
    EXPECT_EQ(span.tid, 0u);  // sequential executor: one worker lane
    EXPECT_EQ(span.cells, 10 * span.tile_row + span.tile_col);
  }
}

TEST_F(Obs, RunTileWithoutTraceIsDirectCall) {
  ASSERT_EQ(active_trace(), nullptr);
  std::size_t calls = 0;
  const auto work = [&](std::size_t, std::size_t, unsigned) {
    ++calls;
    return std::uint64_t{7};
  };
  EXPECT_EQ(run_tile(work, 0, 0, 0, TilePhase::kBaseCase), 7u);
  EXPECT_EQ(calls, 1u);
}

#endif  // !defined(FLSA_OBS_OFF)

}  // namespace
}  // namespace obs
}  // namespace flsa
