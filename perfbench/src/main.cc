// cats_perfbench: runs one benchmark workload and prints one JSON object.
//
//   cats_perfbench --workload crawl_detect|serve_score|serve_delta
//                  --seed N --seconds S --trace 0|1
//                  [--tiny] [--spans PATH] [--work-dir DIR]
//
// With --trace 0 the object's metrics are the end-to-end metrics; with
// --trace 1 the per-layer metrics (a layer that does no work on the
// workload reports 0). perfbench/run.py builds this binary and wraps it.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>

#include "common.h"
#include "trace.h"
#include "util/logging.h"
#include "workloads.h"

using namespace perfbench;

namespace {

enum Workload : unsigned {
  kCrawl = 1,
  kScore = 2,
  kDelta = 4,
  kServe = kScore | kDelta,
  kAll = kCrawl | kServe,
};

struct MetricSpec {
  const char* name;
  const char* unit;
  unsigned workloads;  // where the metric's layer does work
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s", kAll},         {"peak_rss_mb", "MB", kAll},
    {"items_per_s", "items/s", kAll}, {"capacity_qps", "req/s", kAll},
};

constexpr MetricSpec kPerLayer[] = {
    // crawl_detect: crawl half, then detect half.
    {"trace.total_s", "s", kCrawl},
    {"trace.unattributed_s", "s", kCrawl},
    {"platform.render_s", "s", kCrawl},
    {"platform.render_share", "ratio", kCrawl},
    {"collect.parse_s", "s", kCrawl},
    {"collect.normalize_s", "s", kCrawl},
    {"collect.crawler_overhead_s", "s", kCrawl},
    {"collect.pages", "count", kCrawl},
    {"collect.bytes", "bytes", kCrawl},
    {"collect.useful_request_ratio", "ratio", kCrawl},
    {"core.validate_s", "s", kCrawl},
    {"text.segment_s", "s", kCrawl},
    {"text.segment_share", "ratio", kCrawl},
    {"core.extract_s", "s", kCrawl},
    {"core.rules_s", "s", kCrawl},
    {"ml.predict_s", "s", kCrawl},
    {"pipeline.ingest_push_stall_s", "s", kCrawl},
    {"pipeline.ingest_pop_stall_s", "s", kCrawl},
    {"pipeline.staged_pop_stall_s", "s", kCrawl},
    {"pipeline.batch_items_mean", "items", kCrawl},
    {"pipeline.overlap_ratio", "ratio", kCrawl},
    // serve_*: per-request layer costs and registry deltas.
    {"serve.codec_us", "us", kServe},
    {"core.stage_us", "us", kServe},
    {"ml.predict_us", "us", kServe},
    {"drift.observe_us", "us", kServe},
    {"serve.unattributed_us", "us", kServe},
    {"process.cpu_us_per_req", "us", kServe},
    {"serve.loop_p50_ms", "ms", kServe},
    {"serve.loop_p99_ms", "ms", kServe},
    {"serve.batch_requests_mean", "requests", kServe},
    {"serve.admission_pop_stall_s", "s", kServe},
    {"serve.admission_push_stall_s", "s", kServe},
    {"serve.tcp.loop_wakeups_per_req", "ratio", kServe},
    {"serve.tcp.writev_partials", "count", kServe},
    {"gateway.swap_ms", "ms", kDelta},
    {"serve.delta_not_found", "count", kDelta},
    {"loadgen.late_p99_ms", "ms", kServe},
    {"loadgen.late_max_ms", "ms", kServe},
    {"loadgen.samples", "count", kServe},
    // every workload
    {"p50_ms", "ms", kAll},
    {"p99_ms", "ms", kAll},
    {"setup.semantic_model_s", "s", kAll},
    {"setup.generate_s", "s", kAll},
    {"setup.train_s", "s", kAll},
    {"trace.overhead_ratio", "ratio", kAll},
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "cats_perfbench: %s\nusage: cats_perfbench --workload "
               "crawl_detect|serve_score|serve_delta --seed N --seconds S "
               "--trace 0|1 [--tiny] [--spans PATH] [--work-dir DIR]\n",
               message);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  args.work_dir = "perfbench/build/work";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  cats::SetLogLevel(cats::LogLevel::kWarning);
  const Args args = ParseArgs(argc, argv);
  unsigned workload = 0;
  if (args.workload == "crawl_detect") workload = kCrawl;
  if (args.workload == "serve_score") workload = kScore;
  if (args.workload == "serve_delta") workload = kDelta;
  if (workload == 0) Usage("unknown workload");

  Tracer tracer(args.trace);
  RunResult result = workload == kCrawl
                         ? RunCrawlDetect(args, &tracer)
                         : RunServe(args, &tracer, workload == kDelta);

  JsonValue metrics = JsonValue::Object();
  JsonValue extra = JsonValue::Object();
  auto find = [&](const char* name) -> const Metric* {
    for (const Metric& m : result.metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  };
  auto as_json = [](double value, const char* unit) {
    JsonValue v = JsonValue::Object();
    v.Set("value", JsonValue::Number(value));
    v.Set("unit", JsonValue::String(unit));
    return v;
  };
  const std::span<const MetricSpec> specs =
      args.trace ? std::span<const MetricSpec>(kPerLayer)
                 : std::span<const MetricSpec>(kEndToEnd);
  for (const MetricSpec& spec : specs) {
    const Metric* m = find(spec.name);
    double value = 0.0;
    if ((spec.workloads & workload) != 0) {
      if (m == nullptr) {
        result.Fail(std::string("metric not measured: ") + spec.name);
      } else if (m->unit != spec.unit) {
        result.Fail(std::string("metric unit mismatch: ") + spec.name);
      } else if (!std::isfinite(m->value)) {
        result.Fail(std::string("metric not finite: ") + spec.name);
      } else {
        value = m->value;
      }
    }
    metrics.Set(spec.name, as_json(value, spec.unit));
  }
  for (const Metric& m : result.metrics) {
    if (metrics.Get(m.name) == nullptr && std::isfinite(m.value)) {
      extra.Set(m.name, as_json(m.value, m.unit.c_str()));
    }
  }

  if (args.trace && !args.spans_path.empty() &&
      !tracer.WriteJsonl(args.spans_path)) {
    std::fprintf(stderr, "cats_perfbench: cannot write %s\n",
                 args.spans_path.c_str());
  }

  JsonValue out = JsonValue::Object();
  out.Set("correct", JsonValue::Bool(result.correct));
  out.Set("attempted", JsonValue::Int(static_cast<int64_t>(result.attempted)));
  out.Set("failed", JsonValue::Int(static_cast<int64_t>(result.failed)));
  out.Set("failed_ratio",
          JsonValue::Number(result.attempted == 0
                                ? 1.0
                                : static_cast<double>(result.failed) /
                                      static_cast<double>(result.attempted)));
  out.Set("metrics", std::move(metrics));
  out.Set("extra_metrics", std::move(extra));
  out.Set("details", std::move(result.details));
  JsonValue errors = JsonValue::Array();
  for (const std::string& e : result.errors) {
    errors.Append(JsonValue::String(e));
  }
  out.Set("errors", std::move(errors));
  out.Set("spans", JsonValue::Int(static_cast<int64_t>(tracer.spans().size())));
  std::printf("%s\n", out.Serialize().c_str());
  return 0;
}
