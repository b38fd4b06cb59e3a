#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "collect/store.h"
#include "core/semantic_analyzer.h"
#include "platform/language_model.h"
#include "platform/marketplace.h"
#include "trace.h"
#include "util/json.h"

namespace perfbench {

namespace collect = cats::collect;
namespace core = cats::core;
namespace platform = cats::platform;
using cats::JsonValue;

/// Command-line settings of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;         // smoke size
  std::string spans_path;    // where the traced run writes its spans
  std::string work_dir;      // scratch space inside the checkout
};

/// Input sizes. `tiny` is the smoke size: every code path, seconds-long.
struct Sizes {
  size_t corpus_docs;       // word2vec corpus (benign comments)
  size_t spam_templates;    // spam templates x 12 variants, also in corpus
  size_t sentiment_docs;    // labeled sentiment training docs
  double train_scale;       // TaobaoD0Config scale of the training set
  double dense_scale;       // dense 5k preset scale (crawl_detect)
  double serve_scale;       // TaobaoD0Config scale of the served items
  int setup_reps;           // set-ups per run; setup_s is their median
};
Sizes SizesFor(bool tiny);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main: the output checks, the metrics and
/// free-form details (sample counts, check results) for the result file.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  JsonValue details = JsonValue::Object();
  std::vector<std::string> errors;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Records a failed output check (the run exits non-zero).
  void Fail(std::string message) {
    correct = false;
    errors.push_back(std::move(message));
  }
};

/// Mixes the workload seed with a per-input salt, so every generated input
/// derives from --seed alone.
uint64_t DeriveSeed(uint64_t seed, std::string_view salt);

/// The shared synthetic language (fixed; part of the system under test).
const platform::SyntheticLanguage& Language();

/// Builds the semantic model (word2vec + lexicon expansion + sentiment)
/// from a seeded corpus. Rebuilt on every set-up; nothing is cached on
/// disk.
std::unique_ptr<core::SemanticModel> BuildSemanticModel(uint64_t seed,
                                                         const Sizes& sizes);

/// Crawls a marketplace cleanly (no faults, virtual clock) and returns its
/// items with ground-truth labels.
struct LabeledItems {
  std::vector<collect::CollectedItem> items;
  std::vector<int> labels;
};
LabeledItems CrawlClean(const platform::Marketplace& market);

/// The D0-style labeled training marketplace of a run.
platform::MarketplaceConfig TrainingConfig(uint64_t seed, const Sizes& sizes);

/// Registry reads (process-cumulative; callers take deltas).
uint64_t CounterValue(std::string_view name);
struct HistTotals {
  uint64_t count = 0;
  double sum = 0.0;
};
HistTotals HistogramTotals(std::string_view name);
/// Seconds spent inside Gbdt::Fit so far: the gbdt.* round and bin-build
/// latency sums.
double GbdtFitSeconds();

/// Process resource usage.
double PeakRssMb();
double CpuSeconds();

/// Order statistics over an unsorted sample (copies).
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double MaxOf(const std::vector<double>& values);

/// Throughput metrics (items_per_s, capacity_qps) are this quantile of a
/// run's rates: one per crawl pass, or one per block of whole schedule
/// cycles of served requests. The work is compute-bound, and on a shared
/// host other tenants' load slows such code by up to 2x for stretches of
/// seconds to minutes, so the median pass of a run measures mostly the
/// host. That load only ever slows a pass; the fast tail of a long run is
/// what the program does when the host leaves it alone, and a change to
/// the code moves it as much as the median.
constexpr double kRateQuantile = 0.95;

/// Seconds elapsed since `start_ns`.
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// FNV-1a over a sorted id list (flagged-item digests).
uint64_t DigestIds(std::vector<uint64_t> ids);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
