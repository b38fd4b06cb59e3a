#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "collect/crawler.h"
#include "fault/clock.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "platform/api.h"
#include "platform/comment_generator.h"
#include "platform/presets.h"
#include "util/logging.h"
#include "util/random.h"

namespace perfbench {

using namespace cats;

Sizes SizesFor(bool tiny) {
  if (tiny) {
    return Sizes{.corpus_docs = 3000,
                 .spam_templates = 40,
                 .sentiment_docs = 400,
                 .train_scale = 0.005,
                 .dense_scale = 0.02,
                 .serve_scale = 0.005,
                 .setup_reps = 1};
  }
  return Sizes{.corpus_docs = 30000,
               .spam_templates = 400,
               .sentiment_docs = 2000,
               .train_scale = 0.03,
               .dense_scale = 0.1,
               .serve_scale = 0.045,
               .setup_reps = 3};
}

uint64_t DeriveSeed(uint64_t seed, std::string_view salt) {
  uint64_t h = 0xcbf29ce484222325ull ^ (seed * 0x9E3779B97F4A7C15ull);
  for (char c : salt) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  // Final avalanche (splitmix64) so nearby seeds give unrelated inputs.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

const platform::SyntheticLanguage& Language() {
  static const auto* language =
      new platform::SyntheticLanguage(platform::DefaultLanguageOptions());
  return *language;
}

std::unique_ptr<core::SemanticModel> BuildSemanticModel(uint64_t seed,
                                                         const Sizes& sizes) {
  const platform::SyntheticLanguage& language = Language();
  std::vector<std::string> corpus;
  corpus.reserve(sizes.corpus_docs + sizes.spam_templates * 12);
  {
    platform::CommentGenerator generator(&language);
    Rng rng(DeriveSeed(seed, "corpus"));
    for (size_t i = 0; i < sizes.corpus_docs; ++i) {
      corpus.push_back(generator.GenerateBenign(rng.Beta(4.0, 2.0), &rng));
    }
    for (size_t i = 0; i < sizes.spam_templates; ++i) {
      const bool stealth = rng.Bernoulli(0.3);
      auto tmpl = generator.GenerateSpamTemplate(&rng, stealth);
      for (int j = 0; j < 12; ++j) {
        corpus.push_back(
            generator.GenerateSpamFromTemplate(tmpl, &rng, stealth));
      }
    }
  }
  std::vector<std::pair<std::string, bool>> sentiment_corpus;
  {
    platform::CommentGenerator generator(&language);
    Rng rng(DeriveSeed(seed, "sentiment"));
    for (size_t i = 0; i < sizes.sentiment_docs; ++i) {
      const bool positive = (i % 2) == 0;
      sentiment_corpus.emplace_back(
          generator.GenerateSentimentTrainingDoc(positive, &rng), positive);
    }
  }
  core::SemanticAnalyzerOptions options;
  options.word2vec.dim = 32;
  options.word2vec.epochs = 3;
  options.word2vec.seed = DeriveSeed(seed, "word2vec");
  options.expansion.max_words = 200;
  options.expansion.min_similarity = 0.65f;
  options.expansion.min_centroid_similarity = 0.5f;
  options.expansion.max_iterations = 3;
  core::SemanticAnalyzer analyzer(options);
  auto model = analyzer.Build(corpus, language.BuildSegmentationDictionary(),
                              language.PositiveSeeds(4),
                              language.NegativeSeeds(4), sentiment_corpus);
  CATS_CHECK(model.ok());
  return std::make_unique<core::SemanticModel>(std::move(model).value());
}

LabeledItems CrawlClean(const platform::Marketplace& market) {
  platform::ApiOptions api_options;
  api_options.page_size = 100;
  api_options.faults = fault::FaultProfile::None();
  platform::MarketplaceApi api(&market, api_options);
  fault::FakeClock clock;
  collect::CrawlerOptions crawl_options;
  crawl_options.requests_per_second = 1e9;
  collect::Crawler crawler(&api, crawl_options, &clock);
  collect::DataStore store;
  CATS_CHECK(crawler.Crawl(&store).ok());
  LabeledItems out;
  out.items = std::move(store.mutable_items());
  out.labels.reserve(out.items.size());
  for (const collect::CollectedItem& ci : out.items) {
    out.labels.push_back(market.IsFraudItem(ci.item.item_id) ? 1 : 0);
  }
  return out;
}

platform::MarketplaceConfig TrainingConfig(uint64_t seed, const Sizes& sizes) {
  platform::MarketplaceConfig config =
      platform::TaobaoD0Config(sizes.train_scale);
  config.seed = DeriveSeed(seed, "train-market");
  return config;
}

uint64_t CounterValue(std::string_view name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

HistTotals HistogramTotals(std::string_view name) {
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  const obs::HistogramSnapshot* hist = snapshot.FindHistogram(name);
  if (hist == nullptr) return HistTotals{};
  return HistTotals{hist->total_count, hist->sum};
}

double GbdtFitSeconds() {
  return (HistogramTotals(obs::kGbdtRoundLatencyMicros).sum +
          HistogramTotals(obs::kGbdtHistBinBuildLatencyMicros).sum) *
         1e-6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(
                                                    values.size()))) -
      1;
  return values[index];
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double MaxOf(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

uint64_t DigestIds(std::vector<uint64_t> ids) {
  std::sort(ids.begin(), ids.end());
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint64_t id : ids) {
    for (int b = 0; b < 8; ++b) {
      h ^= (id >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  return h ^ ids.size();
}

}  // namespace perfbench
