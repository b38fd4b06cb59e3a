// crawl_detect: the collector crawls a comment-dense marketplace under mild
// fault weather on a virtual clock (unthrottled, so backoff costs no wall
// time and the run measures CPU) and streams every item into detection
// through pipeline::StreamingCats::Run.
//
// Untraced: repeated streaming passes over the same platform; items/s, the
// collector's request rate and the per-pass wall time.
// Traced: additionally one sequential crawl (Crawler::Crawl), a replay of
// the collector's page walk through the public calls it makes (Get,
// ParsePage, Normalize*, DataStore::Add*), and the detector's public
// stages called one by one, each wrapped in a span.

#include <algorithm>
#include <optional>

#include "collect/crawler.h"
#include "common.h"
#include "core/detector.h"
#include "core/rule_filter.h"
#include "fault/clock.h"
#include "obs/metric_names.h"
#include "pipeline/streaming_cats.h"
#include "platform/api.h"
#include "platform/presets.h"
#include "util/logging.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cats;

platform::MarketplaceConfig DenseConfig(uint64_t seed, const Sizes& sizes) {
  // The 5k preset with deep comment histories: ~40 comments per normal
  // item instead of ~14.
  platform::MarketplaceConfig config =
      platform::TaobaoFiveKConfig(sizes.dense_scale);
  config.name = "taobao-5k-dense";
  config.mean_organic_comments_normal = 40.0;
  config.mean_organic_comments_fraud = 12.0;
  config.campaign.mean_spam_comments_per_item = 30.0;
  config.seed = DeriveSeed(seed, "dense-market");
  return config;
}

platform::ApiOptions CrawlApiOptions(uint64_t seed) {
  platform::ApiOptions options;
  options.page_size = 100;
  options.faults = fault::FaultProfile::Mild();
  options.seed = DeriveSeed(seed, "api-faults");
  return options;
}

collect::CrawlerOptions UnthrottledCrawler() {
  collect::CrawlerOptions options;
  options.requests_per_second = 1e9;  // virtual clock: never sleeps
  return options;
}

struct Setup {
  std::unique_ptr<core::SemanticModel> model;
  std::unique_ptr<platform::Marketplace> market;
  std::unique_ptr<core::Detector> detector;
  double semantic_s = 0, generate_s = 0, train_s = 0, total_s = 0;
};

Setup SetUp(const Args& args, const Sizes& sizes) {
  Setup s;
  const int64_t start = NowNs();
  s.model = BuildSemanticModel(args.seed, sizes);
  s.semantic_s = SecondsSince(start);

  const int64_t generate_start = NowNs();
  platform::Marketplace training = platform::Marketplace::Generate(
      TrainingConfig(args.seed, sizes), &Language());
  s.market = std::make_unique<platform::Marketplace>(
      platform::Marketplace::Generate(DenseConfig(args.seed, sizes),
                                      &Language()));
  s.generate_s = SecondsSince(generate_start);

  LabeledItems labeled = CrawlClean(training);
  s.detector = std::make_unique<core::Detector>(s.model.get());
  const double fit_before = GbdtFitSeconds();
  CATS_CHECK(s.detector->Train(labeled.items, labeled.labels).ok());
  s.train_s = GbdtFitSeconds() - fit_before;
  s.total_s = SecondsSince(start);
  return s;
}

std::vector<uint64_t> FlaggedIds(const core::DetectionReport& report) {
  std::vector<uint64_t> ids;
  for (const core::Detection& d : report.detections) ids.push_back(d.item_id);
  for (const core::Detection& d : report.degraded_detections) {
    ids.push_back(d.item_id);
  }
  return ids;
}

/// One streaming crawl->detect pass over the whole platform.
struct Pass {
  double wall_s = 0;
  uint64_t requests = 0;
  uint64_t digest = 0;
  size_t missing = 0;  // platform items absent from the report
};

Pass StreamingPass(const platform::Marketplace& market,
                   const core::Detector& detector, uint64_t seed,
                   RunResult* result, collect::DataStore* store) {
  platform::MarketplaceApi api(&market, CrawlApiOptions(seed));
  fault::FakeClock clock;
  collect::Crawler crawler(&api, UnthrottledCrawler(), &clock);
  collect::CrawlCheckpoint checkpoint;
  pipeline::StreamingCats streaming(&detector);
  const size_t platform_items = market.items().size();

  const int64_t start = NowNs();
  auto run = streaming.Run(&crawler, store, &checkpoint);
  Pass pass;
  pass.wall_s = SecondsSince(start);
  pass.missing = platform_items;
  if (!run.ok()) {
    result->Fail("StreamingCats::Run: " + run.status().ToString());
    return pass;
  }
  if (!run->crawl_status.ok()) {
    result->Fail("crawl status: " + run->crawl_status.ToString());
    return pass;
  }
  const core::DetectionReport& report = run->report;
  pass.requests = run->crawl_stats.requests;
  pass.digest = DigestIds(FlaggedIds(report));
  const size_t bucketed = report.items_quarantined +
                          report.items_filtered_low_sales +
                          report.items_filtered_no_signal +
                          report.items_filtered_no_comments +
                          report.items_classified;
  if (report.items_scanned != bucketed) {
    result->Fail("accounting: scanned != quarantined + filtered + classified");
  }
  pass.missing =
      platform_items - std::min(platform_items, store->items().size());
  if (report.items_scanned != platform_items ||
      store->items().size() != platform_items) {
    result->Fail("accounting: scanned/crawled items != platform items");
  }
  return pass;
}

// --- traced decomposition -------------------------------------------------

/// What one replay of the page walk did, and the time its calls took.
struct ReplayStats {
  uint64_t requests = 0;
  uint64_t bytes = 0;
  double render_s = 0;     // MarketplaceApi::Get
  double parse_s = 0;      // SchemaNormalizer::ParsePage
  double normalize_s = 0;  // Normalize* + DataStore::Add*
};

/// Replays one paginated walk the way Crawler::FetchAllPages does (same
/// requests, same retry rule), timing each public call. Returns false on
/// a failure the crawler would not survive either.
template <typename Consume>
bool ReplayWalk(platform::MarketplaceApi* api,
                const collect::SchemaNormalizer& normalizer,
                const std::string& route, Tracer* tracer, uint32_t parent,
                ReplayStats* stats, Consume&& consume) {
  const size_t max_retries = collect::CrawlerOptions{}.max_retries;
  for (size_t page = 0;; ++page) {
    const std::string path =
        route + api->profile().PageQuery(page, api->page_size());
    std::optional<collect::Page> parsed;
    for (size_t attempt = 0; attempt <= max_retries && !parsed; ++attempt) {
      const int64_t t0 = NowNs();
      Result<std::string> body = api->Get(path);
      const int64_t t1 = NowNs();
      tracer->Record("platform.render", t0, t1, parent);
      stats->render_s += static_cast<double>(t1 - t0) * 1e-9;
      ++stats->requests;
      if (!body.ok()) {
        if (body.status().code() == StatusCode::kUnavailable) continue;
        return body.status().code() == StatusCode::kOutOfRange;
      }
      stats->bytes += body->size();
      Result<collect::Page> page_view =
          normalizer.ParsePage(*body, api->page_size());
      const int64_t t2 = NowNs();
      tracer->Record("collect.parse", t1, t2, parent);
      stats->parse_s += static_cast<double>(t2 - t1) * 1e-9;
      if (page_view.ok() && page_view->page == page) {
        parsed = std::move(page_view).value();
      }
    }
    if (!parsed) return false;
    const int64_t t3 = NowNs();
    for (const JsonValue& record : parsed->data) {
      if (!consume(record)) return false;
    }
    const int64_t t4 = NowNs();
    tracer->Record("collect.normalize", t3, t4, parent);
    stats->normalize_s += static_cast<double>(t4 - t3) * 1e-9;
    if (!parsed->has_more) return true;
  }
}

bool ReplayCrawl(platform::MarketplaceApi* api, Tracer* tracer,
                 uint32_t parent, collect::DataStore* store,
                 ReplayStats* stats) {
  collect::SchemaNormalizer normalizer(&api->profile());
  const platform::PlatformProfile& profile = api->profile();
  bool ok = ReplayWalk(api, normalizer, profile.ShopsRoute(), tracer, parent,
                       stats, [&](const JsonValue& v) {
                         auto shop = normalizer.NormalizeShop(v);
                         if (shop.ok()) store->AddShop(std::move(shop).value());
                         return shop.ok();
                       });
  for (size_t s = 0; ok && s < store->shops().size(); ++s) {
    const uint64_t shop_id = store->shops()[s].shop_id;
    ok = ReplayWalk(api, normalizer, profile.ItemsRoute(shop_id), tracer,
                    parent, stats, [&](const JsonValue& v) {
                      auto item = normalizer.NormalizeItem(v);
                      if (item.ok()) store->AddItem(std::move(item).value());
                      return item.ok();
                    });
    for (size_t index : store->ItemIndicesOfShop(shop_id)) {
      if (!ok) break;
      const uint64_t item_id = store->items()[index].item.item_id;
      ok = ReplayWalk(api, normalizer, profile.CommentsRoute(item_id), tracer,
                      parent, stats, [&](const JsonValue& v) {
                        auto comment = normalizer.NormalizeComment(v);
                        if (comment.ok()) {
                          store->AddComment(std::move(comment).value());
                        }
                        return comment.ok();
                      });
    }
  }
  return ok;
}

/// Detector::Detect's work, one public call at a time: validate each item,
/// extract features, apply the stage-1 rules, score the survivors. Routing
/// follows Detector::StageForScoring.
core::DetectionReport StagedDetect(const core::Detector& detector,
                                   const std::vector<collect::CollectedItem>&
                                       items,
                                   Tracer* tracer, uint32_t parent) {
  std::vector<core::RecordValidation> validations(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    ScopedSpan span(tracer, "core.validate", parent, i + 1);
    validations[i] = detector.validator().Validate(items[i]);
  }
  std::vector<core::FeatureVector> features;
  {
    ScopedSpan span(tracer, "core.extract", parent);
    features = detector.extractor().ExtractAll(items);
  }
  const core::RuleFilter filter{core::RuleFilterOptions{}};
  std::vector<size_t> kept;
  {
    ScopedSpan span(tracer, "core.rules", parent);
    kept = filter.FilterIndices(items, features);
  }

  std::vector<char> is_kept(items.size(), 0);
  for (size_t k : kept) is_kept[k] = 1;
  core::StagedBatch batch;
  batch.items_scanned = items.size();
  for (size_t i = 0; i < items.size(); ++i) {
    const core::RecordValidation& v = validations[i];
    const uint64_t id = items[i].item.item_id;
    if (v.verdict == core::RecordVerdict::kPoison) {
      batch.quarantined.push_back(core::QuarantineEntry{id, v.issues});
      continue;
    }
    if (v.verdict == core::RecordVerdict::kDegraded) {
      const core::FeatureVector& row =
          core::HasIssue(v.issues, core::RecordIssue::kMissingComments)
              ? detector.imputed_features()
              : features[i];
      ++batch.degraded;
      batch.pending.push_back(core::StagedBatch::PendingRow{id, true});
      batch.rows.insert(batch.rows.end(), row.begin(), row.end());
      continue;
    }
    if (is_kept[i]) {
      batch.pending.push_back(core::StagedBatch::PendingRow{id, false});
      batch.rows.insert(batch.rows.end(), features[i].begin(),
                        features[i].end());
      continue;
    }
    switch (filter.Evaluate(items[i], features[i])) {
      case core::FilterReason::kLowSales:
        ++batch.filtered_low_sales;
        break;
      case core::FilterReason::kNoComments:
        ++batch.filtered_no_comments;
        break;
      default:
        ++batch.filtered_no_signal;
        break;
    }
  }
  core::DetectionReport report;
  {
    ScopedSpan span(tracer, "ml.predict", parent);
    detector.ScoreStagedBatch(batch, &report);
  }
  return report;
}

/// Registry counters and histograms the streaming plane exports.
struct PipelineRegistry {
  uint64_t ingest_push_stall_us = CounterValue(
      obs::kPipelineIngestPushStallMicrosTotal);
  uint64_t ingest_pop_stall_us = CounterValue(
      obs::kPipelineIngestPopStallMicrosTotal);
  uint64_t staged_pop_stall_us = CounterValue(
      obs::kPipelineStagedPopStallMicrosTotal);
  HistTotals batch_items = HistogramTotals(obs::kPipelineBatchItems);
};

}  // namespace

RunResult RunCrawlDetect(const Args& args, Tracer* tracer) {
  RunResult result;
  const Sizes sizes = SizesFor(args.tiny);

  // Set up several times; setup_s is the median. The last set-up serves
  // the run.
  std::vector<double> setup_s, semantic_s, generate_s, train_s;
  Setup setup;
  for (int rep = 0; rep < sizes.setup_reps; ++rep) {
    setup = Setup{};
    setup = SetUp(args, sizes);
    setup_s.push_back(setup.total_s);
    semantic_s.push_back(setup.semantic_s);
    generate_s.push_back(setup.generate_s);
    train_s.push_back(setup.train_s);
  }
  const platform::Marketplace& market = *setup.market;
  const core::Detector& detector = *setup.detector;
  const size_t platform_items = market.items().size();

  // Warm-up pass (checked, not timed), then timed passes until the time
  // budget is spent. A traced run alternates passes with and without a
  // span, so trace.overhead_ratio compares like with like.
  collect::DataStore last_store;
  uint64_t first_digest = 0;
  {
    collect::DataStore store;
    Pass warm = StreamingPass(market, detector, args.seed, &result, &store);
    result.attempted += platform_items;
    result.failed += warm.missing;
    first_digest = warm.digest;
  }

  const PipelineRegistry registry_before;
  std::vector<double> wall_s, items_per_s, requests_per_s;
  std::vector<double> traced_items_per_s, untraced_items_per_s;
  JsonValue pass_wall = JsonValue::Array();
  const int64_t budget_start = NowNs();
  for (size_t n = 0; n < 3 || SecondsSince(budget_start) < args.seconds;
       ++n) {
    collect::DataStore store;
    const bool span_this_pass = tracer->enabled() && n % 2 == 0;
    const uint32_t span =
        span_this_pass ? tracer->Begin("pipeline.streaming_run") : 0;
    Pass pass = StreamingPass(market, detector, args.seed, &result, &store);
    tracer->End(span);
    pass_wall.Append(JsonValue::Number(pass.wall_s));
    result.attempted += platform_items;
    result.failed += pass.missing;
    if (pass.digest != first_digest) {
      result.Fail("flagged-id digest differs between streaming passes");
    }
    wall_s.push_back(pass.wall_s);
    items_per_s.push_back(static_cast<double>(platform_items) / pass.wall_s);
    requests_per_s.push_back(static_cast<double>(pass.requests) /
                             pass.wall_s);
    (span_this_pass ? traced_items_per_s : untraced_items_per_s)
        .push_back(items_per_s.back());
    last_store = std::move(store);
  }
  const PipelineRegistry registry_after;
  const double passes = static_cast<double>(wall_s.size());

  // Output check: the streamed flagged set equals sequential Detect on the
  // same crawled items.
  const int64_t detect_start = NowNs();
  auto sequential = detector.Detect(last_store.items());
  const double sequential_detect_s = SecondsSince(detect_start);
  uint64_t sequential_digest = 0;
  if (!sequential.ok()) {
    result.Fail("Detector::Detect: " + sequential.status().ToString());
  } else {
    sequential_digest = DigestIds(FlaggedIds(*sequential));
    if (sequential_digest != first_digest) {
      result.Fail("streaming flagged ids != sequential Detector::Detect");
    }
  }

  result.Add("setup_s", Median(setup_s), "s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.Add("items_per_s", Quantile(items_per_s, kRateQuantile),
             "items/s");
  result.Add("capacity_qps", Quantile(requests_per_s, kRateQuantile),
             "req/s");
  result.Add("items_per_s_median", Median(items_per_s), "items/s");
  result.Add("p50_ms", Median(wall_s) * 1e3, "ms");
  result.Add("p99_ms", MaxOf(wall_s) * 1e3, "ms");
  result.Add("setup.semantic_model_s", Median(semantic_s), "s");
  result.Add("setup.generate_s", Median(generate_s), "s");
  result.Add("setup.train_s", Median(train_s), "s");

  JsonValue& details = result.details;
  details.Set("platform_items", JsonValue::Int(static_cast<int64_t>(
                                    platform_items)));
  details.Set("platform_comments", JsonValue::Int(static_cast<int64_t>(
                                       market.comments().size())));
  details.Set("pass_wall_s", std::move(pass_wall));
  details.Set("timed_passes", JsonValue::Int(static_cast<int64_t>(passes)));
  details.Set("latency_note",
              JsonValue::String("p50_ms/p99_ms are the median and slowest "
                                "wall time of one whole-platform pass; "
                                "samples = timed_passes"));
  details.Set("flagged_digest",
              JsonValue::String(std::to_string(first_digest)));

  if (!tracer->enabled()) return result;

  // --- traced decomposition ---------------------------------------------
  result.Add("pipeline.ingest_push_stall_s",
             static_cast<double>(registry_after.ingest_push_stall_us -
                                 registry_before.ingest_push_stall_us) *
                 1e-6 / passes,
             "s");
  result.Add("pipeline.ingest_pop_stall_s",
             static_cast<double>(registry_after.ingest_pop_stall_us -
                                 registry_before.ingest_pop_stall_us) *
                 1e-6 / passes,
             "s");
  result.Add("pipeline.staged_pop_stall_s",
             static_cast<double>(registry_after.staged_pop_stall_us -
                                 registry_before.staged_pop_stall_us) *
                 1e-6 / passes,
             "s");
  const uint64_t batches =
      registry_after.batch_items.count - registry_before.batch_items.count;
  result.Add("pipeline.batch_items_mean",
             batches == 0 ? 0.0
                          : (registry_after.batch_items.sum -
                             registry_before.batch_items.sum) /
                                static_cast<double>(batches),
             "items");
  result.Add("trace.overhead_ratio",
             Median(untraced_items_per_s) / Median(traced_items_per_s),
             "ratio");

  // Crawl split: rounds of Crawler::Crawl, each followed at once by a
  // replay of its page walk through the public calls it makes. Crawl and
  // replay sit next to each other in time, so host drift mostly cancels in
  // their difference (the crawler's own overhead). The round with the
  // median crawl time is reported.
  constexpr size_t kCrawlRounds = 3;
  struct CrawlRound {
    double crawl_s = 0;
    ReplayStats replay;
  };
  std::vector<CrawlRound> rounds(kCrawlRounds);
  collect::DataStore crawled;
  collect::CrawlStats crawl_stats;
  for (CrawlRound& round : rounds) {
    collect::DataStore store;
    {
      platform::MarketplaceApi api(&market, CrawlApiOptions(args.seed));
      fault::FakeClock clock;
      collect::Crawler crawler(&api, UnthrottledCrawler(), &clock);
      ScopedSpan span(tracer, "collect.crawl");
      const int64_t start = NowNs();
      Status st = crawler.Crawl(&store);
      round.crawl_s = SecondsSince(start);
      if (!st.ok()) result.Fail("sequential crawl: " + st.ToString());
      crawl_stats = crawler.stats();
    }
    {
      platform::MarketplaceApi api(&market, CrawlApiOptions(args.seed));
      collect::DataStore replay_store;
      ScopedSpan span(tracer, "collect.replay");
      if (!ReplayCrawl(&api, tracer, span.id(), &replay_store,
                       &round.replay) ||
          replay_store.items().size() != platform_items) {
        result.Fail("replayed page walk did not collect every item");
      }
    }
    crawled = std::move(store);
  }
  std::sort(rounds.begin(), rounds.end(),
            [](const CrawlRound& a, const CrawlRound& b) {
              return a.crawl_s < b.crawl_s;
            });
  const CrawlRound& median_round = rounds[kCrawlRounds / 2];
  const double crawl_s = median_round.crawl_s;
  const ReplayStats& replay = median_round.replay;

  // The detector's stages, one public call at a time, on the crawled items.
  const uint32_t detect_span = tracer->Begin("core.detect_staged");
  core::DetectionReport staged =
      StagedDetect(detector, crawled.items(), tracer, detect_span);
  tracer->End(detect_span);
  if (DigestIds(FlaggedIds(staged)) != sequential_digest) {
    result.Fail("stage-by-stage detect != Detector::Detect");
  }
  // The traced total: one sequential crawl, then detection.
  const double total_s = crawl_s + tracer->Seconds(detect_span);

  // Segmentation share: IdSegmenter over every comment against a serial
  // feature extraction of the same items.
  double segment_s = 0, extract_serial_s = 0;
  {
    const text::IdSegmenter& segmenter =
        detector.extractor().model().token_index->segmenter();
    text::TokenArena arena;
    text::CommentStructure structure;
    size_t tokens = 0;
    ScopedSpan span(tracer, "text.segment");
    const int64_t start = NowNs();
    for (const collect::CollectedItem& item : crawled.items()) {
      for (const collect::CommentRecord& c : item.comments) {
        arena.Reset();
        tokens += segmenter.SegmentToIds(c.content, &arena, &structure).size();
      }
    }
    segment_s = SecondsSince(start);
    details.Set("segmented_tokens", JsonValue::Int(static_cast<int64_t>(
                                        tokens)));
  }
  {
    core::FeatureExtractorOptions serial = detector.extractor().options();
    serial.num_threads = 1;
    core::FeatureExtractor extractor(&detector.extractor().model(), serial);
    ScopedSpan span(tracer, "core.extract_serial");
    const int64_t start = NowNs();
    const auto rows = extractor.ExtractAll(crawled.items());
    extract_serial_s = SecondsSince(start);
  }

  const std::map<std::string, double> self = tracer->SelfSecondsByName();
  auto self_of = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double render_s = replay.render_s;
  const double parse_s = replay.parse_s;
  const double normalize_s = replay.normalize_s;
  const double overhead_s = crawl_s - render_s - parse_s - normalize_s;
  const double validate_s = self_of("core.validate");
  const double extract_s = self_of("core.extract");
  const double rules_s = self_of("core.rules");
  const double predict_s = self_of("ml.predict");
  const double attributed = render_s + parse_s + normalize_s + overhead_s +
                            validate_s + extract_s + rules_s + predict_s;

  result.Add("trace.total_s", total_s, "s");
  result.Add("trace.unattributed_s", total_s - attributed, "s");
  result.Add("platform.render_s", render_s, "s");
  result.Add("platform.render_share", render_s / total_s, "ratio");
  result.Add("collect.parse_s", parse_s, "s");
  result.Add("collect.normalize_s", normalize_s, "s");
  result.Add("collect.crawler_overhead_s", overhead_s, "s");
  result.Add("collect.pages", static_cast<double>(crawl_stats.pages_fetched),
             "count");
  result.Add("collect.bytes", static_cast<double>(replay.bytes), "bytes");
  result.Add("collect.useful_request_ratio",
             crawl_stats.requests == 0
                 ? 0.0
                 : static_cast<double>(crawl_stats.pages_fetched) /
                       static_cast<double>(crawl_stats.requests),
             "ratio");
  result.Add("core.validate_s", validate_s, "s");
  result.Add("text.segment_s", segment_s, "s");
  result.Add("text.segment_share", segment_s / extract_serial_s, "ratio");
  result.Add("core.extract_s", extract_s, "s");
  result.Add("core.rules_s", rules_s, "s");
  result.Add("ml.predict_s", predict_s, "s");
  result.Add("pipeline.overlap_ratio",
             (crawl_s + sequential_detect_s) / Median(wall_s), "ratio");

  details.Set("sequential_crawl_s", JsonValue::Number(crawl_s));
  details.Set("sequential_detect_s", JsonValue::Number(sequential_detect_s));
  details.Set("extract_serial_s", JsonValue::Number(extract_serial_s));
  details.Set("replay_requests", JsonValue::Int(static_cast<int64_t>(
                                     replay.requests)));
  details.Set("crawl_requests", JsonValue::Int(static_cast<int64_t>(
                                    crawl_stats.requests)));
  return result;
}

}  // namespace perfbench
