// serve_score and serve_delta: framed score requests over loopback TCP to a
// ServeLoop behind the epoll reactor.
//
// Every run has an open-loop latency phase (one fixed rate well below the
// knee; latency timed from each request's due time) and a closed-loop
// capacity phase (each connection keeps a fixed window in flight). The
// load generator lives in this process, uses at most nproc connections and
// one thread, and sends pre-encoded frames.
//
// serve_score sends full score_item frames. serve_delta first warms the
// item cache with one score_item per item, then sends ~90%
// score_comment_delta frames (each item takes at most kDeltasPerItem
// deltas, then a full score_item resets it) and hot-swaps the model once,
// mid-run. Every kOk score is checked against the offline Detector score
// of the item's comments at the time of the request.

#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string_view>
#include <thread>
#include <type_traits>

#include "collect/record.h"
#include "common.h"
#include "core/cats.h"
#include "drift/drift_detector.h"
#include "obs/metric_names.h"
#include "platform/comment_generator.h"
#include "platform/presets.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/tcp_server.h"
#include "util/logging.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cats;

/// serve_delta: deltas an item takes before a full score_item resets it
/// (9 deltas + 1 full per cycle = 90% deltas).
constexpr size_t kDeltasPerItem = 9;
/// Open-loop rate, requests/s: well below the knee of this host's
/// closed-loop capacity.
constexpr double kOpenLoopRate = 3000.0;
/// Closed loop: requests each connection keeps in flight.
constexpr size_t kWindowPerConnection = 16;
/// Open loop: requests in flight at most. A due request waits (and counts
/// as late) while this many are outstanding, so a host stall delays the
/// schedule instead of overflowing the admission queue (128 by default);
/// on serve_delta it also keeps two requests for one item out of flight
/// together.
constexpr size_t kMaxOpenInFlight = 64;
/// Share of each phase discarded as warm-up.
constexpr double kWarmupShare = 0.1;
/// Open-loop percentiles are taken per window and reported as the median
/// over windows, so a few host stalls in a run move one window, not the
/// result. A window holds rate x 1 s samples (3000: 30 beyond its p99).
constexpr int64_t kLatencyWindowNs = 1'000'000'000;
/// Closed-loop rates are taken per block of about this many completions,
/// rounded to whole schedule cycles.
constexpr size_t kRateBlockRequests = 8000;
/// The open-loop generator busy-polls this long before each due time.
constexpr int64_t kSpinNs = 100'000;

size_t Connections() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min<size_t>(4, hw);
}

// --- inputs -----------------------------------------------------------------

/// The served items and, for serve_delta, each item's planned deltas, plus
/// every request frame pre-encoded with request_id 0.
struct Inputs {
  std::vector<collect::CollectedItem> items;
  std::vector<std::vector<std::vector<collect::CommentRecord>>> deltas;
  std::vector<std::string> full_frames;                // [item]
  std::vector<std::vector<std::string>> delta_frames;  // [item][k]
};

Inputs BuildInputs(std::vector<collect::CollectedItem> items, uint64_t seed,
                   bool delta) {
  Inputs in;
  in.items = std::move(items);
  for (const collect::CollectedItem& item : in.items) {
    in.full_frames.push_back(
        serve::EncodeFrame(serve::MakeScoreItemRequest(0, item)));
  }
  if (!delta) return in;
  platform::CommentGenerator generator(&Language());
  Rng rng(DeriveSeed(seed, "deltas"));
  static const char* kClients[] = {"Web", "Android", "iPhone", "WeChat"};
  in.deltas.resize(in.items.size());
  in.delta_frames.resize(in.items.size());
  for (size_t i = 0; i < in.items.size(); ++i) {
    const collect::CollectedItem& item = in.items[i];
    for (size_t k = 0; k < kDeltasPerItem; ++k) {
      std::vector<collect::CommentRecord> comments(rng.Bernoulli(0.5) ? 2 : 1);
      for (size_t c = 0; c < comments.size(); ++c) {
        collect::CommentRecord& r = comments[c];
        r.item_id = item.item.item_id;
        r.comment_id = (1ull << 40) + (i * kDeltasPerItem + k) * 2 + c;
        r.content = generator.GenerateBenign(rng.Beta(4.0, 2.0), &rng);
        r.nickname = "delta_user_" + std::to_string(rng.UniformInt(0, 99999));
        r.user_exp_value = rng.UniformInt(100, 20000);
        r.client = kClients[rng.UniformInt(0, 3)];
        r.date = "2017-08-15";
      }
      in.delta_frames[i].push_back(serve::EncodeFrame(
          serve::MakeScoreCommentDeltaRequest(0, item.item.item_id,
                                              comments)));
      in.deltas[i].push_back(std::move(comments));
    }
  }
  return in;
}

/// Schedule position v -> (item, state). State 0 is a full score_item
/// (the item's crawled comments); state p > 0 is the p-th delta. The first
/// items.size() positions are the cache warm-up (all full).
struct Step {
  uint32_t item = 0;
  uint32_t state = 0;
};

Step StepAt(uint64_t v, size_t num_items, bool delta) {
  Step s;
  s.item = static_cast<uint32_t>(v % num_items);
  if (delta) {
    s.state = static_cast<uint32_t>((v / num_items) % (kDeltasPerItem + 1));
  }
  return s;
}

const std::string& FrameAt(const Inputs& in, const Step& s) {
  return s.state == 0 ? in.full_frames[s.item]
                      : in.delta_frames[s.item][s.state - 1];
}

/// An item with some of its deltas applied, in the given order (one char
/// per delta, values 1..kDeltasPerItem), as the server's cache holds it.
collect::CollectedItem ItemWithDeltas(const Inputs& in, uint32_t item,
                                      std::string_view deltas) {
  collect::CollectedItem out = in.items[item];
  for (char k : deltas) {
    for (const collect::CommentRecord& c :
         in.deltas[item][static_cast<size_t>(k) - 1]) {
      out.comments.push_back(c);
    }
  }
  return out;
}

/// The item after deltas 1..state, the state a steady run reaches.
collect::CollectedItem ItemInState(const Inputs& in, const Step& s) {
  std::string deltas;
  for (uint32_t k = 1; k <= s.state; ++k) deltas.push_back(static_cast<char>(k));
  return ItemWithDeltas(in, s.item, deltas);
}

// --- load generator -------------------------------------------------------

/// What one request saw, indexed by request_id.
struct Slot {
  int64_t start_ns = 0;  // due time (open loop) or send time (closed loop)
  int64_t end_ns = 0;    // response received; 0 = missing
  uint64_t step = 0;     // schedule position
  double score = 0.0;
  serve::MessageType type = serve::MessageType::kHealth;
  bool has_score = false;
  bool not_found = false;
};

void PatchRequestId(std::string* frame, uint32_t id) {
  (*frame)[8] = static_cast<char>(id & 0xff);
  (*frame)[9] = static_cast<char>((id >> 8) & 0xff);
  (*frame)[10] = static_cast<char>((id >> 16) & 0xff);
  (*frame)[11] = static_cast<char>((id >> 24) & 0xff);
}

void RecordResponse(const serve::Message& m, Slot* slot) {
  slot->end_ns = NowNs();
  slot->type = m.type;
  if (m.type == serve::MessageType::kOk) {
    if (auto score = m.payload.GetDouble("score"); score.ok()) {
      slot->score = *score;
      slot->has_score = true;
    }
  } else if (m.type == serve::MessageType::kError) {
    slot->not_found = serve::StatusFromErrorPayload(m.payload).code() ==
                      StatusCode::kNotFound;
  }
}

/// Completions per second over consecutive blocks of completion times.
/// A block is a whole number of `cycle`-request schedule cycles (every
/// item in every state equally often), so each holds the workload's exact
/// mix; it is about kRateBlockRequests long, shorter when the phase holds
/// fewer than four such blocks.
std::vector<double> BlockRates(std::vector<int64_t> done_ns, size_t cycle) {
  std::sort(done_ns.begin(), done_ns.end());
  const size_t n = done_ns.size();
  const size_t cycles =
      std::clamp<size_t>(n / (4 * cycle), 1,
                         (kRateBlockRequests + cycle - 1) / cycle);
  const size_t block = std::min(cycles * cycle, n == 0 ? 0 : n - 1);
  std::vector<double> rates;
  for (size_t i = 0; block > 0 && i + block < n; i += block) {
    const int64_t span_ns = done_ns[i + block] - done_ns[i];
    if (span_ns > 0) {
      rates.push_back(static_cast<double>(block) * 1e9 /
                      static_cast<double>(span_ns));
    }
  }
  return rates;
}

/// The in-process load generator: N loopback connections multiplexed on
/// one epoll set, driven by the calling thread alone (pacing, sending and
/// receiving), so the generator adds one thread to the server's.
class LoadClient {
 public:
  LoadClient(const Inputs* inputs, bool delta, std::vector<Slot>* slots,
             Tracer* tracer)
      : inputs_(inputs), delta_(delta), slots_(slots), tracer_(tracer) {}
  ~LoadClient() {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  Status Connect(uint16_t port, size_t connections) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return Status::IoError("epoll_create1 failed");
    conns_ = std::vector<Conn>(connections);
    for (size_t i = 0; i < connections; ++i) {
      CATS_RETURN_NOT_OK(conns_[i].client.Connect("127.0.0.1", port));
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = i;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conns_[i].client.raw_fd(),
                      &ev) < 0) {
        return Status::IoError("epoll_ctl failed");
      }
    }
    return Status::OK();
  }

  /// Open loop at `rate`/s for `seconds`. Lateness (send time minus due
  /// time) goes to `late_ns`. `midpoint`, when set, runs once halfway
  /// through, on its own thread, while the schedule continues.
  Status RunOpen(double rate, double seconds, std::vector<int64_t>* late_ns,
                 const std::function<void()>& midpoint = nullptr) {
    const int64_t interval_ns = static_cast<int64_t>(1e9 / rate);
    const uint64_t total = static_cast<uint64_t>(rate * seconds);
    if (next_id() + total >= slots_->size()) {
      return Status::OutOfRange("slot table too small for the open loop");
    }
    // One thread paces and receives: it waits in epoll until the next due
    // time, handling responses as they arrive.
    prctl(PR_SET_TIMERSLACK, 1000UL);  // wake within ~1 us of a due time
    std::thread side;
    late_ns->reserve(late_ns->size() + total);
    const uint64_t done_before = completed_;
    const int64_t start = NowNs() + 1'000'000;
    for (uint64_t i = 0; i < total && !failed_; ++i) {
      const int64_t due = start + static_cast<int64_t>(i) * interval_ns;
      // Sleep in epoll until shortly before the due time, then spin: a
      // wake-up from an idle virtual CPU can take longer than the gap.
      for (int64_t now = NowNs(); now < due && !failed_; now = NowNs()) {
        Poll(std::max<int64_t>(0, due - now - kSpinNs), nullptr);
      }
      while (in_flight() >= kMaxOpenInFlight && !failed_) {
        Poll(1'000'000, nullptr);
      }
      late_ns->push_back(NowNs() - due);
      if (midpoint && i == total / 2) side = std::thread(midpoint);
      Send(i % conns_.size(), due);
    }
    while (!failed_ && completed_ - done_before < total) {
      Poll(10'000'000, nullptr);
    }
    if (side.joinable()) side.join();
    return failed_ ? Status::IoError(failure_) : Status::OK();
  }

  /// Closed loop: each connection keeps `window` requests in flight until
  /// `seconds` pass or `max_requests` were sent; then drains. `rates` gets
  /// the completions per second of each block of completions inside
  /// [start + warmup, end] (see BlockRates).
  Status RunClosed(size_t window, double seconds, uint64_t max_requests,
                   double warmup_s, std::vector<double>* rates) {
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    const int64_t measure_from = start + static_cast<int64_t>(warmup_s * 1e9);
    const uint64_t limit = std::min<uint64_t>(
        max_requests, slots_->size() - next_id() - 1);
    uint64_t sent = 0;
    const uint64_t done_before = completed_;
    for (size_t c = 0; c < conns_.size(); ++c) {
      for (size_t w = 0; w < window && sent < limit; ++w, ++sent) {
        Send(c, NowNs());
      }
    }
    std::vector<int64_t> done_ns;
    auto refill = [&](size_t conn, const Slot& slot) {
      if (slot.end_ns >= measure_from && slot.end_ns < end) {
        done_ns.push_back(slot.end_ns);
      }
      if (slot.end_ns < end && sent < limit) {
        Send(conn, NowNs());
        ++sent;
      }
    };
    while (!failed_ && completed_ - done_before < sent) {
      Poll(10'000'000, refill);
    }
    if (failed_) return Status::IoError(failure_);
    rates->clear();
    if (sent < limit) {  // a count-limited phase (cache warm-up) has none
      const size_t cycle =
          inputs_->items.size() * (delta_ ? kDeltasPerItem + 1 : 1);
      *rates = BlockRates(std::move(done_ns), cycle);
    }
    return Status::OK();
  }

  uint32_t next_id() const { return next_id_; }
  uint64_t in_flight() const { return next_id_ - 1 - completed_; }

 private:
  struct Conn {
    serve::FrameClient client;
    serve::FrameReader reader;
    std::string buffer;
  };

  void Send(size_t conn, int64_t start_ns) {
    const uint32_t id = next_id_++;
    Slot& slot = (*slots_)[id];
    slot.start_ns = start_ns;
    slot.step = next_step_;
    const Step step = StepAt(next_step_++, inputs_->items.size(), delta_);
    Conn& c = conns_[conn];
    c.buffer = FrameAt(*inputs_, step);
    PatchRequestId(&c.buffer, id);
    Status st = c.client.SendRaw(c.buffer);
    if (!st.ok()) Fail("send: " + st.ToString());
  }

  /// One epoll round (waits at most `timeout_ns`): reads every ready
  /// connection and records each complete response; `on_response` (closed
  /// loop) may send more.
  template <typename OnResponse>
  void Poll(int64_t timeout_ns, OnResponse on_response) {
    epoll_event events[16];
    const timespec timeout{static_cast<time_t>(timeout_ns / 1'000'000'000),
                           static_cast<long>(timeout_ns % 1'000'000'000)};
    const int n = ::epoll_pwait2(epoll_fd_, events, 16, &timeout, nullptr);
    if (n < 0 && errno != EINTR) Fail("epoll_wait failed");
    char buf[64 * 1024];
    for (int e = 0; e < n; ++e) {
      const size_t ci = events[e].data.u64;
      Conn& c = conns_[ci];
      const ssize_t got = ::recv(c.client.raw_fd(), buf, sizeof(buf), 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) {
        Fail("server closed a connection");
        return;
      }
      c.reader.Feed(std::string_view(buf, static_cast<size_t>(got)));
      while (true) {
        auto message = c.reader.Next();
        if (!message.ok()) {
          if (message.status().code() != StatusCode::kNotFound) {
            Fail("framing error: " + message.status().ToString());
          }
          break;
        }
        const uint32_t id = message->request_id;
        if (id == 0 || id >= next_id()) {
          Fail("response for an unknown request id");
          return;
        }
        Slot& slot = (*slots_)[id];
        RecordResponse(*message, &slot);
        tracer_->Record("serve.request", slot.start_ns, slot.end_ns, 0, id);
        ++completed_;
        if constexpr (!std::is_same_v<OnResponse, std::nullptr_t>) {
          on_response(ci, slot);
        }
      }
    }
  }

  void Fail(std::string message) {
    if (!failed_) failure_ = std::move(message);
    failed_ = true;
  }

  const Inputs* inputs_;
  bool delta_;
  std::vector<Slot>* slots_;
  Tracer* tracer_;
  int epoll_fd_ = -1;
  std::vector<Conn> conns_;
  uint32_t next_id_ = 1;
  uint64_t next_step_ = 0;
  uint64_t completed_ = 0;
  bool failed_ = false;
  std::string failure_;
};

/// Open-loop latency (ms, from due time) of the requests sent in
/// [first, last) past the warm-up, per kLatencyWindowNs window of due
/// times. A failed or missing response counts as infinite.
struct WindowedLatency {
  std::vector<double> p50_ms, p99_ms;  // one entry per full window
  size_t samples = 0;
  size_t samples_per_window = 0;
};

WindowedLatency LatencyWindows(const std::vector<Slot>& slots, uint32_t first,
                               uint32_t last) {
  WindowedLatency out;
  const uint32_t skip =
      static_cast<uint32_t>(kWarmupShare * static_cast<double>(last - first));
  if (first + skip >= last) return out;
  const int64_t origin = slots[first + skip].start_ns;
  std::vector<std::vector<double>> windows;
  for (uint32_t id = first + skip; id < last; ++id) {
    const Slot& s = slots[id];
    const size_t w = static_cast<size_t>((s.start_ns - origin) /
                                         kLatencyWindowNs);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(s.end_ns == 0 || s.type != serve::MessageType::kOk
                             ? INFINITY
                             : static_cast<double>(s.end_ns - s.start_ns) *
                                   1e-6);
  }
  // The last window is partial unless the phase ended on a boundary.
  if (windows.size() > 1 && windows.back().size() < windows.front().size()) {
    windows.pop_back();
  }
  for (const std::vector<double>& w : windows) {
    out.p50_ms.push_back(Quantile(w, 0.50));
    out.p99_ms.push_back(Quantile(w, 0.99));
    out.samples += w.size();
  }
  out.samples_per_window = windows.empty() ? 0 : windows.front().size();
  return out;
}

// --- set-up ---------------------------------------------------------------

struct Setup {
  std::unique_ptr<core::Cats> cats;
  std::string model_dir;
  std::unique_ptr<serve::ServeLoop> loop;
  std::unique_ptr<serve::TcpServer> server;
  std::vector<collect::CollectedItem> served_items;
  double semantic_s = 0, generate_s = 0, train_s = 0, total_s = 0;

  ~Setup() {
    if (server) server->Stop();
    if (loop) loop->Stop(serve::StopMode::kDrain);
  }
};

std::unique_ptr<Setup> SetUp(const Args& args, const Sizes& sizes, int rep) {
  auto s = std::make_unique<Setup>();
  const int64_t start = NowNs();
  s->cats = std::make_unique<core::Cats>();
  s->cats->SetSemanticModel(std::move(*BuildSemanticModel(args.seed, sizes)));
  s->semantic_s = SecondsSince(start);

  const int64_t generate_start = NowNs();
  platform::Marketplace training = platform::Marketplace::Generate(
      TrainingConfig(args.seed, sizes), &Language());
  platform::MarketplaceConfig served_config =
      platform::TaobaoD0Config(sizes.serve_scale);
  served_config.seed = DeriveSeed(args.seed, "served-market");
  platform::Marketplace served =
      platform::Marketplace::Generate(served_config, &Language());
  s->generate_s = SecondsSince(generate_start);

  LabeledItems labeled = CrawlClean(training);
  const double fit_before = GbdtFitSeconds();
  CATS_CHECK(s->cats->TrainDetector(labeled.items, labeled.labels).ok());
  s->train_s = GbdtFitSeconds() - fit_before;
  s->model_dir = args.work_dir + "/model-" + std::to_string(rep);
  std::filesystem::remove_all(s->model_dir);
  std::filesystem::create_directories(s->model_dir);
  CATS_CHECK(s->cats->SaveModel(s->model_dir).ok());
  s->served_items = CrawlClean(served).items;

  std::vector<collect::CollectedItem> probe(
      labeled.items.begin(),
      labeled.items.begin() + std::min<size_t>(32, labeled.items.size()));
  s->loop = std::make_unique<serve::ServeLoop>(serve::ServeOptions{});
  CATS_CHECK(s->loop->Start(s->model_dir, std::move(probe)).ok());
  serve::TcpServerOptions server_options;
  server_options.max_connections = Connections() + 4;
  s->server = std::make_unique<serve::TcpServer>(s->loop.get(),
                                                 server_options);
  CATS_CHECK(s->server->Start().ok());
  s->total_s = SecondsSince(start);
  return s;
}

// --- checks -----------------------------------------------------------------

/// Counts of the output check over every request of a run.
struct CheckCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t overloaded = 0;
  uint64_t errors = 0;
  uint64_t not_found = 0;
  uint64_t missing = 0;
  uint64_t mismatches = 0;
};

/// Checks every response in [1, last_id) against a Detector loaded from the
/// served model directory. It replays the server's item cache in request
/// order (requests for one item are never in flight together): a kOk full
/// score_item resets the item to its crawled comments, a kOk delta appends
/// its comments unless they are already there, and a refused request
/// changes nothing. Each kOk response must carry exactly the offline score
/// of the item as the cache held it.
CheckCounts CheckResponses(const Inputs& in, bool delta,
                           const std::vector<Slot>& slots, uint32_t last_id,
                           const std::string& model_dir, RunResult* result) {
  CheckCounts c;
  core::Cats reference;
  Status st = reference.LoadModel(model_dir);
  if (!st.ok()) {
    result->Fail("loading the reference model: " + st.ToString());
    return c;
  }
  const core::Detector& detector = reference.detector();
  const core::FeatureExtractor serial(&detector.extractor().model(),
                                      core::FeatureExtractorOptions{
                                          .num_threads = 1});
  // Applied deltas per item since its last reset, in order (one char each).
  std::vector<std::string> applied(in.items.size());
  // Offline verdict per (item, applied deltas): nullopt = not classified.
  std::map<std::pair<uint32_t, std::string>, std::optional<double>> offline;
  for (uint32_t id = 1; id < last_id; ++id) {
    const Slot& s = slots[id];
    ++c.attempted;
    if (s.end_ns == 0) {
      ++c.missing;
      continue;
    }
    if (s.type == serve::MessageType::kOverloaded) {
      ++c.overloaded;
      continue;
    }
    if (s.type != serve::MessageType::kOk) {
      ++c.errors;
      if (s.not_found) ++c.not_found;
      continue;
    }
    const Step step = StepAt(s.step, in.items.size(), delta);
    std::string& deltas = applied[step.item];
    if (step.state == 0) {
      deltas.clear();
    } else if (deltas.find(static_cast<char>(step.state)) ==
               std::string::npos) {
      deltas.push_back(static_cast<char>(step.state));
    }
    auto [it, inserted] = offline.try_emplace({step.item, deltas});
    if (inserted) {
      const std::vector<collect::CollectedItem> one{
          ItemWithDeltas(in, step.item, deltas)};
      core::StagedBatch staged =
          detector.StageForScoring(one, nullptr, &serial);
      if (!staged.pending.empty()) {
        core::FeatureVector row;
        std::copy_n(staged.rows.begin(), row.size(), row.begin());
        auto score = detector.ScoreFeatures({row});
        if (score.ok()) it->second = score->front();
      }
    }
    if (it->second.has_value() != s.has_score ||
        (s.has_score && *it->second != s.score)) {
      ++c.mismatches;
    }
  }
  c.failed = c.missing + c.overloaded + c.errors + c.mismatches;
  if (c.missing > 0) result->Fail("requests without a response");
  if (c.mismatches > 0) {
    result->Fail("served scores differ from the offline Detector (" +
                 std::to_string(c.mismatches) + " responses)");
  }
  return c;
}

// --- per-layer microbenchmarks -----------------------------------------------

/// Up to `limit` schedule positions of the steady mix (after the warm-up).
std::vector<Step> MixSample(size_t num_items, bool delta, size_t limit) {
  std::vector<Step> out;
  const uint64_t cycle = num_items * (delta ? kDeltasPerItem + 1 : 1);
  const uint64_t n = std::min<uint64_t>(limit, cycle);
  // Stride through one full cycle so every state is represented.
  for (uint64_t i = 0; i < n; ++i) {
    out.push_back(StepAt(num_items + i * cycle / n, num_items, delta));
  }
  return out;
}

/// FrameReader::Next (which parses the JSON payload) plus the record
/// decode the server runs on it, per request, in microseconds.
double CodecMicros(const Inputs& in, const std::vector<Step>& mix) {
  std::string wire;
  for (const Step& s : mix) wire += FrameAt(in, s);
  serve::FrameReader reader;
  size_t decoded = 0;
  const int64_t start = NowNs();
  reader.Feed(wire);
  while (true) {
    auto message = reader.Next();
    if (!message.ok()) break;
    if (message->type == serve::MessageType::kScoreItem) {
      decoded += serve::CollectedItemFromJson(message->payload).ok();
    } else if (const JsonValue* comments = message->payload.Get("comments")) {
      for (size_t i = 0; i < comments->size(); ++i) {
        decoded += collect::ParseCommentRecord(comments->at(i)).ok();
      }
    }
  }
  const double us = static_cast<double>(NowNs() - start) * 1e-3;
  CATS_CHECK(decoded > 0);
  return us / static_cast<double>(mix.size());
}

}  // namespace

RunResult RunServe(const Args& args, Tracer* tracer, bool delta) {
  RunResult result;
  const Sizes sizes = SizesFor(args.tiny);
  std::filesystem::create_directories(args.work_dir);

  std::vector<double> setup_s, semantic_s, generate_s, train_s;
  std::unique_ptr<Setup> setup;
  for (int rep = 0; rep < sizes.setup_reps; ++rep) {
    setup.reset();
    setup = SetUp(args, sizes, rep);
    setup_s.push_back(setup->total_s);
    semantic_s.push_back(setup->semantic_s);
    generate_s.push_back(setup->generate_s);
    train_s.push_back(setup->train_s);
  }
  const Inputs inputs =
      BuildInputs(std::move(setup->served_items), args.seed, delta);
  const size_t num_items = inputs.items.size();
  CATS_CHECK(num_items <= serve::ServeOptions{}.item_cache_capacity);
  CATS_CHECK(kMaxOpenInFlight < serve::ServeOptions{}.queue_capacity &&
             kMaxOpenInFlight < num_items);

  const double open_s = args.seconds * 0.3;
  const double closed_s = args.seconds * 0.6;
  const double rate = args.tiny ? 500.0 : kOpenLoopRate;
  // Closed-loop phases stop sending when the table is full, so the cap
  // only bounds memory; capacity stays measured over the requests sent.
  std::vector<Slot> slots(static_cast<size_t>(
      rate * open_s * 1.1 + static_cast<double>(num_items) +
      40000.0 * args.seconds + 16));
  LoadClient client(&inputs, delta, &slots, tracer);
  Status st = client.Connect(setup->server->port(), Connections());
  if (!st.ok()) {
    result.Fail("connect: " + st.ToString());
    return result;
  }
  std::vector<double> rates;
  if (delta) {
    // Warm the item cache: one score_item per item, closed loop.
    st = client.RunClosed(kWindowPerConnection, 60.0, num_items, 0.0, &rates);
  }

  // Registry and CPU baselines for the per-layer deltas.
  const uint64_t received0 = CounterValue(obs::kServeRequestsReceivedTotal);
  const uint64_t wakeups0 = CounterValue(obs::kServeTcpLoopWakeupsTotal);
  const uint64_t partials0 = CounterValue(obs::kServeTcpWritevPartialsTotal);
  const uint64_t pop_stall0 =
      CounterValue(obs::kServeAdmissionPopStallMicrosTotal);
  const uint64_t push_stall0 =
      CounterValue(obs::kServeAdmissionPushStallMicrosTotal);
  const HistTotals batch0 = HistogramTotals(obs::kServeBatchRequests);
  const double cpu0 = CpuSeconds();

  // Open loop, then closed loop. On serve_delta the hot swap fires halfway
  // through the open loop: at that rate the requests a swapping worker
  // holds back are fewer than the items, so no item gets two deltas in
  // flight at once and every response has one expected state.
  std::vector<int64_t> late_ns;
  double swap_ms = 0;
  bool swap_ok = !delta;
  std::function<void()> swap;
  if (delta) {
    swap = [&] {
      serve::FrameClient swap_client;
      const int64_t t0 = NowNs();
      if (!swap_client.Connect("127.0.0.1", setup->server->port()).ok()) return;
      auto response = swap_client.Call(
          serve::MakeSwapModelRequest(0x7fffffffu, setup->model_dir));
      swap_ms = SecondsSince(t0) * 1e3;
      swap_ok = response.ok() && response->type == serve::MessageType::kOk;
    };
  }
  const uint32_t open_first = client.next_id();
  if (st.ok()) st = client.RunOpen(rate, open_s, &late_ns, swap);
  const uint32_t open_last = client.next_id();

  if (st.ok()) {
    st = client.RunClosed(kWindowPerConnection, closed_s, UINT64_MAX,
                          closed_s * kWarmupShare, &rates);
  }
  if (!st.ok()) result.Fail("load generator: " + st.ToString());
  if (rates.empty()) result.Fail("capacity phase filled the request table");
  if (!swap_ok) result.Fail("hot swap under load failed");
  const double cpu1 = CpuSeconds();
  const uint64_t received1 = CounterValue(obs::kServeRequestsReceivedTotal);

  const WindowedLatency latency = LatencyWindows(slots, open_first, open_last);
  const double capacity = Quantile(rates, kRateQuantile);
  std::vector<double> late_ms;
  for (int64_t ns : late_ns) late_ms.push_back(static_cast<double>(ns) * 1e-6);

  result.Add("setup_s", Median(setup_s), "s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.Add("items_per_s", capacity, "items/s");
  result.Add("capacity_qps", capacity, "req/s");
  result.Add("capacity_qps_median", Median(rates), "req/s");
  result.Add("p50_ms", Median(latency.p50_ms), "ms");
  result.Add("p99_ms", Median(latency.p99_ms), "ms");
  result.Add("setup.semantic_model_s", Median(semantic_s), "s");
  result.Add("setup.generate_s", Median(generate_s), "s");
  result.Add("setup.train_s", Median(train_s), "s");
  result.Add("loadgen.late_p99_ms", Quantile(late_ms, 0.99), "ms");
  result.Add("loadgen.late_max_ms", MaxOf(late_ms), "ms");
  result.Add("loadgen.samples", static_cast<double>(latency.samples),
             "count");

  JsonValue& details = result.details;
  details.Set("served_items", JsonValue::Int(static_cast<int64_t>(num_items)));
  details.Set("connections",
              JsonValue::Int(static_cast<int64_t>(Connections())));
  details.Set("open_loop_rate", JsonValue::Number(rate));
  details.Set("latency_windows", JsonValue::Int(static_cast<int64_t>(
                                     latency.p99_ms.size())));
  details.Set("p50_samples", JsonValue::Int(static_cast<int64_t>(
                                 latency.samples_per_window)));
  details.Set("p99_samples_beyond",
              JsonValue::Int(static_cast<int64_t>(
                  latency.samples_per_window / 100)));
  details.Set("latency_note",
              JsonValue::String("p50_ms/p99_ms: median over 1 s windows of "
                                "each window's percentile; samples are per "
                                "window"));
  details.Set("closed_window_per_connection",
              JsonValue::Int(static_cast<int64_t>(kWindowPerConnection)));
  details.Set("capacity_blocks",
              JsonValue::Int(static_cast<int64_t>(rates.size())));
  JsonValue block_rates = JsonValue::Array();
  for (double r : rates) block_rates.Append(JsonValue::Number(r));
  details.Set("capacity_block_rates", std::move(block_rates));

  if (tracer->enabled()) {
    const uint64_t requests = received1 - received0;
    const HistTotals batch1 = HistogramTotals(obs::kServeBatchRequests);
    const double batch_mean =
        batch1.count == batch0.count
            ? 1.0
            : (batch1.sum - batch0.sum) /
                  static_cast<double>(batch1.count - batch0.count);
    const double cpu_us_per_req =
        (cpu1 - cpu0) * 1e6 / static_cast<double>(requests);
    result.Add("serve.batch_requests_mean", batch_mean, "requests");
    result.Add("serve.admission_pop_stall_s",
               static_cast<double>(
                   CounterValue(obs::kServeAdmissionPopStallMicrosTotal) -
                   pop_stall0) *
                   1e-6,
               "s");
    result.Add("serve.admission_push_stall_s",
               static_cast<double>(
                   CounterValue(obs::kServeAdmissionPushStallMicrosTotal) -
                   push_stall0) *
                   1e-6,
               "s");
    result.Add("serve.tcp.loop_wakeups_per_req",
               static_cast<double>(
                   CounterValue(obs::kServeTcpLoopWakeupsTotal) - wakeups0) /
                   static_cast<double>(requests),
               "ratio");
    result.Add("serve.tcp.writev_partials",
               static_cast<double>(
                   CounterValue(obs::kServeTcpWritevPartialsTotal) -
                   partials0),
               "count");
    result.Add("process.cpu_us_per_req", cpu_us_per_req, "us");

    // Tracing overhead: the same closed loop with the span recorder off.
    tracer->set_enabled(false);
    std::vector<double> untraced_rates;
    st = client.RunClosed(kWindowPerConnection, closed_s * 0.25, UINT64_MAX,
                          closed_s * 0.25 * kWarmupShare, &untraced_rates);
    tracer->set_enabled(true);
    if (!st.ok()) result.Fail("load generator: " + st.ToString());
    result.Add("trace.overhead_ratio",
               Quantile(untraced_rates, kRateQuantile) / capacity, "ratio");

    // The same open-loop schedule straight into ServeLoop::Submit.
    std::vector<serve::Message> messages;
    std::vector<uint64_t> message_steps;
    {
      serve::FrameReader reader;
      for (const Step& s : MixSample(num_items, delta, 4000)) {
        reader.Feed(FrameAt(inputs, s));
        auto m = reader.Next();
        CATS_CHECK(m.ok());
        messages.push_back(std::move(m).value());
      }
    }
    const int64_t interval_ns = static_cast<int64_t>(1e9 / rate);
    const size_t total = static_cast<size_t>(rate * args.seconds * 0.2);
    std::vector<int64_t> loop_due(total), loop_done(total, 0);
    std::atomic<size_t> loop_completed{0};
    const int64_t loop_start = NowNs() + 1'000'000;
    for (size_t i = 0; i < total; ++i) {
      const int64_t due = loop_start + static_cast<int64_t>(i) * interval_ns;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      loop_due[i] = due;
      serve::Message m = messages[i % messages.size()];
      m.request_id = static_cast<uint32_t>(i + 1);
      setup->loop->Submit(std::move(m), [&, i](serve::Message response) {
        loop_done[i] =
            response.type == serve::MessageType::kOk ? NowNs() : -1;
        loop_completed.fetch_add(1, std::memory_order_release);
      });
    }
    while (loop_completed.load(std::memory_order_acquire) < total) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::vector<double> loop_ms;
    for (size_t i = static_cast<size_t>(kWarmupShare * total); i < total;
         ++i) {
      loop_ms.push_back(loop_done[i] < 0
                            ? INFINITY
                            : static_cast<double>(loop_done[i] - loop_due[i]) *
                                  1e-6);
    }
    result.Add("serve.loop_p50_ms", Quantile(loop_ms, 0.50), "ms");
    result.Add("serve.loop_p99_ms", Quantile(loop_ms, 0.99), "ms");

    // Per-request layer costs on the workload's own frames.
    const std::vector<Step> mix = MixSample(num_items, delta, 2000);
    const double codec_us = CodecMicros(inputs, mix);
    core::Cats reference;
    CATS_CHECK(reference.LoadModel(setup->model_dir).ok());
    const core::Detector& detector = reference.detector();
    core::FeatureExtractor serial(&detector.extractor().model(),
                                  core::FeatureExtractorOptions{
                                      .num_threads = 1});
    std::vector<core::FeatureVector> rows;
    double stage_ns = 0;
    for (const Step& s : mix) {
      const std::vector<collect::CollectedItem> one{ItemInState(inputs, s)};
      const int64_t t0 = NowNs();
      core::StagedBatch staged =
          detector.StageForScoring(one, nullptr, &serial);
      stage_ns += static_cast<double>(NowNs() - t0);
      if (!staged.pending.empty()) {
        core::FeatureVector row;
        std::copy_n(staged.rows.begin(), row.size(), row.begin());
        rows.push_back(row);
      }
    }
    const double stage_us = stage_ns * 1e-3 / static_cast<double>(mix.size());
    CATS_CHECK(!rows.empty());
    const size_t batch = std::max<size_t>(1, std::lround(batch_mean));
    std::vector<core::FeatureVector> batch_rows(batch);
    std::vector<double> batch_scores;
    double predict_ns = 0;
    const size_t calls = 1000;
    for (size_t c = 0; c < calls; ++c) {
      for (size_t b = 0; b < batch; ++b) {
        batch_rows[b] = rows[(c * batch + b) % rows.size()];
      }
      const int64_t t0 = NowNs();
      auto scores = detector.ScoreFeatures(batch_rows);
      predict_ns += static_cast<double>(NowNs() - t0);
      if (c == 0 && scores.ok()) batch_scores = *scores;
    }
    const double predict_us = predict_ns * 1e-3 / static_cast<double>(calls);
    drift::DriftDetector drift_detector{drift::DriftDetectorOptions{}};
    {
      auto reference_scores = detector.ScoreFeatures(rows);
      CATS_CHECK(reference_scores.ok());
      drift_detector.SetReference(*reference_scores);
    }
    const int64_t d0 = NowNs();
    for (size_t c = 0; c < calls; ++c) drift_detector.ObserveBatch(batch_scores);
    const double drift_us =
        static_cast<double>(NowNs() - d0) * 1e-3 / static_cast<double>(calls);
    result.Add("serve.codec_us", codec_us, "us");
    result.Add("core.stage_us", stage_us, "us");
    result.Add("ml.predict_us", predict_us, "us");
    result.Add("drift.observe_us", drift_us, "us");
    result.Add("serve.unattributed_us",
               cpu_us_per_req - codec_us - stage_us -
                   (predict_us + drift_us) / static_cast<double>(batch),
               "us");
    details.Set("predict_batch_size",
                JsonValue::Int(static_cast<int64_t>(batch)));
  }

  // Output checks over every request of the run.
  const CheckCounts counts = CheckResponses(
      inputs, delta, slots, client.next_id(), setup->model_dir, &result);
  result.attempted += counts.attempted;
  result.failed += counts.failed;
  details.Set("overloaded", JsonValue::Int(static_cast<int64_t>(
                                counts.overloaded)));
  details.Set("errors", JsonValue::Int(static_cast<int64_t>(counts.errors)));
  details.Set("mismatches", JsonValue::Int(static_cast<int64_t>(
                                counts.mismatches)));
  if (tracer->enabled() && delta) {
    result.Add("gateway.swap_ms", swap_ms, "ms");
    result.Add("serve.delta_not_found", static_cast<double>(counts.not_found),
               "count");
  }
  setup.reset();
  std::filesystem::remove_all(args.work_dir);
  return result;
}

}  // namespace perfbench
