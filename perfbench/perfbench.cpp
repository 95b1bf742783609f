// perfbench.cpp — the tsdx benchmark: three fixed workloads against the
// public APIs of serve::Router, plan::PlanExecutor and
// index::IvfIndex / IndexIngestor.
//
//   stream_light   open loop: Poisson clip arrivals at a fixed 150 clips/s
//                  through the Router, completions streamed into an IVF
//                  index preloaded with 200k descriptions, Poisson searches
//                  at 50/s beside them.
//   burst_closed   closed loop: one thread keeps 32 requests in flight
//                  through the same Router. No index.
//   offline_batch  one caller runs PlanExecutor::extract_batch on batch-8
//                  tensors over a 2048-clip corpus, par threads = nproc.
//
// Usage: tsdx_perfbench --workload W --seed N --seconds S --trace 0|1
//                       [--out DIR]
//
// Every input (clip pool / corpus, Poisson schedules, clip picks, preloaded
// descriptions, queries) is drawn from --seed. Every output is checked: a
// served or offline result must be bit-identical to the dynamic
// ScenarioExtractor::extract_batch on the same clip, and every search hit
// must pass its predicates and come back in (score desc, id asc) order.
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. A traced run measures an untraced phase and then a traced one,
// each half of --seconds, on the same set-up; it records benchmark-side
// spans around each layer call, prints per-layer count / total / self time,
// and writes the spans and the registry snapshot under --out. NOTES.md maps each layer metric to the
// end-to-end metric it should move.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/extractor.hpp"
#include "harness.hpp"
#include "index/flat.hpp"
#include "index/ingest.hpp"
#include "index/ivf.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "plan/executor.hpp"
#include "serve/router.hpp"
#include "serve/thread_pool.hpp"
#include "sim/clipgen.hpp"
#include "sim/world.hpp"
#include "tensor/kernels/parallel_for.hpp"
#include "tensor/rng.hpp"

extern char** environ;

namespace {

using namespace tsdx;
using namespace perfbench;
namespace ix = tsdx::index;  // POSIX ::index() shadows the namespace
using namespace std::chrono_literals;

// ---- fixed workload parameters ----------------------------------------------------
// Rates and sizes are absolute: nothing is calibrated from measured capacity,
// so a faster program meets the same load and its gain shows.

constexpr std::int64_t kImage = 32;
constexpr std::int64_t kFrames = 8;
constexpr std::uint64_t kModelSeed = 7;  // the model is the program, not input

constexpr std::size_t kReplicas = 2;
constexpr std::size_t kWorkers = 2;

constexpr std::size_t kPoolClips = 256;
constexpr double kStreamClipRate = 150.0;   // clips/s
constexpr double kStreamSearchRate = 50.0;  // searches/s
constexpr std::size_t kPreloadDocs = 200'000;
constexpr std::size_t kRecallQueries = 100;
constexpr std::size_t kBurstInFlight = 32;
constexpr std::size_t kCorpusClips = 2048;
constexpr std::size_t kOfflineBatch = 8;

/// Latency limit of goodput_share, per workload: about 2.5x the p99
/// measured when the limits were set (stream_light from the due time,
/// burst_closed per request, offline_batch per batch call).
constexpr double kStreamLimitMs = 25.0;
constexpr double kBurstLimitMs = 125.0;
constexpr double kOfflineLimitMs = 65.0;

/// Set-ups per untraced run; setup_s reports their median.
constexpr std::size_t kSetupRepeats = 3;
/// Longest a single waiter sleeps on the oldest future before rescanning
/// the others, i.e. the bound on how late an out-of-order completion is seen.
constexpr auto kPollSlice = 200us;
/// A second of the timed phase in which the hypervisor gave more than this
/// share of the guest's vCPU time to other guests (/proc/stat steal) is
/// "disturbed": its completions are left out of throughput_cps, p50_ms and
/// p99_ms, because they measure the neighbours rather than the program.
/// Sampled every kStealSample.
constexpr double kStealLimit = 0.02;
constexpr auto kStealSample = 100ms;

constexpr std::size_t kWarmupCycles = 2;
constexpr auto kWarmupLimit = 60s;

enum class Workload { kStreamLight, kBurstClosed, kOfflineBatch };

struct Args {
  Workload workload = Workload::kStreamLight;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = "perfbench-out";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "tsdx_perfbench: %s\nusage: tsdx_perfbench --workload "
               "stream_light|burst_closed|offline_batch --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload_name = value;
      if (value == "stream_light") {
        a.workload = Workload::kStreamLight;
      } else if (value == "burst_closed") {
        a.workload = Workload::kBurstClosed;
      } else if (value == "offline_batch") {
        a.workload = Workload::kOfflineBatch;
      } else {
        usage(("unknown workload " + value).c_str());
      }
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = a.seconds > 0.0;
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--out") {
      a.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    usage("--workload, --seed and a positive --seconds are required");
  }
  return a;
}

/// Each of these changes the program under test (thread count, tracing,
/// lock validation, SLO engine, anomaly dumps), so the benchmark refuses
/// to run under them rather than measure a different program.
void refuse_pinned_env() {
  static const char* const kPinned[] = {"TSDX_NUM_THREADS", "TSDX_TRACE",
                                        "TSDX_LOCK_ORDER",
                                        "TSDX_OBS_DUMP_DIR"};
  std::vector<std::string> set;
  for (const char* name : kPinned) {
    if (std::getenv(name) != nullptr) set.emplace_back(name);
  }
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "TSDX_SLO_", 9) == 0) {
      set.emplace_back(std::string(*e).substr(0, std::strcspn(*e, "=")));
    }
  }
  if (set.empty()) return;
  for (const std::string& name : set) {
    std::fprintf(stderr, "tsdx_perfbench: refusing to run with %s set\n",
                 name.c_str());
  }
  std::exit(3);
}

/// A traced run splits --seconds between its untraced and traced phases, so
/// every run measures for --seconds in total.
double phase_seconds(const Args& args) {
  return args.trace ? args.seconds / 2.0 : args.seconds;
}

core::ModelConfig model_config() {
  core::ModelConfig cfg;
  cfg.frames = kFrames;
  cfg.image_size = kImage;
  cfg.patch_size = 8;
  cfg.tubelet_frames = 1;
  cfg.dim = 48;
  cfg.depth = 4;
  cfg.heads = 4;
  cfg.mlp_ratio = 2;
  cfg.attention = core::AttentionKind::kDividedST;
  return cfg;
}

std::shared_ptr<core::ScenarioExtractor> make_extractor() {
  auto extractor =
      std::make_shared<core::ScenarioExtractor>(model_config(), kModelSeed);
  extractor->freeze();
  return extractor;
}

/// Stack clips into one [B, T, C, H, W] batch, as a server worker does.
data::Batch stack(const std::vector<const sim::VideoClip*>& clips) {
  const sim::VideoClip& head = *clips.front();
  std::vector<float> data;
  data.reserve(head.data.size() * clips.size());
  for (const sim::VideoClip* c : clips) {
    data.insert(data.end(), c->data.begin(), c->data.end());
  }
  data::Batch batch;
  batch.video = nn::Tensor::from_vector(
      {static_cast<std::int64_t>(clips.size()), head.frames, sim::kNumChannels,
       head.height, head.width},
      std::move(data));
  return batch;
}

// ---- inputs (all from --seed) --------------------------------------------------------

/// Seed streams: one Rng per kind of input, so adding draws to one kind
/// never shifts another.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t kind) {
  return seed * 0x9e3779b97f4a7c15ull + kind * 0xbf58476d1ce4e5b9ull + 1;
}

/// A Poisson process at `rate` over [0, seconds), conditioned on its
/// expected count: that many sorted uniform arrival times. Offsets in
/// seconds from the phase start.
std::vector<double> poisson_schedule(tensor::Rng& rng, double rate,
                                     double seconds) {
  const auto n = static_cast<std::size_t>(rate * seconds + 0.5);
  std::vector<double> due(n);
  for (double& t : due) t = rng.uniform() * seconds;
  std::sort(due.begin(), due.end());
  return due;
}

std::vector<ix::StructuredQuery> make_queries(tensor::Rng& rng,
                                              std::size_t n) {
  std::vector<ix::StructuredQuery> queries(n);
  for (ix::StructuredQuery& q : queries) {
    q.like = sim::sample_description(rng);
    // 0-2 predicates on distinct slots, each admitting the `like`
    // description's own class, so every query has matches.
    const ix::PackedLabels labels = ix::pack_labels(q.like);
    const std::size_t npred = rng.next_u64() % 3;
    std::size_t used = 0;
    for (std::size_t p = 0; p < npred; ++p) {
      std::size_t slot = rng.next_u64() % sdl::kNumSlots;
      while ((used >> slot) & 1u) slot = (slot + 1) % sdl::kNumSlots;
      used |= std::size_t{1} << slot;
      q.predicates.push_back(ix::SlotPredicate::equals(
          static_cast<sdl::Slot>(slot), labels[slot]));
    }
    q.k = 10;
  }
  return queries;
}

/// One timed phase's schedule (open loop) or pick sequence (closed loop).
struct PhaseInputs {
  std::vector<double> clip_due;     // stream_light
  std::vector<std::uint32_t> picks;  // clip index per request
  std::vector<double> search_due;   // stream_light
  std::vector<ix::StructuredQuery> queries;
};

struct Inputs {
  std::vector<sim::VideoClip> pool;  // serving workloads
  std::vector<data::Batch> corpus;   // offline_batch: batch-8 tensors
  std::vector<std::pair<ix::DocId, sdl::ScenarioDescription>> preload;
  std::vector<ix::PackedLabels> preload_labels;
  std::vector<ix::StructuredQuery> recall_queries;
  std::vector<PhaseInputs> phases;
};

/// Render `count` groups of `group` clips on kRenderStreams threads and
/// hand each group to `keep(index, clips)`. Stream s renders groups s,
/// s + kRenderStreams, ... from its own generator, so the clips depend on
/// the seed alone, never on thread count or timing.
constexpr std::size_t kRenderStreams = 8;

template <typename Keep>
void render_groups(std::uint64_t seed, std::size_t count, std::size_t group,
                   const Keep& keep) {
  sim::RenderConfig render;
  render.height = render.width = kImage;
  render.frames = kFrames;
  serve::ThreadPool::run(kRenderStreams, [&](std::size_t s) {
    sim::ClipGenerator gen(render, stream_seed(seed, 100 + s));
    for (std::size_t i = s; i < count; i += kRenderStreams) {
      std::vector<sim::VideoClip> clips;
      for (std::size_t j = 0; j < group; ++j) {
        clips.push_back(gen.generate().video);
      }
      keep(i, std::move(clips));
    }
  });
}

Inputs make_inputs(const Args& args, std::size_t nphases) {
  Inputs in;
  if (args.workload == Workload::kOfflineBatch) {
    in.corpus.resize(kCorpusClips / kOfflineBatch);
    render_groups(args.seed, in.corpus.size(), kOfflineBatch,
                  [&](std::size_t i, std::vector<sim::VideoClip> clips) {
                    std::vector<const sim::VideoClip*> ptrs;
                    for (const sim::VideoClip& c : clips) ptrs.push_back(&c);
                    in.corpus[i] = stack(ptrs);
                  });
    return in;
  }
  in.pool.resize(kPoolClips);
  render_groups(args.seed, kPoolClips, 1,
                [&](std::size_t i, std::vector<sim::VideoClip> clips) {
                  in.pool[i] = std::move(clips.front());
                });
  tensor::Rng pick_rng(stream_seed(args.seed, 2));
  tensor::Rng arrival_rng(stream_seed(args.seed, 3));
  tensor::Rng query_rng(stream_seed(args.seed, 4));
  for (std::size_t p = 0; p < nphases; ++p) {
    PhaseInputs ph;
    if (args.workload == Workload::kStreamLight) {
      ph.clip_due = poisson_schedule(arrival_rng, kStreamClipRate,
                                     phase_seconds(args));
      ph.search_due = poisson_schedule(arrival_rng, kStreamSearchRate,
                                       phase_seconds(args));
      ph.queries = make_queries(query_rng, ph.search_due.size());
      ph.picks.resize(ph.clip_due.size());
    } else {
      // Closed loop: more picks than the phase can possibly consume.
      ph.picks.resize(
          static_cast<std::size_t>(phase_seconds(args) * 20000.0) + 64);
    }
    for (std::uint32_t& c : ph.picks) {
      c = static_cast<std::uint32_t>(pick_rng.next_u64() % kPoolClips);
    }
    in.phases.push_back(std::move(ph));
  }
  if (args.workload == Workload::kStreamLight) {
    tensor::Rng doc_rng(stream_seed(args.seed, 5));
    in.preload.reserve(kPreloadDocs);
    in.preload_labels.reserve(kPreloadDocs);
    for (std::size_t id = 0; id < kPreloadDocs; ++id) {
      in.preload.emplace_back(id, sim::sample_description(doc_rng));
      in.preload_labels.push_back(ix::pack_labels(in.preload.back().second));
    }
    in.recall_queries = make_queries(query_rng, kRecallQueries);
  }
  return in;
}

// ---- references (dynamic forward, outside set-up and timed phases) ------------------

struct References {
  std::vector<core::ExtractionResult> per_clip;                // pool
  std::vector<std::vector<core::ExtractionResult>> per_batch;  // corpus
  std::vector<double> call_ms;  // core.extract_batch_ms samples
};

/// Dynamic-forward calls timed one at a time, alone on the machine, for
/// core.extract_batch_ms; the rest of the references run nproc at a time
/// with one intra-op thread each, untimed.
constexpr std::size_t kTimedReferenceCalls = 32;

References make_references(const Inputs& in, std::size_t nproc) {
  References ref;
  const auto extractor = make_extractor();
  std::vector<data::Batch> batches;
  for (const sim::VideoClip& clip : in.pool) batches.push_back(stack({&clip}));
  const std::vector<data::Batch>& calls =
      in.corpus.empty() ? batches : in.corpus;
  std::vector<std::vector<core::ExtractionResult>> out(calls.size());
  const std::size_t timed = std::min(kTimedReferenceCalls, calls.size());
  for (std::size_t i = 0; i < timed; ++i) {
    const auto t0 = Clock::now();
    out[i] = extractor->extract_batch(calls[i]);
    ref.call_ms.push_back(ms_between(t0, Clock::now()));
  }
  par::set_threads(1);
  serve::ThreadPool::run(nproc, [&](std::size_t t) {
    for (std::size_t i = timed + t; i < calls.size(); i += nproc) {
      out[i] = extractor->extract_batch(calls[i]);
    }
  });
  par::set_threads(nproc);
  if (in.corpus.empty()) {
    for (auto& r : out) ref.per_clip.push_back(std::move(r.front()));
  } else {
    ref.per_batch = std::move(out);
  }
  return ref;
}

// ---- registry deltas -------------------------------------------------------------------

obs::Registry& registry() { return obs::Registry::global(); }

/// The program's registry series the per-layer metrics read, at one
/// instant. Histograms are read only once the program has registered them
/// (registering first would pin default bucket bounds on them).
struct RegSnap {
  std::uint64_t retries = 0, failovers = 0, shed = 0;
  std::uint64_t compiled = 0, fallbacks = 0;
  std::uint64_t gemm_flops = 0, gemm_calls = 0;
  std::uint64_t fanouts = 0, inline_fanouts = 0;
  double batch_sum = 0.0;
  std::uint64_t batch_count = 0;
  double scanned_sum = 0.0;
  std::uint64_t scanned_count = 0;
  double probe_sum = 0.0;
  std::uint64_t probe_count = 0;
};

RegSnap snapshot(bool serving, bool index) {
  obs::Registry& r = registry();
  RegSnap s;
  s.retries = r.counter("route.retries").value();
  s.failovers = r.counter("route.failovers").value();
  s.shed = r.counter("route.shed").value();
  s.compiled = r.counter("plan.compiled").value();
  s.fallbacks = r.counter("plan.fallbacks").value();
  s.gemm_flops = r.counter("gemm.flops").value();
  s.gemm_calls = r.counter("gemm.calls").value();
  s.fanouts = r.counter("par.fanouts").value();
  s.inline_fanouts = r.counter("par.inline_fanouts").value();
  if (serving) {
    const obs::Histogram& h = r.histogram("serve.batch_size");
    s.batch_sum = h.sum();
    s.batch_count = h.count();
  }
  if (index) {
    const obs::Histogram& scanned = r.histogram("index.scanned_rows");
    s.scanned_sum = scanned.sum();
    s.scanned_count = scanned.count();
    const obs::Histogram& probed = r.histogram("index.probe_lists");
    s.probe_sum = probed.sum();
    s.probe_count = probed.count();
  }
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- serving rig -------------------------------------------------------------------------

/// The ingest sink the Router's replicas call on completion. It mints
/// DocIds itself: each replica numbers CompletionInfo::sequence from 0, so
/// IndexIngestor::sink() would hand the index colliding ids (NOTES.md,
/// "Known defects"). It also times IndexIngestor::push for index.push_us
/// and keeps each ingested description for the output checks and recall.
class DocSink {
 public:
  DocSink(ix::IndexIngestor& ingestor, std::size_t capacity, SpanLog& spans)
      : ingestor_(ingestor), docs_(capacity), labels_(capacity),
        spans_(spans) {}
  DocSink(const DocSink&) = delete;  // the replicas' on_result holds its address
  DocSink& operator=(const DocSink&) = delete;

  void operator()(const serve::CompletionInfo& info) {
    if (!enabled_.load(std::memory_order_acquire)) return;
    const std::uint64_t slot = next_.fetch_add(1, std::memory_order_relaxed);
    if (slot >= docs_.size()) {
      overflow_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    docs_[slot] = info.result.description;
    labels_[slot] = ix::pack_labels(info.result.description);
    const ix::DocId id = kPreloadDocs + slot;
    const auto t0 = Clock::now();
    ingestor_.push(id, docs_[slot]);
    const auto t1 = Clock::now();
    push_us.add(ms_between(t0, t1) * 1000.0);
    spans_.record("index.push", id, t0, t1);
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  std::size_t ingested() const {
    return std::min<std::size_t>(next_.load(), docs_.size());
  }
  std::uint64_t overflow() const { return overflow_.load(); }
  const sdl::ScenarioDescription& doc(std::size_t slot) const {
    return docs_[slot];
  }
  const ix::PackedLabels& labels(std::size_t slot) const {
    return labels_[slot];
  }

  Samples push_us;

 private:
  ix::IndexIngestor& ingestor_;
  std::vector<sdl::ScenarioDescription> docs_;
  std::vector<ix::PackedLabels> labels_;
  SpanLog& spans_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> overflow_{0};
};

/// Everything set-up builds. Destroyed as a whole, in reverse member order:
/// the router stops before the ingestor flushes, which precedes the index.
struct Rig {
  std::unique_ptr<ix::IvfIndex> ivf;
  std::unique_ptr<ix::IndexIngestor> ingestor;
  std::unique_ptr<DocSink> sink;
  std::shared_ptr<core::ScenarioExtractor> extractor;
  std::unique_ptr<serve::Router> router;
  std::shared_ptr<plan::PlanCache> plan_cache;
  std::unique_ptr<plan::PlanExecutor> executor;
};

/// Send bursts of every size up to what fills every worker of every replica,
/// kWarmupCycles times over and then until each replica has compiled a plan
/// for every batch size (replicas x max_batch geometries), so no plan
/// compiles inside the timed phase. How batches split between workers is
/// up to the scheduler; the fixed cycles, which almost always suffice, keep
/// set-up time from depending on it. Returns false on timeout.
bool warm_router(serve::Router& router, const Inputs& in,
                 std::uint64_t seed) {
  obs::Counter& compiled = registry().counter("plan.compiled");
  const std::uint64_t base = compiled.value();
  const std::size_t max_batch = router.config().server.max_batch;
  const std::uint64_t want = router.replica_count() * max_batch;
  const std::size_t largest =
      router.replica_count() * router.config().server.workers * max_batch;
  tensor::Rng rng(stream_seed(seed, 6));
  const auto deadline = Clock::now() + kWarmupLimit;
  for (std::size_t round = 0;
       round < kWarmupCycles * largest || compiled.value() - base < want;
       ++round) {
    if (Clock::now() > deadline) return false;
    const std::size_t burst = 1 + round % largest;
    std::vector<std::future<core::ExtractionResult>> futures;
    for (std::size_t i = 0; i < burst; ++i) {
      futures.push_back(router.submit(in.pool[rng.next_u64() % kPoolClips]));
    }
    for (auto& f : futures) f.get();
  }
  return true;
}

/// Build one rig for the workload, recording the set-up step spans.
std::unique_ptr<Rig> set_up(const Args& args, const Inputs& in,
                            std::size_t sink_capacity, SpanLog& spans,
                            bool* warm_ok) {
  auto owned = std::make_unique<Rig>();
  Rig& rig = *owned;
  const std::uint32_t root = spans.reserve();
  const auto t_begin = Clock::now();
  auto t0 = t_begin;
  const auto step = [&](const char* name) {
    const auto t1 = Clock::now();
    spans.record(name, 0, t0, t1, root);
    t0 = t1;
  };
  rig.extractor = make_extractor();
  step("setup.extractor");
  *warm_ok = true;
  if (args.workload == Workload::kOfflineBatch) {
    rig.plan_cache = std::make_shared<plan::PlanCache>();
    rig.executor =
        std::make_unique<plan::PlanExecutor>(rig.extractor, rig.plan_cache);
    step("setup.plan_executor");
    rig.executor->extract_batch(in.corpus.front());
    step("setup.warmup");
  } else {
    serve::RouterConfig cfg;
    cfg.replicas = kReplicas;
    cfg.server.workers = kWorkers;
    cfg.server.use_compiled_plan = true;
    if (args.workload == Workload::kStreamLight) {
      rig.ivf = std::make_unique<ix::IvfIndex>();
      rig.ivf->insert_batch(in.preload);
      step("setup.index_preload");
      rig.ingestor = std::make_unique<ix::IndexIngestor>(*rig.ivf);
      rig.sink =
          std::make_unique<DocSink>(*rig.ingestor, sink_capacity, spans);
      DocSink* sink = rig.sink.get();
      cfg.server.on_result = [sink](const serve::CompletionInfo& info) {
        (*sink)(info);
      };
    }
    rig.router = std::make_unique<serve::Router>(rig.extractor, cfg);
    step("setup.router");
    *warm_ok = warm_router(*rig.router, in, args.seed);
    if (rig.ivf) {
      for (std::size_t i = 0; i < 16; ++i) {
        rig.ivf->search(in.recall_queries[i % in.recall_queries.size()]);
      }
    }
    step("setup.warmup");
  }
  spans.record("harness.setup", 0, t_begin, Clock::now(), 0, root);
  return owned;
}

// ---- timed phases ----------------------------------------------------------------------------

/// What one timed phase observed. Latencies are of correctly answered
/// requests; failures count in `failed` and as goodput misses.
struct Phase {
  Clock::time_point start;
  double seconds = 0.0;  // phase start to its last resolution
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t mismatches = 0;  // outputs that differ from the reference
  std::size_t clips_sent = 0;
  std::size_t clips_ok = 0;
  std::size_t good = 0;  // correct within the workload's latency limit
  std::size_t repeats = 0;
  std::vector<double> latency_ms;     // from due (open) / submit (closed)
  std::size_t clips_per_sample = 1;   // offline: a sample is a batch call
  std::vector<std::pair<double, double>> latency_span_s;  // (from, to) since
                                                          // start, per sample
  std::vector<double> from_submit_ms; // from the submit call
  std::vector<double> submit_us;
  std::vector<double> call_ms;        // offline: extract_batch call
  std::vector<double> lag_ms;         // generator lateness (open loop)
  std::size_t searches = 0;
  std::size_t invalid_searches = 0;
  std::vector<double> search_due_ms;
  std::vector<double> search_call_ms;
  std::int64_t backlog_early = 0;
  std::int64_t backlog_end = 0;
  double cpu_cores = 0.0;
  double steal_share = 0.0;
  std::vector<double> steal_per_second;  // stolen share of each whole second
  std::string first_error;  // written through note_error()
  RegSnap before, after;
  std::int64_t rec_from_ns = 0, rec_to_ns = 0;  // flight-recorder window
};

/// Keep the first failure's message; phase threads race to report.
void note_error(Phase& phase, const std::exception& e) {
  static std::mutex mutex;
  std::lock_guard<std::mutex> lock(mutex);
  if (phase.first_error.empty()) phase.first_error = e.what();
}

/// A search result is valid when every hit passes the query's predicates
/// and the hits come in (score desc, id asc) order.
bool valid_hits(const std::vector<ix::Hit>& hits,
                const ix::StructuredQuery& q, const Inputs& in,
                const DocSink& sink) {
  if (hits.size() > q.k) return false;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    const ix::DocId id = hits[i].id;
    const ix::PackedLabels* labels = nullptr;
    if (id < kPreloadDocs) {
      labels = &in.preload_labels[id];
    } else if (id - kPreloadDocs < sink.ingested()) {
      labels = &sink.labels(id - kPreloadDocs);
    } else {
      return false;  // an id nobody inserted
    }
    if (!ix::matches_all(q.predicates, *labels)) return false;
    if (i > 0) {
      const ix::Hit& prev = hits[i - 1];
      if (prev.score < hits[i].score) return false;
      if (prev.score == hits[i].score && prev.id >= hits[i].id) return false;
    }
  }
  return true;
}

/// One routed request between submit and resolution.
struct Pending {
  std::uint64_t req = 0;
  std::uint32_t clip = 0;
  Clock::time_point due, sub0, sub1;
  std::future<core::ExtractionResult> future;
};

/// Resolves pending requests as they complete, for a single waiter thread:
/// sleeps on the oldest future for at most kPollSlice, then rescans the
/// rest, so an out-of-order completion is seen at most one slice late.
class Waiter {
 public:
  Waiter(Phase& phase, const References& ref, SpanLog& spans,
         double limit_ms)
      : phase_(phase), ref_(ref), spans_(spans), limit_ms_(limit_ms) {}

  void add(Pending p) { outstanding_.push_back(std::move(p)); }
  std::size_t size() const { return outstanding_.size(); }

  /// Resolve whatever is ready (waiting up to one slice if nothing is).
  /// Returns how many resolved.
  std::size_t poll() {
    if (outstanding_.empty()) return 0;
    std::size_t done = sweep();
    if (done == 0 &&
        outstanding_.front().future.wait_for(kPollSlice) ==
            std::future_status::ready) {
      done = sweep();
    }
    return done;
  }

  Clock::time_point last_done() const { return last_done_; }

 private:
  std::size_t sweep() {
    std::size_t done = 0;
    for (std::size_t i = 0; i < outstanding_.size();) {
      if (outstanding_[i].future.wait_for(0s) != std::future_status::ready) {
        ++i;
        continue;
      }
      resolve(outstanding_[i], Clock::now());
      outstanding_.erase(outstanding_.begin() +
                         static_cast<std::ptrdiff_t>(i));
      ++done;
    }
    return done;
  }

  void resolve(Pending& p, Clock::time_point t) {
    last_done_ = std::max(last_done_, t);
    bool ok = false;
    try {
      const core::ExtractionResult result = p.future.get();
      ok = same_result(result, ref_.per_clip[p.clip]);
      if (!ok) ++phase_.mismatches;
    } catch (const std::exception& e) {
      note_error(phase_, e);
    }
    if (ok) {
      ++phase_.clips_ok;
      const double lat = ms_between(p.due, t);
      phase_.latency_ms.push_back(lat);
      phase_.latency_span_s.emplace_back(ms_between(phase_.start, p.due) / 1e3,
                                         ms_between(phase_.start, t) / 1e3);
      phase_.from_submit_ms.push_back(ms_between(p.sub0, t));
      if (lat <= limit_ms_) ++phase_.good;
    } else {
      ++phase_.failed;
    }
    if (spans_.enabled()) {
      const std::uint32_t root = spans_.reserve();
      spans_.record("router.submit", p.req, p.sub0, p.sub1, root);
      spans_.record("serve.future_wait", p.req, p.sub1, t, root);
      spans_.record("harness.request", p.req, p.due, t, 0, root);
    }
  }

  Phase& phase_;
  const References& ref_;
  SpanLog& spans_;
  const double limit_ms_;
  std::deque<Pending> outstanding_;
  Clock::time_point last_done_{};
};

/// Submit one clip through the router, timing the call. Returns nullopt
/// (and counts a failure) when the router refuses it.
std::optional<Pending> submit(serve::Router& router, const Inputs& in,
                              Phase& phase, std::uint64_t req,
                              std::uint32_t clip, Clock::time_point due) {
  Pending p;
  p.req = req;
  p.clip = clip;
  p.due = due;
  p.sub0 = Clock::now();
  try {
    p.future = router.submit(in.pool[clip]);
  } catch (const std::exception& e) {
    note_error(phase, e);
    return std::nullopt;
  }
  p.sub1 = Clock::now();
  phase.submit_us.push_back(ms_between(p.sub0, p.sub1) * 1000.0);
  return p;
}

void count_repeats(Phase& phase, const std::vector<std::uint32_t>& picks,
                   std::size_t sent) {
  std::vector<bool> seen(kPoolClips, false);
  for (std::size_t i = 0; i < sent; ++i) {
    if (seen[picks[i]]) ++phase.repeats;
    seen[picks[i]] = true;
  }
}

/// stream_light: a clip generator, a search generator and a single waiter,
/// each on its own thread; nothing the generators do blocks on a result.
void run_stream(Rig& rig, const Inputs& in, const PhaseInputs& ph,
                const References& ref, SpanLog& spans, std::uint64_t req_base,
                Phase& phase) {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Pending> handoff;
  bool generator_done = false;
  std::atomic<std::int64_t> in_flight{0};
  std::vector<double> search_lag;
  Waiter waiter(phase, ref, spans, kStreamLimitMs);
  const std::size_t early_mark = ph.clip_due.size() / 10;
  const auto start = Clock::now();
  phase.start = start;
  const auto due_at = [&](double offset_s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset_s));
  };

  serve::ThreadPool::run(3, [&](std::size_t role) {
    if (role == 0) {  // clip generator
      for (std::size_t i = 0; i < ph.clip_due.size(); ++i) {
        const auto due = due_at(ph.clip_due[i]);
        std::this_thread::sleep_until(due);
        phase.lag_ms.push_back(ms_between(due, Clock::now()));
        if (i == early_mark) phase.backlog_early = in_flight.load();
        std::optional<Pending> p =
            submit(*rig.router, in, phase, req_base + i, ph.picks[i], due);
        ++phase.clips_sent;
        if (!p) continue;
        in_flight.fetch_add(1);
        std::lock_guard<std::mutex> lock(mutex);
        handoff.push_back(std::move(*p));
        cv.notify_one();
      }
      phase.backlog_end = in_flight.load();
      std::lock_guard<std::mutex> lock(mutex);
      generator_done = true;
      cv.notify_one();
    } else if (role == 1) {  // waiter
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(mutex);
          if (waiter.size() == 0) {
            cv.wait(lock, [&] { return !handoff.empty() || generator_done; });
          }
          while (!handoff.empty()) {
            waiter.add(std::move(handoff.front()));
            handoff.pop_front();
          }
          if (waiter.size() == 0 && generator_done) break;
        }
        in_flight.fetch_sub(static_cast<std::int64_t>(waiter.poll()));
      }
    } else {  // search generator
      for (std::size_t j = 0; j < ph.search_due.size(); ++j) {
        const auto due = due_at(ph.search_due[j]);
        std::this_thread::sleep_until(due);
        const auto s0 = Clock::now();
        search_lag.push_back(ms_between(due, s0));
        const ix::StructuredQuery& q = ph.queries[j];
        bool ok = false;
        try {
          ok = valid_hits(rig.ivf->search(q), q, in, *rig.sink);
          if (!ok) ++phase.invalid_searches;
        } catch (const std::exception& e) {
          note_error(phase, e);
        }
        const auto s1 = Clock::now();
        ++phase.searches;
        if (!ok) continue;
        phase.search_due_ms.push_back(ms_between(due, s1));
        phase.search_call_ms.push_back(ms_between(s0, s1));
        if (spans.enabled()) {
          const std::uint64_t req = req_base + (std::uint64_t{1} << 32) + j;
          const std::uint32_t root = spans.reserve();
          spans.record("index.search", req, s0, s1, root);
          spans.record("harness.search", req, due, s1, 0, root);
        }
      }
    }
  });
  phase.seconds = ms_between(start, std::max(waiter.last_done(), start)) / 1e3;
  phase.lag_ms.insert(phase.lag_ms.end(), search_lag.begin(),
                      search_lag.end());
  // Refused, failed and mismatched clips, then failed or invalid searches.
  phase.failed = phase.clips_sent - phase.clips_ok +
                 (phase.searches - phase.search_due_ms.size());
  phase.attempted = phase.clips_sent + phase.searches;
  phase.good += phase.search_due_ms.size() -
                static_cast<std::size_t>(std::count_if(
                    phase.search_due_ms.begin(), phase.search_due_ms.end(),
                    [](double ms) { return ms > kStreamLimitMs; }));
  count_repeats(phase, ph.picks, phase.clips_sent);
}

/// burst_closed: one thread keeps kBurstInFlight requests outstanding,
/// submitting a replacement as each resolves.
void run_burst(Rig& rig, const Inputs& in, const PhaseInputs& ph,
               const References& ref, SpanLog& spans, std::uint64_t req_base,
               double seconds, Phase& phase) {
  Waiter waiter(phase, ref, spans, kBurstLimitMs);
  const auto start = Clock::now();
  phase.start = start;
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  const auto early = start + (end - start) / 10;
  bool early_seen = false;
  std::size_t next = 0;
  while (Clock::now() < end && next < ph.picks.size()) {
    while (waiter.size() < kBurstInFlight && next < ph.picks.size()) {
      const std::uint32_t clip = ph.picks[next];
      std::optional<Pending> p = submit(*rig.router, in, phase,
                                        req_base + next, clip, Clock::now());
      ++next;
      ++phase.clips_sent;
      if (p) {
        p->due = p->sub0;
        waiter.add(std::move(*p));
      }
    }
    if (!early_seen && Clock::now() >= early) {
      early_seen = true;
      phase.backlog_early = static_cast<std::int64_t>(waiter.size());
    }
    waiter.poll();
  }
  phase.backlog_end = static_cast<std::int64_t>(waiter.size());
  while (waiter.size() > 0) waiter.poll();
  phase.seconds = ms_between(start, waiter.last_done()) / 1e3;
  phase.failed = phase.clips_sent - phase.clips_ok;
  phase.attempted = phase.clips_sent;
  count_repeats(phase, ph.picks, phase.clips_sent);
}

/// offline_batch: one caller, batch-8 corpus tensors in order, cycling.
void run_offline(Rig& rig, const Inputs& in, const References& ref,
                 SpanLog& spans, std::uint64_t req_base, double seconds,
                 Phase& phase) {
  const auto start = Clock::now();
  phase.start = start;
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  phase.clips_per_sample = kOfflineBatch;
  auto t1 = start;
  for (std::size_t call = 0; t1 < end; ++call) {
    const std::size_t b = call % in.corpus.size();
    const auto t0 = Clock::now();
    bool ok = false;
    std::vector<core::ExtractionResult> results;
    try {
      results = rig.executor->extract_batch(in.corpus[b]);
      ok = results.size() == ref.per_batch[b].size();
    } catch (const std::exception& e) {
      note_error(phase, e);
    }
    t1 = Clock::now();
    spans.record("plan.extract_batch", req_base + call, t0, t1);
    const double ms = ms_between(t0, t1);
    phase.call_ms.push_back(ms);
    phase.clips_sent += kOfflineBatch;
    if (call >= in.corpus.size()) phase.repeats += kOfflineBatch;
    std::size_t matched = 0;
    for (std::size_t i = 0; ok && i < results.size(); ++i) {
      if (same_result(results[i], ref.per_batch[b][i])) {
        ++matched;
      } else {
        ++phase.mismatches;
      }
    }
    phase.clips_ok += matched;
    phase.failed += kOfflineBatch - matched;
    if (matched == kOfflineBatch) {
      phase.latency_ms.push_back(ms);
      phase.latency_span_s.emplace_back(ms_between(start, t0) / 1e3,
                                        ms_between(start, t1) / 1e3);
      if (ms <= kOfflineLimitMs) phase.good += kOfflineBatch;
    }
  }
  phase.seconds = ms_between(start, t1) / 1e3;
  phase.attempted = phase.clips_sent;
}

/// Samples host steal every kStealSample on its own thread while a phase
/// runs, then turns the samples into the stolen share of each whole second
/// of the phase.
class StealSampler {
 public:
  StealSampler() {
    thread_.spawn(1, [this](std::size_t) {
      for (;;) {
        samples_.push_back({Clock::now(), steal_ticks()});
        if (stop_.load()) return;
        std::this_thread::sleep_for(kStealSample);
      }
    });
  }

  /// Stops and joins the sampler if stop() was never reached.
  ~StealSampler() {
    stop_.store(true);
    thread_.join();
  }
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  std::vector<double> stop(Clock::time_point start, double seconds) {
    stop_.store(true);
    thread_.join();
    std::vector<double> per_second;
    std::size_t a = 0;
    for (std::size_t k = 0; k + 1 <= static_cast<std::size_t>(seconds); ++k) {
      const auto end = start + std::chrono::seconds(k + 1);
      std::size_t b = a;
      while (b + 1 < samples_.size() && samples_[b + 1].at <= end) ++b;
      per_second.push_back(
          ratio(samples_[b].ticks.first - samples_[a].ticks.first,
                samples_[b].ticks.second - samples_[a].ticks.second));
      a = b;
    }
    return per_second;
  }

 private:
  struct Sample {
    Clock::time_point at;
    std::pair<double, double> ticks;
  };
  std::vector<Sample> samples_;  // written by the sampler until joined
  std::atomic<bool> stop_{false};
  serve::ThreadPool thread_;
};

Phase run_phase(const Args& args, Rig& rig, const Inputs& in,
                const References& ref, SpanLog& spans, std::size_t index) {
  const bool serving = args.workload != Workload::kOfflineBatch;
  const bool has_index = args.workload == Workload::kStreamLight;
  Phase phase;
  if (serving) registry().gauge("serve.queue_depth_max").set(0);
  if (rig.sink) rig.sink->push_us.clear();
  phase.before = snapshot(serving, has_index);
  phase.rec_from_ns = obs::Recorder::global().now_ns();
  const double cpu0 = cpu_seconds();
  const auto steal0 = steal_ticks();
  StealSampler sampler;
  const std::uint64_t req_base = (index + 1) * (std::uint64_t{1} << 40);
  switch (args.workload) {
    case Workload::kStreamLight:
      run_stream(rig, in, in.phases[index], ref, spans, req_base, phase);
      break;
    case Workload::kBurstClosed:
      run_burst(rig, in, in.phases[index], ref, spans, req_base,
                phase_seconds(args), phase);
      break;
    case Workload::kOfflineBatch:
      run_offline(rig, in, ref, spans, req_base, phase_seconds(args), phase);
      break;
  }
  phase.cpu_cores = ratio(cpu_seconds() - cpu0, phase.seconds);
  const auto steal1 = steal_ticks();
  phase.steal_share =
      ratio(steal1.first - steal0.first, steal1.second - steal0.second);
  phase.steal_per_second = sampler.stop(phase.start, phase.seconds);
  phase.rec_to_ns = obs::Recorder::global().now_ns();
  phase.after = snapshot(serving, has_index);
  return phase;
}

// ---- metrics ----------------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct E2e {
  double throughput_cps, p50_ms, p99_ms, goodput_share;
};

/// Percentile `p` of each consecutive window of kWindowSamples latencies
/// (in completion order, at most kMaxWindows windows), then the median of
/// those: one stalled stretch of a run does not set the run's figure, and
/// every window still has at least kTailSamples samples beyond its p99.
constexpr std::size_t kWindowSamples = 1000;
constexpr std::size_t kMaxWindows = 5;

double windowed_percentile(const std::vector<double>& v, double p) {
  const std::size_t windows =
      std::clamp<std::size_t>(v.size() / kWindowSamples, 1, kMaxWindows);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto from = v.begin() + static_cast<std::ptrdiff_t>(
                                      v.size() * w / windows);
    const auto to = v.begin() + static_cast<std::ptrdiff_t>(
                                    v.size() * (w + 1) / windows);
    per_window.push_back(percentile(std::vector<double>(from, to), p));
  }
  return percentile(per_window, 50);
}

/// Which whole seconds of the phase count: those the host did not disturb
/// (kStealLimit), and never fewer than the quietest half of them, so a run
/// on a persistently busy host still reports from its least disturbed half.
std::vector<bool> counted_seconds(const Phase& ph) {
  const std::vector<double>& steal = ph.steal_per_second;
  std::vector<std::size_t> order(steal.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return steal[a] < steal[b];
  });
  std::vector<bool> counted(steal.size(), false);
  for (std::size_t i = 0; i < order.size(); ++i) {
    counted[order[i]] = steal[order[i]] <= kStealLimit || 2 * i < order.size();
  }
  return counted;
}

E2e end_to_end(const Phase& ph) {
  const std::vector<bool> counted = counted_seconds(ph);
  // Seconds past the last whole one were not sampled; they count.
  const auto in_counted = [&](double s) {
    const auto k = static_cast<std::size_t>(s);
    return k >= counted.size() || counted[k];
  };
  std::vector<double> latency;
  std::vector<std::size_t> per_second(counted.size(), 0);
  for (std::size_t i = 0; i < ph.latency_ms.size(); ++i) {
    const auto [from, to] = ph.latency_span_s[i];
    bool quiet = true;
    for (double s = std::floor(from); s <= to; s += 1.0) {
      quiet = quiet && in_counted(s);
    }
    if (quiet) latency.push_back(ph.latency_ms[i]);
    const auto k = static_cast<std::size_t>(to);
    if (k < per_second.size()) per_second[k] += ph.clips_per_sample;
  }
  std::size_t done = 0, seconds = 0;
  for (std::size_t k = 0; k < counted.size(); ++k) {
    if (!counted[k]) continue;
    done += per_second[k];
    ++seconds;
  }
  const double throughput =
      seconds > 0 ? static_cast<double>(done) / static_cast<double>(seconds)
                  : ratio(static_cast<double>(ph.clips_ok), ph.seconds);
  return E2e{throughput, windowed_percentile(latency, 50),
             windowed_percentile(latency, 99),
             ratio(static_cast<double>(ph.good),
                   static_cast<double>(ph.attempted))};
}

/// Per-request server segments, from the flight recorder's server records
/// inside the phase window: the same segment definitions the recorder
/// derives obs.segment_ms.* from, kept exact instead of bucketed. The ring
/// holds the last Recorder::kRingCapacity records, so a busy phase is
/// represented by its tail.
struct ServeSegments {
  std::vector<double> queue_ms, batch_wait_ms, execute_ms, latency_ms;
  double busy_share = 0.0;
};

ServeSegments serve_segments(std::int64_t from_ns, std::int64_t to_ns,
                             std::size_t workers) {
  ServeSegments seg;
  std::map<std::uint64_t, std::pair<std::int64_t, std::int64_t>> batches;
  for (const obs::Recorder::Record& r : obs::Recorder::global().snapshot()) {
    if (r.kind != obs::Recorder::Kind::kServer ||
        r.outcome != obs::Recorder::Outcome::kCompleted ||
        r.submit_ns < from_ns || r.done_ns > to_ns) {
      continue;
    }
    const std::int64_t enqueue = r.enqueue_ns != 0 ? r.enqueue_ns : r.submit_ns;
    const std::int64_t dispatch = r.dispatch_ns != 0 ? r.dispatch_ns : enqueue;
    const std::int64_t execute = r.execute_ns != 0 ? r.execute_ns : dispatch;
    seg.queue_ms.push_back(static_cast<double>(dispatch - enqueue) / 1e6);
    seg.batch_wait_ms.push_back(static_cast<double>(execute - dispatch) / 1e6);
    seg.execute_ms.push_back(static_cast<double>(r.done_ns - execute) / 1e6);
    seg.latency_ms.push_back(static_cast<double>(r.done_ns - r.submit_ns) /
                             1e6);
    auto [it, fresh] = batches.try_emplace(r.batch_id, execute, r.done_ns);
    if (!fresh) {
      it->second.first = std::min(it->second.first, execute);
      it->second.second = std::max(it->second.second, r.done_ns);
    }
  }
  if (!batches.empty()) {
    std::int64_t window_from = to_ns;
    double busy = 0.0;
    for (const auto& [id, span] : batches) {
      window_from = std::min(window_from, span.first);
      busy += static_cast<double>(span.second - span.first);
    }
    seg.busy_share = ratio(
        busy, static_cast<double>(to_ns - window_from) *
                  static_cast<double>(workers));
  }
  return seg;
}

struct Post {
  double close_ms = 0.0;
  double recall = 0.0;
  std::uint64_t dropped = 0;
  double arena_bytes = 0.0;
};

/// Share of the phase's whole seconds the host disturbed (kStealLimit).
double disturbed_share(const Phase& ph) {
  const auto disturbed = std::count_if(
      ph.steal_per_second.begin(), ph.steal_per_second.end(),
      [](double share) { return share > kStealLimit; });
  return ratio(static_cast<double>(disturbed),
               static_cast<double>(ph.steal_per_second.size()));
}

std::vector<Metric> per_layer(const Args& args, const Phase& ph,
                              const Phase& untraced, const References& ref,
                              const Rig& rig, const Post& post,
                              double compile_ms) {
  const bool serving = args.workload != Workload::kOfflineBatch;
  const RegSnap& a = ph.before;
  const RegSnap& b = ph.after;
  const double clips = static_cast<double>(ph.clips_ok);
  const ServeSegments seg =
      serving ? serve_segments(ph.rec_from_ns, ph.rec_to_ns,
                               kReplicas * kWorkers)
              : ServeSegments{};
  const E2e traced = end_to_end(ph);
  const E2e plain = end_to_end(untraced);
  const double overhead =
      args.workload == Workload::kStreamLight
          ? ratio(traced.p50_ms - plain.p50_ms, plain.p50_ms)
          : ratio(plain.throughput_cps - traced.throughput_cps,
                  plain.throughput_cps);
  const double hop =
      serving ? percentile(ph.from_submit_ms, 50) -
                    percentile(seg.latency_ms, 50)
              : 0.0;
  const double failed = static_cast<double>(ph.failed);
  const auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x);
  };
  return {
      {"p99_ms", plain.p99_ms, "ms"},
      {"router.submit_us.p50", percentile(ph.submit_us, 50), "us"},
      {"router.submit_us.p99", percentile(ph.submit_us, 99), "us"},
      {"router.hop_ms.p50", hop, "ms"},
      {"router.retries", d(a.retries, b.retries), "count"},
      {"router.failovers", d(a.failovers, b.failovers), "count"},
      {"router.shed", d(a.shed, b.shed), "count"},
      {"serve.batch_wait_ms.p50", percentile(seg.batch_wait_ms, 50), "ms"},
      {"serve.batch_size.mean",
       ratio(b.batch_sum - a.batch_sum, d(a.batch_count, b.batch_count)),
       "count"},
      {"serve.queue_ms.p50", percentile(seg.queue_ms, 50), "ms"},
      {"serve.queue_ms.p99", percentile(seg.queue_ms, 99), "ms"},
      {"serve.execute_ms.p50", percentile(seg.execute_ms, 50), "ms"},
      {"serve.worker_busy_share", seg.busy_share, "share"},
      {"serve.queue_depth_max",
       serving ? static_cast<double>(
                     registry().gauge("serve.queue_depth_max").value())
               : 0.0,
       "count"},
      {"plan.extract_batch_ms.p50", percentile(ph.call_ms, 50), "ms"},
      {"plan.compile_ms.sum", compile_ms, "ms"},
      {"plan.compiled_timed", d(a.compiled, b.compiled), "count"},
      {"plan.fallbacks", d(a.fallbacks, b.fallbacks), "count"},
      {"plan.arena_bytes", post.arena_bytes, "bytes"},
      {"tensor.gemm_flops_per_clip", ratio(d(a.gemm_flops, b.gemm_flops), clips),
       "count"},
      {"tensor.gemm_calls_per_clip", ratio(d(a.gemm_calls, b.gemm_calls), clips),
       "count"},
      // par.fanouts and par.inline_fanouts count disjoint loops (pooled vs
      // run on the caller), so the share's base is their sum.
      {"tensor.par_inline_share",
       ratio(d(a.inline_fanouts, b.inline_fanouts),
             d(a.fanouts, b.fanouts) + d(a.inline_fanouts, b.inline_fanouts)),
       "share"},
      {"core.extract_batch_ms.p50", percentile(ref.call_ms, 50), "ms"},
      {"index.search_ms.p50", percentile(ph.search_call_ms, 50), "ms"},
      {"index.search_ms.p99", percentile(ph.search_call_ms, 99), "ms"},
      {"index.scanned_rows.mean",
       ratio(b.scanned_sum - a.scanned_sum, d(a.scanned_count, b.scanned_count)),
       "count"},
      {"index.probe_lists.mean",
       ratio(b.probe_sum - a.probe_sum, d(a.probe_count, b.probe_count)),
       "count"},
      {"index.push_us.p99",
       rig.sink ? percentile(rig.sink->push_us.values(), 99) : 0.0, "us"},
      {"index.ingest_dropped", static_cast<double>(post.dropped), "count"},
      {"index.close_ms", post.close_ms, "ms"},
      {"obs.trace_overhead_share", overhead, "share"},
      {"harness.gen_lag_ms.p99", percentile(ph.lag_ms, 99), "ms"},
      {"harness.cpu_cores_used", ph.cpu_cores, "cores"},
      {"harness.steal_share", ph.steal_share, "share"},
      {"harness.disturbed_share", disturbed_share(ph), "share"},
      {"harness.offered_cps",
       ratio(static_cast<double>(ph.clips_sent), ph.seconds), "1/s"},
      {"harness.repeat_share",
       ratio(static_cast<double>(ph.repeats),
             static_cast<double>(ph.clips_sent)),
       "share"},
      {"harness.backlog_growth",
       static_cast<double>(ph.backlog_end - ph.backlog_early), "count"},
      {"error_share", ratio(failed, static_cast<double>(ph.attempted)),
       "share"},
      {"search_p50_ms", percentile(ph.search_due_ms, 50), "ms"},
      {"search_p99_ms", percentile(ph.search_due_ms, 99), "ms"},
      {"search_recall_at_10", post.recall, "share"},
  };
}

/// recall@10 of the IVF index against an exact FlatIndex over the final
/// index contents, on the fixed recall query sample.
double recall_at_10(const Rig& rig, const Inputs& in) {
  ix::FlatIndex flat;
  for (const auto& [id, desc] : in.preload) flat.insert(id, desc);
  for (std::size_t s = 0; s < rig.sink->ingested(); ++s) {
    flat.insert(kPreloadDocs + s, rig.sink->doc(s));
  }
  double sum = 0.0;
  std::size_t counted = 0;
  for (const ix::StructuredQuery& q : in.recall_queries) {
    const std::vector<ix::Hit> exact = flat.search(q);
    if (exact.empty()) continue;
    const std::vector<ix::Hit> approx = rig.ivf->search(q);
    std::size_t found = 0;
    for (const ix::Hit& e : exact) {
      for (const ix::Hit& h : approx) found += h.id == e.id ? 1 : 0;
    }
    sum += static_cast<double>(found) / static_cast<double>(exact.size());
    ++counted;
  }
  return ratio(sum, static_cast<double>(counted));
}

void print_span_table(const std::vector<Span>& spans) {
  const auto totals = span_totals(spans);
  std::map<std::string, SpanTotals> layers;
  std::printf("\n%-24s %10s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (const auto& [name, t] : totals) {
    std::printf("%-24s %10llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_ms,
                t.self_ms);
    SpanTotals& l = layers[name.substr(0, name.find('.'))];
    l.count += t.count;
    l.total_ms += t.total_ms;
    l.self_ms += t.self_ms;
  }
  std::printf("\n%-24s %10s %12s %12s\n", "layer", "count", "total_ms",
              "self_ms");
  for (const auto& [name, t] : layers) {
    std::printf("%-24s %10llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_ms,
                t.self_ms);
  }
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

void note_tail(const char* name, std::size_t n, double p) {
  if (n > 0 && !tail_supported(n, p)) {
    std::printf("note: %s rests on %zu samples (< %.0f beyond p%.0f)\n", name,
                n, kTailSamples, p);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  refuse_pinned_env();
  const std::size_t nproc =
      std::max(1u, std::thread::hardware_concurrency());
  par::set_threads(nproc);
  const bool serving = args.workload != Workload::kOfflineBatch;
  const std::size_t nphases = args.trace ? 2 : 1;
  std::printf("tsdx_perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "nproc=%zu\n",
              args.workload_name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, nproc);

  auto t0 = Clock::now();
  const Inputs in = make_inputs(args, nphases);
  std::printf("inputs: %.2fs\n", ms_between(t0, Clock::now()) / 1e3);
  t0 = Clock::now();
  const References ref = make_references(in, nproc);
  std::printf("references: %zu dynamic calls in %.2fs\n", ref.call_ms.size(),
              ms_between(t0, Clock::now()) / 1e3);

  SpanLog spans(Clock::now());
  spans.set_enabled(args.trace);
  std::size_t sink_capacity = 0;
  for (const PhaseInputs& ph : in.phases) sink_capacity += ph.clip_due.size();

  // Set up kSetupRepeats times (once when traced) and keep the last rig;
  // setup_s is the median. Each set-up pays its own plan compiles.
  std::vector<double> setup_s;
  double compile_ms = 0.0;
  bool warm_ok = true;
  std::unique_ptr<Rig> rig;
  const std::size_t repeats = args.trace ? 1 : kSetupRepeats;
  for (std::size_t r = 0; r < repeats; ++r) {
    rig.reset();
    // Hand the torn-down rig's pages back, so peak_rss_mb does not depend
    // on how the allocator happened to reuse them.
    malloc_trim(0);
    const double compile0 = registry().histogram("plan.compile_ms").sum();
    const auto s0 = Clock::now();
    rig = set_up(args, in, sink_capacity, spans, &warm_ok);
    setup_s.push_back(ms_between(s0, Clock::now()) / 1e3);
    compile_ms = registry().histogram("plan.compile_ms").sum() - compile0;
  }
  std::printf("setup: median %.3fs over %zu (plan compiles %.1f ms)%s\n",
              percentile(setup_s, 50), setup_s.size(), compile_ms,
              warm_ok ? "" : " WARM-UP TIMED OUT");
  if (rig->sink) rig->sink->set_enabled(true);

  std::vector<Phase> phases;
  for (std::size_t p = 0; p < nphases; ++p) {
    spans.set_enabled(args.trace && p == nphases - 1);
    phases.push_back(run_phase(args, *rig, in, ref, spans, p));
  }
  spans.set_enabled(args.trace);
  // Before the recall check builds its exact index: the high-water mark of
  // inputs, references, set-up and the timed phases.
  const double rss_mb = peak_rss_mb();

  Post post;
  if (serving) rig->router->drain();
  if (rig->ingestor) {
    const auto c0 = Clock::now();
    rig->ingestor->close();
    post.close_ms = ms_between(c0, Clock::now());
    post.dropped = rig->ingestor->dropped() + rig->sink->overflow();
    post.recall = recall_at_10(*rig, in);
  }
  post.arena_bytes =
      static_cast<double>(registry().gauge("plan.arena_bytes").value());

  std::size_t attempted = 0, failed = 0, mismatches = 0, invalid = 0;
  std::string first_error;
  for (const Phase& ph : phases) {
    attempted += ph.attempted;
    failed += ph.failed;
    mismatches += ph.mismatches;
    invalid += ph.invalid_searches;
    if (first_error.empty()) first_error = ph.first_error;
  }
  const bool correct = mismatches == 0 && invalid == 0;

  const Phase& main_phase = phases.front();
  const E2e e2e = end_to_end(main_phase);
  const std::vector<bool> counted = counted_seconds(main_phase);
  std::printf("host steal during the phase: %.4f of vCPU time; %.0f of %zu "
              "seconds disturbed (> %.0f%% stolen), %zu counted\n",
              main_phase.steal_share,
              disturbed_share(main_phase) *
                  static_cast<double>(counted.size()),
              counted.size(), kStealLimit * 100.0,
              static_cast<std::size_t>(
                  std::count(counted.begin(), counted.end(), true)));
  std::printf("phase: %.3fs, %zu clips sent, %zu ok, %zu failed, %zu "
              "mismatched, %zu searches (%zu invalid), repeat share %.3f\n",
              main_phase.seconds, main_phase.clips_sent, main_phase.clips_ok,
              main_phase.failed, main_phase.mismatches, main_phase.searches,
              main_phase.invalid_searches,
              ratio(static_cast<double>(main_phase.repeats),
                    static_cast<double>(main_phase.clips_sent)));
  std::printf("backlog: %lld in flight at 10%% of the phase, %lld at its "
              "end%s\n",
              static_cast<long long>(main_phase.backlog_early),
              static_cast<long long>(main_phase.backlog_end),
              main_phase.backlog_end - main_phase.backlog_early >
                      static_cast<std::int64_t>(2 * kBurstInFlight)
                  ? " -- GROWING"
                  : "");
  if (rig->ivf) {
    std::printf("recall@10 %.4f, ingest close %.2f ms, dropped %llu\n",
                post.recall, post.close_ms,
                static_cast<unsigned long long>(post.dropped));
  }
  // Not gated: too much at the mercy of the host (NOTES.md, "Host noise").
  std::printf("p99_ms %.3f (reported with the per-layer metrics)\n",
              e2e.p99_ms);
  note_tail("p99_ms", main_phase.latency_ms.size(), 99);
  if (!first_error.empty()) {
    std::printf("first failure: %s\n", first_error.c_str());
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", percentile(setup_s, 50), "s"},
        {"throughput_cps", e2e.throughput_cps, "1/s"},
        {"p50_ms", e2e.p50_ms, "ms"},
        {"goodput_share", e2e.goodput_share, "share"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  } else {
    const Phase& traced = phases.back();
    metrics = per_layer(args, traced, main_phase, ref, *rig, post, compile_ms);
    note_tail("router.submit_us.p99", traced.submit_us.size(), 99);
    note_tail("index.search_ms.p99", traced.search_call_ms.size(), 99);
    print_span_table(spans.spans());
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string stem = args.out_dir + "/" + args.workload_name +
                             "_seed" + std::to_string(args.seed);
    const bool wrote = spans.write(stem + "_spans.jsonl");
    if (std::FILE* f = std::fopen((stem + "_registry.json").c_str(), "w")) {
      std::fputs(registry().to_json().c_str(), f);
      std::fclose(f);
    }
    std::printf("\nspans: %s_spans.jsonl%s; registry snapshot: "
                "%s_registry.json\n",
                stem.c_str(), wrote ? "" : " (WRITE FAILED)", stem.c_str());
    std::printf("\n%-32s %16s\n", "per-layer metric", "value");
    for (const Metric& m : metrics) {
      std::printf("%-32s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  rig.reset();
  print_result(correct, attempted, failed, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}
