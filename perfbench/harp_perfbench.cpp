// Repository benchmark executable (driven by perfbench/run.py).
//
//   harp_perfbench gen --workload W --seed S --out PREFIX
//     Writes PREFIX.train and PREFIX.test, the workload's input text (CSV
//     or LibSVM): a fixed row population whose last 10% is held out, each
//     part in an order shuffled by the seed.
//
//   harp_perfbench run --workload W --seconds T --trace 0|1 --data PREFIX
//                      [--spans FILE] [--serve-rate R]
//     Repeats, for about 90% of T and at least 5 times:
//       - the pipeline harp_cli train/predict/serve runs, through the same
//         public calls, each timed from outside:
//           ReadCsv|ReadLibsvm -> QuantileCuts::Compute -> BinnedMatrix::Build
//           -> GbdtTrainer::TrainBinned (or DistributedGbdt::Train)
//           -> SaveModel -> LoadModel -> FlatSnapshot + PredictMargins;
//       - open-loop bursts against one long-lived ModelServer, each with
//         one Reload halfway through;
//       - batch PredictMargins calls and extra setups.
//     Every stage call and every served request is one checked operation.
//     Durations are reported as the fastest sample of the run (see
//     CmdRun). --serve-rate overrides the workload's open-loop rate, for
//     sweeping it by hand.
//     The last stdout line is one JSON object: end-to-end metrics,
//     per-layer metrics, operation counts and the machine/run
//     signature. With --trace 1, untraced and traced repetitions
//     alternate, and the traced ones record one span per call, written to
//     --spans (JSON lines) at the end.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/file_util.h"
#include "common/logging.h"
#include "common/mmap_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/simd.h"
#include "harpgbdt.h"
#include "parallel/thread_pool.h"

namespace {

using namespace harp;

enum class Format { kCsv, kLibsvm };

struct Workload {
  Format format = Format::kCsv;
  SyntheticSpec spec;   // rows = train + held-out rows
  TrainParams params;
  int dist_workers = 0;         // > 0: DistributedGbdt::Train, W workers
  int dist_worker_threads = 0;  // threads per distributed worker
  double serve_rate = 0.0;      // open-loop requests per second
  double serve_seconds = 0.0;   // length of one burst
  uint32_t predict_batch_rows = 0;  // held-out rows tiled to at least this
  double auc_floor = 0.0;       // held-out AUC below this fails the run
};

int Threads() { return ThreadPool::DefaultThreads(); }

constexpr int kBurstsPerRep = 6;  // serve bursts after each pipeline rep

// Shape of bench_dist's sharded workload: 2000 features at density 0.05
// with skewed per-feature density (a few hot features, a long cold tail).
SyntheticSpec DistSpec(uint32_t rows) {
  SyntheticSpec spec;
  spec.name = "DIST";
  spec.rows = rows;
  spec.features = 2000;
  spec.density = 0.05;
  spec.density_skew = 1.0;
  spec.mean_distinct = 48.0;
  spec.distinct_cv = 0.5;
  spec.active_features = 16;
  spec.margin_scale = 3.0;
  spec.sparse_storage = true;
  spec.seed = 977;
  return spec;
}

bool FindWorkload(const std::string& name, Workload* out) {
  Workload w;
  w.params.num_trees = 50;
  w.params.num_threads = Threads();
  if (name == "higgs_sync") {
    w.format = Format::kCsv;
    w.spec = HiggsSpec(1.0);
    w.spec.rows = 160000;
    w.params.mode = ParallelMode::kSYNC;
    w.params.grow_policy = GrowPolicy::kTopK;
    w.params.topk = 32;
    w.params.tree_size = 8;
    w.serve_rate = 200000.0;
    w.serve_seconds = 0.05;
    w.predict_batch_rows = 100000;
    w.auc_floor = 0.75;
  } else if (name == "yfcc_mp") {
    w.format = Format::kLibsvm;
    w.spec = YfccSpec(1.0);
    w.spec.rows = 1200;
    w.params.mode = ParallelMode::kMP;
    w.params.grow_policy = GrowPolicy::kTopK;
    w.params.topk = 32;
    w.params.tree_size = 8;
    w.serve_rate = 20000.0;
    w.serve_seconds = 0.1;
    w.predict_batch_rows = 3000;
    w.auc_floor = 0.70;
  } else if (name == "airline_deep") {
    w.format = Format::kCsv;
    w.spec = AirlineSpec(1.0);
    w.spec.rows = 220000;
    w.params.mode = ParallelMode::kSYNC;
    w.params.grow_policy = GrowPolicy::kTopK;
    w.params.topk = 32;
    w.params.tree_size = 10;
    w.serve_rate = 100000.0;
    w.serve_seconds = 0.05;
    w.predict_batch_rows = 100000;
    w.auc_floor = 0.75;
  } else if (name == "dist_w2") {
    w.format = Format::kLibsvm;
    w.spec = DistSpec(6000);
    w.params.num_trees = 6;
    w.params.grow_policy = GrowPolicy::kTopK;
    w.params.topk = 8;
    w.params.tree_size = 6;
    w.params.comm_compress = "sparse";
    w.params.quantize_hist = true;
    w.dist_workers = 2;
    w.dist_worker_threads = 2;
    w.serve_rate = 20000.0;
    w.serve_seconds = 0.1;
    w.predict_batch_rows = 20000;
    w.auc_floor = 0.55;
  } else {
    return false;
  }
  *out = w;
  return true;
}

// ---------------------------------------------------------------- args

struct Args {
  std::map<std::string, std::string> values;
  std::string Get(const std::string& key, const std::string& def = "") const {
    const auto it = values.find(key);
    return it == values.end() ? def : it->second;
  }
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return false;
    args->values[key.substr(2)] = argv[i + 1];
  }
  return true;
}

// ---------------------------------------------------------------- gen

void AppendFloat(std::string* out, float v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

// Formats rows order[begin, end) of `data`; shortest round-trip float
// text, so the parsed values equal the generated ones bit for bit.
std::string FormatRows(const Dataset& data, const std::vector<uint32_t>& order,
                       size_t begin, size_t end, Format format) {
  std::string out;
  const uint32_t features = data.num_features();
  for (size_t i = begin; i < end; ++i) {
    const uint32_t r = order[i];
    AppendFloat(&out, data.labels()[r]);
    if (format == Format::kCsv) {
      uint32_t next = 0;  // next column to emit; absent ones stay empty
      data.ForEachInRow(r, [&](uint32_t f, float v) {
        for (; next < f; ++next) out.push_back(',');
        out.push_back(',');
        AppendFloat(&out, v);
        next = f + 1;
      });
      for (; next < features; ++next) out.push_back(',');
    } else {
      data.ForEachInRow(r, [&](uint32_t f, float v) {
        out.push_back(' ');
        out.append(std::to_string(f + 1));
        out.push_back(':');
        AppendFloat(&out, v);
      });
    }
    out.push_back('\n');
  }
  return out;
}

int CmdGen(const Args& args) {
  Workload w;
  if (!FindWorkload(args.Get("workload"), &w)) {
    std::fprintf(stderr, "unknown workload '%s'\n",
                 args.Get("workload").c_str());
    return 2;
  }
  const std::string prefix = args.Get("out");
  if (prefix.empty()) {
    std::fprintf(stderr, "gen needs --out\n");
    return 2;
  }
  const uint64_t seed = std::strtoull(args.Get("seed", "1").c_str(), nullptr,
                                      10);
  // The rows are fixed per workload: the first 90% of the generated
  // population is the training set and the rest is held out. The seed
  // shuffles the order of each part, which changes every byte of the
  // text and the order the trainer sums rows in, but not what a tree has
  // to learn. Seeding the population itself (or the split) changes the
  // tree shapes, the work per tree and the held-out AUC from seed to seed
  // by more than a code change should be allowed to.
  ThreadPool pool(Threads());
  const Dataset data = GenerateSynthetic(w.spec, &pool);
  const size_t test_rows = std::max<size_t>(1, data.num_rows() / 10);
  const size_t train_rows = data.num_rows() - test_rows;
  std::vector<uint32_t> order(data.num_rows());
  for (uint32_t r = 0; r < data.num_rows(); ++r) order[r] = r;
  Rng rng(0x9E3779B97F4A7C15ULL * (seed + 1));
  auto shuffle = [&](size_t begin, size_t end) {
    for (size_t i = end - begin; i > 1; --i) {
      std::swap(order[begin + i - 1], order[begin + rng.NextU64() % i]);
    }
  };
  shuffle(0, train_rows);
  shuffle(train_rows, order.size());
  std::string error;
  if (!WriteStringToFile(prefix + ".train",
                         FormatRows(data, order, 0, train_rows, w.format),
                         &error) ||
      !WriteStringToFile(prefix + ".test",
                         FormatRows(data, order, train_rows, order.size(),
                                    w.format),
                         &error)) {
    std::fprintf(stderr, "gen: %s\n", error.c_str());
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------- tracing

// Spans recorded around the public calls. Timestamps are ns since the
// tracer was created. Synthetic spans carry aggregated phase times from
// TrainStats, laid end to end inside their parent because the library
// reports sums, not intervals.
struct Span {
  std::string name;
  int64_t start_ns;
  int64_t end_ns;
  int id;
  int parent;
  bool synthetic;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(NowNs()) {}
  bool enabled() const { return enabled_; }
  int64_t Now() const { return NowNs() - origin_; }
  int64_t ToLocal(int64_t abs_ns) const { return abs_ns - origin_; }

  // Records a finished span; returns its id (-1 when disabled).
  int Add(const std::string& name, int64_t start_ns, int64_t end_ns,
          int parent, bool synthetic = false) {
    if (!enabled_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, start_ns, end_ns, id, parent, synthetic});
    return id;
  }
  // Reserves an id for a span whose end is not known yet.
  int Open(const std::string& name, int parent) {
    const int64_t now = Now();
    return Add(name, now, now, parent);
  }
  void Close(int id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = Now();
  }

  bool Write(const std::string& path) const {
    std::string out;
    for (const Span& s : spans_) {
      out += "{\"name\":\"" + s.name + "\",\"id\":" + std::to_string(s.id) +
             ",\"parent\":" + std::to_string(s.parent) +
             ",\"start_ns\":" + std::to_string(s.start_ns) +
             ",\"end_ns\":" + std::to_string(s.end_ns) +
             ",\"synthetic\":" + (s.synthetic ? "true" : "false") + "}\n";
    }
    std::string error;
    return WriteStringToFile(path, out, &error);
  }

 private:
  bool enabled_;
  int64_t origin_;
  std::vector<Span> spans_;
};

// Times fn() and records it as a span under `parent`; returns seconds.
template <typename Fn>
double Timed(Tracer& tracer, const char* name, int parent, Fn&& fn) {
  const int64_t start = tracer.Now();
  fn();
  const int64_t end = tracer.Now();
  tracer.Add(name, start, end, parent);
  return NsToSec(end - start);
}

// ---------------------------------------------------------------- stats

double Min(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile of a sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// CPU time the hypervisor gave to other guests, summed over all CPUs, in
// clock ticks: the `steal` column of /proc/stat (0 where it is absent).
int64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  int64_t field[8] = {};
  in >> cpu;
  for (int64_t& f : field) in >> f;
  return in && cpu == "cpu" ? field[7] : 0;
}

// Share of all CPUs' time over `seconds` that was stolen.
double StealFrac(int64_t ticks, double seconds) {
  const double cpus = static_cast<double>(std::thread::hardware_concurrency());
  const double tick_s = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  return seconds > 0 && cpus > 0
             ? static_cast<double>(ticks) * tick_s / (seconds * cpus)
             : 0.0;
}

// Operation ledger: every stage call and every served request counts once.
struct Ops {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }
};

// ---------------------------------------------------------------- pipeline

// Per-tree phase sums as TrainStats reports them, read in the iteration
// callback (RunBoosting adds a tree's phases before calling it).
struct PhaseSums {
  int64_t gradient = 0, quantize = 0, build = 0, reduce = 0, find = 0,
          apply = 0, update = 0;
  static PhaseSums Of(const TrainStats& s) {
    return PhaseSums{s.gradient_ns, s.quantize_ns, s.build_hist_ns,
                     s.reduce_ns, s.find_split_ns, s.apply_split_ns,
                     s.update_ns};
  }
  PhaseSums operator-(const PhaseSums& o) const {
    return PhaseSums{gradient - o.gradient, quantize - o.quantize,
                     build - o.build, reduce - o.reduce, find - o.find,
                     apply - o.apply, update - o.update};
  }
};

struct Rep {
  bool traced = false;
  double read_s = 0, cuts_s = 0, bin_s = 0, setup_s = 0, train_s = 0,
         save_s = 0, load_s = 0, holdout_read_s = 0, flatten_s = 0,
         predict_s = 0, pipeline_s = 0;
  double steal_frac = 0;  // of the pipeline's CPU time
  IngestStats ingest;
  TrainStats stats;
  CommStats comm;
  std::vector<double> tree_ms;  // callback to callback (single node)
  int64_t phase_overflow_ns = 0;  // phase sums exceeding a tree's wall
  uint64_t present = 0;
  uint32_t total_bins = 0;
  uint32_t train_rows = 0;
  std::string model_text;  // serialized trained model
  size_t model_bytes = 0;
  GbdtModel loaded;
  std::shared_ptr<const FlatForest> flat;
  Dataset holdout;
  std::vector<double> margins;
  double auc = 0.0;
};

bool ReadText(const Workload& w, const std::string& path, Dataset* out,
              IngestStats* stats, ThreadPool* pool, std::string* error) {
  if (w.format == Format::kCsv) {
    return ReadCsv(path, CsvOptions{}, out, error, stats, pool);
  }
  LibsvmOptions options;
  options.num_features = w.spec.features;  // held-out rows may not reach
                                           // the highest feature id
  return ReadLibsvm(path, options, out, error, stats, pool);
}

// Lays the tree's TrainStats phase deltas end to end inside [start, end):
// gradient, quantize, build (reduce nested inside it), find, apply,
// update. Returns how much the sums exceeded the tree's wall time.
int64_t AddPhaseSpans(Tracer& tracer, int tree_span, int64_t start,
                      int64_t end, const PhaseSums& d) {
  int64_t cursor = start;
  int64_t overflow = 0;
  auto place = [&](const char* name, int64_t ns, int parent) {
    if (ns <= 0) return -1;
    const int64_t s = cursor;
    const int64_t e = std::min(end, s + ns);
    overflow += ns - (e - s);
    cursor = e;
    return tracer.Add(name, s, e, parent, true);
  };
  place("core.gradient", d.gradient, tree_span);
  place("core.quantize", d.quantize, tree_span);
  const int64_t build_start = cursor;
  const int build = place("core.build_hist", d.build, tree_span);
  if (build >= 0 && d.reduce > 0) {
    const int64_t build_end = cursor;
    const int64_t e = std::min(build_end, build_start + d.reduce);
    overflow += d.reduce - (e - build_start);
    tracer.Add("core.reduce", build_start, e, build, true);
  }
  place("core.find_split", d.find, tree_span);
  place("core.apply_split", d.apply, tree_span);
  place("core.update", d.update, tree_span);
  return overflow;
}

// Ingest: read+parse, then (single-node) cuts and binning; setup_s is the
// wall time of exactly these calls.
struct Setup {
  Dataset train;
  BinnedMatrix matrix;
  IngestStats ingest;
  double read_s = 0, cuts_s = 0, bin_s = 0, setup_s = 0;
};

bool RunSetup(const Workload& w, const std::string& data_prefix,
              ThreadPool& pool, Tracer& tracer, int parent, Setup* out,
              Ops* ops) {
  std::string error;
  const int64_t t0 = NowNs();
  bool ok = true;
  out->read_s = Timed(tracer, "data.read_parse", parent, [&] {
    ok = ReadText(w, data_prefix + ".train", &out->train, &out->ingest, &pool,
                  &error);
  });
  ops->Check(ok, "read: " + error);
  if (!ok) return false;
  if (w.dist_workers == 0) {
    QuantileCuts cuts;
    out->cuts_s = Timed(tracer, "data.cuts", parent, [&] {
      cuts = QuantileCuts::Compute(out->train, w.params.max_bins, &pool);
    });
    ops->Check(cuts.num_features() == out->train.num_features(), "cuts");
    out->bin_s = Timed(tracer, "data.bin", parent, [&] {
      out->matrix = BinnedMatrix::Build(out->train, std::move(cuts), &pool);
    });
    ops->Check(out->matrix.num_rows() == out->train.num_rows(), "bin");
  }
  out->setup_s = NsToSec(NowNs() - t0);
  return true;
}

bool RunPipeline(const Workload& w, const std::string& data_prefix,
                 const std::string& model_path, ThreadPool& pool,
                 Tracer& tracer, int parent, Rep* rep, Ops* ops) {
  std::string error;
  GbdtModel model;
  const bool dist = w.dist_workers > 0;
  const int pipeline_span = tracer.Open("pipeline", parent);
  const int64_t steal0 = StealTicks();
  const int64_t t0 = NowNs();

  Setup setup;
  if (!RunSetup(w, data_prefix, pool, tracer, pipeline_span, &setup, ops)) {
    return false;
  }
  const Dataset& train = setup.train;
  const BinnedMatrix& matrix = setup.matrix;
  rep->read_s = setup.read_s;
  rep->cuts_s = setup.cuts_s;
  rep->bin_s = setup.bin_s;
  rep->setup_s = setup.setup_s;
  rep->ingest = setup.ingest;
  bool ok = true;

  if (dist) {
    DistributedResult result;
    rep->train_s = Timed(tracer, "distributed.train", pipeline_span, [&] {
      result = DistributedGbdt::Train(train, w.dist_workers, w.params,
                                      w.dist_worker_threads);
    });
    model = std::move(result.model);
    rep->comm = result.comm;
  } else {
    GbdtTrainer trainer(w.params);
    IterCallback callback;
    std::vector<int64_t> tree_end;
    std::vector<PhaseSums> tree_phase;
    PhaseSums last;
    callback = [&](const IterationInfo&) {
      tree_end.push_back(tracer.Now());
      const PhaseSums now = PhaseSums::Of(rep->stats);
      tree_phase.push_back(now - last);
      last = now;
    };
    const int64_t train_start = tracer.Now();
    model = trainer.TrainBinned(matrix, train.labels(), &rep->stats,
                                callback);
    const int64_t train_end = tracer.Now();
    rep->train_s = NsToSec(train_end - train_start);
    const int train_span = tracer.Add("core.train", train_start, train_end,
                                      pipeline_span);
    for (size_t i = 0; i < tree_end.size(); ++i) {
      const int64_t s = i == 0 ? train_start : tree_end[i - 1];
      rep->tree_ms.push_back(NsToMs(tree_end[i] - s));
      if (!tracer.enabled()) continue;
      const int tree_span = tracer.Add("core.tree", s, tree_end[i],
                                       train_span);
      rep->phase_overflow_ns +=
          AddPhaseSpans(tracer, tree_span, s, tree_end[i], tree_phase[i]);
    }
  }
  ops->Check(model.NumTrees() == static_cast<size_t>(w.params.num_trees),
             "train: tree count");

  rep->save_s = Timed(tracer, "core.save", pipeline_span, [&] {
    ok = SaveModel(model_path, model, &error);
  });
  ops->Check(ok, "save: " + error);
  rep->load_s = Timed(tracer, "core.load", pipeline_span, [&] {
    ok = LoadModel(model_path, &rep->loaded, &error);
  });
  if (!ok) {
    ops->Check(false, "load: " + error);
    return false;
  }
  rep->holdout_read_s = Timed(tracer, "data.read_holdout", pipeline_span, [&] {
    ok = ReadText(w, data_prefix + ".test", &rep->holdout, nullptr, &pool,
                  &error);
  });
  ops->Check(ok, "read holdout: " + error);
  if (!ok) return false;
  rep->flatten_s = Timed(tracer, "predict.flatten", pipeline_span,
                         [&] { rep->flat = rep->loaded.FlatSnapshot(); });
  ops->Check(rep->flat != nullptr, "flatten");
  rep->predict_s = Timed(tracer, "predict.batch", pipeline_span, [&] {
    rep->margins = Predictor(*rep->flat).PredictMargins(rep->holdout, &pool);
  });
  rep->pipeline_s = NsToSec(NowNs() - t0);
  rep->steal_frac = StealFrac(StealTicks() - steal0, rep->pipeline_s);
  tracer.Close(pipeline_span);

  // Checks, outside the timed pipeline. save -> load -> re-serialize must
  // reproduce the file byte for byte.
  std::string file_bytes;
  ReadFileToString(model_path, &file_bytes, &error);
  rep->model_text = SerializeModel(model);
  rep->model_bytes = file_bytes.size();
  ops->Check(file_bytes == rep->model_text &&
                 SerializeModel(rep->loaded) == file_bytes,
             "load: save->load->serialize not byte-identical");
  // Held-out margins of the loaded model must equal the trained model's.
  const std::vector<double> expect = model.PredictMargins(rep->holdout, &pool);
  rep->auc = Auc(rep->holdout.labels(), rep->margins);
  ops->Check(expect == rep->margins && rep->auc >= w.auc_floor,
             "predict: margins differ from trained model or AUC " +
                 std::to_string(rep->auc) + " below floor");

  rep->present = train.NumPresent();
  rep->total_bins = dist ? 0 : matrix.TotalBins();
  rep->train_rows = train.num_rows();
  return true;
}

// ---------------------------------------------------------------- serving

// One burst's figures. Latency runs from when a request was due to its
// callback; lateness from when it was due to when the generator sent it.
struct BurstResult {
  double p50_us = 0.0, p99_us = 0.0, late_p99_us = 0.0, reload_s = 0.0;
  int64_t samples = 0;
};

// Callback target: one slot per request, written by the serving thread
// that retires the request's batch.
struct ServeSlots {
  std::vector<double> margin;
  std::vector<int64_t> done_ns;
  std::atomic<int64_t> completed{0};
};

// What every burst serves: the held-out rows densified to the serving
// width, and the batch margins of both model generations. The old
// generation is the first half of the trees (an older checkpoint).
struct ServeInput {
  GbdtModel old_model;
  GbdtModel new_model;
  std::vector<float> dense;
  uint32_t rows = 0;
  uint32_t width = 0;
  std::vector<double> expect_old, expect_new;
};

std::unique_ptr<ServeInput> MakeServeInput(const GbdtModel& full,
                                           const Dataset& holdout,
                                           ThreadPool& pool) {
  auto in = std::make_unique<ServeInput>();
  in->new_model = full;
  in->old_model = GbdtModel(full.objective(), full.base_margin(),
                            full.cuts());
  for (size_t t = 0; t < full.NumTrees() / 2; ++t) {
    in->old_model.AddTree(full.tree(t));
  }
  in->expect_old = in->old_model.PredictMargins(holdout, &pool);
  in->expect_new = in->new_model.PredictMargins(holdout, &pool);
  in->rows = holdout.num_rows();
  in->width = full.cuts().num_features();
  in->dense.assign(static_cast<size_t>(in->rows) * in->width, kMissingValue);
  for (uint32_t r = 0; r < in->rows; ++r) {
    float* row = in->dense.data() + static_cast<size_t>(r) * in->width;
    holdout.ForEachInRow(r, [&](uint32_t f, float v) {
      if (f < in->width) row[f] = v;
    });
  }
  return in;
}

// Open-loop burst: one generator thread submits a request every 1/rate
// seconds whether or not earlier ones finished; a second thread calls
// Reload halfway through, switching the server from one generation to
// the other (old -> new on even bursts, new -> old on odd ones).
BurstResult RunServeBurst(const Workload& w, const ServeInput& in,
                          ModelServer& server, bool from_new, Tracer& tracer,
                          int parent, Ops* ops) {
  const uint32_t width = in.width;
  const uint32_t rows = in.rows;
  const std::vector<double>& expect_from =
      from_new ? in.expect_new : in.expect_old;
  const std::vector<double>& expect_to =
      from_new ? in.expect_old : in.expect_new;
  const uint64_t version_before = server.ModelVersion();
  const int64_t n = static_cast<int64_t>(w.serve_rate * w.serve_seconds);
  ServeSlots slots;
  slots.margin.assign(static_cast<size_t>(n), 0.0);
  slots.done_ns.assign(static_cast<size_t>(n), 0);
  std::vector<int64_t> due_ns(static_cast<size_t>(n));
  std::vector<int64_t> submit_ns(static_cast<size_t>(n));
  std::atomic<int64_t> submitted{0};
  const double period_ns = 1e9 / w.serve_rate;

  const int burst_span = tracer.Open("serve.burst", parent);
  const int64_t start = NowNs() + 1000000;  // first request due in 1 ms
  int64_t reload_begin = 0, reload_end = 0, idx_after = 0;
  std::thread reloader([&] {
    const int64_t at = start + static_cast<int64_t>(w.serve_seconds * 5e8);
    std::this_thread::sleep_for(std::chrono::nanoseconds(at - NowNs()));
    reload_begin = NowNs();
    server.Reload(from_new ? in.old_model : in.new_model);
    reload_end = NowNs();
    idx_after = submitted.load(std::memory_order_acquire);
  });
  for (int64_t i = 0; i < n; ++i) {
    const int64_t due =
        start + static_cast<int64_t>(static_cast<double>(i) * period_ns);
    // Yield while early, so serving threads queued on this core still run.
    int64_t now = NowNs();
    while (now < due) {
      std::this_thread::yield();
      now = NowNs();
    }
    due_ns[static_cast<size_t>(i)] = due;
    submit_ns[static_cast<size_t>(i)] = now;
    ServeSlots* s = &slots;
    server.SubmitWithCallback(
        in.dense.data() + static_cast<size_t>(i % rows) * width, width,
        [s, i](double margin) {
          s->margin[static_cast<size_t>(i)] = margin;
          s->done_ns[static_cast<size_t>(i)] = NowNs();
          s->completed.fetch_add(1, std::memory_order_release);
        });
    submitted.store(i + 1, std::memory_order_release);
  }
  reloader.join();
  server.Flush();
  const int64_t wait_deadline = NowNs() + 30 * 1000000000LL;
  while (slots.completed.load(std::memory_order_acquire) < n &&
         NowNs() < wait_deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  // Late callbacks would write into `slots` after it is gone, so a server
  // that has not answered within the deadline ends the run.
  HARP_CHECK_EQ(slots.completed.load(std::memory_order_acquire), n)
      << "serve: requests still pending 30 s after the burst";
  BurstResult res;
  tracer.Close(burst_span);
  tracer.Add("serve.reload", tracer.ToLocal(reload_begin),
             tracer.ToLocal(reload_end), burst_span);
  res.reload_s = NsToSec(reload_end - reload_begin);

  // Each request is one operation: its margin must bit-equal the batch
  // prediction of the generation that could have served it. Requests
  // finished before Reload began saw the generation the burst started
  // on; requests submitted after it returned must see the other one; the
  // rest may see either.
  std::vector<double> latency_us, late_us;
  int64_t served_from = 0, served_to = 0;
  for (int64_t i = 0; i < n; ++i) {
    const size_t k = static_cast<size_t>(i);
    const double m = slots.margin[k];
    const bool is_from = m == expect_from[static_cast<size_t>(i % rows)];
    const bool is_to = m == expect_to[static_cast<size_t>(i % rows)];
    bool ok = is_from || is_to;
    if (slots.done_ns[k] < reload_begin) ok = ok && is_from;
    // submitted == idx_after when Reload returned, so request idx_after
    // itself may have been inside SubmitWithCallback during the Reload.
    if (i > idx_after) ok = ok && is_to;
    served_from += is_from && !is_to;
    served_to += is_to && !is_from;
    ops->Check(ok, "serve: margin differs from its generation");
    latency_us.push_back(static_cast<double>(slots.done_ns[k] - due_ns[k]) /
                         1e3);
    late_us.push_back(static_cast<double>(submit_ns[k] - due_ns[k]) / 1e3);
  }
  ops->Check(served_from > 0 && served_to > 0 &&
                 server.ModelVersion() == version_before + 1,
             "serve: reload did not switch generations");
  res.p50_us = Quantile(latency_us, 0.50);
  res.p99_us = Quantile(latency_us, 0.99);
  res.late_p99_us = Quantile(late_us, 0.99);
  res.samples = static_cast<int64_t>(latency_us.size());
  return res;
}

// ---------------------------------------------------------------- output

// Fastest training time of the (traced or untraced) repetitions. Every
// repetition trains the same model (checked), so tree i is the same work
// in each, and a host spell that slowed tree i in one repetition rarely
// covers it in all of them. With per-tree times it is the sum over trees
// of each tree's fastest time, plus the fastest time from the last tree to
// the return of TrainBinned; without them (DistributedGbdt::Train has no
// callback) it is the fastest repetition.
double FastestTrainSec(const std::vector<Rep>& reps, bool traced) {
  std::vector<double> tree_min_ms, tail_s, train_s;
  for (const Rep& r : reps) {
    if (r.traced != traced) continue;
    train_s.push_back(r.train_s);
    double trees_ms = 0.0;
    for (size_t i = 0; i < r.tree_ms.size(); ++i) {
      if (i == tree_min_ms.size()) tree_min_ms.push_back(r.tree_ms[i]);
      tree_min_ms[i] = std::min(tree_min_ms[i], r.tree_ms[i]);
      trees_ms += r.tree_ms[i];
    }
    tail_s.push_back(r.train_s - trees_ms / 1e3);
  }
  if (tree_min_ms.empty()) return Min(train_s);
  double total_ms = 0.0;
  for (double ms : tree_min_ms) total_ms += ms;
  return total_ms / 1e3 + Min(tail_s);
}

// Fastest pipeline: the fastest training plus the fastest rest of the
// pipeline (setup, save, load, held-out read, flatten, predict).
double FastestPipelineSec(const std::vector<Rep>& reps, bool traced) {
  std::vector<double> rest;
  for (const Rep& r : reps) {
    if (r.traced == traced) rest.push_back(r.pipeline_s - r.train_s);
  }
  return FastestTrainSec(reps, traced) + Min(rest);
}

class JsonObject {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& v) {
    std::string esc;
    for (char c : v) {
      if (c == '"' || c == '\\') esc.push_back('\\');
      if (static_cast<unsigned char>(c) >= 0x20) esc.push_back(c);
    }
    Raw(key, "\"" + esc + "\"");
  }
  void Raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":") + v;
  }
  std::string Dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

template <typename F>
std::vector<double> Collect(const std::vector<Rep>& reps, bool traced, F f) {
  std::vector<double> out;
  for (const Rep& r : reps) {
    if (r.traced == traced) out.push_back(f(r));
  }
  return out;
}

int CmdRun(const Args& args) {
  Workload w;
  if (!FindWorkload(args.Get("workload"), &w)) {
    std::fprintf(stderr, "unknown workload '%s'\n",
                 args.Get("workload").c_str());
    return 2;
  }
  const std::string prefix = args.Get("data");
  const double seconds = std::atof(args.Get("seconds", "10").c_str());
  const bool trace = args.Get("trace", "0") == "1";
  const std::string spans_path = args.Get("spans");
  if (!args.Get("serve-rate").empty()) {
    w.serve_rate = std::atof(args.Get("serve-rate").c_str());
  }
  if (prefix.empty() || seconds <= 0 || (trace && spans_path.empty()) ||
      w.serve_rate * w.serve_seconds < 2) {
    std::fprintf(stderr, "run needs --data, --seconds > 0, --spans with "
                         "--trace 1, and a serve rate of at least 2 requests "
                         "per burst\n");
    return 2;
  }
  const std::string model_path = prefix + ".model";
  ThreadPool pool(Threads());
  Tracer tracer(trace);
  Tracer untraced(false);
  Ops ops;
  const int run_span = tracer.Open("run", -1);

  // Each repetition runs the pipeline, then serve bursts, batch-prediction
  // calls and extra setups, so that every figure samples the whole run.
  // Repetitions go on until 90% of the budget is used and at least 5 have
  // run (with tracing, untraced and traced repetitions alternate, at least
  // 3 of each). On a shared virtual machine the host takes CPU time from
  // the guest in spells of seconds to minutes, and a spell slows every
  // call it overlaps by up to 2x. Durations are therefore reported as the
  // fastest sample of the run: a spell can only lengthen a sample, so the
  // minimum tracks the code's own cost for as long as one sample of each
  // figure falls outside a spell.
  std::vector<Rep> reps;
  std::vector<double> setup_samples;  // untraced pipelines + extra setups
  std::vector<double> predict_s;      // one per throughput call
  std::vector<BurstResult> bursts;
  std::unique_ptr<ServeInput> serve_in;
  std::unique_ptr<ModelServer> server;  // lives across bursts, as in use
  bool serving_new = false;
  Dataset batch;  // held-out rows tiled to at least predict_batch_rows
  std::vector<double> batch_expect;
  size_t peak_rss = 0;
  const int min_reps = trace ? 6 : 5;
  const int64_t run_steal0 = StealTicks();
  const Stopwatch budget;
  while (static_cast<int>(reps.size()) < min_reps ||
         (budget.ElapsedSec() < 0.9 * seconds && reps.size() < 40)) {
    Rep rep;
    rep.traced = trace && reps.size() % 2 == 1;
    Tracer& t = rep.traced ? tracer : untraced;
    if (!RunPipeline(w, prefix, model_path, pool, t, run_span, &rep, &ops)) {
      break;
    }
    if (!rep.traced) setup_samples.push_back(rep.setup_s);
    if (serve_in == nullptr) {
      // Peak memory of one text -> model -> prediction pass in a fresh
      // process. Serving is left out: its peak follows how many
      // block_rows x row_width batch buffers happen to be in flight.
      peak_rss = PeakRssBytes();
      serve_in = MakeServeInput(rep.loaded, rep.holdout, pool);
      ServeConfig config;
      config.num_threads = 2;
      server = std::make_unique<ModelServer>(serve_in->old_model, config);
      HARP_CHECK_EQ(server->row_width(), serve_in->width);
      // One unrecorded burst warms the server's threads and buffers.
      RunServeBurst(w, *serve_in, *server, false, untraced, -1, &ops);
      serving_new = true;
      // The throughput batch is the held-out rows tiled by doubling, so a
      // call is long next to the pool's wake-up cost.
      batch = rep.holdout;
      batch_expect = rep.margins;
      while (batch.num_rows() < w.predict_batch_rows) {
        batch = batch.ConcatRows(batch);
        batch_expect.insert(batch_expect.end(), batch_expect.begin(),
                            batch_expect.end());
      }
    }
    for (int b = 0; b < kBurstsPerRep; ++b) {
      bursts.push_back(RunServeBurst(w, *serve_in, *server, serving_new,
                                     tracer, run_span, &ops));
      serving_new = !serving_new;
    }
    {
      const int span = tracer.Open("predict.throughput", run_span);
      const Predictor predictor(*rep.flat);
      const Stopwatch spent;
      for (int calls = 0; calls < 3 || spent.ElapsedSec() < 0.25; ++calls) {
        const Stopwatch watch;
        const std::vector<double> m = predictor.PredictMargins(batch, &pool);
        predict_s.push_back(watch.ElapsedSec());
        ops.Check(m == batch_expect, "predict: throughput margins differ");
      }
      tracer.Close(span);
    }
    // A setup is short next to a pipeline, so setup_s gets extra
    // setup-only samples: at least one per repetition, and more while they
    // take under 0.3 s in total.
    const Stopwatch setups;
    do {
      Setup extra;
      if (!RunSetup(w, prefix, pool, untraced, -1, &extra, &ops)) break;
      setup_samples.push_back(extra.setup_s);
    } while (setups.ElapsedSec() < 0.3);
    // Later code needs the first repetition's model text and the latest
    // repetition's model and held-out rows; release the rest.
    if (!reps.empty()) {
      ops.Check(rep.model_text == reps[0].model_text,
                "train: model differs between repetitions");
      rep.model_text = std::string();
      Rep& prev = reps.back();
      prev.loaded = GbdtModel();
      prev.flat.reset();
      prev.holdout = Dataset();
      prev.margins = std::vector<double>();
    }
    reps.push_back(std::move(rep));
  }
  if (reps.empty()) {
    for (const std::string& f : ops.failures) {
      std::fprintf(stderr, "FAILED: %s\n", f.c_str());
    }
    return 1;
  }
  const Rep& last = reps.back();
  const double run_steal_frac =
      StealFrac(StealTicks() - run_steal0, budget.ElapsedSec());

  server->Shutdown();
  const ServeStats serve_stats = server->Stats();
  ops.Check(serve_stats.rows_served == serve_stats.rows_submitted &&
                serve_stats.snapshots_retired == serve_stats.snapshots_freed,
            "serve: rows lost or model generations not reclaimed");
  const double bursts_run = static_cast<double>(bursts.size() + 1);
  auto burst_values = [&](auto f) {
    std::vector<double> v;
    for (const BurstResult& b : bursts) v.push_back(f(b));
    return v;
  };
  int behind = 0;
  double late_p99 = 0.0;
  int64_t serve_samples = 0;
  for (const BurstResult& b : bursts) {
    behind += b.late_p99_us > 1000.0;
    late_p99 = std::max(late_p99, b.late_p99_us);
    serve_samples += b.samples;
  }

  // Sharded training must build the same model as one worker.
  if (w.dist_workers > 0) {
    Dataset train;
    std::string error;
    const bool read = ReadText(w, prefix + ".train", &train, nullptr, &pool,
                               &error);
    ops.Check(read && SerializeModel(DistributedGbdt::Train(
                                         train, 1, w.params,
                                         w.dist_worker_threads)
                                         .model) == reps[0].model_text,
              "distributed: W=" + std::to_string(w.dist_workers) +
                  " model differs from W=1");
  }
  tracer.Close(run_span);

  if (behind > 0) {
    std::fprintf(stderr,
                 "WARNING: open-loop generator fell behind its schedule in "
                 "%d of %zu bursts (worst late p99 %.0f us); flagged in the "
                 "signature\n",
                 behind, bursts.size(), late_p99);
  }
  if (run_steal_frac > 0.02) {
    std::fprintf(stderr,
                 "WARNING: the host took %.1f%% of this machine's CPU time "
                 "during the run; flagged in the signature\n",
                 100.0 * run_steal_frac);
  }
  for (const std::string& f : ops.failures) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }

  const bool dist = w.dist_workers > 0;
  std::fprintf(stderr, "reps (setup/train/pipeline s, steal %%):");
  for (const Rep& r : reps) {
    std::fprintf(stderr, " %s%.3f/%.3f/%.3f/%.1f", r.traced ? "T:" : "",
                 r.setup_s, r.train_s, r.pipeline_s, 100.0 * r.steal_frac);
  }
  std::fprintf(stderr, "\nbursts (p50/p99/late p99 us):");
  for (const BurstResult& b : bursts) {
    std::fprintf(stderr, " %.0f/%.0f/%.0f", b.p50_us, b.p99_us,
                 b.late_p99_us);
  }
  std::fprintf(stderr, "\n");
  JsonObject e2e;
  e2e.Num("setup_s", Min(setup_samples));
  e2e.Num("train_s", FastestTrainSec(reps, false));
  e2e.Num("pipeline_s", FastestPipelineSec(reps, false));
  e2e.Num("holdout_auc", last.auc);
  e2e.Num("predict_rows_per_s",
          static_cast<double>(batch.num_rows()) / Min(predict_s));
  e2e.Num("serve_p50_us",
          Min(burst_values([](const BurstResult& b) { return b.p50_us; })));
  e2e.Num("peak_rss_mb", static_cast<double>(peak_rss) / (1 << 20));

  // Per-layer metrics come from the traced repetitions (or all of them
  // when the run is untraced); times are the fastest, as above.
  const bool from_traced = trace;
  auto lmin = [&](auto f) { return Min(Collect(reps, from_traced, f)); };
  const Rep* lrep = &last;
  for (const Rep& r : reps) {
    if (r.traced == from_traced) lrep = &r;
  }
  const TrainStats& ts = lrep->stats;
  std::vector<double> tree_ms;
  for (const Rep& r : reps) {
    if (r.traced == from_traced) {
      tree_ms.insert(tree_ms.end(), r.tree_ms.begin(), r.tree_ms.end());
    }
  }
  JsonObject layer;
  layer.Num("data.read_parse_s", lmin([](const Rep& r) { return r.read_s; }));
  layer.Num("data.cuts_s", lmin([](const Rep& r) { return r.cuts_s; }));
  layer.Num("data.bin_s", lmin([](const Rep& r) { return r.bin_s; }));
  layer.Num("data.read_holdout_s",
            lmin([](const Rep& r) { return r.holdout_read_s; }));
  layer.Num("data.parse_mb_per_s",
            Max(Collect(reps, from_traced,
                        [](const Rep& r) { return r.ingest.ParseMBps(); })));
  layer.Num("data.text_bytes", static_cast<double>(lrep->ingest.bytes));
  layer.Num("data.rows", lrep->train_rows);
  layer.Num("data.present", static_cast<double>(lrep->present));
  layer.Num("data.total_bins", lrep->total_bins);
  layer.Num("core.tree_ms_p50", Quantile(tree_ms, 0.50));
  layer.Num("core.tree_ms_p80", Quantile(tree_ms, 0.80));
  auto phase = [&](int64_t TrainStats::*field) {
    return lmin([field](const Rep& r) { return NsToSec(r.stats.*field); });
  };
  layer.Num("core.build_hist_s", phase(&TrainStats::build_hist_ns));
  layer.Num("core.reduce_s", phase(&TrainStats::reduce_ns));
  layer.Num("core.find_split_s", phase(&TrainStats::find_split_ns));
  layer.Num("core.apply_split_s", phase(&TrainStats::apply_split_ns));
  layer.Num("core.gradient_s", phase(&TrainStats::gradient_ns));
  layer.Num("core.update_s", phase(&TrainStats::update_ns));
  layer.Num("core.phase_overflow_s",
            lmin([](const Rep& r) { return NsToSec(r.phase_overflow_ns); }));
  layer.Num("core.hist_updates", static_cast<double>(ts.hist_updates));
  layer.Num("core.ns_per_hist_update", ts.NsPerHistUpdate());
  layer.Num("core.leaves", static_cast<double>(ts.leaves));
  layer.Num("core.topk_batches", static_cast<double>(ts.topk_batches));
  layer.Num("core.apply_bytes_moved",
            static_cast<double>(ts.apply_bytes_moved));
  layer.Num("core.hist_peak_bytes", static_cast<double>(ts.hist_peak_bytes));
  layer.Num("core.save_s", lmin([](const Rep& r) { return r.save_s; }));
  layer.Num("core.load_s", lmin([](const Rep& r) { return r.load_s; }));
  layer.Num("core.model_bytes", static_cast<double>(lrep->model_bytes));
  layer.Num("parallel.utilization", ts.sync.Utilization(ts.wall_ns));
  layer.Num("parallel.barrier_overhead", ts.sync.BarrierOverhead());
  layer.Num("parallel.region_launches",
            static_cast<double>(ts.grow_region_launches));
  layer.Num("parallel.phase_barriers",
            static_cast<double>(ts.grow_phase_barriers));
  layer.Num("predict.flatten_s",
            lmin([](const Rep& r) { return r.flatten_s; }));
  layer.Num("predict.batch_s", lmin([](const Rep& r) { return r.predict_s; }));
  // The tail is a layer figure, not an end-to-end one: on a shared virtual
  // machine, host stalls of 0.5-10 ms move every burst's p99 for tens of
  // seconds at a time, far beyond any bound a code change could be held to.
  layer.Num("serve.p99_us", Median(burst_values([](const BurstResult& b) {
              return b.p99_us; })));
  // Server counters cover every burst of the run, the warm-up included.
  layer.Num("serve.queue_p50_us",
            serve_stats.queue_ns.PercentileNs(0.5) / 1e3);
  layer.Num("serve.service_p50_us",
            serve_stats.service_ns.PercentileNs(0.5) / 1e3);
  layer.Num("serve.batch_fill",
            serve_stats.avg_batch_fill / Predictor::kRowBlock);
  layer.Num("serve.deadline_seals_per_burst",
            static_cast<double>(serve_stats.deadline_seals) / bursts_run);
  layer.Num("serve.reload_s", Median(burst_values([](const BurstResult& b) {
              return b.reload_s; })));
  layer.Num("serve.gen_late_p99_us", late_p99);
  const CommStats& comm = lrep->comm;
  layer.Num("distributed.hist_wire_bytes",
            static_cast<double>(comm.hist_wire_bytes));
  layer.Num("distributed.hist_dense_bytes",
            static_cast<double>(comm.hist_dense_bytes));
  layer.Num("distributed.wire_ratio",
            comm.hist_wire_bytes > 0
                ? static_cast<double>(comm.hist_dense_bytes) /
                      static_cast<double>(comm.hist_wire_bytes)
                : 0.0);
  layer.Num("distributed.hist_exchanges",
            static_cast<double>(comm.hist_exchanges));
  layer.Num("distributed.allreduce_bytes",
            static_cast<double>(comm.allreduce_bytes));
  layer.Num("bench.steal_frac", run_steal_frac);
  if (trace) {
    const double untraced_s = FastestPipelineSec(reps, false);
    const double traced_s = FastestPipelineSec(reps, true);
    layer.Num("bench.untraced_pipeline_s", untraced_s);
    layer.Num("bench.traced_pipeline_s", traced_s);
    layer.Num("bench.trace_overhead_frac", traced_s / untraced_s - 1.0);
  }

  const TrainParams& p = w.params;
  JsonObject sig;
  sig.Num("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  sig.Str("cpu", CpuModel());
  sig.Str("simd", ToString(ResolveSimdLevel(p.simd)));
  sig.Str("compiler", PERFBENCH_COMPILER);
  sig.Str("build_type", PERFBENCH_BUILD_TYPE);
  sig.Str("cxx_flags", PERFBENCH_CXX_FLAGS);
  sig.Num("train_threads", dist ? w.dist_workers * w.dist_worker_threads
                                : Threads());
  sig.Num("serve_threads", 2);
  sig.Str("format", w.format == Format::kCsv ? "csv" : "libsvm");
  sig.Num("rows_train", lrep->train_rows);
  sig.Num("rows_holdout", last.holdout.num_rows());
  sig.Num("features", w.spec.features);
  sig.Str("trainer", dist ? "DistributedGbdt W=" +
                                std::to_string(w.dist_workers) + "x" +
                                std::to_string(w.dist_worker_threads) +
                                " " + p.comm_compress +
                                (p.quantize_hist ? "+quant" : "")
                          : ToString(p.mode));
  sig.Num("trees", p.num_trees);
  sig.Num("tree_size", p.tree_size);
  sig.Num("topk", p.topk);
  sig.Num("reps", static_cast<double>(reps.size()));
  sig.Num("setup_samples", static_cast<double>(setup_samples.size()));
  sig.Num("predict_batch_rows", batch.num_rows());
  sig.Num("predict_calls", static_cast<double>(predict_s.size()));
  sig.Num("serve_rate_per_s", w.serve_rate);
  sig.Num("serve_bursts", static_cast<double>(bursts.size()));
  sig.Num("serve_samples", static_cast<double>(serve_samples));
  sig.Num("serve_block_rows", Predictor::kRowBlock);
  sig.Num("serve_deadline_us", 200);
  sig.Num("generator_behind_bursts", behind);
  sig.Num("steal_frac", run_steal_frac);

  JsonObject out;
  out.Num("attempted", static_cast<double>(ops.attempted));
  out.Num("failed", static_cast<double>(ops.failed));
  out.Raw("e2e", e2e.Dump());
  out.Raw("layer", layer.Dump());
  out.Raw("signature", sig.Dump());
  if (trace && !tracer.Write(spans_path)) {
    std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
    return 1;
  }
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (argc < 2 || !ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: harp_perfbench gen|run --workload W [options]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "gen") return CmdGen(args);
  if (cmd == "run") return CmdRun(args);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}
