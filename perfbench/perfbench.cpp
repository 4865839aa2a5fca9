// The repository benchmark: committed events/s of the sequential kernel and
// of Time Warp at 1 and 4 PEs on one workload, plus a per-layer ledger from
// a separate traced run. Usually launched through perfbench/run.py, which
// builds this binary first:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--corrupt] [--source-id <id>] [--spans <path>]
//
// Kernel runs execute in a forked worker process, so an abort or a wedge
// counts as one failed run instead of ending the benchmark. Each run is
// checked against an untimed sequential reference of the same seed
// (LpState::equals over every LP plus the model's digest). The last stdout
// line is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics for --trace 0 and the per-layer metrics for
// --trace 1. The line before it is the provenance stamp.
//
// --tiny shrinks the workload for the self-check; --corrupt flips one LP
// field after the first Time Warp run to prove the gate counts it.

#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include <algorithm>
#include <csignal>
#include <cerrno>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "des/engine.hpp"
#include "des/event.hpp"
#include "des/model.hpp"
#include "des/pending_set.hpp"
#include "des/phold.hpp"
#include "hotpotato/model.hpp"
#include "hotpotato/policy.hpp"
#include "hotpotato/router_state.hpp"
#include "hotpotato/stats.hpp"
#include "net/mapping.hpp"
#include "net/torus.hpp"
#include "obs/metrics.hpp"
#include "util/hash.hpp"
#include "util/mpsc_queue.hpp"
#include "util/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using hp::obs::Counter;
using hp::obs::Phase;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

template <typename T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

// The traced decorator reads the TSC around every model call (cheaper than
// the clock); ticks convert to ns with a rate calibrated once in main().
std::uint64_t ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return now_ns();
#endif
}
double g_ns_per_tick = 1.0;

void calibrate_ticks() {
  const std::uint64_t n0 = now_ns(), t0 = ticks();
  while (now_ns() - n0 < 20000000) {
  }
  g_ns_per_tick = static_cast<double>(now_ns() - n0) /
                  static_cast<double>(std::max<std::uint64_t>(1, ticks() - t0));
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  // Why the workload exists: which layer it stresses and what it controls.
  const char* why;
  bool hotpotato;
  // Hot-potato: n x n torus run for `steps` steps.
  std::int32_t n;
  std::uint32_t steps;
  // PHOLD: lps x jobs, remote share, lookahead, mean delay, end time.
  std::uint32_t lps, jobs;
  double remote, lookahead, mean_delay, end_time;
  // Time Warp settings (ross_cli's choices for the model).
  std::uint32_t kps;
  double window;
};

// BENCHMARK.json gates hotpotato_torus16 and phold_remote. hotpotato_torus64
// stays runnable by name for working-set studies but is not gated: its
// working set lives in the host's shared L3 and DRAM, and on a shared
// 4-vCPU Xeon VM its unscaled rates spread 17-40% between 50 s runs of the
// same code, wider than any bound a regression gate can use.
const Workload kWorkloads[] = {
    {"hotpotato_torus64",
     "The paper's model on a 64x64 torus: the handler and a working set "
     "larger than L2 dominate; block mapping keeps remote traffic and "
     "rollback light, so the Time Warp tax shows most clearly.",
     true, 64, 64, 0, 0, 0, 0, 0, 0, 64, 30.0},
    {"hotpotato_torus16",
     "The paper's model on a 16x16 torus: the BHW handler and the torus "
     "layer on an in-cache working set; small blocks per PE give Time Warp "
     "a real remote and rollback share.",
     true, 16, 1024, 0, 0, 0, 0, 0, 0, 64, 30.0},
    {"phold_remote",
     "PHOLD, 1024 LPs x 4 jobs, 50% remote, lookahead 0.1: a two-draw "
     "handler leaves the kernel layers (pending set, pool, cancellation, "
     "inbox, rollback, GVT) almost all the work, on continuous timestamps.",
     false, 0, 0, 1024, 4, 0.5, 0.1, 1.0, 250.0, 32, 10.0},
};

// The three kernels every workload runs on identical input.
enum Kernel : int { kSeq = 0, kTw1 = 1, kTw4 = 2, kNumKernels = 3 };
const char* const kKernelName[kNumKernels] = {"seq", "tw1", "tw4"};
const std::uint32_t kKernelPes[kNumKernels] = {1, 1, 4};

// ---------------------------------------------------------------------------
// The traced model decorator: times every forward/reverse/commit call into
// the wrapped model with per-thread accumulators merged after the run.

// Times are in ticks until merged() converts them to ns.
struct alignas(64) CallAcc {
  std::uint64_t fwd_ns = 0, fwd_calls = 0;
  std::uint64_t rev_ns = 0, rev_calls = 0;
  std::uint64_t commit_ns = 0, commit_calls = 0;
  std::uint64_t tick = 0;
};

class TimedModel final : public hp::des::Model {
 public:
  // Reservoir of executed-event timestamp increments (ts - send_ts), kept
  // for the pending-set hold model when `sample_increments` is set.
  static constexpr std::size_t kMaxIncrements = 4096;

  TimedModel(hp::des::Model& inner, bool sample_increments)
      : inner_(inner), id_(next_id_.fetch_add(1) + 1),
        sample_(sample_increments) {}

  std::unique_ptr<hp::des::LpState> make_state(std::uint32_t lp) override {
    return inner_.make_state(lp);
  }
  void init_lp(std::uint32_t lp, hp::des::InitContext& ctx) override {
    inner_.init_lp(lp, ctx);
  }
  void forward(hp::des::LpState& s, hp::des::Event& ev,
               hp::des::Context& ctx) override {
    CallAcc& a = acc();
    if (sample_ && (++a.tick & 15) == 0 && ev.key.ts > ev.send_ts &&
        increments_.size() < kMaxIncrements) {
      increments_.push_back(ev.key.ts - ev.send_ts);
    }
    const std::uint64_t t0 = ticks();
    inner_.forward(s, ev, ctx);
    a.fwd_ns += ticks() - t0;
    ++a.fwd_calls;
  }
  void reverse(hp::des::LpState& s, hp::des::Event& ev,
               hp::des::Context& ctx) override {
    CallAcc& a = acc();
    const std::uint64_t t0 = ticks();
    inner_.reverse(s, ev, ctx);
    a.rev_ns += ticks() - t0;
    ++a.rev_calls;
  }
  void commit(hp::des::LpState& s, const hp::des::Event& ev) override {
    CallAcc& a = acc();
    const std::uint64_t t0 = ticks();
    inner_.commit(s, ev);
    a.commit_ns += ticks() - t0;
    ++a.commit_calls;
  }

  CallAcc merged() const {
    CallAcc m;
    for (const CallAcc& a : accs_) {
      m.fwd_ns += a.fwd_ns;
      m.fwd_calls += a.fwd_calls;
      m.rev_ns += a.rev_ns;
      m.rev_calls += a.rev_calls;
      m.commit_ns += a.commit_ns;
      m.commit_calls += a.commit_calls;
    }
    for (std::uint64_t* t : {&m.fwd_ns, &m.rev_ns, &m.commit_ns}) {
      *t = static_cast<std::uint64_t>(static_cast<double>(*t) * g_ns_per_tick);
    }
    return m;
  }
  // Only sampled by the sequential kernel (one thread), read after run().
  const std::vector<double>& increments() const { return increments_; }

 private:
  CallAcc& acc() {
    thread_local std::uint64_t owner = 0;
    thread_local CallAcc* slot = nullptr;
    if (HP_UNLIKELY(owner != id_)) {
      const std::lock_guard<std::mutex> lock(mu_);
      slot = &accs_.emplace_back();
      owner = id_;
    }
    return *slot;
  }

  static inline std::atomic<std::uint64_t> next_id_{0};
  hp::des::Model& inner_;
  const std::uint64_t id_;
  const bool sample_;
  std::mutex mu_;
  std::deque<CallAcc> accs_;
  std::vector<double> increments_;
};

// ---------------------------------------------------------------------------
// Building one kernel run from the public API

struct Instance {
  std::unique_ptr<hp::hotpotato::BhwPolicy> policy;
  std::unique_ptr<hp::des::Model> model;
  std::unique_ptr<TimedModel> timed;
  std::unique_ptr<hp::net::Mapping> mapping;
  std::unique_ptr<hp::des::Engine> engine;
};

Instance build(const Workload& w, std::uint64_t seed, Kernel k, bool traced) {
  Instance in;
  hp::des::EngineConfig ec;
  ec.seed = hp::util::splitmix64(seed);
  if (w.hotpotato) {
    in.policy = std::make_unique<hp::hotpotato::BhwPolicy>(w.n);
    hp::hotpotato::HotPotatoConfig mc;
    mc.n = w.n;
    mc.injector_fraction = 0.5;
    mc.steps = w.steps;
    mc.selection_seed = hp::util::splitmix64(seed ^ 0x5eedU);
    mc.policy = in.policy.get();
    ec.num_lps = mc.num_lps();
    ec.end_time = mc.end_time();
    in.model = std::make_unique<hp::hotpotato::HotPotatoModel>(mc);
  } else {
    hp::des::PholdConfig pc;
    pc.num_lps = w.lps;
    pc.population_per_lp = w.jobs;
    pc.remote_fraction = w.remote;
    pc.lookahead = w.lookahead;
    pc.mean_delay = w.mean_delay;
    ec.num_lps = w.lps;
    ec.end_time = w.end_time;
    in.model = std::make_unique<hp::des::PholdModel>(pc);
  }
  hp::des::Model* model = in.model.get();
  if (traced) {
    in.timed = std::make_unique<TimedModel>(*model, k == kSeq);
    model = in.timed.get();
  }
  auto kind = hp::des::EngineKind::Sequential;
  if (k != kSeq) {
    kind = hp::des::EngineKind::TimeWarp;
    ec.num_pes = kKernelPes[k];
    ec.num_kps = w.kps;
    ec.optimism_window = w.window;
    if (w.hotpotato) {
      in.mapping =
          std::make_unique<hp::net::BlockMapping>(w.n, w.kps, ec.num_pes);
      ec.mapping = in.mapping.get();
    }
  }
  in.engine = hp::des::make_engine(kind, *model, ec);
  return in;
}

// The committed result the gate compares: every LP state plus the model's
// digest (hot-potato channel delivered/injected, PHOLD order digest).
struct Committed {
  std::vector<std::unique_ptr<hp::des::LpState>> states;
  std::uint64_t a = 0, b = 0;
};

void digest(const Workload& w, const hp::des::Engine& eng, std::uint64_t& a,
            std::uint64_t& b) {
  if (w.hotpotato) {
    const auto r = hp::hotpotato::report_from_channel(
        hp::hotpotato::collect_channel(eng, w.steps));
    a = r.delivered;
    b = r.injected;
  } else {
    a = hp::des::PholdModel::digest(eng);
    b = 0;
  }
}

bool matches(const Committed& ref, const hp::des::Engine& eng,
             std::uint64_t a, std::uint64_t b) {
  if (a != ref.a || b != ref.b || eng.num_lps() != ref.states.size()) {
    return false;
  }
  for (std::uint32_t lp = 0; lp < eng.num_lps(); ++lp) {
    if (!ref.states[lp]->equals(eng.state(lp))) return false;
  }
  return true;
}

void corrupt_one_lp(const Workload& w, hp::des::Engine& eng) {
  const std::uint32_t lp = eng.num_lps() / 2;
  if (w.hotpotato) {
    ++static_cast<hp::hotpotato::RouterState&>(eng.state(lp)).arrivals;
  } else {
    ++static_cast<hp::des::PholdState&>(eng.state(lp)).events;
  }
}

// ---------------------------------------------------------------------------
// Kernel runs execute in a forked worker process that serves one command at
// a time over a pipe. The worker lives across rounds, so its heap is warm
// after the first round (first-touch page faults are not what the benchmark
// measures); if it aborts or wedges, that run counts as failed and the next
// run gets a fresh worker.

struct Span {
  std::uint64_t start_ns = 0, end_ns = 0;
};

struct Command {
  std::int32_t kernel = 0;
  // probe is off in the round that reads peak RSS: its table is not the
  // workload's memory.
  std::uint8_t traced = 0, corrupt = 0, probe = 0;
};

struct RunRecord {
  std::uint32_t ok = 0;  // committed state matched the reference
  std::uint32_t n_increments = 0;
  double setup_s = 0, run_s = 0, collect_s = 0, peak_rss_mb = 0;
  double probe_ns = 0;  // host-speed probe read just before set-up
  Span make_engine, run, collect;
  hp::obs::PeMetrics total;
  std::uint64_t gvt_rounds = 0;
  CallAcc calls;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool write_all(int fd, const void* p, std::size_t n) {
  const char* c = static_cast<const char*>(p);
  while (n > 0) {
    const ssize_t k = ::write(fd, c, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    c += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

// Reads exactly n bytes unless EOF, an error or the deadline comes first.
bool read_all(int fd, void* p, std::size_t n, Clock::time_point deadline) {
  char* c = static_cast<char*>(p);
  while (n > 0) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    pollfd pfd{fd, POLLIN, 0};
    const int wait_ms = static_cast<int>(std::min<long long>(left, 1 << 30));
    if (left <= 0 || ::poll(&pfd, 1, wait_ms) == 0) {
      return false;
    }
    const ssize_t k = ::read(fd, c, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    c += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

// Host-speed probe: a dependent-load chase once around a 1 MiB table, timed
// after one warming lap, so it reads this core's L2 latency. On a shared host
// that latency drifts by tens of percent over seconds to minutes as
// co-tenants load the core, its caches and the clock, and the rates of the
// single-threaded kernels follow it (correlation 0.9-0.96 over 15 s windows
// on a 4-vCPU Xeon VM). The table belongs to the benchmark, so no code under
// test changes what the probe reads.
double probe_ns() {
  constexpr std::uint32_t kSlots = 1u << 18;
  // Full-period LCG successor (multiplier 1 mod 4, odd increment): one lap
  // visits every slot in an order the prefetchers cannot follow.
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> v(kSlots);
    for (std::uint32_t i = 0; i < kSlots; ++i) {
      v[i] = (i * 2654435761u + 12345u) % kSlots;
    }
    return v;
  }();
  std::uint32_t j = 0;
  for (std::uint32_t i = 0; i < kSlots; ++i) j = next[j];
  const std::uint64_t t0 = now_ns();
  for (std::uint32_t i = 0; i < kSlots; ++i) j = next[j];
  const std::uint64_t t1 = now_ns();
  keep(j);
  return static_cast<double>(t1 - t0) / kSlots;
}

RunRecord execute(const Workload& w, std::uint64_t seed, const Command& cmd,
                  const Committed& ref, std::vector<double>& increments) {
  const auto k = static_cast<Kernel>(cmd.kernel);
  RunRecord rec;
  if (cmd.probe) rec.probe_ns = probe_ns();
  const std::uint64_t t0 = now_ns();
  Instance in = build(w, seed, k, cmd.traced != 0);
  const std::uint64_t t1 = now_ns();
  const hp::des::RunStats stats = in.engine->run();
  const std::uint64_t t2 = now_ns();
  std::uint64_t a = 0, b = 0;
  digest(w, *in.engine, a, b);
  const std::uint64_t t3 = now_ns();
  if (cmd.corrupt) corrupt_one_lp(w, *in.engine);
  rec.ok = matches(ref, *in.engine, a, b) ? 1 : 0;
  rec.make_engine = {t0, t1};
  rec.run = {t1, t2};
  rec.collect = {t2, t3};
  rec.setup_s = static_cast<double>(t1 - t0) * 1e-9;
  rec.run_s = static_cast<double>(t2 - t1) * 1e-9;
  rec.collect_s = static_cast<double>(t3 - t2) * 1e-9;
  rec.total = stats.metrics.total;
  rec.gvt_rounds = stats.metrics.gvt_rounds;
  increments.clear();
  if (in.timed) {
    rec.calls = in.timed->merged();
    increments = in.timed->increments();
  }
  rec.n_increments = static_cast<std::uint32_t>(increments.size());
  rec.peak_rss_mb = peak_rss_mb();
  return rec;
}

[[noreturn]] void worker_loop(int in_fd, int out_fd, const Workload& w,
                              std::uint64_t seed, const Committed& ref) {
  Command cmd;
  std::vector<double> inc;
  while (read_all(in_fd, &cmd, sizeof cmd, Clock::time_point::max())) {
    const RunRecord rec = execute(w, seed, cmd, ref, inc);
    if (!write_all(out_fd, &rec, sizeof rec) ||
        !write_all(out_fd, inc.data(), inc.size() * sizeof(double))) {
      break;
    }
  }
  _exit(0);
}

// A kernel run that aborts, sends a short record, or stays silent for
// kRunTimeoutMs (a wedge) comes back with ok == 0.
constexpr int kRunTimeoutMs = 60000;

class Worker {
 public:
  Worker(const Workload& w, std::uint64_t seed, const Committed& ref)
      : w_(w), seed_(seed), ref_(ref) {}
  ~Worker() { stop(false); }

  RunRecord run(const Command& cmd, std::vector<double>* increments) {
    if (pid_ < 0) spawn();
    RunRecord rec;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(kRunTimeoutMs);
    std::vector<double> inc;
    bool ok = write_all(to_, &cmd, sizeof cmd) &&
              read_all(from_, &rec, sizeof rec, deadline);
    if (ok) {
      inc.resize(rec.n_increments);
      ok = read_all(from_, inc.data(), inc.size() * sizeof(double), deadline);
    }
    if (!ok) {
      std::fprintf(stderr, "perfbench: %s run failed (abort or timeout)\n",
                   kKernelName[cmd.kernel]);
      stop(true);
      return RunRecord{};
    }
    if (increments != nullptr) *increments = std::move(inc);
    return rec;
  }

 private:
  void spawn() {
    int down[2], up[2];
    if (::pipe(down) != 0 || ::pipe(up) != 0) {
      std::perror("perfbench: pipe");
      std::exit(1);
    }
    std::fflush(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) {
      std::perror("perfbench: fork");
      std::exit(1);
    }
    if (pid_ == 0) {
      ::close(down[1]);
      ::close(up[0]);
      worker_loop(down[0], up[1], w_, seed_, ref_);
    }
    ::close(down[0]);
    ::close(up[1]);
    to_ = down[1];
    from_ = up[0];
  }

  void stop(bool kill) {
    if (pid_ < 0) return;
    if (kill) ::kill(pid_, SIGKILL);
    ::close(to_);
    ::close(from_);
    while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }

  const Workload& w_;
  const std::uint64_t seed_;
  const Committed& ref_;
  pid_t pid_ = -1;
  int to_ = -1, from_ = -1;
};

// ---------------------------------------------------------------------------
// Primitive floors and the pending-set hold model (traced runs only)

template <typename Fn>
double median_ns_per_op(std::uint64_t ops, Fn&& fn) {
  std::vector<double> v;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t t0 = now_ns();
    fn(ops);
    v.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(ops));
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct QNode : hp::util::MpscNode {};

// Classic hold model on the ladder PendingSet: `live` events resident, each
// hold pops the minimum and re-inserts it at ts + a sampled increment.
double pending_set_hold_ns(std::size_t live, const std::vector<double>& inc,
                           std::uint64_t seed) {
  if (live == 0 || inc.empty()) return 0.0;
  hp::des::EventPool pool;
  hp::des::PendingSet ps;
  hp::util::ReversibleRng rng(seed);
  std::uint64_t tie = 0;
  auto draw = [&] { return inc[rng.integer(0, inc.size() - 1)]; };
  std::vector<hp::des::Event*> evs;
  for (std::size_t i = 0; i < live; ++i) {
    hp::des::Event* ev = pool.allocate();
    ev->key.ts = draw() * rng.uniform() * 4.0;
    ev->key.tie = ++tie;
    ps.insert(ev);
    evs.push_back(ev);
  }
  const std::uint64_t ops = std::max<std::uint64_t>(200000, 4 * live);
  const double ns = median_ns_per_op(ops, [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      hp::des::Event* ev = ps.pop_min();
      ev->key.ts += draw();
      ev->key.tie = ++tie;
      ps.insert(ev);
    }
  });
  ps.clear();
  for (hp::des::Event* ev : evs) pool.free(ev);
  return ns;
}

struct Primitives {
  double pool_ns = 0, mpsc_ns = 0, rng_ns = 0, good_dirs_ns = 0;
};

Primitives measure_primitives(std::int32_t n) {
  constexpr std::uint64_t kOps = 2000000;
  Primitives p;
  hp::des::EventPool pool;
  p.pool_ns = median_ns_per_op(kOps, [&](std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      hp::des::Event* ev = pool.allocate();
      keep(ev);
      pool.free(ev);
    }
  });
  hp::util::MpscQueue<QNode> q;
  QNode node;
  p.mpsc_ns = median_ns_per_op(kOps, [&](std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      q.push(&node);
      QNode* out = q.pop();
      keep(out);
    }
  });
  hp::util::ReversibleRng rng(7);
  p.rng_ns = median_ns_per_op(kOps, [&](std::uint64_t ops) {
    double s = 0;
    for (std::uint64_t i = 0; i < ops; ++i) s += rng.uniform();
    keep(s);
  });
  const hp::net::Torus t(n > 1 ? n : 64);
  p.good_dirs_ns = median_ns_per_op(kOps, [&](std::uint64_t ops) {
    std::uint32_t src = 0, dst = 1;
    for (std::uint64_t i = 0; i < ops; ++i) {
      const auto d = t.good_dirs(src, dst);
      keep(d);
      src = (src + 7) % t.num_nodes();
      dst = (dst + 13) % t.num_nodes();
    }
  });
  return p;
}

// ---------------------------------------------------------------------------
// Reduction and output

// The q-quantile, interpolating linearly between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

// probe_ns() on the reference host (a 4-vCPU Xeon VM) when quiet: a scaled
// rate is the rate the run would show at this probe reading.
constexpr double kProbeRefNs = 7.0;

struct Metric {
  std::string name, unit;
  double value;
};

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto c = line.find(':');
      return c == std::string::npos ? line : line.substr(c + 2);
    }
  }
  return "unknown";
}

std::string cache_size(int index) {
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index" +
                  std::to_string(index) + "/size");
  std::string s;
  return (f >> s) ? s : "unknown";
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o;
}

void print_provenance(const Workload& w, std::uint64_t seed, bool trace,
                      std::size_t rounds, const std::string& source_id) {
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"repetitions\": %zu, \"nproc\": %ld, \"cpu\": \"%s\", \"l2\": \"%s\", "
      "\"l3\": \"%s\", \"compiler\": \"%s\", \"flags\": \"%s\", "
      "\"build_type\": \"%s\", \"source\": \"%s\"}}\n",
      w.name, static_cast<unsigned long long>(seed), trace ? 1 : 0, rounds,
      sysconf(_SC_NPROCESSORS_ONLN), json_escape(cpu_model()).c_str(),
      cache_size(2).c_str(), cache_size(3).c_str(),
      json_escape(PERFBENCH_COMPILER).c_str(),
      json_escape(PERFBENCH_CXX_FLAGS).c_str(), PERFBENCH_BUILD_TYPE,
      json_escape(source_id).c_str());
}

struct NamedSpan {
  std::string name;
  std::uint64_t run;  // kernel run the span belongs to
  Span span;
};

void write_spans(const std::string& path, const Workload& w,
                 const std::vector<NamedSpan>& spans) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"workload\": \"%s\", \"spans\": [", w.name);
  const std::uint64_t base = spans.empty() ? 0 : spans.front().span.start_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const NamedSpan& s = spans[i];
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"run\": %llu, \"start_ns\": %llu, "
                 "\"end_ns\": %llu}",
                 i ? "," : "", s.name.c_str(),
                 static_cast<unsigned long long>(s.run),
                 static_cast<unsigned long long>(s.span.start_ns - base),
                 static_cast<unsigned long long>(s.span.end_ns - base));
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--corrupt] "
               "[--source-id <id>] [--spans <path>]\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, source_id = "unknown", spans_path;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false, tiny = false, corrupt = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      tiny = true;
    } else if (a == "--corrupt") {
      corrupt = true;
    } else if (!has_value) {
      usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      workload = argv[++i];
    } else if (a == "--seed") {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      trace = std::string(argv[++i]) == "1";
    } else if (a == "--source-id") {
      source_id = argv[++i];
    } else if (a == "--spans") {
      spans_path = argv[++i];
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) found = &w;
  }
  if (found == nullptr) usage(("unknown workload '" + workload + "'").c_str());
  Workload w = *found;
  if (tiny) {
    w.n = std::min(w.n, 8);
    w.steps = std::min<std::uint32_t>(w.steps, 16);
    w.lps = std::min<std::uint32_t>(w.lps, 64);
    w.end_time = std::min(w.end_time, 20.0);
  }

  calibrate_ticks();
  // A dead worker must fail the write, not kill the benchmark.
  std::signal(SIGPIPE, SIG_IGN);

  // Untimed sequential reference: the committed state every run must match.
  Committed ref;
  {
    Instance in = build(w, seed, kSeq, false);
    in.engine->run();
    digest(w, *in.engine, ref.a, ref.b);
    for (std::uint32_t lp = 0; lp < in.engine->num_lps(); ++lp) {
      ref.states.push_back(in.engine->state(lp).clone());
    }
  }

  // Round 0 warms the worker (checked, not recorded). Then rounds of seq /
  // tw1 / tw4 until the measuring window closes, at least three. A round
  // starts only if a round of the mean length still fits, so a run measures
  // for about --seconds. Traced mode pairs each untraced round with a traced
  // one: end-to-end figures never come from traced runs.
  std::vector<RunRecord> plain[kNumKernels], traced[kNumKernels];
  std::vector<double> increments;
  std::vector<NamedSpan> spans;
  std::uint64_t attempted = 0, failed = 0;
  double rss = 0;
  bool corrupt_pending = corrupt;
  Worker worker(w, seed, ref);
  Clock::time_point t_start, t_end;
  for (std::size_t round = 0;; ++round) {
    if (round == 1) {
      t_start = Clock::now();
      t_end = t_start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
    } else if (round > 3 && Clock::now() + (Clock::now() - t_start) /
                                               static_cast<long>(round - 1) >
                                t_end) {
      break;
    }
    for (const bool tr : {false, true}) {
      if (tr && !trace) continue;
      for (int k = 0; k < kNumKernels; ++k) {
        Command cmd;
        cmd.kernel = k;
        cmd.traced = tr;
        cmd.probe = round > 0;
        cmd.corrupt = corrupt_pending && k != kSeq;
        corrupt_pending = corrupt_pending && !cmd.corrupt;
        const bool want_inc = tr && k == kSeq && increments.empty();
        const RunRecord r = worker.run(cmd, want_inc ? &increments : nullptr);
        ++attempted;
        if (!r.ok) {
          ++failed;
          continue;
        }
        // Peak RSS is read from the fresh worker of round 0 after its
        // deterministic kernels (seq, then tw1); tw4's footprint depends on
        // thread timing and is in the ledger as des.tw4.pool_*.
        if (round == 0 && k == kTw1) rss = r.peak_rss_mb;
        if (round == 0) continue;
        (tr ? traced : plain)[k].push_back(r);
        if (tr) {
          const std::string tag = std::string(kKernelName[k]) + ".";
          spans.push_back({tag + "make_engine", attempted, r.make_engine});
          spans.push_back({tag + "run", attempted, r.run});
          spans.push_back({tag + "collect_channel", attempted, r.collect});
        }
      }
    }
  }
  const std::size_t rounds = plain[kSeq].size();

  auto med = [](const std::vector<RunRecord>& v, auto&& fn) {
    std::vector<double> x;
    for (const RunRecord& r : v) x.push_back(fn(r));
    return median(x);
  };
  auto wall = [](const RunRecord& r) { return r.run_s; };

  std::vector<Metric> out;
  bool complete = true;
  for (int k = 0; k < kNumKernels; ++k) {
    complete = complete && !plain[k].empty() && (!trace || !traced[k].empty());
  }
  // seq and tw1: all committed events of the window over all its
  // Engine::run time, the whole-window rate averaging the host's drift better
  // than any per-round statistic. Scaled, each run's wall time is brought to
  // the probe's reference reading, so the drift cancels: their one thread
  // runs on the probed core.
  auto events_per_s = [&](int k, bool scaled) {
    double events = 0, run_s = 0;
    for (const RunRecord& r : plain[k]) {
      events += static_cast<double>(r.total.committed_events());
      run_s += scaled ? r.run_s * per(kProbeRefNs, r.probe_ns) : r.run_s;
    }
    return per(events, run_s);
  };
  if (complete && !trace) {
    out.push_back({"seq_events_per_s", "ev/s", events_per_s(kSeq, true)});
    out.push_back({"tw1_events_per_s", "ev/s", events_per_s(kTw1, true)});
    // tw4: the upper quartile of per-round wall-time rates. Its four
    // threads span all cores, which one core's probe does not track (scaling
    // widened its spread). When the host deschedules one of the VM's cores,
    // the PE on it stalls GVT and the round runs several times longer; such
    // rounds only ever slow, come in bursts that can cover half of a run's
    // rounds, and would dominate a whole-window rate or move a median.
    std::vector<double> tw4_rates;
    for (const RunRecord& r : plain[kTw4]) {
      tw4_rates.push_back(
          per(static_cast<double>(r.total.committed_events()), r.run_s));
    }
    out.push_back({"tw4_events_per_s", "ev/s", quantile(tw4_rates, 0.75)});
    // Set-up of one round is the sum of its three kernels' set-ups, each
    // host-speed scaled like the seq and tw1 runs: set-up runs on one thread
    // on the probed core, right after the probe.
    std::vector<double> setup;
    for (std::size_t i = 0; i < rounds; ++i) {
      double s = 0;
      for (int k = 0; k < kNumKernels; ++k) {
        if (i < plain[k].size()) {
          const RunRecord& r = plain[k][i];
          s += r.setup_s * per(kProbeRefNs, r.probe_ns);
        }
      }
      setup.push_back(s);
    }
    out.push_back({"setup_s", "s", median(setup)});
    out.push_back({"peak_rss_mb", "MB", rss});
    out.push_back({"ok_rate", "fraction",
                   per(static_cast<double>(attempted - failed),
                       static_cast<double>(attempted))});
  } else if (complete) {
    const Primitives prim = measure_primitives(w.n);
    // Ledger from the traced runs: ns per committed event per layer.
    auto phase = [&](int k, Phase p) {
      return med(traced[k], [p](const RunRecord& r) {
        return per(static_cast<double>(r.total.ns(p)),
                   static_cast<double>(r.total.committed_events()));
      });
    };
    auto counter = [&](int k, auto&& fn) { return med(traced[k], fn); };
    for (const int k : {kSeq, kTw1}) {
      const std::string m = std::string("model.") + kKernelName[k];
      const std::string d = std::string("des.") + kKernelName[k];
      out.push_back({m + ".forward_ns_per_ev", "ns", counter(k, [](auto& r) {
                       return per(static_cast<double>(r.calls.fwd_ns),
                                  static_cast<double>(r.calls.fwd_calls));
                     })});
      out.push_back({d + ".self_ns_per_ev", "ns", counter(k, [](auto& r) {
                       const double model_ns = static_cast<double>(
                           r.calls.fwd_ns + r.calls.rev_ns + r.calls.commit_ns);
                       return per(r.run_s * 1e9 - model_ns,
                                  static_cast<double>(
                                      r.total.committed_events()));
                     })});
    }
    out.push_back({"model.tw4.reverse_calls", "count",
                   counter(kTw4, [](auto& r) {
                     return static_cast<double>(r.calls.rev_calls);
                   })});
    auto gvt_ns = [&](int k) {
      return phase(k, Phase::GvtBarrier) + phase(k, Phase::GvtEpoch);
    };
    out.push_back(
        {"des.tw1.forward_ns_per_ev", "ns", phase(kTw1, Phase::Forward)});
    out.push_back(
        {"des.tw1.fossil_ns_per_ev", "ns", phase(kTw1, Phase::Fossil)});
    out.push_back({"des.tw1.gvt_ns_per_ev", "ns", gvt_ns(kTw1)});
    for (const int k : {kTw1, kTw4}) {
      out.push_back({std::string("des.") + kKernelName[k] + ".gvt_rounds",
                     "count", counter(k, [](auto& r) {
                       return static_cast<double>(r.gvt_rounds);
                     })});
    }
    const std::pair<const char*, Phase> tw4_phases[] = {
        {"forward", Phase::Forward},       {"rollback", Phase::Rollback},
        {"fossil", Phase::Fossil},         {"inbox_drain", Phase::InboxDrain},
        {"idle", Phase::Idle},             {"throttled", Phase::Throttled}};
    for (const auto& [name, p] : tw4_phases) {
      out.push_back({std::string("des.tw4.") + name + "_ns_per_ev", "ns",
                     phase(kTw4, p)});
    }
    out.push_back({"des.tw4.gvt_ns_per_ev", "ns", gvt_ns(kTw4)});
    auto ratio = [&](Counter num, Counter den) {
      return counter(kTw4, [num, den](auto& r) {
        return per(static_cast<double>(r.total.at(num)),
                   static_cast<double>(r.total.at(den)));
      });
    };
    out.push_back({"des.tw4.efficiency", "fraction",
                   ratio(Counter::Committed, Counter::Processed)});
    out.push_back({"des.tw4.rolled_back_per_committed", "fraction",
                   ratio(Counter::RolledBack, Counter::Committed)});
    out.push_back({"des.tw4.anti_per_committed", "fraction",
                   ratio(Counter::AntiMessages, Counter::Committed)});
    out.push_back({"des.tw4.inbox_batch_mean", "count",
                   ratio(Counter::InboxBatchedItems, Counter::InboxBatches)});
    for (int k = 0; k < kNumKernels; ++k) {
      out.push_back({std::string("des.") + kKernelName[k] + ".pool_bytes",
                     "bytes", counter(k, [](auto& r) {
                       return static_cast<double>(r.total.pool_bytes());
                     })});
    }
    out.push_back({"des.tw4.pool_peak_live", "count",
                   counter(kTw4, [](auto& r) {
                     return static_cast<double>(r.total.pool_peak_live());
                   })});
    const double live = counter(kSeq, [](auto& r) {
      return static_cast<double>(r.total.pool_peak_live());
    });
    out.push_back({"des.pending_set.hold_ns", "ns",
                   pending_set_hold_ns(static_cast<std::size_t>(live),
                                       increments, seed)});
    out.push_back({"des.event_pool.round_trip_ns", "ns", prim.pool_ns});
    out.push_back({"util.mpsc.push_pop_ns", "ns", prim.mpsc_ns});
    out.push_back({"util.rng.uniform_ns", "ns", prim.rng_ns});
    out.push_back({"net.torus.good_dirs_ns", "ns", prim.good_dirs_ns});
    out.push_back({"core.collect_s", "s", med(traced[kSeq], [](auto& r) {
                     return r.collect_s;
                   })});
    // Slowdown of traced runs against the paired untraced ones.
    double plain_wall = 0, traced_wall = 0;
    for (int k = 0; k < kNumKernels; ++k) {
      plain_wall += med(plain[k], wall);
      traced_wall += med(traced[k], wall);
    }
    out.push_back({"obs.trace_overhead", "fraction",
                   per(traced_wall, plain_wall) - 1.0});
    out.push_back({"tw_tax", "ratio",
                   per(med(plain[kTw1], wall), med(plain[kSeq], wall))});
    out.push_back({"tw4_speedup", "ratio",
                   per(med(plain[kSeq], wall), med(plain[kTw4], wall))});
    out.push_back({"host.probe_ns", "ns", med(plain[kSeq], [](auto& r) {
                     return r.probe_ns;
                   })});
    for (const int k : {kSeq, kTw1}) {
      out.push_back({std::string("wall.") + kKernelName[k] + "_events_per_s",
                     "ev/s", events_per_s(k, false)});
    }
    out.push_back({"error_rate", "fraction",
                   per(static_cast<double>(failed),
                       static_cast<double>(attempted))});
  }

  write_spans(spans_path, w, spans);
  print_provenance(w, seed, trace, rounds, source_id);
  const bool correct = failed == 0 && complete;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double v = std::isfinite(out[i].value) ? out[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", out[i].name.c_str(), v, out[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
