//===- perfbench/main.cpp - The CEAL benchmark driver ---------------------===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One process, one thread. A run repeats rounds of one workload until
/// its time is up; every round compiles the CL samples, sets up from the
/// seed, runs the core from scratch, applies U updates in a closed loop
/// with one client, checks the output, checkpoints, warm-starts from the
/// checkpoint with mmap and applies one more update. Every call into the
/// library is timed from outside (SpanTrace.h). With --trace 1, rounds
/// alternate between untraced and traced (spans recorded, the runtime's
/// profiler on); the traced rounds give the per-layer numbers and the
/// difference between the two kinds is the tracing overhead.
///
/// The last line of standard output is the result object; a detailed
/// report (every record with its quartiles and sample count, plus the
/// provenance) and the spans go to files under --work-dir.
///
//===----------------------------------------------------------------------===//

#include "Recorder.h"
#include "SpanTrace.h"
#include "Workload.h"

#include "runtime/Snapshot.h"
#include "support/Random.h"
#include "support/Timer.h"
#include "support/simd/Simd.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

using namespace cealbench;
using namespace ceal;

namespace {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool InjectWrong = false;
  std::string WorkDir = ".";
};

/// Rounds per run: at least MinRounds of each kind, then more until the
/// run's time is used, up to MaxRounds in all.
constexpr unsigned MinRounds = 3, MaxRounds = 200;

/// The end-to-end metrics, in report order, with their units and the
/// statistic over a run's rounds that reports them. A time is the best
/// round's: on a shared 4-vCPU VM, neighbours slow every phase by up to
/// 1.7x for tens of seconds at a time, and the fastest of a run's rounds
/// is the one such a slowdown least affects. Memory is the median round's.
enum class Stat { Min, Max, Median };
struct E2eMetric {
  const char *Name, *Unit;
  Stat Over;
};
constexpr E2eMetric E2eMetrics[] = {
    {"setup_s", "s", Stat::Min},          {"fromscratch_s", "s", Stat::Min},
    {"update_p50_us", "us", Stat::Min},   {"update_p99_us", "us", Stat::Min},
    {"updates_per_s", "1/s", Stat::Max},  {"max_live_mb", "MB", Stat::Median},
    {"peak_rss_mb", "MB", Stat::Median},  {"checkpoint_ms", "ms", Stat::Min},
    {"restart_ms", "ms", Stat::Min},      {"compile_ms", "ms", Stat::Min},
};

double pick(const Summary &S, Stat Over) {
  return Over == Stat::Min ? S.Min : Over == Stat::Max ? S.Max : S.Median;
}

std::string layerUnit(const std::string &Name) {
  auto EndsWith = [&](const char *S) {
    size_t L = std::strlen(S);
    return Name.size() >= L && Name.compare(Name.size() - L, L, S) == 0;
  };
  if (EndsWith("_ms") || EndsWith(".ms"))
    return "ms";
  if (EndsWith("bytes"))
    return "B";
  if (EndsWith("ratio") || EndsWith("fragmentation") ||
      EndsWith("overhead") || EndsWith("speedup") || EndsWith("coverage"))
    return "ratio";
  if (EndsWith("variant"))
    return "enum";
  return "count";
}

double mb(uint64_t Bytes) { return double(Bytes) / (1024.0 * 1024.0); }

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

class Driver {
public:
  Driver(const Options &O, std::unique_ptr<Workload> W)
      : Opt(O), W(std::move(W)) {
    Chk.InjectWrong = O.InjectWrong;
  }

  int main();

private:
  void round(uint64_t Seed, bool Traced, bool Warmup = false);
  void check(const char *Where);
  void recordConstruction(std::vector<LayerSample> &Layers, double RunMs);
  void recordPropagation(std::vector<LayerSample> &Layers,
                         const Runtime::Stats &S0, double EditMs,
                         double PropMs, uint64_t Updates);
  void recordFootprint(std::vector<LayerSample> &Layers);
  void writeReport(unsigned Rounds);

  const Options Opt;
  std::unique_ptr<Workload> W;
  Recorder Rec;
  SpanTrace Spans;
  Checks Chk;
  /// The runtime slot. A warm start re-creates the runtime in the same
  /// storage (see ClVmWorkload.cpp).
  std::optional<Runtime> RT;
  uint64_t Group = 0;
};

const char *kindName(bool Traced) { return Traced ? "traced" : "untraced"; }

void Driver::check(const char *Where) {
  Chk.compare(W->output(*RT), W->reference(),
              std::string(W->name()) + ": " + Where);
}

void Driver::recordConstruction(std::vector<LayerSample> &L, double RunMs) {
  const Runtime::Stats &S = RT->stats();
  const PropagationProfile &P = RT->profile();
  L.push_back({"run.ms", RunMs});
  L.push_back({"run.reads", double(S.ReadsTraced)});
  L.push_back({"run.writes", double(S.WritesTraced)});
  L.push_back({"run.allocs", double(S.AllocsTraced)});
  L.push_back({"run.closure_dispatches", double(P.ClosureDispatches)});
  L.push_back({"run.arena_allocs", double(P.ArenaAllocs)});
  L.push_back({"run.om_inserts", double(P.OmInserts)});
  L.push_back({"run.memo_inserts", double(P.MemoInserts)});
  L.push_back({"run.memo_build_ms", double(P.MemoBuildNs) / 1e6});
}

void Driver::recordPropagation(std::vector<LayerSample> &L,
                               const Runtime::Stats &S0, double EditMs,
                               double PropMs, uint64_t Updates) {
  const Runtime::Stats &S = RT->stats();
  const PropagationProfile &P = RT->profile();
  const double Calls = double(S.Propagations - S0.Propagations);
  const double Pops = double(P.QueuePops);
  const double ReexecMs = double(P.ReexecNs) / 1e6;
  const double QueueMs = double(P.QueueNs) / 1e6;
  L.push_back({"propagate.ms", PropMs});
  L.push_back({"propagate.calls", Calls});
  L.push_back({"propagate.pops_per_call", Calls ? Pops / Calls : 0});
  L.push_back({"propagate.reexecs", double(P.ReexecCalls)});
  L.push_back({"propagate.reexec_ms", ReexecMs});
  L.push_back({"propagate.reexec_ops_mean", P.ReexecWork.mean()});
  L.push_back({"propagate.skipped_clean",
               double(S.ReadsSkippedClean - S0.ReadsSkippedClean)});
  L.push_back({"propagate.useful_ratio",
               Pops ? double(P.ReexecCalls) / Pops : 0});
  L.push_back({"propagate.revoke_ms", double(P.RevokeNs) / 1e6});
  L.push_back({"propagate.nodes_revoked",
               double(S.NodesRevoked - S0.NodesRevoked)});
  L.push_back({"propagate.queue_ms", QueueMs});
  L.push_back({"propagate.use_scan_steps",
               double(S.UseScanSteps - S0.UseScanSteps)});
  L.push_back({"propagate.unattributed_ms", PropMs - ReexecMs - QueueMs});
  L.push_back({"edit.ms", EditMs});
  L.push_back({"edit.calls", double(Updates)});

  const double ReadHits = double(S.MemoReadHits - S0.MemoReadHits);
  const double AllocHits = double(S.MemoAllocHits - S0.MemoAllocHits);
  L.push_back({"memo.lookups", double(P.MemoLookups)});
  L.push_back({"memo.lookup_ms", double(P.MemoLookupNs) / 1e6});
  L.push_back({"memo.read_hits", ReadHits});
  L.push_back({"memo.alloc_hits", AllocHits});
  L.push_back({"memo.hit_ratio", P.MemoLookups ? (ReadHits + AllocHits) /
                                                     double(P.MemoLookups)
                                               : 0});
  L.push_back({"om.inserts", double(P.OmInserts)});
}

void Driver::recordFootprint(std::vector<LayerSample> &L) {
  const MemoryStats M = RT->memoryStats();
  L.push_back({"memo.index_bytes", double(M.MemoIndexBytes)});
  L.push_back({"om.timestamps", double(RT->traceSize())});
  L.push_back({"om.bytes", double(M.OmBytes)});
  L.push_back({"arena.max_live_bytes", double(M.ArenaMaxLiveBytes)});
  L.push_back({"arena.live_bytes", double(M.ArenaLiveBytes)});
  L.push_back({"arena.bump_used_bytes", double(M.ArenaBumpUsedBytes)});
  L.push_back({"arena.fragmentation", M.fragmentation()});
  L.push_back({"arena.read_bytes", double(M.ReadBytes)});
  L.push_back({"arena.write_bytes", double(M.WriteBytes)});
  L.push_back({"arena.alloc_bytes", double(M.AllocBytes)});
  L.push_back({"arena.closure_bytes", double(M.ClosureBytes)});
  L.push_back({"arena.user_block_bytes", double(M.UserBlockBytes)});
  L.push_back({"arena.meta_bytes", double(M.MetaBytes)});
}

/// One round; see the file comment. The round's inputs come from \p Seed,
/// which the run derives from its own seed and the round's index, so a
/// run's figures pool over several inputs. A warm-up round records
/// nothing the result uses.
void Driver::round(uint64_t Seed, bool Traced, bool Warmup) {
  const char *Kind = Warmup ? "warmup" : kindName(Traced);
  Spans.On = Traced;
  std::vector<LayerSample> Layers;
  uint64_t SimdCalls0[simd::NumKernels], SimdBytes0[simd::NumKernels];
  for (unsigned K = 0; K < simd::NumKernels; ++K) {
    SimdCalls0[K] = simd::counters(simd::Kernel(K)).Calls.load();
    SimdBytes0[K] = simd::counters(simd::Kernel(K)).Bytes.load();
  }
  const size_t FirstSpan = Spans.spans().size();
  double PhaseNs = 0; // Summed durations of the round's timed phases.

  // The compile step.
  {
    Scope S(Spans, "compile");
    CompileOutput Out = compileSamples(Spans, Chk, Layers);
    const uint64_t Ns = S.stop();
    PhaseNs += double(Ns);
    Rec.add(Kind, "compile_ms", "ms", double(Ns) / 1e6);
    W->compiled(Out);
  }

  // Set-up: runtime construction, input generation, mutator structures.
  Runtime::Config Cfg;
  Cfg.EnableProfile = Traced;
  {
    Scope S(Spans, "setup");
    RT.emplace(Cfg);
    W->setup(*RT, Seed);
    const uint64_t Ns = S.stop();
    PhaseNs += double(Ns);
    Rec.add(Kind, "setup_s", "s", double(Ns) / 1e9);
  }

  // From scratch.
  double RunMs = 0;
  {
    Scope S(Spans, "run");
    W->run(*RT);
    const uint64_t Ns = S.stop();
    PhaseNs += double(Ns);
    RunMs = double(Ns) / 1e6;
    Rec.add(Kind, "fromscratch_s", "s", double(Ns) / 1e9);
    if (Traced) {
      recordConstruction(Layers, double(Ns) / 1e6);
      const bool Interp = std::strcmp(W->name(), "cl_vm") == 0;
      Layers.push_back({"interp.run_ms", Interp ? double(Ns) / 1e6 : 0});
      std::vector<LayerSample> Extra = W->layerSamples();
      for (const char *Name :
           {"interp.closures_made", "interp.env_words_per_closure"}) {
        double V = 0;
        for (const LayerSample &X : Extra)
          if (X.Name == Name)
            V = X.Value;
        Layers.push_back({Name, V});
      }
    }
  }
  check("from scratch");

  // U updates in a closed loop with one client.
  const Runtime::Stats S0 = RT->stats();
  RT->resetProfile();
  const size_t U = W->updates();
  uint64_t EditNs = 0, PropNs = 0, UpdNs = 0;
  std::vector<double> Latencies(U);
  for (size_t K = 0; K < U; ++K) {
    const uint64_t G = ++Group;
    Scope Up(Spans, "update", G);
    {
      Scope E(Spans, "edit", G);
      W->edit(*RT, K);
      EditNs += E.stop();
    }
    {
      Scope P(Spans, "propagate", G);
      RT->propagate();
      PropNs += P.stop();
    }
    const uint64_t Ns = Up.stop();
    UpdNs += Ns;
    Latencies[K] = double(Ns) / 1e3;
    if (K == 0)
      check("after the first update");
  }
  PhaseNs += double(UpdNs);
  Rec.add(Kind, "updates_per_s", "1/s", double(U) / (double(UpdNs) / 1e9));
  Rec.add(Kind, "update_p50_us", "us", percentile(Latencies, 50));
  Rec.add(Kind, "update_p99_us", "us", percentile(Latencies, 99));
  check("after U updates");

  // The whole footprint after exactly U updates.
  {
    const MemoryStats M = RT->memoryStats();
    Rec.add(Kind, "max_live_mb", "MB",
            mb(RT->maxLiveBytes() + M.OmBytes + M.MemoIndexBytes));
  }
  if (Traced) {
    recordPropagation(Layers, S0, double(EditNs) / 1e6, double(PropNs) / 1e6,
                      U);
    recordFootprint(Layers);
    const double ConvMs = W->convMs();
    Layers.push_back({"apps.conv_ms", ConvMs});
    Layers.push_back({"apps.fromscratch_overhead", RunMs / ConvMs});
    Layers.push_back(
        {"apps.update_speedup", ConvMs / (double(UpdNs) / 1e6 / double(U))});
  }

  // Checkpoint, then a warm restart plus its first update.
  const std::string Path = Opt.WorkDir + "/checkpoint.snap";
  Snapshot::SaveOptions SaveOpt;
  for (const void *R : W->roots())
    SaveOpt.Roots.push_back(R);
  Snapshot::SaveResult SR;
  {
    Scope S(Spans, "checkpoint");
    SR = Snapshot::save(*RT, Path, SaveOpt);
    const uint64_t Ns = S.stop();
    PhaseNs += double(Ns);
    Rec.add(Kind, "checkpoint_ms", "ms", double(Ns) / 1e6);
    if (Traced) {
      Layers.push_back({"snapshot.bytes", double(SR.FileBytes)});
      Layers.push_back({"snapshot.save_ms", double(Ns) / 1e6});
    }
  }
  Chk.count(SR.ok(), std::string("save: ") + Snapshot::statusName(SR.St) +
                         " " + SR.Diagnostic);
  RT.reset();
  if (SR.ok()) {
    Scope S(Spans, "restart");
    Snapshot::LoadResult LR;
    uint64_t LoadNs = 0, FirstPropNs = 0;
    {
      Scope L(Spans, "warm_start");
      RT.emplace(Cfg);
      LR = Snapshot::mmapWarmStart(*RT, Path);
      LoadNs = L.stop();
    }
    if (LR.ok()) {
      W->rebind(LR.Roots);
      const uint64_t G = ++Group;
      Scope Up(Spans, "update", G);
      {
        Scope E(Spans, "edit", G);
        W->edit(*RT, W->restartUpdate());
      }
      {
        Scope P(Spans, "propagate", G);
        RT->propagate();
        FirstPropNs = P.stop();
      }
    }
    const uint64_t Ns = S.stop();
    PhaseNs += double(Ns);
    Chk.count(LR.ok(), std::string("warm start: ") +
                           Snapshot::statusName(LR.St) + " " + LR.Diagnostic);
    if (LR.ok()) {
      Rec.add(Kind, "restart_ms", "ms", double(Ns) / 1e6);
      check("after restart");
    }
    if (Traced) {
      Layers.push_back({"snapshot.load_ms", double(LoadNs) / 1e6});
      Layers.push_back(
          {"snapshot.first_propagate_ms", double(FirstPropNs) / 1e6});
    }
  }
  RT.reset();
  ::unlink(Path.c_str());
  Rec.add(Kind, "peak_rss_mb", "MB", peakRssMb());

  if (!Traced)
    return;
  for (unsigned K = 0; K < simd::NumKernels; ++K) {
    const std::string Prefix =
        std::string("simd.") + simd::kernelName(simd::Kernel(K));
    const simd::KernelCounters &C = simd::counters(simd::Kernel(K));
    Layers.push_back({Prefix + ".calls", double(C.Calls.load() - SimdCalls0[K])});
    Layers.push_back({Prefix + ".bytes", double(C.Bytes.load() - SimdBytes0[K])});
  }
  Layers.push_back({"simd.variant", double(simd::selected())});

  // The spans' self times must account for the round's timed phases.
  const SpanTrace::Coverage Cov = Spans.coverage(FirstSpan);
  Chk.count(Cov.SelfNs == Cov.RootNs && double(Cov.RootNs) >= PhaseNs,
            "span self times sum to the timed phases");
  Layers.push_back({"trace.self_ms", double(Cov.SelfNs) / 1e6});
  Layers.push_back({"trace.phase_ms", PhaseNs / 1e6});
  Layers.push_back(
      {"trace.coverage", PhaseNs > 0 ? double(Cov.SelfNs) / PhaseNs : 0});

  for (const LayerSample &L : Layers)
    Rec.add("layer", L.Name, layerUnit(L.Name), L.Value);
}

void Driver::writeReport(unsigned Rounds) {
  Rec.provenance("workload", jsonString(W->name()));
  Rec.provenance("seed", std::to_string(Opt.Seed));
  Rec.provenance("n", std::to_string(W->size()));
  Rec.provenance("U", std::to_string(W->updates()));
  Rec.provenance("rounds", std::to_string(Rounds));
  Rec.provenance("seconds", jsonNumber(Opt.Seconds));
  Rec.provenance("trace", Opt.Trace ? "true" : "false");
  Rec.provenance("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  Rec.provenance("simd_variant",
                 jsonString(simd::variantName(simd::selected())));
  Rec.provenance("build_type", jsonString(CEALBENCH_BUILD_TYPE));
#ifdef NDEBUG
  Rec.provenance("expensive_checks", "false");
#else
  Rec.provenance("expensive_checks", "true");
#endif
  Rec.provenance("checks_attempted", std::to_string(Chk.Attempted));
  Rec.provenance("checks_failed", std::to_string(Chk.Failed));

  const std::string Base = Opt.WorkDir + "/" + W->name() +
                           (Opt.Trace ? "-traced" : "-untraced");
  std::ofstream Report(Base + ".report.json");
  Report << "{";
  Rec.writeJsonFields(Report);
  Report << "}\n";
  if (Opt.Trace) {
    std::ofstream SpanFile(Base + ".spans.jsonl");
    Spans.writeJsonLines(SpanFile);
  }
}

int Driver::main() {
  // One unrecorded round first: it pays the process's first-touch costs
  // (page faults, lazy initialization) that later rounds do not see.
  round(hashPair(Opt.Seed, ~uint64_t(0)), false, true);
  Timer Wall;
  unsigned Rounds = 0, Kinds[2] = {0, 0};
  auto Enough = [&] {
    if (Kinds[0] < MinRounds || (Opt.Trace && Kinds[1] < MinRounds))
      return false;
    return Wall.seconds() >= Opt.Seconds || Rounds >= MaxRounds;
  };
  while (!Enough()) {
    const bool Traced = Opt.Trace && Rounds % 2 == 1;
    // The k-th traced round reuses the k-th untraced round's inputs, so
    // their difference is the tracing overhead alone.
    round(hashPair(Opt.Seed, Kinds[Traced]), Traced);
    std::fprintf(stderr, "round %u (%s):", Rounds, kindName(Traced));
    for (const std::string &Name : Rec.attributes(kindName(Traced)))
      std::fprintf(stderr, " %s=%.4g", Name.c_str(),
                   Rec.last(kindName(Traced), Name));
    std::fprintf(stderr, "\n");
    ++Kinds[Traced];
    ++Rounds;
  }

  const double FailedFrac =
      Chk.Attempted ? double(Chk.Failed) / double(Chk.Attempted) : 1;
  Rec.add("untraced", "failed_frac", "ratio", FailedFrac);

  // The result: end-to-end medians untraced, or per-layer medians plus
  // the tracing overhead of every end-to-end metric.
  std::ostringstream Metrics;
  bool First = true;
  auto Emit = [&](const std::string &Name, double V, const std::string &U) {
    Metrics << (First ? "" : ", ") << jsonString(Name) << ": {\"value\": "
            << jsonNumber(V) << ", \"unit\": " << jsonString(U) << "}";
    First = false;
  };
  if (!Opt.Trace) {
    for (const E2eMetric &M : E2eMetrics)
      Emit(M.Name, pick(Rec.summary("untraced", M.Name), M.Over), M.Unit);
  } else {
    for (const std::string &Name : Rec.attributes("layer"))
      Emit(Name, Rec.summary("layer", Name).Median, Rec.unit("layer", Name));
    for (const E2eMetric &M : E2eMetrics) {
      const double Diff = pick(Rec.summary("traced", M.Name), M.Over) -
                          pick(Rec.summary("untraced", M.Name), M.Over);
      Rec.add("layer", std::string("overhead.") + M.Name, M.Unit, Diff);
      Emit(std::string("overhead.") + M.Name, Diff, M.Unit);
    }
  }
  writeReport(Rounds);

  // A readable summary on stderr.
  std::fprintf(stderr, "%s seed=%llu rounds=%u checks=%llu failed=%llu\n",
               W->name(), (unsigned long long)Opt.Seed, Rounds,
               (unsigned long long)Chk.Attempted,
               (unsigned long long)Chk.Failed);
  for (const E2eMetric &M : E2eMetrics) {
    const Summary S = Rec.summary("untraced", M.Name);
    std::fprintf(stderr,
                 "  %-14s %12.4f %-4s (median %.4f, q1 %.4f, q3 %.4f, "
                 "rounds %zu)\n",
                 M.Name, pick(S, M.Over), M.Unit, S.Median, S.Q1, S.Q3,
                 S.Count);
  }

  std::cout << "{\"correct\": " << (Chk.Failed == 0 ? "true" : "false")
            << ", \"attempted\": " << Chk.Attempted
            << ", \"failed\": " << Chk.Failed << ", \"metrics\": {"
            << Metrics.str() << "}}" << std::endl;
  return 0;
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "error: %s\nusage: cealbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--inject-wrong]\n"
               "workloads: map_edit quicksort_edit quickhull_batch cl_vm\n",
               Msg);
  return 2;
}

} // namespace

void Checks::count(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    std::fprintf(stderr, "check failed: %s\n", What.c_str());
  }
}

void Checks::compare(std::vector<Word> Actual,
                     const std::vector<Word> &Expected,
                     const std::string &What) {
  if (InjectWrong) {
    InjectWrong = false;
    if (Actual.empty())
      Actual.push_back(1);
    else
      Actual[0] ^= 1;
  }
  count(!Expected.empty() && Actual == Expected, What);
}

int main(int Argc, char **Argv) {
  // Keep freed heap memory in the process (no trimming, no per-block
  // mmap), so how much the previous round's reference runs freed does not
  // decide how many page faults the next round's compile takes.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  Options O;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (A == "--inject-wrong") {
      O.InjectWrong = true;
      continue;
    }
    const char *V = Value();
    if (!V)
      return usage(("missing value for " + A).c_str());
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, &End, 10);
      HaveSeed = *End == '\0';
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V, &End);
      HaveSeconds = *End == '\0' && O.Seconds > 0;
    } else if (A == "--trace") {
      HaveTrace = std::strcmp(V, "0") == 0 || std::strcmp(V, "1") == 0;
      O.Trace = std::strcmp(V, "1") == 0;
    } else if (A == "--work-dir") {
      O.WorkDir = V;
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--workload, --seed, --seconds and --trace are required");

  std::unique_ptr<Workload> W;
  if (O.Workload == "map_edit")
    W = makeMapEdit();
  else if (O.Workload == "quicksort_edit")
    W = makeQuicksortEdit();
  else if (O.Workload == "quickhull_batch")
    W = makeQuickhullBatch();
  else if (O.Workload == "cl_vm")
    W = makeClVm();
  else
    return usage(("unknown workload " + O.Workload).c_str());
  return Driver(O, std::move(W)).main();
}
