//===- perfbench/ClVmWorkload.cpp - listprims map on the CL VM ------------===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cl_vm workload: the compiled listprims `map` runs on interp::Vm
/// over a modifiable list the mutator builds through the VM's meta
/// surface, edited with Vm::metaWrite (Runtime::modify). The reference is
/// interp::ConvInterp running the parsed, unoptimized source, so the
/// optimizer and NORMALIZE are checked along with the VM.
///
/// The Vm's closures carry its address, so a warm start reuses the same
/// Vm: the driver re-creates the Runtime in the same storage, which keeps
/// the Vm's reference to it valid.
///
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "interp/Vm.h"
#include "support/Random.h"
#include "support/Timer.h"

using namespace cealbench;
using namespace ceal;

namespace {

class ClVm final : public Workload {
public:
  const char *name() const override { return "cl_vm"; }
  size_t size() const override { return N; }
  size_t updates() const override { return U; }

  void compiled(CompileOutput &Out) override {
    M.reset(); // The Vm refers to the programs replaced here.
    Source = std::move(Out.ListPrimsSource);
    Compiled = std::move(Out.ListPrimsCompiled);
  }

  void setup(Runtime &RT, uint64_t Seed) override {
    Rng R(Seed);
    In.resize(N);
    for (Word &W : In)
      W = R.below(1u << 30);
    M = std::make_unique<interp::Vm>(RT, Compiled);
    Head = M->metaModref();
    Cells.clear();
    Tails.clear();
    Cells.reserve(N);
    Tails.reserve(N);
    Modref *Cur = Head;
    for (Word V : In) {
      auto *Blk = static_cast<Word *>(M->metaAlloc(2 * sizeof(Word)));
      Modref *Tail = M->metaModref();
      Blk[0] = V;
      Blk[1] = toWord(Tail);
      M->metaWrite(Cur, toWord(Blk));
      Cells.push_back(Blk);
      Tails.push_back(Tail);
      Cur = Tail;
    }
    Out = M->metaModref();
    Plan = EditPlan(N, U / 2, 1, Seed);
    Detached.assign(N, 0);
  }

  void run(Runtime &) override {
    M->runCore("map", {toWord(Head), toWord(Out)});
  }

  void edit(Runtime &, size_t K) override {
    const size_t I = *Plan.pair(K / 2);
    Modref *Before = I == 0 ? Head : Tails[I - 1];
    if (K % 2 == 0)
      M->metaWrite(Before, M->metaRead(Tails[I]));
    else
      M->metaWrite(Before, toWord(Cells[I]));
    Detached[I] = K % 2 == 0;
  }

  size_t restartUpdate() const override { return Plan.restartUpdate(); }

  std::vector<Word> output(Runtime &) override {
    std::vector<Word> Heads;
    for (Word W = M->metaRead(Out); W;) {
      const Word *Blk = fromWord<const Word *>(W);
      Heads.push_back(Blk[0]);
      W = M->metaRead(fromWord<const Modref *>(Blk[1]));
    }
    return Heads;
  }

  std::vector<Word> reference() override {
    std::vector<Word> Cur;
    for (size_t I = 0; I < N; ++I)
      if (!Detached[I])
        Cur.push_back(In[I]);
    return convMap(Cur, nullptr);
  }

  double convMs() override {
    double Ms = 0;
    convMap(In, &Ms);
    return Ms;
  }

  std::vector<LayerSample> layerSamples() override {
    const double Closures = double(M->closuresMade());
    return {{"interp.closures_made", Closures},
            {"interp.env_words_per_closure",
             Closures ? double(M->closureEnvWords()) / Closures : 0}};
  }

private:
  /// Runs the source `map` on the conventional interpreter over \p Vals;
  /// stores the run's milliseconds in \p Ms when non-null.
  std::vector<Word> convMap(const std::vector<Word> &Vals, double *Ms) {
    interp::ConvInterp CI(Source);
    Word *HeadCell = CI.newCell(0);
    Word *Cur = HeadCell;
    for (Word V : Vals) {
      auto *Blk = static_cast<Word *>(CI.alloc(2 * sizeof(Word)));
      Word *Tail = CI.newCell(0);
      Blk[0] = V;
      Blk[1] = toWord(Tail);
      *Cur = toWord(Blk);
      Cur = Tail;
    }
    Word *OutCell = CI.newCell(0);
    Timer T;
    CI.run("map", {toWord(HeadCell), toWord(OutCell)});
    if (Ms)
      *Ms = T.milliseconds();
    std::vector<Word> Heads;
    for (Word W = *OutCell; W;) {
      const Word *Blk = fromWord<const Word *>(W);
      Heads.push_back(Blk[0]);
      W = *fromWord<const Word *>(Blk[1]);
    }
    return Heads;
  }

  static constexpr size_t N = 100000, U = 20000;
  cl::Program Source, Compiled;
  std::unique_ptr<interp::Vm> M;
  std::vector<Word> In;
  Modref *Head = nullptr, *Out = nullptr;
  std::vector<Word *> Cells;
  std::vector<Modref *> Tails;
  EditPlan Plan;
  std::vector<uint8_t> Detached;
};

} // namespace

std::unique_ptr<Workload> cealbench::makeClVm() {
  return std::make_unique<ClVm>();
}
