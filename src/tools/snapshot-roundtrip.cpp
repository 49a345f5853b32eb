//===- tools/snapshot-roundtrip.cpp - Cross-process persistence gate ------===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// The cross-process half of the snapshot test story: `save` builds a
// deterministic list computation (map + reverse over a seeded input),
// checkpoints it with the mutator's handles as roots, and exits; `load`
// — typically a *different process*, same binary — restores the
// checkpoint, reconstructs the mutator from the returned roots, then
// drives thirty seeded detach/reattach edits through propagation,
// verifying every output against a conventional recomputation with the
// trace sanitizer on.
//
// `load` uses Snapshot::load(), which checksums the file and audits the
// restored trace itself. `load --mmap` uses the (trusted-file) warm
// start, then audits the mapped trace with TraceAudit::inspect right
// after the load, before the first edit: the checkpoint crossed a process
// boundary. That audit covers the trace structures; the mutator's own
// words in the arena (list cells) are not trace structure, so every list
// walk checks each cell and tail modifiable it follows against the
// arena's bump-allocated part and stops at the saved element count. A
// corrupted file then fails with exit 2 rather than a wild read; the
// warm start itself still assumes save()'s unmodified output.
//
// Snapshots are position-dependent (region bases and code addresses must
// coincide), so both ends run under `setarch -R` (ASLR off) in CI.
//
// Exit codes: 0 success; 2 verification failure; 3 AddressUnavailable
// (environment cannot honor the base claim — CI treats this as a skip);
// 4 CodeMoved (ASLR not actually disabled); 5 any other error.
//
//===----------------------------------------------------------------------===//

#include "apps/ListApps.h"
#include "runtime/Runtime.h"
#include "runtime/Snapshot.h"
#include "runtime/TraceAudit.h"
#include "support/Random.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace ceal;

namespace {

constexpr uint64_t BaseSeed = 0x5eedcea15a9f00dULL;
constexpr size_t InputWords = 48;
constexpr int EditSteps = 30;

Word mapPaper(Word X, Word) { return X / 3 + X / 7 + X / 9; }

Runtime::Config toolConfig() {
  Runtime::Config C;
  C.Audit = true;
  return C;
}

std::vector<Word> seededInput() {
  Rng R(BaseSeed);
  std::vector<Word> In(InputWords);
  for (Word &W : In)
    W = R.below(1000000);
  return In;
}

/// The LIFO detach/reattach discipline from the oracle harness, inlined
/// so the tool only depends on src/. Reattachment always undoes the most
/// recent detach, so a reattached cell's stored tail is still correct.
struct Editor {
  apps::ListHandle L;
  std::vector<bool> Attached;
  std::vector<size_t> DetachStack;

  void randomEdit(Runtime &RT, Rng &R) {
    bool CanReattach = !DetachStack.empty();
    if ((!CanReattach || R.flip()) && DetachStack.size() < L.Cells.size()) {
      std::vector<size_t> Eligible;
      for (size_t I = 0; I < L.Cells.size(); ++I)
        if (Attached[I] && (I == 0 || Attached[I - 1]))
          Eligible.push_back(I);
      if (!Eligible.empty()) {
        size_t Index = Eligible[R.below(Eligible.size())];
        apps::detachCell(RT, L, Index);
        Attached[Index] = false;
        DetachStack.push_back(Index);
        return;
      }
    }
    if (CanReattach) {
      size_t Index = DetachStack.back();
      DetachStack.pop_back();
      apps::reattachCell(RT, L, Index);
      Attached[Index] = true;
    }
  }
};

/// True if the \p Bytes at \p P lie below the arena's bump frontier, and
/// \p P is word-aligned like every arena block.
bool inArena(Runtime &RT, const void *P, size_t Bytes) {
  auto *Base = static_cast<const char *>(RT.arena().regionBase());
  auto *C = static_cast<const char *>(P);
  return C >= Base && C + Bytes <= Base + RT.arena().bumpUsedBytes() &&
         reinterpret_cast<uintptr_t>(C) % alignof(Word) == 0;
}

/// True if RT.deref(M) reads only the arena: M itself, the use its Tail
/// handle names, and (for a read) the governing write that read names.
bool derefInArena(Runtime &RT, const Modref *M) {
  if (!inArena(RT, M, sizeof(Modref)))
    return false;
  if (!M->Tail)
    return true;
  const Arena &A = RT.arena();
  if (!A.handleInBounds(M->Tail.Bits))
    return false;
  const Use *T = A.at(M->Tail);
  return T->Kind == TraceKind::Write ||
         A.handleInBounds(static_cast<const ReadNode *>(T)->Gov.Bits);
}

/// apps::readList for a list read out of a checkpoint: each cell and
/// tail is checked before it is followed, and the walk stops at the
/// saved element count. Returns false if either check fails.
bool readListChecked(Runtime &RT, Modref *Head, std::vector<Word> &Out,
                     std::vector<apps::Cell *> *Cells = nullptr) {
  Out.clear();
  for (Modref *Ref = Head;;) {
    if (!derefInArena(RT, Ref))
      return false;
    auto *C = RT.derefT<apps::Cell *>(Ref);
    if (!C)
      return true;
    if (Out.size() == InputWords || !inArena(RT, C, sizeof(apps::Cell)))
      return false;
    Out.push_back(C->Head);
    if (Cells)
      Cells->push_back(C);
    Ref = C->Tail;
  }
}

/// Checks the map and reverse outputs against a recomputation from the
/// input list. Returns "" if they agree, else what went wrong.
std::string checkOutputs(Runtime &RT, Modref *Head, Modref *DstMap,
                         Modref *DstRev) {
  std::vector<Word> In, Map, Rev;
  if (!readListChecked(RT, Head, In) || !readListChecked(RT, DstMap, Map) ||
      !readListChecked(RT, DstRev, Rev))
    return "a list leaves the arena or outgrows the input";
  std::vector<Word> Expected;
  for (Word W : In)
    Expected.push_back(mapPaper(W, 0));
  if (Map != Expected || Rev != std::vector<Word>(In.rbegin(), In.rend()))
    return "output mismatch";
  return "";
}

int runSave(const std::string &Path) {
  Runtime RT(toolConfig());
  apps::ListHandle L = apps::buildList(RT, seededInput());
  Modref *DstMap = RT.modref();
  Modref *DstRev = RT.modref();
  RT.runCore<&apps::mapCore>(L.Head, DstMap, &mapPaper, Word(0));
  RT.runCore<&apps::reverseCore>(L.Head, DstRev);

  std::string Why = checkOutputs(RT, L.Head, DstMap, DstRev);
  if (!Why.empty()) {
    std::fprintf(stderr, "save: fresh run: %s\n", Why.c_str());
    return 2;
  }

  Snapshot::SaveOptions Opt;
  Opt.Roots.push_back(L.Head);
  Opt.Roots.push_back(DstMap);
  Opt.Roots.push_back(DstRev);
  for (apps::Cell *C : L.Cells)
    Opt.Roots.push_back(C);

  Snapshot::SaveResult SR = Snapshot::save(RT, Path, Opt);
  if (!SR.ok()) {
    std::fprintf(stderr, "save: %s: %s\n", Snapshot::statusName(SR.St),
                 SR.Diagnostic.c_str());
    return 5;
  }
  std::printf("saved %llu bytes, digest %016llx\n",
              (unsigned long long)SR.FileBytes,
              (unsigned long long)Snapshot::traceShapeDigest(RT));
  return 0;
}

int runLoad(const std::string &Path, bool UseMmap) {
  // No automatic audit: the tool inspects the trace itself after the load
  // and after every propagation, and exits 2 on a violation where the
  // automatic audit would abort.
  Runtime RT;
  Snapshot::LoadResult LR = UseMmap ? Snapshot::mmapWarmStart(RT, Path)
                                    : Snapshot::load(RT, Path);
  if (!LR.ok()) {
    std::fprintf(stderr, "load: %s: %s\n", Snapshot::statusName(LR.St),
                 LR.Diagnostic.c_str());
    if (LR.St == Snapshot::Status::AddressUnavailable)
      return 3;
    if (LR.St == Snapshot::Status::CodeMoved)
      return 4;
    return 5;
  }
  if (UseMmap) {
    // The warm start trusts the mapped payload; audit it once before the
    // first edit walks it.
    TraceAudit::Report Audit = TraceAudit::inspect(RT);
    if (!Audit.ok()) {
      std::fprintf(stderr, "load: audit of the mapped trace failed:\n%s\n",
                   Audit.summary().c_str());
      return 2;
    }
  }
  if (LR.Roots.size() != 3 + InputWords) {
    std::fprintf(stderr, "load: expected %zu roots, got %zu\n",
                 3 + InputWords, LR.Roots.size());
    return 2;
  }

  Editor E;
  E.L.Head = static_cast<Modref *>(LR.Roots[0]);
  Modref *DstMap = static_cast<Modref *>(LR.Roots[1]);
  Modref *DstRev = static_cast<Modref *>(LR.Roots[2]);
  for (size_t I = 3; I < LR.Roots.size(); ++I)
    E.L.Cells.push_back(static_cast<apps::Cell *>(LR.Roots[I]));
  E.Attached.assign(E.L.Cells.size(), true); // Checkpoint taken pre-edit.

  // The editor follows the root cells, so they must be the checked list.
  std::vector<Word> In;
  std::vector<apps::Cell *> Walked;
  if (!readListChecked(RT, E.L.Head, In, &Walked) || Walked != E.L.Cells) {
    std::fprintf(stderr, "load: the input list is not the saved cells\n");
    return 2;
  }

  std::printf("loaded (%s), digest %016llx\n", UseMmap ? "mmap" : "copy",
              (unsigned long long)Snapshot::traceShapeDigest(RT));

  std::string Why = checkOutputs(RT, E.L.Head, DstMap, DstRev);
  if (!Why.empty()) {
    std::fprintf(stderr, "load: restored trace: %s\n", Why.c_str());
    return 2;
  }

  for (int Step = 0; Step < EditSteps; ++Step) {
    uint64_t StepSeed = BaseSeed + uint64_t(Step) + 1;
    Rng R(splitMix64(StepSeed));
    E.randomEdit(RT, R);
    RT.propagate();
    TraceAudit::Report Audit = TraceAudit::inspect(RT);
    if (!Audit.ok()) {
      std::fprintf(stderr, "load: audit failed at step %d:\n%s\n", Step,
                   Audit.summary().c_str());
      return 2;
    }
    Why = checkOutputs(RT, E.L.Head, DstMap, DstRev);
    if (!Why.empty()) {
      std::fprintf(stderr, "load: step %d: %s\n", Step, Why.c_str());
      return 2;
    }
  }
  std::printf("propagated %d edits against the restored trace: ok\n",
              EditSteps);
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> Args(argv + 1, argv + argc);
  bool UseMmap = false;
  for (auto It = Args.begin(); It != Args.end();)
    if (*It == "--mmap") {
      UseMmap = true;
      It = Args.erase(It);
    } else {
      ++It;
    }
  if (Args.size() != 2 || (Args[0] != "save" && Args[0] != "load")) {
    std::fprintf(
        stderr,
        "usage: snapshot-roundtrip save <file>\n"
        "       snapshot-roundtrip load [--mmap] <file>\n"
        "load copies the file and verifies every checksum and the trace.\n"
        "load --mmap trusts the file to be save()'s unmodified output: it\n"
        "maps the arena unverified, then audits the trace and checks every\n"
        "list cell it walks. Corruption that neither check sees may still\n"
        "crash it; use plain load for files you do not trust.\n");
    return 5;
  }
  return Args[0] == "save" ? runSave(Args[1]) : runLoad(Args[1], UseMmap);
}
