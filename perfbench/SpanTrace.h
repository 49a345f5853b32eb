//===- perfbench/SpanTrace.h - In-memory spans around library calls -*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans around the benchmark's calls into the library's public functions.
/// A span has a name, a start and an end on the steady clock, a parent
/// (the span open when it began) and a group id that the spans of one
/// update share. Spans stay in memory until the run ends. A span's self
/// time is its duration minus the part its children cover; children run
/// one after another inside their parent, so that part is their summed
/// duration, and the self times of a root span's subtree sum to the
/// root's wall time.
///
/// The same Scope also times the untraced rounds: it always reads the
/// clock and records a span only when tracing is on, so an untraced round
/// pays two clock reads per timed call and nothing more.
///
//===----------------------------------------------------------------------===//

#ifndef CEALBENCH_SPANTRACE_H
#define CEALBENCH_SPANTRACE_H

#include "support/Timer.h"

#include <cstdint>
#include <ostream>
#include <vector>

namespace cealbench {

class SpanTrace {
public:
  struct Span {
    const char *Name; ///< A string literal.
    int32_t Parent;   ///< Index of the enclosing span; -1 for a root.
    uint64_t Group;   ///< Update id; 0 for spans outside any update.
    uint64_t StartNs, EndNs;
  };

  /// Whether spans are recorded (set per round).
  bool On = false;

  /// Opens a span under the innermost open one; -1 when tracing is off.
  int32_t open(const char *Name, uint64_t Group, uint64_t StartNs) {
    if (!On)
      return -1;
    Spans.push_back({Name, Current, Group, StartNs, StartNs});
    Current = int32_t(Spans.size() - 1);
    return Current;
  }
  void close(int32_t Id, uint64_t EndNs) {
    if (Id < 0)
      return;
    Spans[Id].EndNs = EndNs;
    Current = Spans[Id].Parent;
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Summed self times and summed root-span wall times of the spans
  /// recorded since index \p From (whose parents are all at or after it).
  struct Coverage {
    uint64_t SelfNs = 0, RootNs = 0;
  };
  Coverage coverage(size_t From) const {
    std::vector<uint64_t> ChildNs(Spans.size(), 0);
    Coverage C;
    for (size_t I = From; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      if (S.Parent >= 0)
        ChildNs[S.Parent] += S.EndNs - S.StartNs;
      else
        C.RootNs += S.EndNs - S.StartNs;
    }
    for (size_t I = From; I < Spans.size(); ++I)
      C.SelfNs += Spans[I].EndNs - Spans[I].StartNs - ChildNs[I];
    return C;
  }

  /// One JSON object per line, times relative to the first span.
  void writeJsonLines(std::ostream &OS) const {
    const uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      OS << "{\"id\": " << I << ", \"name\": \"" << S.Name
         << "\", \"parent\": " << S.Parent << ", \"group\": " << S.Group
         << ", \"start_ns\": " << S.StartNs - Base
         << ", \"end_ns\": " << S.EndNs - Base << "}\n";
    }
  }

private:
  std::vector<Span> Spans;
  int32_t Current = -1;
};

/// Times one call from outside the library and, when tracing is on,
/// records it as a span.
class Scope {
public:
  Scope(SpanTrace &T, const char *Name, uint64_t Group = 0)
      : T(T), StartNs(ceal::Timer::nowNs()), Id(T.open(Name, Group, StartNs)) {
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  ~Scope() { stop(); }

  /// Ends the span (once) and returns its duration in nanoseconds.
  uint64_t stop() {
    if (!Stopped) {
      EndNs = ceal::Timer::nowNs();
      T.close(Id, EndNs);
      Stopped = true;
    }
    return EndNs - StartNs;
  }

private:
  SpanTrace &T;
  uint64_t StartNs;
  int32_t Id;
  uint64_t EndNs = 0;
  bool Stopped = false;
};

} // namespace cealbench

#endif // CEALBENCH_SPANTRACE_H
