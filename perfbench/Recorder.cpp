//===- perfbench/Recorder.cpp - Benchmark result records ------------------===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "Recorder.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace cealbench;

namespace {

/// Python's `statistics.quantiles(data, n=4)` with the default exclusive
/// method, for quartile \p Q (1..3) of sorted \p S (at least two values).
double exclusiveQuartile(const std::vector<double> &S, int Q) {
  const double N = double(S.size());
  // m = N + 1; j = clamp(floor(Q * m / 4), 1, N - 1); delta = Q * m - 4 * j.
  const double M = N + 1;
  const double J = std::clamp(std::floor(Q * M / 4), 1.0, N - 1);
  const double Delta = Q * M - 4 * J;
  const size_t Lo = size_t(J) - 1;
  return (S[Lo] * (4 - Delta) + S[Lo + 1] * Delta) / 4;
}

} // namespace

Summary cealbench::summarize(std::vector<double> Samples) {
  Summary Out;
  Out.Count = Samples.size();
  if (Samples.empty())
    return Out;
  std::sort(Samples.begin(), Samples.end());
  const size_t N = Samples.size();
  Out.Min = Samples.front();
  Out.Max = Samples.back();
  Out.Median = N % 2 ? Samples[N / 2]
                     : (Samples[N / 2 - 1] + Samples[N / 2]) / 2;
  if (N == 1) {
    Out.Q1 = Out.Q3 = Samples[0];
  } else {
    Out.Q1 = exclusiveQuartile(Samples, 1);
    Out.Q3 = exclusiveQuartile(Samples, 3);
  }
  return Out;
}

double cealbench::percentile(std::vector<double> Samples, double Pct) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  size_t Rank = size_t(std::ceil(Pct / 100.0 * double(Samples.size())));
  return Samples[std::clamp<size_t>(Rank, 1, Samples.size()) - 1];
}

void Recorder::add(const std::string &Test, const std::string &Attr,
                   const std::string &Unit, double Value) {
  for (Record &R : Records)
    if (R.Test == Test && R.Attr == Attr) {
      R.Samples.push_back(Value);
      return;
    }
  Records.push_back({Test, Attr, Unit, {Value}});
}

const Recorder::Record *Recorder::find(const std::string &Test,
                                       const std::string &Attr) const {
  for (const Record &R : Records)
    if (R.Test == Test && R.Attr == Attr)
      return &R;
  return nullptr;
}

Summary Recorder::summary(const std::string &Test,
                          const std::string &Attr) const {
  const Record *R = find(Test, Attr);
  return R ? summarize(R->Samples) : Summary();
}

double Recorder::last(const std::string &Test, const std::string &Attr) const {
  const Record *R = find(Test, Attr);
  return R ? R->Samples.back() : 0;
}

std::string Recorder::unit(const std::string &Test,
                           const std::string &Attr) const {
  const Record *R = find(Test, Attr);
  return R ? R->Unit : std::string();
}

std::vector<std::string> Recorder::attributes(const std::string &Test) const {
  std::vector<std::string> Out;
  for (const Record &R : Records)
    if (R.Test == Test)
      Out.push_back(R.Attr);
  return Out;
}

void Recorder::provenance(const std::string &Key,
                          const std::string &JsonValue) {
  for (auto &[K, V] : Provenance)
    if (K == Key) {
      V = JsonValue;
      return;
    }
  Provenance.emplace_back(Key, JsonValue);
}

void Recorder::writeJsonFields(std::ostream &OS) const {
  OS << "\"provenance\": {";
  for (size_t I = 0; I < Provenance.size(); ++I)
    OS << (I ? ", " : "") << jsonString(Provenance[I].first) << ": "
       << Provenance[I].second;
  OS << "},\n\"records\": [";
  for (size_t I = 0; I < Records.size(); ++I) {
    const Record &R = Records[I];
    Summary S = summarize(R.Samples);
    OS << (I ? ",\n" : "\n") << "  {\"test\": " << jsonString(R.Test)
       << ", \"attribute\": " << jsonString(R.Attr)
       << ", \"unit\": " << jsonString(R.Unit)
       << ", \"median\": " << jsonNumber(S.Median)
       << ", \"q1\": " << jsonNumber(S.Q1) << ", \"q3\": " << jsonNumber(S.Q3)
       << ", \"min\": " << jsonNumber(S.Min)
       << ", \"max\": " << jsonNumber(S.Max) << ", \"count\": " << S.Count
       << "}";
  }
  OS << "\n]";
}

std::string cealbench::jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out + "\"";
}

std::string cealbench::jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}
