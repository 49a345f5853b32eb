//===- perfbench/Recorder.h - Benchmark result records ---------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's one recorder, in the style of a result database: every
/// measurement is a (test, attribute, unit, sample) record, samples of the
/// same (test, attribute) pool into one record, and a single writer prints
/// each record's median, quartiles, extremes and sample count next to the
/// run's provenance. The quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), so a spread
/// computed here matches one computed from the printed samples.
///
//===----------------------------------------------------------------------===//

#ifndef CEALBENCH_RECORDER_H
#define CEALBENCH_RECORDER_H

#include <cstddef>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace cealbench {

struct Summary {
  double Median = 0, Q1 = 0, Q3 = 0, Min = 0, Max = 0;
  size_t Count = 0;
};

/// Median, quartiles and extremes of \p Samples (all zero when empty).
Summary summarize(std::vector<double> Samples);

/// The \p Pct-th percentile (0..100) of \p Samples by the nearest-rank
/// rule: the smallest sample with at least Pct% of the samples at or
/// below it.
double percentile(std::vector<double> Samples, double Pct);

class Recorder {
public:
  /// Appends one sample to the (\p Test, \p Attr) record, creating it with
  /// \p Unit on first use.
  void add(const std::string &Test, const std::string &Attr,
           const std::string &Unit, double Value);

  /// The summary of a record; Count == 0 when it does not exist.
  Summary summary(const std::string &Test, const std::string &Attr) const;
  /// The latest sample of a record; 0 when it does not exist.
  double last(const std::string &Test, const std::string &Attr) const;
  /// The unit of a record, or "" when it does not exist.
  std::string unit(const std::string &Test, const std::string &Attr) const;
  /// Attribute names of \p Test in first-recorded order.
  std::vector<std::string> attributes(const std::string &Test) const;

  /// Records one provenance field; \p JsonValue is already JSON-encoded.
  void provenance(const std::string &Key, const std::string &JsonValue);

  /// Writes `"provenance": {...}, "records": [...]` (no enclosing braces)
  /// so the caller can embed it in its own report object.
  void writeJsonFields(std::ostream &OS) const;

private:
  struct Record {
    std::string Test, Attr, Unit;
    std::vector<double> Samples;
  };
  const Record *find(const std::string &Test, const std::string &Attr) const;

  std::vector<Record> Records;
  std::vector<std::pair<std::string, std::string>> Provenance;
};

/// JSON string literal for \p S (quotes and escapes included).
std::string jsonString(const std::string &S);
/// JSON number with every significant digit; non-finite values become 0.
std::string jsonNumber(double V);

} // namespace cealbench

#endif // CEALBENCH_RECORDER_H
