//===- perfbench/Compile.cpp - The compile step of a round ----------------===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles the CL samples the way the Table 3 harness does, timing
/// each compiler layer from outside: parse, the optimization pipeline
/// (pre-passes, NORMALIZE, closure slimming), the plain NORMALIZE of the
/// parsed program, and C emission of the pipeline's output.
///
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "cl/Parser.h"
#include "cl/Samples.h"
#include "cl/Verifier.h"
#include "normalize/Normalize.h"
#include "normalize/Optimize.h"
#include "translate/EmitC.h"

using namespace cealbench;
using namespace ceal;

CompileOutput cealbench::compileSamples(SpanTrace &Spans, Checks &C,
                                        std::vector<LayerSample> &Layers) {
  CompileOutput Out;
  uint64_t ParseNs = 0, PipelineNs = 0, NormalizeNs = 0, EmitNs = 0;
  size_t Blocks = 0, EmittedBytes = 0;
  for (const auto &[Name, Source] : cl::samples::allPrograms()) {
    cl::ParseResult Parsed = [&] {
      Scope S(Spans, "parse");
      cl::ParseResult R = cl::parseProgram(Source);
      ParseNs += S.stop();
      return R;
    }();
    C.count(bool(Parsed), "parse " + Name);
    if (!Parsed)
      continue;
    Blocks += Parsed.Prog->blockCount();

    optimize::PipelineResult Opt = [&] {
      Scope S(Spans, "pipeline");
      optimize::PipelineResult R = optimize::runPassPipeline(*Parsed.Prog);
      PipelineNs += S.stop();
      return R;
    }();
    normalize::NormalizeResult NR = [&] {
      Scope S(Spans, "normalize");
      normalize::NormalizeResult R =
          normalize::normalizeProgram(*Parsed.Prog);
      NormalizeNs += S.stop();
      return R;
    }();
    C.count(cl::isNormalForm(Opt.Prog) && cl::isNormalForm(NR.Prog),
            "normal form " + Name);

    translate::EmitResult ER = [&] {
      Scope S(Spans, "emit");
      translate::EmitResult R =
          translate::emitC(Opt.Prog, translate::Mode::Refined);
      EmitNs += S.stop();
      return R;
    }();
    C.count(ER.EmittedBytes > 0 && ER.EmittedBytes == ER.Code.size(),
            "emit " + Name);
    EmittedBytes += ER.EmittedBytes;

    if (Name == "listprims") {
      Out.ListPrimsSource = std::move(*Parsed.Prog);
      Out.ListPrimsCompiled = std::move(Opt.Prog);
    }
  }
  C.count(!Out.ListPrimsCompiled.Funcs.empty(), "listprims compiled");
  Layers.push_back({"cl.parse_ms", double(ParseNs) / 1e6});
  Layers.push_back({"cl.blocks", double(Blocks)});
  Layers.push_back({"normalize.pipeline_ms", double(PipelineNs) / 1e6});
  Layers.push_back({"normalize.normalize_ms", double(NormalizeNs) / 1e6});
  Layers.push_back({"translate.emit_ms", double(EmitNs) / 1e6});
  Layers.push_back({"translate.emitted_bytes", double(EmittedBytes)});
  return Out;
}
