//===- tools/cl-lint.cpp - CL lint driver ----------------------------------===//
//
// Command-line front end for analysis::runLints: parses CL sources (or
// loads the shipped samples), runs the verifier plus the CEAL-specific
// dataflow lints, and prints located diagnostics.
//
// Usage:
//   cl-lint [options] [file.cl ...]
//   cl-lint --sample=all            # lint every shipped sample
//   cl-lint --sample=quicksort      # one shipped sample by name
//
// Options:
//   --normal-form    require the Sec. 5 normal form (reads must tail)
//   --max-live=N     loop-header live-set warning threshold (default 12)
//   --no-notes       suppress note-severity diagnostics
//   --json           machine-readable output (one JSON object with every
//                    program's diagnostics and counts)
//   -q, --quiet      only the per-program summary lines
//
// Exit status (stable, consumed by the cl_lint_gate ctest):
//   0  clean — no diagnostics of any severity
//   1  lints — warnings or notes were produced, but no errors
//   2  errors — error-severity diagnostics, a parse failure, or a usage
//      error (unknown option/sample, unreadable file)
//
//===----------------------------------------------------------------------===//

#include "analysis/Lints.h"
#include "cl/Parser.h"
#include "cl/Printer.h"
#include "cl/Samples.h"

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace ceal;
using namespace ceal::cl;

namespace {

struct Options {
  analysis::LintOptions Lint;
  bool Json = false;
  bool Quiet = false;
  bool ShowNotes = true;
  std::vector<std::string> Files;
  std::string Sample;
};

void escapeJson(std::ostream &Out, const std::string &S) {
  Out << '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out << "\\\"";
      break;
    case '\\':
      Out << "\\\\";
      break;
    case '\n':
      Out << "\\n";
      break;
    case '\t':
      Out << "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out << "\\u00" << "0123456789abcdef"[(C >> 4) & 0xf]
            << "0123456789abcdef"[C & 0xf];
      else
        Out << C;
    }
  }
  Out << '"';
}

struct LintRun {
  std::string Name;
  std::string ParseError; // Non-empty: the source did not parse.
  std::optional<Program> Prog;
  analysis::LintReport Report;

  size_t warningCount() const {
    size_t N = 0;
    for (const Diagnostic &D : Report.Diags)
      N += D.Sev == Severity::Warning;
    return N;
  }
  size_t noteCount() const {
    size_t N = 0;
    for (const Diagnostic &D : Report.Diags)
      N += D.Sev == Severity::Note;
    return N;
  }
};

LintRun lintSource(const std::string &Name, const std::string &Source,
                   const Options &O) {
  LintRun Run;
  Run.Name = Name;
  ParseResult R = parseProgram(Source);
  if (!R) {
    Run.ParseError = R.Error;
    return Run;
  }
  Run.Prog = std::move(R.Prog);
  Run.Report = analysis::runLints(*Run.Prog, O.Lint);
  return Run;
}

void printJson(const std::vector<LintRun> &Runs, const Options &O) {
  std::ostream &Out = std::cout;
  Out << "{\n  \"programs\": [\n";
  for (size_t RI = 0; RI < Runs.size(); ++RI) {
    const LintRun &Run = Runs[RI];
    Out << "    {\n      \"name\": ";
    escapeJson(Out, Run.Name);
    if (!Run.ParseError.empty()) {
      Out << ",\n      \"parse_error\": ";
      escapeJson(Out, Run.ParseError);
      Out << ",\n      \"diagnostics\": []\n    }";
    } else {
      Out << ",\n      \"max_live\": " << Run.Report.MaxLiveProgram
          << ",\n      \"errors\": " << Run.Report.errorCount()
          << ",\n      \"warnings\": " << Run.warningCount()
          << ",\n      \"notes\": " << Run.noteCount()
          << ",\n      \"diagnostics\": [\n";
      bool First = true;
      for (const Diagnostic &D : Run.Report.Diags) {
        if (D.Sev == Severity::Note && !O.ShowNotes)
          continue;
        if (!First)
          Out << ",\n";
        First = false;
        const Program &P = *Run.Prog;
        Out << "        {\"check\": ";
        escapeJson(Out, D.Check);
        Out << ", \"severity\": \"" << severityName(D.Sev) << "\"";
        if (D.Function < P.Funcs.size()) {
          Out << ", \"function\": ";
          escapeJson(Out, P.Funcs[D.Function].Name);
          if (D.Block < P.Funcs[D.Function].Blocks.size()) {
            Out << ", \"block\": ";
            escapeJson(Out, P.Funcs[D.Function].Blocks[D.Block].Label);
            Out << ", \"block_id\": " << D.Block
                << ", \"index\": " << D.Index;
          }
        }
        Out << ", \"message\": ";
        escapeJson(Out, D.Message);
        Out << "}";
      }
      Out << "\n      ]\n    }";
    }
    Out << (RI + 1 < Runs.size() ? ",\n" : "\n");
  }
  Out << "  ]\n}\n";
}

void printText(const std::vector<LintRun> &Runs, const Options &O) {
  for (const LintRun &Run : Runs) {
    if (!Run.ParseError.empty()) {
      std::cout << Run.Name << ": parse error: " << Run.ParseError << "\n";
      continue;
    }
    size_t Errors = 0, Warnings = 0, Notes = 0;
    for (const Diagnostic &D : Run.Report.Diags) {
      switch (D.Sev) {
      case Severity::Error:
        ++Errors;
        break;
      case Severity::Warning:
        ++Warnings;
        break;
      case Severity::Note:
        ++Notes;
        break;
      }
      if (O.Quiet || (D.Sev == Severity::Note && !O.ShowNotes))
        continue;
      std::cout << renderDiagnostic(*Run.Prog, D);
    }
    std::cout << Run.Name << ": " << Errors << " error(s), " << Warnings
              << " warning(s), " << Notes << " note(s), ML(P) = "
              << Run.Report.MaxLiveProgram << "\n";
  }
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&](const char *Prefix) {
      return A.substr(std::string(Prefix).size());
    };
    if (A == "--normal-form") {
      O.Lint.RequireNormalForm = true;
    } else if (A.rfind("--max-live=", 0) == 0) {
      O.Lint.LoopLiveThreshold = std::stoul(Value("--max-live="));
    } else if (A == "--no-notes") {
      O.ShowNotes = false;
      O.Lint.DeadCodeNotes = false;
    } else if (A == "--json") {
      O.Json = true;
    } else if (A == "-q" || A == "--quiet") {
      O.Quiet = true;
    } else if (A.rfind("--sample=", 0) == 0) {
      O.Sample = Value("--sample=");
    } else if (A == "--help" || A == "-h") {
      std::cout << "usage: cl-lint [--sample=NAME|all] [--normal-form] "
                   "[--max-live=N] [--no-notes] [--json] [-q] [file.cl ...]\n";
      return 0;
    } else if (!A.empty() && A[0] == '-') {
      std::cerr << "cl-lint: unknown option '" << A << "'\n";
      return 2;
    } else {
      O.Files.push_back(A);
    }
  }
  if (O.Files.empty() && O.Sample.empty())
    O.Sample = "all";

  std::vector<LintRun> Runs;
  if (!O.Sample.empty()) {
    bool Found = false;
    for (const auto &[Name, Source] : samples::allPrograms()) {
      if (O.Sample != "all" && O.Sample != Name)
        continue;
      Found = true;
      Runs.push_back(lintSource(Name, Source, O));
    }
    if (!Found) {
      std::cerr << "cl-lint: unknown sample '" << O.Sample << "'\n";
      return 2;
    }
  }
  for (const std::string &File : O.Files) {
    std::ifstream In(File);
    if (!In) {
      std::cerr << "cl-lint: cannot open '" << File << "'\n";
      return 2;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Runs.push_back(lintSource(File, Buf.str(), O));
  }

  if (O.Json)
    printJson(Runs, O);
  else
    printText(Runs, O);

  // Stable exit contract: 2 errors / 1 lints / 0 clean.
  bool Errors = false, Lints = false;
  for (const LintRun &Run : Runs) {
    Errors |= !Run.ParseError.empty() || Run.Report.errorCount() > 0;
    Lints |= Run.warningCount() > 0 || Run.noteCount() > 0;
  }
  return Errors ? 2 : Lints ? 1 : 0;
}
