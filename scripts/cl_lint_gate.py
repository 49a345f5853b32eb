#!/usr/bin/env python3
"""The cl-lint CI gate: shipped samples and example CL sources lint clean.

Runs `cl-lint --json --sample=all <files...>`, parses the machine-readable
report, and fails with a per-program account if any program has a parse
error, error-, warning-, or note-severity diagnostics. Also cross-checks
the stable exit-code contract (0 clean / 1 lints / 2 errors) against the
JSON content, so a drift between the two surfaces here instead of
silently weakening the gate.

Usage:
    cl_lint_gate.py CL_LINT_BINARY [file.cl ...]
"""

import json
import subprocess
import sys


def main(argv):
    if len(argv) < 2:
        print("usage: cl_lint_gate.py CL_LINT_BINARY [file.cl ...]",
              file=sys.stderr)
        return 2
    cmd = [argv[1], "--json", "--sample=all"] + argv[2:]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        print(f"cl_lint_gate: cl-lint --json output is not valid JSON: {e}",
              file=sys.stderr)
        return 1

    failures = []
    any_error = False
    any_lint = False
    for prog in report.get("programs", []):
        name = prog.get("name", "<unnamed>")
        if "parse_error" in prog:
            any_error = True
            failures.append(f"{name}: parse error: {prog['parse_error']}")
            continue
        errors = prog.get("errors", 0)
        warnings = prog.get("warnings", 0)
        notes = prog.get("notes", 0)
        print(f"{name}: errors={errors} warnings={warnings} notes={notes}")
        any_error |= errors > 0
        any_lint |= warnings > 0 or notes > 0
        for diag in prog.get("diagnostics", []):
            failures.append(
                f"{name}: {diag.get('severity')}[{diag.get('check')}] "
                f"{diag.get('function', '?')}/{diag.get('block', '?')}: "
                f"{diag.get('message')}")

    expected = 2 if any_error else 1 if any_lint else 0
    if proc.returncode != expected:
        failures.append(
            f"exit-code contract violated: cl-lint exited {proc.returncode} "
            f"but the JSON content implies {expected} "
            "(0 clean / 1 lints / 2 errors)")

    if failures:
        print("\n" + "\n".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
