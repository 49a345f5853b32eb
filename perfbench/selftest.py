#!/usr/bin/env python3
"""Self-test of the CEAL benchmark at its shortest run length.

usage: python3 perfbench/selftest.py [WORKLOAD ...]

For every workload (default: all of BENCHMARK.json's), through run.py:
  * an untraced run prints every end-to-end metric of BENCHMARK.json with
    its unit and a value above 0, and every output check passes
    (`failed` is 0, so failed_frac is 0);
  * a traced run prints every per-layer metric with its unit;
  * a run with one injected wrong output reports it as failed.
It also checks that an unknown workload is refused without a result.
Exits 0 when everything holds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, 'run.py')


def run(args):
    proc = subprocess.run([sys.executable, RUN] + args, cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, 'BENCHMARK.json')) as f:
        spec = json.load(f)
    workloads = sys.argv[1:] or [w['name'] for w in spec['workloads']]
    problems = []

    def expect(cond, what):
        print(('ok    ' if cond else 'FAIL  ') + what)
        if not cond:
            problems.append(what)

    def metrics_match(result, wanted, positive, label):
        got = result['metrics'] if result else {}
        for m in wanted:
            v = got.get(m['name'])
            expect(v is not None and v.get('unit') == m['unit'] and
                   isinstance(v.get('value'), (int, float)) and
                   (v['value'] > 0 or not positive),
                   '%s: %s [%s]' % (label, m['name'], m['unit']))

    for w in workloads:
        base = ['--workload', w, '--seed', '1', '--seconds', '1']
        code, result, err = run(base + ['--trace', '0'])
        expect(code == 0 and result is not None,
               '%s untraced: result printed' % w)
        if result:
            expect(result['correct'] and result['failed'] == 0 and
                   result['attempted'] > 0,
                   '%s untraced: %d checks, failed_frac 0' %
                   (w, result['attempted']))
        metrics_match(result, spec['end_to_end'], True, w + ' untraced')

        code, result, err = run(base + ['--trace', '1'])
        expect(code == 0 and result is not None and result['correct'],
               '%s traced: result printed, checks pass' % w)
        metrics_match(result, spec['per_layer'], False, w + ' traced')

        code, result, err = run(base + ['--trace', '0', '--inject-wrong'])
        expect(code == 0 and result is not None and not result['correct']
               and result['failed'] >= 1,
               '%s: an injected wrong output counts as failed' % w)

    code, result, err = run(['--workload', 'no_such', '--seed', '1',
                             '--seconds', '1', '--trace', '0'])
    expect(code != 0 and result is None, 'unknown workload refused')

    print('%d problem(s)' % len(problems))
    sys.exit(1 if problems else 0)


if __name__ == '__main__':
    main()
