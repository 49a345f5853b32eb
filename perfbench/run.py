#!/usr/bin/env python3
"""Build the CEAL benchmark driver from source and run one workload.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                                [--inject-wrong]

Run it from anywhere inside a checkout of the repository. The driver is
built with CMake (Release) under .bench_build/ at the repository root, and
the run's report, spans and checkpoint file go to .bench_build/work/. The
last line of standard output is the result object; the build log and the
readable summary go to standard error. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, '.bench_build')
BUILD = os.path.join(BUILD_ROOT, 'perfbench')
WORK = os.path.join(BUILD_ROOT, 'work')
BINARY = os.path.join(BUILD, 'cealbench')
WORKLOADS = ('map_edit', 'quicksort_edit', 'quickhull_batch', 'cl_vm')
# A measured run ends well inside 180 s; the first run in a checkout also
# builds, which may take longer.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print('run.py: error: ' + msg, file=sys.stderr)
    sys.exit(2)


def run_logged(argv, timeout, what):
    """Runs argv with its output on stderr; fails the run on error."""
    try:
        proc = subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(what + ' timed out')
    if proc.returncode != 0:
        fail('%s failed with exit code %d' % (what, proc.returncode))


def build():
    if not os.path.isfile(os.path.join(ROOT, 'src', 'CMakeLists.txt')):
        fail('the CEAL sources (src/) are not next to perfbench/')
    if shutil.which('cmake') is None:
        fail('cmake not found')
    cache = os.path.join(BUILD, 'CMakeCache.txt')
    if os.path.isfile(cache):
        # A build tree configured for another checkout cannot be reused.
        with open(cache) as f:
            if 'CMAKE_HOME_DIRECTORY:INTERNAL=%s\n' % HERE not in f.read():
                shutil.rmtree(BUILD)
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(cache):
        run_logged(['cmake', '-S', HERE, '-B', BUILD,
                    '-DCMAKE_BUILD_TYPE=Release'], BUILD_TIMEOUT_S,
                   'cmake configure')
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(['cmake', '--build', BUILD, '--target', 'cealbench',
                '-j', jobs], BUILD_TIMEOUT_S, 'build')


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument('--workload', required=True, choices=WORKLOADS)
    ap.add_argument('--seed', required=True, type=int)
    ap.add_argument('--seconds', required=True, type=int)
    ap.add_argument('--trace', required=True, type=int, choices=(0, 1))
    ap.add_argument('--inject-wrong', action='store_true',
                    help='corrupt one checked output (self-test)')
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail('--seed must be >= 0 and --seconds >= 1')

    build()
    os.makedirs(WORK, exist_ok=True)
    argv = [BINARY, '--workload', args.workload, '--seed', str(args.seed),
            '--seconds', str(args.seconds), '--trace', str(args.trace),
            '--work-dir', WORK]
    if args.inject_wrong:
        argv.append('--inject-wrong')
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail('the benchmark run timed out')
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail('the benchmark run failed with exit code %d' % proc.returncode)
    try:
        json.loads(lines[-1])
    except ValueError:
        fail('the benchmark printed no result object')
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1])


if __name__ == '__main__':
    main()
