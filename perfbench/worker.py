"""One benchmark child process: set up a workload, then run its passes in a
closed loop (one client; each CLI call starts when the previous returns).

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR
        --seconds S [--spans FILE] [--setup-only]

Prints ``ready`` once osserman_lab, numpy and scipy are imported and the
generated inputs are written, right before the first CLI call. Unless
``--setup-only`` is given it then prints one JSON line with the per-pass
wall and CPU times, operation counts and the peak resident memory, and
the times of the reference kernel (``reference.py``) that a timer runs
between and inside the CLI calls; pass times leave the kernel out. With
``--spans`` passes run untraced and traced in the order U T T U U T T U ...,
so that adjacent pairs give the tracing overhead under the same machine
conditions, with warm-up and drift falling on both sides; the spans are
written to FILE when the loop ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from dataclasses import asdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _dir_bytes(path: str) -> int:
    with os.scandir(path) as entries:
        return sum(e.stat().st_size for e in entries if e.is_file())


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, SRC)
    import numpy
    import scipy
    import osserman_lab
    import osserman_lab.cli
    if not os.path.abspath(osserman_lab.__file__).startswith(SRC + os.sep):
        print(f"osserman_lab imported from {osserman_lab.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import reference
    from tracing import Recorder, layer_metrics
    from workloads import WORKLOADS

    os.makedirs(args.workdir, exist_ok=True)
    ops = WORKLOADS[args.workload](args.seed, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    def run_cli(argv, out):
        rc = osserman_lab.cli.main(argv)
        return rc, _dir_bytes(out) if os.path.isdir(out) else 0

    recorder = Recorder() if args.spans else None
    if recorder is not None:
        traced_cli = recorder.traced("cli.main", run_cli,
                                     lambda result: {"bytes_out": result[1]})

    passes = []
    # the host's speed is read only in untraced runs, so spans hold no
    # kernel time
    sampler = reference.Sampler()
    if recorder is None:
        sampler.start()
    deadline = time.perf_counter() + args.seconds
    while True:
        pass_start = time.perf_counter()
        for op in ops:
            shutil.rmtree(op.out, ignore_errors=True)
        traced = recorder is not None and len(passes) % 4 in (1, 2)
        call, first_span = run_cli, 0
        if traced:
            recorder.bind(osserman_lab)
            recorder.run = f"{args.workload}.seed{args.seed}.pass{len(passes)}"
            call, first_span = traced_cli, len(recorder.spans)
        errors = []
        wall0, cpu0 = sampler.clock()
        for op in ops:
            try:
                rc, _ = call(op.argv, op.out)
                error = op.check(rc)
            except Exception:
                error = traceback.format_exc()
            if error:
                errors.append(f"{op.name}: {error}")
        wall1, cpu1 = sampler.clock()
        wall, cpu = wall1 - wall0, cpu1 - cpu0
        record = {"wall_s": wall, "cpu_s": cpu, "attempted": len(ops),
                  "failed": len(errors), "traced": traced}
        if traced:
            recorder.unbind()
            record["layers"] = layer_metrics(recorder.spans[first_span:])
        passes.append(record)
        for error in errors:
            print(f"operation failed ({args.workload}, seed {args.seed}, "
                  f"pass {len(passes)}): {error}", file=sys.stderr)
        now = time.perf_counter()
        if now + (now - pass_start) > deadline \
                and (recorder is None or len(passes) >= 2):
            break

    sampler.stop()
    if recorder is not None:
        with open(args.spans, "w") as fh:
            json.dump([asdict(s) for s in recorder.spans], fh)
    print(json.dumps({
        "passes": passes,
        "reference": {"wall_s": sampler.wall_s, "cpu_s": sampler.cpu_s},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "osserman_lab": osserman_lab.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
