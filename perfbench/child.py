"""One cold pass of a workload in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED MODE T_SPAWN

MODE is ``setup`` (build the inputs and stop), ``pass`` (build, solve and
certify) or ``trace`` (a pass with the per-layer tracer installed before
the inputs are built).  T_SPAWN is the parent's ``time.monotonic()`` just
before it started this process, so ``setup_s`` covers interpreter start,
``import quongram`` and building the inputs.  The result is one JSON line
on stdout.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main():
    workload, seed, mode, t_spawn = sys.argv[1:5]
    sys.path.insert(0, SRC)
    import quongram
    if not os.path.abspath(quongram.__file__).startswith(SRC + os.sep):
        sys.exit(f"imported quongram from {quongram.__file__}, not {SRC}")

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads

    setup, run = workloads.WORKLOADS[workload]
    inputs = setup(int(seed))
    out = {"setup_s": time.monotonic() - float(t_spawn)}
    if mode != "setup":
        p = workloads.Pass()
        run(inputs, p)
        out.update(solve_s=p.solve_s, certify_s=p.certify_s,
                   peak_rss_mb=resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024,
                   checks=p.checks, errors=p.errors)
        if tracer is not None:
            out["layers"] = tracer.metrics()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
