"""One benchmark operation in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --setup
        time `import homogdirac.cli` and print {"setup_s": ...}
    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--spans PATH]
        run one operation of the workload on the inputs made from N

The caller puts the checkout's `src` on PYTHONPATH.
"""

import sys
import time

if __name__ == "__main__" and sys.argv[1:] == ["--setup"]:
    # nothing of numpy or homogdirac may be imported before the clock starts
    t0 = time.perf_counter()
    import homogdirac.cli  # noqa: F401
    print('{"setup_s": %r}' % (time.perf_counter() - t0))
    sys.exit(0)

import argparse
import glob
import json
import os
import resource
import types


def import_program():
    import homogdirac
    from homogdirac import cli, dirac, groups, reps, sections
    return types.SimpleNamespace(package=homogdirac, cli=cli, dirac=dirac, groups=groups,
                                 reps=reps, sections=sections)


def blas_info() -> dict:
    """BLAS name and thread count as the loaded numpy sees them."""
    import ctypes

    import numpy as np
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        name = "unknown"
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": name, "threads": threads}


def run_once(workload, seed: int, trace: bool, spans_path: str | None) -> dict:
    import numpy as np

    from tracing import Tracer, layer_metrics

    hd = import_program()
    inputs = workload.inputs(seed)
    checks = []
    layers = None
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            output, root = tracer.run_operation(workload.run, hd, inputs)
        finally:
            restored = tracer.uninstall()
        wall = root[3] - root[2]
        layers = layer_metrics(tracer.spans, tracer.counters)
        self_total = sum(v for k, v in layers.items() if k.endswith("self_s")
                         or k == "trace.remainder_s")
        checks.append(("trace.wrappers-restored", restored, None))
        checks.append(("trace.self-time-sum", abs(self_total - wall) <= 1e-6, self_total - wall))
        if spans_path:
            tracer.dump(spans_path, f"{workload.name}/{seed}")
    else:
        t0 = time.perf_counter()
        output = workload.run(hd, inputs)
        wall = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks += [(name, bool(ok), detail) for name, ok, detail in workload.oracle(hd, inputs, output)]
    return {
        "wall_s": wall,
        "peak_rss_mb": rss_mb,
        "digest": workload.digest(output),
        "checks": checks,
        "layers": layers,
        "inputs": inputs,
        "program": {"homogdirac": hd.package.__version__, "homogdirac_file": hd.package.__file__,
                    "numpy": np.__version__, "blas": blas_info()},
    }


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()
    result = run_once(WORKLOADS[args.workload], args.seed, args.trace, args.spans)
    # numpy scalars in check details become plain numbers
    print(json.dumps(result, default=lambda o: o.item() if hasattr(o, "item") else repr(o)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
