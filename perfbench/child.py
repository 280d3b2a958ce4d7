"""One round of a workload in a fresh interpreter.

Usage: child.py SRC SPAWN_T0 SPEC

SRC is the directory that holds the ``charsum`` package and SPAWN_T0 the
``time.monotonic()`` reading the parent took just before starting this
process (the monotonic clock is shared by all processes on Linux).  Set-up
ends once ``import charsum`` is done and the CLI parser is built; only then
is SPEC, a JSON file naming the plan and the output paths, read.

Each operation calls ``charsum.cli.main`` in this process with ``--out``
pointing at a file in the round's directory.  The result JSON holds set-up
time, per-operation latency, CPU seconds and exit code, the SHA-256 and size
of every output, peak RSS, and with tracing on the per-layer metrics.
"""

import time
import json
import os
import sys


def _run(spec: dict, cli, tracer) -> dict:
    import hashlib
    import resource
    import traceback

    latencies, cpu, codes, errors, digests, sizes = [], [], [], [], [], []
    for i, argv in enumerate(spec["plan"]):
        out = os.path.join(spec["dir"], f"op{i}.out")
        if tracer is not None:
            tracer.op = i
        error = None
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            code = cli.main(argv + ["--out", out])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code, error = None, traceback.format_exc()
        end = time.perf_counter()
        after = resource.getrusage(resource.RUSAGE_SELF)
        latencies.append(end - start)
        cpu.append(after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime)
        codes.append(code)
        errors.append(error)
        if os.path.exists(out):
            with open(out, "rb") as handle:
                data = handle.read()
            digests.append(hashlib.sha256(data).hexdigest())
            sizes.append(len(data))
            if not spec["keep"]:
                os.remove(out)
        else:
            digests.append(None)
            sizes.append(0)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "latency_s": latencies,
        "cpu_s": cpu,
        "codes": codes,
        "errors": errors,
        "digests": digests,
        "bytes": sizes,
        "peak_rss_mb": peak_kib / 1024.0,
    }


def main() -> int:
    src, spawn_t0, spec_path = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, src)
    import charsum
    import charsum.cli

    charsum.cli.build_parser()
    setup_s = time.monotonic() - spawn_t0

    import numpy
    import charsum.sums
    import charsum.verify

    with open(spec_path) as handle:
        spec = json.load(handle)
    result = {
        "setup_s": setup_s,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "charsum_threads": charsum.verify.thread_count(),
    }
    table_cache = charsum.sums.character_value_table
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    info0 = table_cache.cache_info()
    result.update(_run(spec, charsum.cli, tracer))
    info1 = table_cache.cache_info()
    if tracer is not None:
        layers = tracer.layer_metrics()
        hits, misses = info1.hits - info0.hits, info1.misses - info0.misses
        layers["sums.character_value_table.hit_ratio"] = hits / max(hits + misses, 1)
        layers["cli.report_bytes"] = sum(result["bytes"])
        result["layers"] = layers
        if spec["spans"]:
            tracer.write_spans(spec["spans"])
    with open(spec["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
