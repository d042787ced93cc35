"""Fresh-interpreter helper for the benchmark.

    probe.py setup WORKLOAD        time `import epband` and one warm-up op,
                                   print {"import_s", "warmup_s"} as JSON
    probe.py cli SPANS ARGS...     run `epband.cli.main(ARGS)` under the
                                   tracer, as `python -m epband ARGS` would,
                                   and write the spans to SPANS

Both expect `src` on PYTHONPATH.
"""

import json
import sys
import time


def setup(workload: str) -> None:
    start = time.perf_counter()
    import epband  # noqa: F401

    imported = time.perf_counter()
    import workloads

    workloads.warmup(workload)
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "warmup_s": done - imported}))


def cli(spans_path: str, argv) -> None:
    from tracer import Tracer

    tracer = Tracer()
    with tracer.span("cli.import"):
        import epband.cli
    from layers import TARGETS

    absent = tracer.install(TARGETS)
    code = 1
    try:
        with tracer.span("cli.main"):
            code = epband.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump({"absent": absent, "spans": tracer.export()}, fh)
    sys.exit(code)


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "setup":
        setup(sys.argv[2])
    elif len(sys.argv) >= 3 and sys.argv[1] == "cli":
        cli(sys.argv[2], sys.argv[3:])
    else:
        sys.exit(__doc__)
