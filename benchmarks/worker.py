"""One benchmark sample in a fresh process, as `nlsw run <config>` runs it.

Usage: python3 worker.py <config.json> [<spans.jsonl> <run id>]

Imports nlsw, parses the configuration and runs it through the public
entry points, then prints one JSON line with the set-up and run times.
The run is bracketed by two timings of the reference kernel in probe.py, in
the same process and pinned to the same CPU, and the line holds both.
Given a spans file, it first wraps nlsw's layers, writes every span there
once the run is over and adds the per-layer summary to the line.
"""

import json
import sys
import time
from pathlib import Path


def main(argv) -> int:
    config_path = Path(argv[0])
    start = time.perf_counter()
    import nlsw.cli
    imported = time.perf_counter()
    tracer = None
    if len(argv) > 1:
        from spans import Tracer
        tracer = Tracer(argv[2])
        tracer.install()
    parse_start = time.perf_counter()
    config = nlsw.cli.parse_config(config_path.read_text())
    parse_end = time.perf_counter()
    from probe import host_probe, pin_to_current_cpu
    pin_to_current_cpu()
    scratch = config_path.with_name("probe.csv")
    probes_ms = [host_probe(scratch)]
    run_start = time.perf_counter()
    report = nlsw.cli.run_experiment(config)
    run_end = time.perf_counter()
    probes_ms.append(host_probe(scratch))
    result = {"setup_s": (imported - start) + (parse_end - parse_start),
              "run_s": run_end - run_start,
              "probes_ms": probes_ms,
              "paths": report["paths"]}
    if tracer is not None:
        tracer.write(argv[1])
        result["layers"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
