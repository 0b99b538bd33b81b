"""One fresh benchmark process: set up prodsys, optionally run `all`.

    python3 worker.py setup CONFIG SEED RESULT_JSON
    python3 worker.py run CONFIG SEED OUT_DIR RESULT_JSON [--trace]

`setup_s` is `import prodsys.cli` plus `load_config`; `wall_s` is
`prodsys.cli.main(["all", ...])` from after set-up to its return, CSV
writing included; `rss_mb` is the process's `ru_maxrss`.  With `--trace`
the outside-in tracer wraps the package for the `all` call only, writes
`spans.jsonl` into OUT_DIR and reports the span metrics.  The result is
written as one JSON object to RESULT_JSON.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(argv: list[str]) -> int:
    mode, config, seed = argv[0], argv[1], int(argv[2])
    start = time.perf_counter()
    import prodsys.cli as cli

    cli.load_config(config, seed, 1.0)
    result = {"setup_s": time.perf_counter() - start}
    if mode == "run":
        out_dir, result_path, trace = Path(argv[3]), argv[4], "--trace" in argv[5:]
        result.update(run_all(cli, config, seed, out_dir, trace))
    else:
        result_path = argv[3]
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


def run_all(cli, config: str, seed: int, out_dir: Path, trace: bool) -> dict:
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        sites = tracer.patch_sites()
    error = None
    start = time.perf_counter()
    try:
        rc = cli.main(["all", "--config", config, "--out", str(out_dir), "--seed", str(seed)])
    except Exception:  # a raising suite is a measured failure, not a crash
        rc, error = None, traceback.format_exc()
    wall = time.perf_counter() - start
    out = {"wall_s": wall, "rc": rc, "error": error}
    if tracer is not None:
        from layers import span_metrics
        from tracer import restored

        tracer.uninstall()
        out["not_restored"] = restored(sites)
        tracer.write_spans(out_dir / "spans.jsonl", origin=start)
        out["layer"] = span_metrics(tracer)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
