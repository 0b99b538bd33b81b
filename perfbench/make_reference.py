"""Write the verdict reference of a workload from one untraced `all` run.

    python3 perfbench/make_reference.py --workload lindblad_m2 --seed 1

The reference lists `suite,check_id,verdict` for every check.  It is
written only if every check passes, so a reference never records a FAIL.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

from run import OUT, REFERENCE, SRC, Runner
from tracer import SUITES
from verdicts import read_outputs, write_reference
from workloads import WORKLOADS, check_shape


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    config = WORKLOADS[args.workload](args.seed)
    check_shape(args.workload, config)
    run_dir = OUT / f"reference-{args.workload}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=1))
    rep = Runner(run_dir, config_path, args.seed, time.perf_counter()).child("run")
    outputs = read_outputs(rep["out_dir"])
    failing = [(s, cid) for s, so in outputs.items() for cid, v, _ in so.checks if v != "pass"]
    if rep["error"] or failing or len(outputs) != len(SUITES):
        print(f"not writing a reference: error={rep['error']!r} failing={failing} "
              f"suites={sorted(outputs)}", file=sys.stderr)
        return 1
    path = REFERENCE / f"{args.workload}.csv"
    path.parent.mkdir(exist_ok=True)
    write_reference(path, outputs)
    print(f"{path}: {sum(len(so.checks) for so in outputs.values())} checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
