#!/usr/bin/env python3
"""Pin the output digests of the full-size workloads for a range of seeds.

    python3 blpbench/pin_digests.py --first 0 --last 31

For every workload and seed this runs one pass, gates its outputs and
records the digest in blpbench/digests.json.  It refuses to pin outputs that
fail the gate.  Re-pin only when an output change is intended.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--first", type=int, default=0)
    p.add_argument("--last", type=int, default=31)
    p.add_argument("--workload", choices=workloads.WORKLOADS, action="append")
    args = p.parse_args(argv)
    cli = run.import_blp()
    import gate

    pinned = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    for name in args.workload or workloads.WORKLOADS:
        for seed in range(args.first, args.last + 1):
            workload = workloads.build(name, seed)
            workdir = run.WORK / f"pin-{name}-{seed}"
            workload.write(workdir)
            results = run.run_pass(cli, workload, workdir).results
            failures, _ = gate.check(workload, results)
            if failures:
                print(f"{name} seed {seed}: {len(failures)} outputs fail the gate; "
                      "not pinned", file=sys.stderr)
                return 1
            pinned[run.digest_key(name, seed, False)] = run.digest(workload, results)
            print(f"{name} seed {seed}: pinned", flush=True)
    run.DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
