"""Regenerate reference.json: the outputs each workload's job gives at the
reference seed, which every benchmark run compares with.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the numbers, and say so.
"""

import json
import os
import sys
import tempfile

from run import HERE, REFERENCE_SEED, _import_workloads


def main() -> int:
    workloads = _import_workloads()
    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, wl in workloads.WORKLOADS.items():
            cfg, state = wl.setup(REFERENCE_SEED)
            res = wl.job(cfg, state, workdir)
            failed = [label for label, ok in res.checks if not ok]
            if failed:
                sys.exit(f"{name}: checks failed: {failed}")
            out[name] = res.reference
    with open(os.path.join(HERE, "reference.json"), "w", encoding="ascii") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
