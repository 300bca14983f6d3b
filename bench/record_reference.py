"""Record the reference outputs that bench/run.py checks every operation against.

Run from the root of a checkout whose package outputs are known good:

    python3 bench/record_reference.py

For each workload and each of the N_INPUTS input sets it runs the set-up and
one operation, and writes their checked values (and, for cli-files, the
SHA-256 of every artifact) to bench/reference.json.
"""

from __future__ import annotations

import json
import shutil
import sys
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH_DIR)]
    import workloads

    out = {"inputs": workloads.N_INPUTS, "workloads": {}}
    for name, cls in workloads.WORKLOADS.items():
        entries = out["workloads"][name] = {}
        for index in range(workloads.N_INPUTS):
            workdir = BENCH_DIR / "work" / ("reference-%s-%d" % (name, index))
            wl = cls(index, workdir)
            workdir.mkdir(parents=True)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    state = wl.setup()
                    outputs, _ = wl.run(state)
                    entry = {"steps": wl.summarize(state, outputs), "final": wl.final(state, outputs)}
                    if hasattr(wl, "digests"):
                        entry["digests"] = wl.digests(outputs)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            entries[str(index)] = entry
            print("%s #%d done" % (name, index), flush=True)
    try:
        (BENCH_DIR / "work").rmdir()
    except OSError:
        pass
    (BENCH_DIR / "reference.json").write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
