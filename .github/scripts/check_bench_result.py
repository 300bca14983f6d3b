"""Check the output of one traced benchmark run.

usage: python3 bench/run.py --workload W --seed 0 --seconds 1 --trace 1 > out.txt
       python3 .github/scripts/check_bench_result.py out.txt

Exits 1 unless the last line of the output parses as JSON with `correct`
true and `failed` 0, and every per-layer metric that BENCHMARK.json names is
present with a non-zero value.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def problems(output: str) -> list[str]:
    lines = output.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return ["last line is not JSON: %s" % exc]
    found = []
    if result.get("correct") is not True:
        found.append("correct is %r" % result.get("correct"))
    if result.get("failed") != 0:
        found.append("failed is %r" % result.get("failed"))
    metrics = result.get("metrics", {})
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        value = metrics.get(metric["name"], {}).get("value")
        if not value:
            found.append("per-layer metric %s is %r" % (metric["name"], value))
    return found


if __name__ == "__main__":
    found = problems(Path(sys.argv[1]).read_text(encoding="utf-8"))
    for problem in found:
        print("bench smoke: %s" % problem)
    sys.exit(1 if found else 0)
