"""Write ``reference.json``: the output of every item of every workload.

    python3 perfbench/capture.py

Run it once on the commit whose answers are the reference.  The benchmark
checks every later output against this file, so it is captured again only
when a change is meant to alter an answer, never to make a check pass.
Takes about a minute.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    OUT.mkdir(exist_ok=True)
    cache = OUT / "capture-cache.jsonl"
    reference = {}
    for workload in workloads.WORKLOADS:
        cache.write_text("", encoding="utf-8")
        ctx = {"seed": 0, "cache": str(cache)}
        for item_id, fn in workloads.items(workload, str(ROOT)):
            out = fn(ctx)[0]
            reference[item_id] = out
            print(item_id, file=sys.stderr)
    cache.unlink()
    path = Path(__file__).with_name("reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
