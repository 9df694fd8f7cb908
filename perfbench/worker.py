"""One pass of one workload, in a process of its own.

Run by ``run.py`` as ``python3 perfbench/worker.py CONFIG_JSON``.  The pass
sets up (imports, the item list from the seed, the reference outputs and a
fresh empty report cache), prints ``READY`` so that the parent can time the
set-up, runs every item once, checks every output, and prints one JSON line
with the per-item times, the process's peak memory, the counters and, when
traced, the spans.  Each pass starts with cold per-group memos, as a command
line run does.  Times exclude the host speed samples taken during the pass
(see ``hostspeed``); the pass reports them alongside.  A set-up-only process
prints ``READY``, then samples the host speed and prints the samples.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5


def main(argv):
    cfg = json.loads(argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import hostspeed
    import workloads

    todo = workloads.shuffled(cfg["workload"], str(ROOT), cfg["seed"],
                              cfg["smoke"])
    with open(Path(__file__).with_name("reference.json"),
              encoding="utf-8") as fh:
        reference = json.load(fh)
    cache = Path(cfg["cache"])
    cache.write_text("", encoding="utf-8")
    ctx = {"seed": cfg["seed"], "cache": str(cache)}
    tr = workloads.Tracer()
    if cfg["traced"]:
        tr.install()
    print("READY", flush=True)
    if cfg["setup_only"]:
        print(json.dumps({"samples": [hostspeed.calibrate()
                                      for _ in range(SETUP_SAMPLES)]}))
        return 0

    results = []
    clock = time.perf_counter
    with hostspeed.Sampler() as cal, tr.span("pass"):
        start, spent = clock(), cal.spent
        for item_id, fn in todo:
            tr.item = item_id
            t0, spent0 = clock(), cal.spent
            with tr.span("item"):
                try:
                    got = fn(ctx)
                except Exception:
                    got = traceback.format_exc(limit=3)
            results.append([item_id, t0, clock() - t0, cal.spent - spent0,
                            got])
        wall = clock() - start - (cal.spent - spent)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    items = []
    for item_id, t0, raw, sampled, got in results:
        seconds = raw - sampled
        rec = {"id": item_id, "t0": t0, "raw": raw, "s": seconds,
               "stages": 0, "skipped": 0, "untimed": None}
        if isinstance(got, str):
            rec["errors"] = ["raised: " + got]
        else:
            out, rec["stages"], rec["skipped"], timed = got
            rec["errors"] = workloads.check(item_id, out, reference)
            if timed is not None:
                # the report's own timings include the samples that fell
                # inside them; the samples are spread evenly over time
                rec["untimed"] = seconds - timed * seconds / raw
        items.append(rec)
    print(json.dumps({
        "wall": wall, "samples": cal.samples, "times": cal.times,
        "peak_rss_mb": peak_kb / 1024, "items": items,
        "counts": tr.counts, "spans": tr.spans,
        "sampled": cal.intervals if tr.on else [],
        "python": sys.version.split()[0], "numpy": numpy.__version__}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
