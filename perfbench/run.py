"""The groupgen benchmark: serial and closed-loop, over four workloads.

    python3 perfbench/run.py --workload quick-corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One client makes one request at a time; each starts when the previous one
returns.  A run is a series of passes over the workload's items, each pass in
a fresh process (``worker.py``), so the per-group memos start cold as in a
command line run.  Passes repeat until the next one would end after
``--seconds``; there is always at least one, and with ``--trace 1`` at least
one untraced and one traced.  Every output is checked (see
``workloads.check``).

Times are in reference seconds: measured seconds over the host's slowdown
factor, which every pass and set-up process samples (see ``hostspeed``).

``--trace 0`` prints the end-to-end metrics, measured on untraced passes.
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics: busy time per layer summed per pass, counters, and the tracing
overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a human summary goes
to standard error.  The full record of a run, with its provenance, and the
spans of a traced run are written under ``.perfbench_out/``.

``--smoke`` runs one item per workload, untraced and traced, prints every
metric with its unit and exits 1 if any output check fails.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
CACHE = OUT / f"cache-{os.getpid()}.jsonl"

WORKLOADS = ("quick-corpus", "big-lattice", "wreath", "crowns")
SETUP_PROBES = 10
PASS_TIMEOUT = 170.0

# Counters of work a traced pass reports (see ``workloads.COUNTED``); every
# other per-layer metric is a time.
COUNTERS = (
    "perm.chains_built", "perm.elements_swept", "perm.class_sweeps",
    "structure.subgroups_built", "genset.capped", "report.cache_records_read")
# Layers whose busy time is reported: the spans of ``workloads.LAYERS``.
LAYER_SPANS = (
    "builder.build", "perm.chain", "perm.elements", "perm.classes",
    "structure.lattice", "structure.chief_series", "structure.frattini_flags",
    "structure.minimal_normal", "genset.d", "genset.m", "genset.spectrum",
    "verify.verify_all", "crowns.eulerian", "crowns.factor_invariants",
    "crowns.aut_order", "crowns.generation_check", "crowns.h1",
    "crowns.crown_power", "report.cache_load", "report.cache_append",
    "report.canonical_json")
# Spans that are not a layer: their self time is the benchmark's own.
OWN_SPANS = ("pass", "item")


class BenchError(Exception):
    pass


def _spawn(workload, seed, traced=False, setup_only=False, smoke=False):
    """Run one pass process; its result plus set-up time and load average."""
    cfg = {"workload": workload, "seed": seed, "traced": traced,
           "setup_only": setup_only, "smoke": smoke,
           "cache": str(CACHE)}
    load_before = os.getloadavg()[0]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(PASS_TIMEOUT, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"pass process failed with code {proc.returncode}")
    res = json.loads(rest.strip().splitlines()[-1])
    res.update(setup_raw_s=setup, traced=traced, load_before=load_before,
               load_after=os.getloadavg()[0])
    # every time from here on is in reference seconds
    res["setup_s"] = setup / hostspeed.factor(res["samples"])
    if not setup_only:
        res["factor"] = hostspeed.factor(res["samples"])
        for it in res["items"]:
            it["factor"] = hostspeed.local_factor(
                res["times"], res["samples"], it["t0"], it["t0"] + it["raw"])
            it["s"] /= it["factor"]
            if it["untimed"] is not None:
                it["untimed"] /= it["factor"]
        res["wall_raw_s"] = res["wall"]
        res["wall"] = sum(it["s"] for it in res["items"])
    return res


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[q - 1]


def request_latencies(untraced):
    """Item latencies pooled over the untraced passes.  A percentile needs
    samples beyond it: with fewer than ten items a pass (big-lattice,
    wreath) the whole pass is the request timed."""
    if len(untraced[0]["items"]) < 10:
        return [p["wall"] for p in untraced]
    return [it["s"] for p in untraced for it in p["items"]]


def end_to_end(untraced, setups):
    items = [it for p in untraced for it in p["items"]]
    latencies = request_latencies(untraced)
    stages = sum(it["stages"] for it in items)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall"] for p in untraced), "s"),
        "item_p50_s": (statistics.median(latencies), "s"),
        "item_p90_s": (_quantile(latencies, 90), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"]
                                          for p in untraced), "MB"),
        "ok_ratio": (sum(not it["errors"] for it in items) / len(items),
                     "ratio"),
        "stage_ratio": ((stages - sum(it["skipped"] for it in items))
                        / stages, "ratio"),
    }


def layer_times(p):
    """Self time of every span name in one traced pass, summed.  The host
    speed samples are taken off the innermost span around each of them and
    summed under ``calibration``."""
    spans = p["spans"]
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    out = {"calibration": 0.0}
    for c0, c1 in p["sampled"]:
        around = [i for i, s in enumerate(spans) if s[1] <= c0 and c1 <= s[2]]
        inner = max(around, key=lambda i: spans[i][1], default=None)
        if inner is not None:
            own[inner] -= c1 - c0
            out["calibration"] += c1 - c0
    for (name, *_), t in zip(spans, own):
        key = "trace.unattributed" if name in OWN_SPANS else name
        out[key] = out.get(key, 0.0) + t
    return out


def per_layer(untraced, traced):
    """Layer times and counters of the median traced pass.  The host speed
    samples are kept out of every layer, so the layer times and the
    unattributed time add up to the pass's time exactly."""
    def work(p):
        times = layer_times(p)
        return sum(times.values()) - times["calibration"]
    mid = sorted(traced, key=lambda p: work(p) / p["factor"])[
        (len(traced) - 1) // 2]
    f = mid["factor"]
    times = layer_times(mid)
    out = {name + "_s": (times.get(name, 0.0) / f, "s")
           for name in LAYER_SPANS + ("trace.unattributed",)}
    out.update((name, (mid["counts"].get(name, 0), "count"))
               for name in COUNTERS)
    out["report.untimed_s"] = (statistics.median(
        sum(it["untimed"] or 0.0 for it in p["items"]) for p in untraced), "s")
    out["trace.overhead_s"] = (work(mid) / f - statistics.median_low(
        p["wall_raw_s"] / p["factor"] for p in untraced), "s")
    return out


def provenance(seed, passes):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    first = next((p for p in passes if "python" in p), {})
    return {"git_sha": sha, "source_sha256": src.hexdigest(),
            "python": first.get("python"), "numpy": first.get("numpy"),
            "nproc": os.cpu_count(), "seed": seed}


def _select(metrics, section):
    """The metrics BENCHMARK.json lists in one section, in its order."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)[section]]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names}


def _summary(workload, metrics, passes, traced):
    untraced = [p for p in passes if not p["traced"]]
    lines = [f"{workload}: {len(passes)} passes ({len(untraced)} untraced), "
             f"{len(request_latencies(untraced))} latency samples; times in "
             "reference seconds, host slowdown factor per pass "
             + " ".join(f"{p['factor']:.2f}" for p in passes)]
    lines += [f"  {name:32s} {m['value']:.6g} {m['unit']}"
              for name, m in metrics.items()]
    if traced:
        layers = {}
        for name in LAYER_SPANS + ("trace.unattributed",):
            layer = name.split(".")[0]
            t = metrics[name + "_s"]["value"]
            layers[layer] = layers.get(layer, 0.0) + t
        wall = sum(layers.values())
        lines.append(f"  layer self time over a traced pass of {wall:.3f} s:")
        lines += [f"    {layer:12s} {t:9.3f} s  {t / wall:6.1%}"
                  for layer, t in sorted(layers.items(),
                                         key=lambda kv: -kv[1])]
    return "\n".join(lines)


def measure(workload, seed, seconds, trace):
    """One run: set-up probes, then passes until ``seconds`` are used."""
    setups = [_spawn(workload, seed, setup_only=True)["setup_s"]
              for _ in range(SETUP_PROBES)]
    modes = (False, True) if trace else (False,)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(_spawn(workload, seed, traced=modes[len(passes)
                                                          % len(modes)]))
        elapsed = time.perf_counter() - start
        if (len(passes) >= len(modes)
                and elapsed * (len(passes) + 1) / len(passes) > seconds):
            break
    setups += [p["setup_s"] for p in passes]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    metrics = end_to_end(untraced, setups)
    if trace:
        metrics.update(per_layer(untraced, traced))
    return passes, setups, metrics


def _record(workload, seed, trace, passes, setups, metrics):
    items = [it for p in passes for it in p["items"]]
    failed = [it for it in items if it["errors"]]
    record = {
        "workload": workload, "trace": trace,
        "provenance": provenance(seed, passes),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "samples": {"setup": len(setups),
                    "latency": len(request_latencies(
                        [p for p in passes if not p["traced"]])),
                    "passes": len(passes)},
        "passes": [{k: p[k] for k in (
            "traced", "wall", "wall_raw_s", "factor", "setup_s", "setup_raw_s",
            "peak_rss_mb", "load_before", "load_after")} for p in passes],
        "failures": [{"id": it["id"], "errors": it["errors"]}
                     for it in failed],
    }
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        spans = [{"pass": i, "name": s[0], "start": s[1], "end": s[2],
                  "parent": s[3], "item": s[4]}
                 for i, p in enumerate(passes) for s in p.get("spans", ())]
        with open(OUT / f"spans-{tag}.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    for it in failed[:5]:
        print(f"FAILED {it['id']}: {it['errors'][:3]}", file=sys.stderr)
    return len(items), len(failed)


def _check_tree():
    for need in ("src/groupgen/report.py", "corpus", "BENCHMARK.json"):
        if not (ROOT / need).exists():
            raise BenchError(f"{need} is missing: run from a full checkout")


def smoke():
    """One item per workload, untraced and traced; every metric printed."""
    all_ok = True
    for workload in WORKLOADS:
        untraced = _spawn(workload, 0, smoke=True)
        traced = _spawn(workload, 0, traced=True, smoke=True)
        setups = [untraced["setup_s"], traced["setup_s"]]
        metrics = end_to_end([untraced], setups)
        metrics.update(per_layer([untraced], [traced]))
        shown = {**_select(metrics, "end_to_end"),
                 **_select(metrics, "per_layer")}
        passes = [untraced, traced]
        attempted, failed = _record(workload, "smoke", True, passes, setups,
                                    metrics)
        print(_summary(workload, shown, passes, True), file=sys.stderr)
        all_ok = all_ok and failed == 0
        print(json.dumps({"workload": workload, "correct": failed == 0,
                          "attempted": attempted, "failed": failed,
                          "metrics": shown}))
    return 0 if all_ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    try:
        _check_tree()
        OUT.mkdir(exist_ok=True)
        if args.smoke:
            return smoke()
        trace = bool(args.trace)
        passes, setups, metrics = measure(args.workload, args.seed,
                                          args.seconds, trace)
        shown = _select(metrics, "per_layer" if trace else "end_to_end")
        attempted, failed = _record(args.workload, args.seed, trace, passes,
                                    setups, metrics)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        CACHE.unlink(missing_ok=True)
    print(_summary(args.workload, shown, passes, trace), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
