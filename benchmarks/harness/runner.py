"""Command line of the benchmark harness.

One run of one workload (the form the contract in ``BENCHMARK.json``
uses; the last stdout line is the JSON result)::

    python3 benchmarks/harness --workload hanoi7-serial --seed 20030422 \\
        --seconds 10 --trace 0

Interleaved repeats of every workload, each in a fresh process, written
to one result file (``--trace`` instead runs each workload once, traced,
and writes the per-layer summary)::

    python3 benchmarks/harness run [--repeats 5] [--quick] [--trace] \\
        [--seed N] [--out FILE [--append]]

Verdicts of a child result against a parent, per workload and metric
(``FILE#k`` selects the k-th set of a file holding several)::

    python3 benchmarks/harness --compare PARENT.json CHILD.json
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import measure
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = workloads.SRC
OUT = workloads.OUT
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Seconds per workload under ``run --quick`` (the self-test smoke).
QUICK_SECONDS = 1.0


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def environment() -> dict:
    """Machine, interpreter and source revision of a result."""
    import importlib.util

    import numpy

    rev = dirty = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
            dirty = bool(subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                                        capture_output=True, text=True, check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "git_rev": rev,
        "git_dirty": dirty,
    }


def _import_repro(modules) -> None:
    """Import the workload's modules from this checkout's ``src`` only."""
    if not SRC.is_dir():
        raise SystemExit(f"error: {SRC} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    for name in modules:
        module = importlib.import_module(name)
        if not Path(module.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"error: {name} resolved to {module.__file__}, outside {SRC}")


#: Fresh interpreters timed for the start-up part of ``setup_s``, half
#: before the workload runs and half after, so that one slow stretch of
#: the host does not take all of them.
IMPORT_PROBES = 6

#: A fresh interpreter that imports numpy and none of the program: its time
#: follows only the host's speed, which on a shared host moves by half
#: within minutes.  One is timed right after every import probe.
HOST_PROBE = "import numpy"

#: The host probe's median on the 2-vCPU VM the baseline was recorded on.
#: ``setup_s`` is the measured set-up scaled by this over the run's own
#: host-probe median, i.e. set-up time on a host of the reference speed.
HOST_PROBE_REF_S = 0.15


def _wall(code: str) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
    return time.perf_counter() - t0


def probe_seconds(modules, probes: int) -> Tuple[List[float], List[float]]:
    """Wall times of *probes* fresh interpreters from process start to
    having imported *modules* (the start-up part of set-up), each followed
    by a host probe; returns both lists."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); " + "; ".join(
        f"import {name}" for name in modules)
    imports, host = [], []
    for _ in range(probes):
        imports.append(_wall(code))
        host.append(_wall(HOST_PROBE))
    return imports, host


def _percentile(values, p: float) -> dict:
    n = len(values)
    return {"value": measure.percentile(values, p) if n else 0.0, "unit": "ms", "n": n,
            "supported": measure.supported(n, p)}


def end_to_end(outcome, import_s: float, host_s: float = HOST_PROBE_REF_S) -> Dict[str, dict]:
    """The gated metrics, each with its sample count.  Set-up is scaled to
    the reference host speed by the run's host-probe median *host_s*; the
    unscaled time is kept beside it."""
    measured = import_s + statistics.median(outcome.setups_s)
    return {
        "setup_s": {"value": measured * HOST_PROBE_REF_S / host_s, "unit": "s",
                    "n": len(outcome.setups_s), "unscaled": measured},
        "peak_rss_mb": {"value": outcome.peak_rss_mb, "unit": "MB", "n": 1},
    }


def named(outcome, spec: dict) -> Dict[str, dict]:
    """The ungated end-to-end numbers: the median, p90 and highest
    supported percentile of the latency sample, the workload's own named
    metrics, and the share of failed operations.  Units come from
    ``per_layer``, where these are listed."""
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    lat = outcome.latencies_ms
    top = next((p for p in (99, 95) if measure.supported(len(lat), p)), None)
    out = {"latency_ms_p50": _percentile(lat, 50), "latency_ms_p90": _percentile(lat, 90)}
    if top:
        out[f"latency_ms_p{top}"] = _percentile(lat, top)
    out.update({k: {"value": v, "unit": units[k]} for k, v in outcome.named.items()})
    out["fail_rate"] = {"value": outcome.failed / outcome.attempted if outcome.attempted else 0.0,
                        "unit": units["fail_rate"]}
    return out


def single(args) -> int:
    """One workload run in this process; prints the contract's result line."""
    spec = load_spec()
    workload = workloads.WORKLOADS[args.workload]
    _import_repro(workload.modules)
    OUT.mkdir(exist_ok=True)
    seed = workload.default_seed if args.seed is None else args.seed
    run_id = f"{args.workload}-{seed}-{os.getpid()}"
    record = {"workload": args.workload, "seed": seed, "seconds": args.seconds,
              "trace": bool(args.trace), "env": environment()}
    if args.trace:
        base = workload.run(seed, workloads.Budget(seconds=args.seconds / 2))
        recorder = workloads.tracer_for(args.workload, run_id)
        try:
            traced = workload.run(seed, workloads.Budget(ops=base.attempted), recorder)
        finally:
            recorder.uninstall()
        layers = dict(traced.layers)
        layers["trace.overhead_pct"] = (traced.busy_s / base.busy_s - 1.0) * 100 if base.busy_s else 0.0
        # The ungated end-to-end numbers are listed with the per-layer
        # metrics; they come from the untraced half.
        layers.update({k: v["value"] for k, v in named(base, spec).items()})
        trace_path = OUT / f"trace-{args.workload}.jsonl"
        recorder.write_jsonl(trace_path)
        # A layer this workload never enters reads 0.
        metrics = {m["name"]: {"value": float(layers.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        outcomes = [base, traced]
        record.update(trace_file=str(trace_path.relative_to(ROOT)), skipped=recorder.skipped,
                      extra_layers={k: v for k, v in layers.items() if k not in metrics})
    else:
        probes, host = probe_seconds(workload.modules, IMPORT_PROBES // 2)
        outcome = workload.run(seed, workloads.Budget(seconds=args.seconds))
        more, more_host = probe_seconds(workload.modules, IMPORT_PROBES - len(probes))
        probes, host = probes + more, host + more_host
        metrics = end_to_end(outcome, statistics.median(probes), statistics.median(host))
        outcomes = [outcome]
        record["named"] = named(outcome, spec)
        record["samples"] = {"latencies_ms": outcome.latencies_ms, "setups_s": outcome.setups_s,
                             "imports_s": probes, "host_probes_s": host}
    last = outcomes[-1]
    attempted = sum(o.attempted for o in outcomes)
    failed = min(attempted, sum(o.failed for o in outcomes))
    record.update(
        resolved=last.resolved, metrics=metrics, notes=last.notes,
        checks=[o.checks for o in outcomes], attempted=attempted, failed=failed,
        correct=failed == 0 and attempted > 0,
    )
    _print_record(record)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0


def _print_record(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"{'traced' if record['trace'] else 'untraced'}  {record['seconds']} s")
    print(f"  resolved: {json.dumps(record['resolved'], sort_keys=True)}")
    for label, metrics in (("", record["metrics"]), ("(ungated) ", record.get("named", {}))):
        for name, m in metrics.items():
            n = f"  n={m['n']}" if "n" in m else ""
            flag = "  (fewer than 10 samples beyond)" if m.get("supported") is False else ""
            if "unscaled" in m:
                flag += f"  (unscaled {m['unscaled']:.4f})"
            print(f"  {label + name:<40} {m['value']:>14.4f} {m['unit']:<6}{n}{flag}")
    for checks in record["checks"]:
        for name, status in checks.items():
            print(f"  check {name:<34} {status}")
    print(f"  attempted {record['attempted']}  failed {record['failed']}")


# -- run: interleaved repeats in fresh processes ------------------------------------


def _child(name: str, seed: Optional[int], seconds: float, trace: bool) -> dict:
    """One workload in a fresh interpreter; returns its full record."""
    OUT.mkdir(exist_ok=True)
    out = OUT / f"record-{os.getpid()}-{name}.json"
    cmd = [sys.executable, str(HERE), "--workload", name, "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", str(out)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
    if proc.returncode != 0 or not out.exists():
        raise SystemExit(f"error: {name} exited with {proc.returncode}")
    record = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    record.pop("samples", None)  # raw samples stay in single-run records only
    return record


def orchestrate(args) -> int:
    spec = load_spec()
    names = list(workloads.WORKLOADS)
    seconds = args.seconds or (QUICK_SECONDS if args.quick else spec["run_seconds"])
    settings = {"seconds": seconds, "seed": args.seed, "workloads": names}
    if args.trace:
        records = {name: _child(name, args.seed, seconds, True) for name in names}
        # Which end-to-end metric each layer should move, and on which
        # workload it should stay flat, is the layer table in README.md.
        result = {"env": environment(), "settings": settings,
                  "workloads": {
                      name: {k: r[k] for k in ("seed", "resolved", "metrics", "extra_layers",
                                               "skipped", "trace_file", "checks", "attempted",
                                               "failed", "correct")}
                      for name, r in records.items()}}
        ok = all(r["correct"] for r in records.values())
    else:
        repeats = 1 if args.quick else args.repeats
        settings["repeats"] = repeats
        records = []
        # Round-robin: every workload's k-th repeat runs before any (k+1)-th,
        # so slow drift of the machine spreads evenly over the workloads.
        for _ in range(repeats):
            for name in names:
                records.append(_child(name, args.seed, seconds, False))
        new_set = {"env": environment(), "settings": settings, "records": records}
        result = {"sets": [new_set]}
        if args.append and args.out and Path(args.out).exists():
            result = json.loads(Path(args.out).read_text(encoding="utf-8"))
            result["sets"].append(new_set)
        result["summary"] = summarize([r for s in result["sets"] for r in s["records"]], spec)
        _print_summary(result["summary"])
        ok = all(r["correct"] for r in records)
    out = Path(args.out) if args.out else OUT / f"{'trace' if args.trace else 'run'}-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0 if ok else 1


def _named_values(records: List[dict], key: str) -> List[float]:
    return [r["named"][key]["value"] for r in records if key in r["named"]]


def summarize(records: List[dict], spec: dict) -> dict:
    """Per workload: median, quartiles and sample counts of every metric,
    gated or not, and the pooled failure rate."""
    out: Dict[str, dict] = {}
    for name in dict.fromkeys(r["workload"] for r in records):
        mine = [r for r in records if r["workload"] == name]
        cell = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in mine]
            cell[m["name"]] = {**measure.spread(values), "unit": m["unit"], "gated": True,
                               "samples_per_run": [r["metrics"][m["name"]].get("n") for r in mine]}
        for key in dict.fromkeys(k for r in mine for k in r["named"]):
            if key != "fail_rate":
                cell[key] = {**measure.spread(_named_values(mine, key)), "gated": False}
        cell["fail_rate"] = measure.fail_rate(mine)
        out[name] = cell
    return out


def _print_summary(summary: dict) -> None:
    for name, cell in summary.items():
        print(f"{name}")
        for metric, s in cell.items():
            if metric == "fail_rate":
                print(f"  {metric:<32} {s:.4f}")
                continue
            label = metric if s["gated"] else f"{metric} (ungated)"
            print(f"  {label:<32} median {s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  "
                  f"iqr/median {s['iqr_share']:.3f}  repeats {s['n']}")


# -- compare ---------------------------------------------------------------------------


def _records(selector: str) -> List[dict]:
    path, _, index = selector.partition("#")
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    sets = data["sets"]
    chosen = [sets[int(index)]] if index else sets
    return [r for s in chosen for r in s["records"]]


def compare(parent_sel: str, child_sel: str) -> int:
    """Print one verdict per workload x end-to-end metric; non-zero exit on
    any ``worse`` or on a higher failure rate."""
    spec = load_spec()
    parent, child = _records(parent_sel), _records(child_sel)
    bad = 0
    names = [n for n in dict.fromkeys(r["workload"] for r in parent)
             if any(r["workload"] == n for r in child)]
    for name in names:
        p = [r for r in parent if r["workload"] == name]
        c = [r for r in child if r["workload"] == name]
        print(f"{name}  (parent {len(p)} runs, child {len(c)} runs)")
        for m in spec["end_to_end"]:
            key = m["name"]
            v = measure.verdict([r["metrics"][key]["value"] for r in p],
                                [r["metrics"][key]["value"] for r in c],
                                m["bound"], m["better"] == "higher")
            bad += v["verdict"] == "worse"
            print(f"  {key:<18} {v['verdict']:<10} child/parent {v['ratio']:.3f} "
                  f"(base {v['base']:.4f} {m['unit']}, child {v['child']['median']:.4f}; "
                  f"iqr/median {v['parent']['iqr_share']:.3f} / {v['child']['iqr_share']:.3f}; "
                  f"bound {m['bound']})")
        fp, fc = measure.fail_rate(p), measure.fail_rate(c)
        label = "worse" if fc > fp else "unchanged"
        bad += fc > fp
        print(f"  {'fail_rate':<18} {label:<10} parent {fp:.4f}  child {fc:.4f}")
        for key in dict.fromkeys(k for r in p + c for k in r["named"]):
            pv, cv = _named_values(p, key), _named_values(c, key)
            if key == "fail_rate" or not (pv and cv):
                continue
            base, child_median = statistics.median(pv), statistics.median(cv)
            ratio = f"{child_median / base:.3f}" if base else "n/a"
            print(f"  {key:<18} (ungated) child/parent {ratio} "
                  f"(base {base:.4f}, child {child_median:.4f})")
    return 1 if bad else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="benchmarks/harness", description=__doc__.splitlines()[0])
    parser.add_argument("mode", nargs="?", choices=("run",), help="interleaved repeats of workloads")
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=None, help="override every workload's seed")
    parser.add_argument("--seconds", type=float, default=None, help="measured seconds per run")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="layer spans instead of end-to-end metrics")
    parser.add_argument("--out", help="write the full result record here")
    # Five, not three: with three, one slow stretch of the host moved a
    # set's setup_s median past its bound against a second set of the same code.
    parser.add_argument("--repeats", type=int, default=5, help="run: repeats per workload")
    parser.add_argument("--quick", action="store_true", help="run: one short repeat (smoke)")
    parser.add_argument("--append", action="store_true", help="run: add a set to --out")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHILD"))
    return parser.parse_args(argv)


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    Servers are stopped on every normal path; here only those an error
    left running.  Multiprocessing's resource tracker, which the first
    shared-memory segment of a process pool starts, is never waited for by
    the standard library and outlives the run unless it is stopped here.
    """
    service_load = sys.modules.get("service_load")
    if service_load is not None:
        service_load.stop_all()
    if "multiprocessing" in sys.modules:
        import multiprocessing

        for child in multiprocessing.active_children():
            child.terminate()
            child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    try:
        if args.mode == "run":
            return orchestrate(args)
        if not args.workload:
            raise SystemExit("error: give --workload NAME, 'run', or --compare PARENT CHILD")
        if args.seconds is None:
            args.seconds = float(load_spec()["run_seconds"])
        return single(args)
    finally:
        stop_children()
