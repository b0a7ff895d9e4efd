#!/usr/bin/env python3
"""Checks bench JSON rows and Chrome traces against the assertions CI
holds them to.

    python3 tools/bench_gate.py                        # committed BENCH_*.json
    python3 tools/bench_gate.py --expect KIND FILE...  # FILEs must be KIND

KIND is a bench name (the "bench" field of a bench_format document,
{"bench": ..., "rows": [...]}) or "trace" for a Chrome trace.  With
--expect, a file of another kind fails.  Without it, a file's kind is read
from the file; a named file whose kind has no checks fails, and a committed
BENCH_*.json file whose kind has no checks is reported and skipped.  Exit
status is 1 if any file fails.
"""

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


class GateError(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise GateError(what)


def check_speculation(doc):
    rows = doc["rows"]
    by_key = {(r["scenario"], r["config"]): r for r in rows}
    pipe_on = by_key[("pipeline_backsubst", "spec-on")]
    expect(pipe_on["speedup"] >= 1.5, pipe_on)
    expect(pipe_on["spec_started"] ==
           pipe_on["spec_committed"] + pipe_on["spec_aborted"], pipe_on)
    make_on = by_key[("make_noop_chain", "spec-on")]
    expect(make_on["speedup"] > 1.0, make_on)
    throttle_on = by_key[("conflict_throttle", "spec-on")]
    expect(throttle_on["spec_denied"] >= 1, throttle_on)
    for r in rows:
        if r["config"] == "spec-off":
            expect(r["spec_started"] == 0, r)
    return f"pipeline_backsubst speedup = {pipe_on['speedup']}"


def check_fault_recovery(doc):
    rows = {(r["app"], r["config"]): r for r in doc["rows"]}
    for app in ("lws", "cholesky"):
        for config in ("ft-off", "quiet", "crashes"):
            expect((app, config) in rows, (app, config))
    for r in doc["rows"]:
        expect(r["verified"] and r["seconds"] > 0, r)
        if r["config"] == "crashes":
            expect(r["machine_crashes"] == 2, r)
            expect(r["tasks_requeued"] >= r["tasks_killed"] > 0, r)
        else:
            expect(r["machine_crashes"] == 0, r)
    overhead = {a: rows[(a, "crashes")]["overhead_pct"]
                for a in ("lws", "cholesky")}
    return f"crash overhead % = {overhead}"


def check_kernels(doc):
    rows = {r["kernel"]: r for r in doc["rows"]}
    expected = {"water_forces", "water_integrate", "bh_integrate",
                "cholesky_scale", "backsubst_multi_rhs", "relax_row",
                "relax_solver_sim_dash"}
    expect(expected <= rows.keys(), sorted(rows))
    expect(all(r["verified"] for r in rows.values()), rows)
    layout = [r for k, r in rows.items() if k != "relax_solver_sim_dash"]
    best = max(r["speedup"] for r in layout)
    expect(best >= 2.0, ("no kernel cleared 2x", best))
    relax = rows["relax_solver_sim_dash"]
    expect(relax["speedup"] > 2.0, relax)
    return (f"best layout speedup = {best}, "
            f"relax sim speedup = {relax['speedup']}")


def check_model(doc):
    rows = doc["rows"]
    val = [r for r in rows if r["kind"] == "validation"]
    expect(len(val) >= 8, len(val))
    expect(len({r["topology"] for r in val}) >= 3, val)
    fits = [r for r in rows if r["kind"] == "fit"]
    expect(fits, "no fit row")
    fit = fits[0]
    expect(fit["median_abs_rel_error"] <= 0.15, fit)
    tuner = [r for r in rows if r["kind"] == "tuner"]
    expect(all(r["verified"] for r in tuner), tuner)
    expect(all(r["speedup"] >= 0.9999 for r in tuner), tuner)
    expect(fit["tuner_wins"] >= 2, fit)
    return (f"median error = {fit['median_abs_rel_error']}, "
            f"tuner wins = {fit['tuner_wins']}")


# A live JadeServer on 4 workers runs on the host thread, its dispatcher and
# the workers: a task that waits parks its fiber, never adds a thread.
SERVER_CHURN_MAX_THREADS = 6


def check_server_churn(doc):
    phases = {r["phase"]: r for r in doc["rows"]}
    for row in phases.values():
        expect(row["peak_threads"] <= SERVER_CHURN_MAX_THREADS, row)
    hold = phases["concurrency_hold"]
    expect(hold["peak_live"] >= 1000, hold)
    expect(hold["latency_p99_s"] > 0, hold)
    churn = phases["churn"]
    expect(churn["submissions_per_sec"] > 0, churn)
    expect(churn["tasks_per_sec"] > 0, churn)
    expect(churn["latency_p99_s"] >= churn["latency_p50_s"] > 0, churn)
    td = phases["teardown_under_load"]
    expect(td["cancelled"] > 0 and td["completed"] > 0, td)
    expect(td["followup_sessions"] > 0, td)
    return (f"peak_live = {hold['peak_live']}, churn submissions/s = "
            f"{churn['submissions_per_sec']}, p99 = {churn['latency_p99_s']}, "
            f"peak threads = {max(r['peak_threads'] for r in phases.values())}")


def check_cluster(doc):
    rows = doc["rows"]
    names = {r["workload"] for r in rows}
    expect({"read_fanout", "cholesky_per_column"} <= names, names)
    for name in names:
        workers = [r["workers"] for r in rows if r["workload"] == name]
        expect(4 in workers, (name, workers))
    for row in rows:
        expect(row["seconds"] > 0 and row["tasks_per_sec"] > 0, row)
        expect(row["verified"], row)
    return f"workloads = {sorted(names)}"


TRACE_CATEGORIES = {"engine", "net", "store"}


def check_trace(doc):
    events = doc["traceEvents"]
    expect(events, "no events")
    phases = {e["ph"] for e in events}
    expect({"b", "e", "i"} <= phases, f"phases {phases}")
    cats = {e.get("cat") for e in events}
    missing = TRACE_CATEGORIES - cats
    expect(not missing, f"missing categories {missing}")
    for e in events:
        expect({"ph", "pid", "tid", "ts"} <= e.keys() or e["ph"] == "M", e)
    return f"{len(events)} events, cats = {sorted(c for c in cats if c)}"


CHECKS = {
    "bench_speculation": check_speculation,
    "bench_fault_recovery": check_fault_recovery,
    "kernels": check_kernels,
    "bench_model": check_model,
    "bench_server_churn": check_server_churn,
    "bench_cluster": check_cluster,
    "trace": check_trace,
}


def gate(path, kind):
    """Checks one file as `kind` (None: the kind the file names); returns a
    summary line, or None when no check is registered for that kind."""
    with open(path) as f:
        doc = json.load(f)
    if kind is None:
        kind = "trace" if "traceEvents" in doc else doc.get("bench")
    if kind != "trace":
        expect(doc["bench"] == kind,
               f"bench is {doc['bench']!r}, not {kind!r}")
    check = CHECKS.get(kind)
    return None if check is None else check(doc)


def main(argv):
    ap = argparse.ArgumentParser(
        description="Checks bench JSON rows and Chrome traces.")
    ap.add_argument("--expect", choices=sorted(CHECKS),
                    help="the kind every FILE must be")
    ap.add_argument("files", nargs="*", metavar="FILE")
    args = ap.parse_args(argv[1:])
    named = bool(args.files)
    if args.expect and not named:
        ap.error("--expect needs at least one FILE")
    paths = args.files or sorted(str(p) for p in ROOT.glob("BENCH_*.json"))
    failed = False
    for path in paths:
        try:
            summary = gate(path, args.expect)
            if summary is None and named:
                raise GateError("no checks registered for this kind")
        except (GateError, AttributeError, KeyError, TypeError, ValueError,
                OSError) as err:
            print(f"FAIL {path}: {err!r}")
            failed = True
            continue
        if summary is None:
            print(f"skip {path}: no checks registered for this bench")
        else:
            print(f"ok   {path}: {summary}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
