#!/usr/bin/env python3
"""Gate bench results against checked-in baselines.

Series gate (positional args). Fails (exit 1) when:
  * any (bench, ranks) series present in both files lost more than the
    allowed fraction (--max-loss, default 0.25): a row that carries `us`
    (virtual microseconds, lower is better) fails when cur/base - 1 exceeds
    it; any other row is gated on `events_per_s` (higher is better) and
    fails when 1 - cur/base exceeds it, or
  * any series grew its peak RSS by more than the allowed fraction
    (--max-rss-gain, default 0.5), or
  * a baseline series is missing from the current run. A silently dropped
    bench is exactly how a perf gate rots: the run "passes" while measuring
    less and less. Removing a bench on purpose means updating the baseline
    in the same change, or
  * an --rss-sublinear gate is violated: with BENCH:R1:R2:MAXRATIO, peak
    RSS of BENCH at R2 ranks must stay below MAXRATIO x its RSS at R1
    ranks. With the fiber runtime, per-rank memory is a pooled lazily
    committed stack, so an 8x rank scale-up must cost well under 8x the
    memory — linear growth means thread-stack-style per-rank overhead
    crept back in. With a single positional file, only the
    --rss-sublinear gates run (for a partial run, e.g. CG alone, that has
    no baseline of its own).

Critical-path composition gate (--report / --report-baseline). The
simulation is deterministic, so a report.json produced by a bench is stable
until the protocol actually changes. Fails when:
  * a run's wire share drifted more than --max-wire-drift (absolute share
    points) from the baseline — a composition shift flags a protocol or
    scheduling change even when wall time stays put, or
  * the latency-tolerance model's self-check error exceeds
    --max-model-error — the re-timed DAG no longer reproduces the measured
    wall, i.e. trace reconstruction broke, or
  * any iteration's critical-path segments no longer tile its wall time
    within 1%, or
  * a baseline run is missing from the current report.

Faster-than-baseline results pass and print a hint to refresh the baseline.
A new series/run with no baseline entry is reported but not fatal, so adding
one does not require touching CI in the same commit.

Usage: check_bench_regression.py [<current.json> [<baseline.json>]]
           [--max-loss=0.25] [--max-rss-gain=0.5]
           [--rss-sublinear=BENCH:R1:R2:MAXRATIO]   (repeatable)
           [--report=R.report.json --report-baseline=BASE.report.json]
           [--max-wire-drift=0.05] [--max-model-error=0.02]
"""

import json
import sys


def load(path):
    with open(path) as f:
        rows = json.load(f)
    return {(r["bench"], r.get("ranks", 0)): r for r in rows}


def check_engine(cur_path, base_path, max_loss, max_rss_gain):
    current, baseline = load(cur_path), load(base_path)
    failed = False
    for key in sorted(set(current) | set(baseline)):
        name = f"{key[0]}@{key[1]}ranks"
        if key not in current:
            print(f"  {name}: FAIL — in baseline but missing from this run "
                  "(dropped bench? update the baseline if intentional)")
            failed = True
            continue
        if key not in baseline:
            print(f"  {name}: new bench, no baseline yet")
            continue
        if "us" in baseline[key]:
            cur = current[key]["us"]
            base = baseline[key]["us"]
            loss = cur / base - 1.0
            shown = f"{cur:,.6g} vs baseline {base:,.6g} us ({loss:+.1%})"
        else:
            cur = current[key]["events_per_s"]
            base = baseline[key]["events_per_s"]
            loss = 1.0 - cur / base
            shown = (f"{cur:,.0f} vs baseline {base:,.0f} events/s "
                     f"({-loss:+.1%})")
        verdict = "OK"
        if loss > max_loss:
            verdict = f"FAIL (>{max_loss:.0%} regression)"
            failed = True
        elif loss < -0.10:
            verdict = "OK (faster — consider refreshing the baseline)"
        print(f"  {name}: {shown} {verdict}")

        cur_rss = current[key].get("rss_mb")
        base_rss = baseline[key].get("rss_mb")
        if cur_rss and base_rss:
            gain = cur_rss / base_rss - 1.0
            if gain > max_rss_gain:
                failed = True
                print(f"  {name}: rss {cur_rss:.1f}MB vs baseline "
                      f"{base_rss:.1f}MB ({gain:+.1%}) "
                      f"FAIL (>{max_rss_gain:.0%} memory growth)")
    return failed


def check_rss_sublinear(cur_path, gates):
    """Each gate is (bench, low_ranks, high_ranks, max_ratio)."""
    current = load(cur_path)
    failed = False
    for bench, lo, hi, max_ratio in gates:
        lo_row = current.get((bench, lo))
        hi_row = current.get((bench, hi))
        if lo_row is None or hi_row is None:
            missing = lo if lo_row is None else hi
            print(f"  {bench} rss-sublinear: FAIL — no {bench}@{missing}ranks "
                  "series in this run (the gate needs both endpoints)")
            failed = True
            continue
        lo_rss, hi_rss = lo_row["rss_mb"], hi_row["rss_mb"]
        if not lo_rss or not hi_rss:
            print(f"  {bench} rss-sublinear: SKIP — no rss_mb recorded")
            continue
        ratio = hi_rss / lo_rss
        rank_ratio = hi / lo
        verdict = "OK"
        if ratio > max_ratio:
            verdict = f"FAIL (> {max_ratio:g}x allowed)"
            failed = True
        print(f"  {bench} rss: {lo_rss:.1f}MB@{lo}ranks -> "
              f"{hi_rss:.1f}MB@{hi}ranks = {ratio:.2f}x for a "
              f"{rank_ratio:g}x rank scale-up {verdict}")
    return failed


def load_report(path):
    with open(path) as f:
        rep = json.load(f)
    return {run["name"]: run for run in rep.get("runs", [])}


def check_report(cur_path, base_path, max_wire_drift, max_model_error):
    current = load_report(cur_path)
    baseline = load_report(base_path) if base_path else {}
    failed = False
    for name in sorted(set(current) | set(baseline)):
        if name not in current:
            print(f"  report {name}: FAIL — in baseline but missing from this "
                  "run (dropped run? update the baseline if intentional)")
            failed = True
            continue
        run = current[name]
        cp = run["critpath"]
        # Internal invariant first: segments must tile each iteration.
        for it in cp.get("iterations", []):
            wall = it["wall"]
            if wall > 0 and abs(it["path_sum"] - wall) > 0.01 * wall:
                print(f"  report {name}: FAIL — iteration {it['iter']} "
                      f"critical path sums to {it['path_sum']:.6g}s but wall "
                      f"is {wall:.6g}s (>1% apart: extraction broke)")
                failed = True
        err = run["latency_tolerance"]["model_error"]
        if err > max_model_error:
            print(f"  report {name}: FAIL — re-timing self-check error "
                  f"{err:.2%} (> {max_model_error:.0%}): DAG reconstruction "
                  "no longer reproduces the measured wall")
            failed = True
        if name not in baseline:
            print(f"  report {name}: new run, no baseline yet "
                  f"(wire share {cp['wire_share']:.1%})")
            continue
        base_share = baseline[name]["critpath"]["wire_share"]
        drift = cp["wire_share"] - base_share
        verdict = "OK"
        if abs(drift) > max_wire_drift:
            verdict = (f"FAIL (composition drift > "
                       f"{max_wire_drift * 100:.0f} share points)")
            failed = True
        print(f"  report {name}: wire share {cp['wire_share']:.1%} vs "
              f"baseline {base_share:.1%} ({drift * 100:+.1f}pt), "
              f"model error {err:.2%} {verdict}")
    return failed


def main(argv):
    positional = []
    max_loss = 0.25
    max_rss_gain = 0.5
    rss_sublinear = []
    report = None
    report_baseline = None
    max_wire_drift = 0.05
    max_model_error = 0.02
    for a in argv[1:]:
        if a.startswith("--max-loss="):
            max_loss = float(a.split("=", 1)[1])
        elif a.startswith("--max-rss-gain="):
            max_rss_gain = float(a.split("=", 1)[1])
        elif a.startswith("--rss-sublinear="):
            parts = a.split("=", 1)[1].split(":")
            if len(parts) != 4:
                print(f"bad --rss-sublinear spec: {a}")
                print(__doc__)
                return 2
            rss_sublinear.append((parts[0], int(parts[1]), int(parts[2]),
                                  float(parts[3])))
        elif a.startswith("--report="):
            report = a.split("=", 1)[1]
        elif a.startswith("--report-baseline="):
            report_baseline = a.split("=", 1)[1]
        elif a.startswith("--max-wire-drift="):
            max_wire_drift = float(a.split("=", 1)[1])
        elif a.startswith("--max-model-error="):
            max_model_error = float(a.split("=", 1)[1])
        elif a.startswith("--"):
            print(f"unknown option: {a}")
            print(__doc__)
            return 2
        else:
            positional.append(a)
    if not positional and report is None:
        print(__doc__)
        return 2
    if len(positional) > 2 or (len(positional) == 1 and not rss_sublinear):
        print(__doc__)
        return 2

    failed = False
    if len(positional) == 2:
        failed |= check_engine(positional[0], positional[1], max_loss,
                               max_rss_gain)
    if positional and rss_sublinear:
        failed |= check_rss_sublinear(positional[0], rss_sublinear)
    if report is not None:
        failed |= check_report(report, report_baseline, max_wire_drift,
                               max_model_error)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
