"""rpoolsim benchmark: one closed-loop client on one thread, host time only.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S
    python3 bench/run.py --sweep
    python3 bench/run.py --record-digests FIRST LAST [--workload NAME]

Workloads, metric names, units and bounds live in ``BENCHMARK.json`` at
the repository root.  A run generates its inputs from ``--seed``, imports
``rpoolsim`` from ``src/``, repeats set-up plus one fixed unit of work
until ``--seconds`` have passed (at least three times), runs the
correctness gates, prints a human summary and, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced repetitions, writes the spans to ``bench/out/`` and reports the
per-layer metrics, the tracing overhead and the size sweep.  The
simulator's own clock is simulated and never reported.

End-to-end metrics, the same four on every workload.  Their times are
scaled to the reference host: timed work is cut into stretches of about a
quarter second, each bracketed by a fixed stdlib reference computation
(``calibrate.py``), because this shared host's speed drifts up to 2x in
phases lasting seconds.  The summary prints unscaled figures as well.
Per-layer self times from the traced run are unscaled; the size sweep is
scaled.

- ``setup_s``: median of fifteen fresh imports of every ``rpoolsim`` module,
  plus the median world construction before the first timed call (parse
  and genesis for scenario_wide, world and warm-up for pool_deep,
  ``AttackScenario`` construction for attack_sweep).  Input generation
  is excluded.
- ``ops_per_s``: scenario steps, successful pool calls or attack scenarios
  completed per second spent in timed calls, over all repetitions.
- ``op_p50_us``: median latency of one step (a ``cli.main`` call divided by
  its steps: the harness does not reach inside the runner), one accepted
  ``AmmPool.swap``, or one attack scenario's four checks.
- ``peak_rss_mb``: peak resident memory of the process.

The summary also prints swap and recovery-chain percentiles with their
sample counts, and the share of operations whose outcome differed from
the generator's expectation (the result's ``failed`` over ``attempted``).

Exit codes: 0 correct, 1 an output check failed, 2 the program or its
inputs could not be loaded.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Every timed import compiles from source, so set-up time does not depend
# on whether an earlier run left bytecode caches behind.
sys.dont_write_bytecode = True
sys.pycache_prefix = str(OUT / "no-pycache")

import calibrate  # noqa: E402  (stdlib only)
import gen  # noqa: E402  (stdlib only)

IMPORT_REPEATS = 15
MIN_REPS = 3
MAX_TRACED_REPS = 2
DIGESTS = HERE / "digests.json"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check_layout() -> None:
    missing = [p for p in ("src/rpoolsim/__init__.py", "tests/naive_ledger.py", "scenarios")
               if not (ROOT / p).exists()]
    if missing:
        print(f"bench: program files missing under {ROOT}: {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)


def timed_import() -> tuple[float, float]:
    """Median seconds, scaled and unscaled, to import every rpoolsim
    module from a clean slate."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.append(str(ROOT / "tests"))
    samples = []
    ref = calibrate.reference_s()
    for _ in range(IMPORT_REPEATS):
        for name in [n for n in sys.modules if n == "rpoolsim" or n.startswith("rpoolsim.")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        start = time.perf_counter_ns()
        importlib.import_module("rpoolsim")
        importlib.import_module("rpoolsim.cli")
        seconds = (time.perf_counter_ns() - start) / 1e9
        after = calibrate.reference_s()
        samples.append((seconds, calibrate.scale(ref, after)))
        ref = after
    return (statistics.median(s * k for s, k in samples), statistics.median(s for s, _ in samples))


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def tail_label(values: list[float]) -> tuple[str, float]:
    """Highest of p99/p90/p50 with at least ten samples beyond it."""
    for label, q in (("p99", 0.99), ("p90", 0.90), ("p50", 0.50)):
        if len(values) * (1 - q) >= 10:
            return label, percentile(values, q)
    return "p50", statistics.median(values)


def run_reps(work, tally, seconds: float, tracer=None):
    """Untraced reps until time is up; with a tracer, alternate untraced
    and traced reps instead.  Returns (setups, untraced reps, traced reps)."""
    setups, plain, traced = [], [], []
    deadline = time.monotonic() + seconds
    ref = calibrate.reference_s()
    while True:
        gc.collect()
        seconds_setup = work.setup()
        after = calibrate.reference_s()
        setups.append((seconds_setup, calibrate.scale(ref, after)))
        gc.collect()
        if tracer is not None and len(plain) > len(traced):
            with tracer:
                traced.append(work.rep(tally))
        else:
            plain.append(work.rep(tally))
        ref = calibrate.reference_s()
        if tracer is None:
            if len(plain) >= MIN_REPS and time.monotonic() >= deadline:
                break
        elif len(traced) >= MAX_TRACED_REPS or (traced and time.monotonic() >= deadline):
            break
    return setups, plain, traced


def recorded_digest(workload: str, seed: int) -> str | None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    return table.get(workload, {}).get(str(seed))


def check_digests(reps, recorded: str | None, tally) -> str:
    """Every repetition must produce one digest, equal to the recorded one
    where this seed has a record."""
    digests = {r.digest for r in reps}
    if len(digests) != 1:
        tally.fail(f"output digest differs between repetitions: {sorted(digests)}")
    digest = reps[0].digest
    if recorded is None:
        return f"{digest} (no digest recorded for this seed)"
    if recorded != digest:
        tally.fail(f"output digest {digest} != recorded {recorded}")
        return f"{digest} MISMATCH (recorded {recorded})"
    return f"{digest} (matches the recorded digest)"


def end_to_end(work, import_s: tuple[float, float], setups, reps) -> tuple[dict, list[str]]:
    workload = work.name
    headline = [v for r in reps for v in r.latencies_us[work.headline]]
    values = {
        "setup_s": import_s[0] + statistics.median(s * k for s, k in setups),
        "ops_per_s": sum(r.units for r in reps) / sum(r.scaled_seconds for r in reps),
        "op_p50_us": statistics.median(headline),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "setup_s": import_s[1] + statistics.median(s for s, _ in setups),
        "ops_per_s": sum(r.units for r in reps) / sum(r.seconds for r in reps),
    }
    lines = [f"  {work.rate_name:<16} {values['ops_per_s']:.1f} 1/s "
             f"(over {len(reps)} repetitions of {reps[0].units} {work.unit}; each: "
             f"{', '.join(f'{r.units / r.scaled_seconds:.1f}' for r in reps)})"]
    if workload == "pool_deep":
        for key, label in (("swap_us", "swap"), ("recover_us", "recover")):
            samples = [v for r in reps for v in r.latencies_us[key]]
            tail, value = tail_label(samples)
            lines.append(f"  {label}_p50_us{'':<{9 - len(label)}} {statistics.median(samples):.1f} us, "
                         f"{label}_{tail}_us {value:.1f} us (n={len(samples)})")
    elif workload == "attack_sweep":
        tail, value = tail_label(headline)
        lines.append(f"  scenario_p50_us  {values['op_p50_us']:.1f} us, scenario_{tail}_us "
                     f"{value:.1f} us (n={len(headline)})")
    else:
        lines.append(f"  step_us          {values['op_p50_us']:.1f} us "
                     f"(median over {len(headline)} cli.main calls)")
    lines.append("  unscaled:        " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
                 + "; mean host scale per repetition: "
                 + ", ".join(f"{r.scaled_seconds / r.seconds:.3f}" for r in reps))
    return values, lines


def per_layer(work, tracer, plain, traced) -> tuple[dict, list[str]]:
    """Per-layer figures of the traced repetitions, without the size sweep."""
    import spans

    workload = work.name
    reps = len(traced)
    ns = tracer.self_times()
    calls = tracer.calls()
    rejected = tracer.rejected

    def self_s(name: str) -> float:
        return ns.get(name, 0) / 1e9 / reps

    values: dict[str, float] = {}
    for layer in {layer for layer, _, _ in spans.TRACED}:
        values[f"{layer}.self_s"] = sum(
            t for name, t in ns.items() if tracer.layer_of[name] == layer) / 1e9 / reps
    for name in tracer.layer_of:
        values[f"{name}.self_s"] = self_s(name)
        values[f"{name}.calls"] = calls.get(name, 0) / reps
    steps = sum(r.units for r in traced) if workload == "scenario_wide" else 0
    values["ledger.settle_view.calls_per_step"] = (
        calls.get("ledger.settle_view", 0) / steps if steps else 0)
    parse_ns = ns.get("scenario.parse", 0)
    values["scenario.parse.lines_per_s"] = (
        calls.get("scenario.parse", 0) * work.inputs.text.count("\n") / (parse_ns / 1e9)
        if parse_ns and workload == "scenario_wide" else 0)
    swaps = calls.get("amm.swap", 0)
    swap_rejects = sum(c for (n, _), c in rejected.items() if n == "amm.swap")
    values["oracle.rejected.StaleNonce"] = rejected.get(("oracle.validate_reports", "StaleNonce"), 0) / reps
    values["oracle.accept_ratio"] = (swaps - swap_rejects) / swaps if swaps else 0
    posts = calls.get("orderbook.post_bid", 0)
    fills = calls.get("orderbook.match_bid", 0) - sum(
        c for (n, _), c in rejected.items() if n == "orderbook.match_bid")
    values["orderbook.fill_ratio"] = fills / posts if posts else 0
    gauges = {key: [v for r in traced for v in r.gauges.get(key, [])]
              for key in ("pool_records", "transfer_log_len")}
    values["ledger.pool_records"] = statistics.median(gauges["pool_records"] or [0])
    values["ledger.transfer_log_len"] = statistics.median(gauges["transfer_log_len"] or [0])
    untraced_rate = statistics.median(r.units / r.scaled_seconds for r in plain)
    traced_rate = statistics.median(r.units / r.scaled_seconds for r in traced)
    values["trace.overhead_share"] = 1 - traced_rate / untraced_rate
    lines = [f"  tracing overhead {values['trace.overhead_share']:.1%} of throughput "
             f"({untraced_rate:.1f} -> {traced_rate:.1f} 1/s); {len(tracer)} spans "
             f"over {reps} traced repetition(s)",
             "  rejections by span and error: " + (", ".join(
                 f"{n}:{e}={c}" for (n, e), c in sorted(rejected.items())) or "none"),
             "  waiting time is 0 for every layer: no layer has a queue"]
    return values, lines


def run_workload(args) -> int:
    import workloads

    spec = load_spec()
    cls = workloads.WORKLOADS[args.workload]
    work = cls(cls.generate(args.seed), OUT)
    tally = workloads.Tally()
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    setups, plain, traced = run_reps(work, tally, args.seconds, tracer)
    shipped = workloads.shipped_scenarios_gate(ROOT, tally)
    workloads.naive_oracle_gate(args.seed, tally)
    digest = check_digests(plain + traced, recorded_digest(args.workload, args.seed), tally)

    if args.trace:
        import sweep

        values, lines = per_layer(work, tracer, plain, traced)
        values.update(sweep.named())
        span_file = OUT / f"spans-{args.workload}.jsonl"
        tracer.write(span_file)
        lines.append(f"  spans written to {span_file.relative_to(ROOT)}")
        wanted = spec["per_layer"]
    else:
        values, lines = end_to_end(work, args.import_s, setups, plain)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    share = tally.failed / tally.attempted
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<38} {m['value']:.6g} {m['unit']}")
    for line in lines:
        print(line)
    print(f"  failed_share     {share:.6g} ({tally.failed}/{tally.attempted}); "
          f"{shipped} shipped scenarios and the naive-oracle replay checked")
    print(f"  output sha256    {digest}")
    for note in tally.notes:
        print(f"  FAILED: {note}")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    code = 0
    results = {}
    for workload in (w["name"] for w in load_spec()["workloads"]):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        results[workload] = json.loads(lines[-1]) if lines else None
        code = max(code, proc.returncode)
    print(json.dumps(results))
    return code


def run_sweep() -> int:
    import sweep

    grid = sweep.grid()
    print("runner cost per step vs accounts in the world")
    for n, us in grid["runner_step_us"].items():
        print(f"  N={n:<6} {us:10.1f} us/step")
    print("AmmPool.swap vs unsettled records at the pool")
    for r, us in grid["swap_us"].items():
        print(f"  R={r:<6} {us:10.1f} us/swap")
    print("settled transfer vs transfers so far")
    for t, us in grid["transfer_us"].items():
        print(f"  T={t:<6} {us:10.2f} us/transfer")
    named = {name: grid[fn][size] for name, (fn, size) in sweep.NAMED.items()}
    print(json.dumps({name: {"value": v, "unit": "us"} for name, v in named.items()}))
    return 0


def record_digests(only: str | None, first: int, last: int) -> int:
    """Record the output digest of each workload (or ``only`` that one)
    for seeds first..last."""
    import workloads

    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for workload, cls in workloads.WORKLOADS.items():
        if only not in (None, workload):
            continue
        for seed in range(first, last + 1):
            work = cls(cls.generate(seed), OUT)
            tally = workloads.Tally()
            work.setup()
            rep = work.rep(tally)
            if tally.failed:
                print(f"{workload} seed {seed}: {tally.notes}", file=sys.stderr)
                return 1
            table.setdefault(workload, {})[str(seed)] = rep.digest
            print(f"{workload} {seed} {rep.digest}", flush=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in load_spec()["workloads"]]
    parser.add_argument("--workload", choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true", help="print the size sweep")
    parser.add_argument("--record-digests", type=int, nargs=2, metavar=("FIRST", "LAST"))
    args = parser.parse_args(argv)
    if not (args.workload or args.sweep or args.record_digests):
        parser.error("give --workload, --sweep or --record-digests")

    check_layout()
    if args.workload == "all" and not args.record_digests:
        return run_all(args)
    args.import_s = timed_import()
    if args.sweep:
        return run_sweep()
    if args.record_digests:
        return record_digests(args.workload, *args.record_digests)
    return run_workload(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except gen.GenerationError as exc:
        print(f"bench: generated inputs lack their stated shape: {exc}", file=sys.stderr)
        sys.exit(2)
