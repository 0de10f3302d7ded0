"""Command-line front end.

    rpoolsim run <file...> [--log <path>] [--format json|table]
    rpoolsim check-attack [--pool-total R] [--lp-supply L] [--collateral c]
                          [--short l | --short-fraction f]
                          [--stolen p] [--rate r] [--assert-safe]
    rpoolsim fmt <file>

Exit codes: 0 success, 1 assertion or safety-verdict failure, 2 a file that
cannot be read, parsed or written, 3 internal error (an exception escaped a
run).  ``run`` and ``fmt`` load a file the same way: read, parse, then build
its world, so a header the world refuses (a reserved name, a pool's bounds
or quorum out of range, ...) is a parse error at the refused declaration,
and ``fmt`` refuses exactly the files that ``run`` refuses before running.
Every exit 2 caused by a file's contents prints one ``path:line:col: reason``
line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import RPoolError
from .rates import PPM, format_rate, parse_rate
from .runner import RunResult, ScenarioRunner
from .scenario import ParseError, format_scenario, parse_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpoolsim",
        description="Deterministic recoverable-token and R-Pool simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute scenario files")
    run.add_argument("files", nargs="+", metavar="file")
    run.add_argument("--log", metavar="path", help="write the JSONL event log here")
    run.add_argument("--format", choices=("json", "table"), default="table")

    attack = sub.add_parser("check-attack", help="analyze an LP-shorting attack")
    attack.add_argument("--pool-total", type=int, default=1000, metavar="R")
    attack.add_argument("--lp-supply", type=int, default=1000, metavar="L")
    attack.add_argument("--collateral", type=int, default=1000, metavar="c")
    short = attack.add_mutually_exclusive_group()
    short.add_argument("--short", type=int, metavar="l", help="LP tokens shorted (default: all)")
    short.add_argument(
        "--short-fraction",
        metavar="f",
        help="short this fraction of the LP supply instead",
    )
    attack.add_argument("--stolen", type=int, default=1000, metavar="p")
    attack.add_argument("--rate", default="0.95", metavar="r", help="pool exchange rate x/p")
    attack.add_argument(
        "--assert-safe",
        action="store_true",
        help="exit 1 unless the rate is at or below the profitability threshold",
    )

    fmt = sub.add_parser("fmt", help="print a scenario in canonical form")
    fmt.add_argument("file")
    return parser


def _load(path: Path) -> ScenarioRunner | None:
    """Read and parse one scenario file and build its world; on failure say
    why on stderr and return None, which the commands turn into exit code 2."""
    try:
        return ScenarioRunner(parse_scenario(path.read_text(encoding="utf-8")), name=path.stem)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"{path}: {exc}", file=sys.stderr)
    except ParseError as exc:
        print(f"{path}:{exc.line}:{exc.column}: {exc.reason}", file=sys.stderr)
    return None


def _cmd_run(args: argparse.Namespace) -> int:
    results: list[RunResult] = []
    for path_text in args.files:
        path = Path(path_text)
        world = _load(path)
        if world is None:
            return 2
        try:
            result = world.run()
        except Exception:  # a step reports modelled errors itself: this is a bug
            print(f"{path}: internal error", file=sys.stderr)
            sys.excepthook(*sys.exc_info())  # the traceback, to stderr
            return 3
        results.append(result)
        _print_result(result, args.format)
    if args.log:
        lines = [line for result in results for line in result.log_lines()]
        try:
            Path(args.log).write_text("\n".join(lines) + "\n")
        except OSError as exc:
            print(f"{args.log}: {exc}", file=sys.stderr)
            return 2
    return 0 if all(r.passed for r in results) else 1


def _print_result(result: RunResult, fmt: str) -> None:
    if fmt == "json":
        print(
            json.dumps(
                {
                    "scenario": result.name,
                    "passed": result.passed,
                    "events": len(result.events),
                    "assertions": [a._asdict() for a in result.assertions],
                },
                sort_keys=True,
            )
        )
        return
    verdict = "PASS" if result.passed else "FAIL"
    passed = sum(a.passed for a in result.assertions)
    print(f"== {result.name}: {verdict} ({passed}/{len(result.assertions)} assertions)")
    for a in result.assertions:
        mark = "pass" if a.passed else "FAIL"
        line = f"   [{mark}] {a.description}"
        if not a.passed:
            line += f" (expected {a.expected!r}, observed {a.observed!r})"
        print(line)


def _cmd_check_attack(args: argparse.Namespace) -> int:
    # the attack lab (and Fraction) load here, so run and fmt never pay for them
    from .attack import AttackScenario, profitability_threshold, simulate_attack

    def rate_flag(flag: str, text: str) -> int | None:
        """``text`` in ppm, or None once stderr says why it is refused."""
        try:
            return parse_rate(text)
        except ValueError as exc:
            print(f"{flag}: {exc}", file=sys.stderr)
            return None

    lp_supply = args.lp_supply
    shorted = lp_supply if args.short is None else args.short
    if args.short_fraction is not None:
        fraction_ppm = rate_flag("--short-fraction", args.short_fraction)
        if fraction_ppm is None:
            return 2
        shorted = lp_supply * fraction_ppm // PPM
    rate_ppm = rate_flag("--rate", args.rate)
    if rate_ppm is None:
        return 2
    try:
        scenario = AttackScenario(
            pool_total=args.pool_total,
            lp_supply=lp_supply,
            collateral=args.collateral,
            shorted=shorted,
            stolen=args.stolen,
            rate_ppm=rate_ppm,
        )
        breakdown = simulate_attack(scenario)
        threshold_ppm = profitability_threshold(lp_supply, shorted)
    except RPoolError as exc:
        print(f"{exc.name}: {exc}", file=sys.stderr)
        return 2

    # the threshold in ppm is the exact one floored, so for an integer ppm
    # rate this is the exact comparison
    safe = rate_ppm <= threshold_ppm
    print(f"pool total (R):        {scenario.pool_total}")
    print(f"lp supply (L):         {scenario.lp_supply}")
    print(f"collateral (c):        {scenario.collateral}")
    print(f"shorted (l):           {scenario.shorted}")
    print(f"stolen (p):            {scenario.stolen}")
    print(f"rate (x/p):            {format_rate(rate_ppm)}")
    print(f"borrow limit ok:       {'yes' if scenario.borrow_limit_respected else 'no'}")
    print(f"swap payout (x):       {breakdown.swap_out}")
    print(f"short sale (b):        {breakdown.sale_proceeds}")
    print(f"buy back (m):          {breakdown.buyback_cost}")
    print(f"profit (x,+b,-m):      {breakdown.profit}")
    print(f"plain theft baseline:  {breakdown.stolen}")
    print(
        f"threshold (L/(L+l)):   {format_rate(threshold_ppm)} "
        f"({threshold_ppm} ppm)"
    )
    if safe:
        print("verdict:               SAFE (rate at or below threshold; profit cannot exceed the baseline)")
    else:
        beats = "and it does" if breakdown.exceeds_stolen else "but it does not here"
        print(f"verdict:               UNSAFE (rate above threshold; profit can exceed the baseline, {beats})")
    if args.assert_safe and not safe:
        return 1
    return 0


def _cmd_fmt(args: argparse.Namespace) -> int:
    world = _load(Path(args.file))
    if world is None:
        return 2
    sys.stdout.write(format_scenario(world.script))
    return 0


_COMMANDS = {"run": _cmd_run, "check-attack": _cmd_check_attack, "fmt": _cmd_fmt}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
