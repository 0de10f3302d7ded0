"""Seeded input generators for the benchmark workloads.

Everything here is stdlib only and imports nothing from ``rpoolsim``: the
generators build inputs, the program under test only ever receives them.
The same seed always yields byte-identical inputs (see :func:`serialize`).

Each generator keeps a small model of the balances it hands out, so every
step or operation it emits is valid by construction except the ones it
labels as expected rejections, and it checks the stated shape of what it
produced (counts, reject share) before returning.  Step counts are fixed
per kind and only their order, participants and amounts depend on the seed,
so seeds differ in content but not in the amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

PPM = 1_000_000

# -- scenario_wide -----------------------------------------------------------

#: step kinds and how many of each one scenario carries
WIDE_MIX = {
    "swap": 33,  # 2 issue_report + swap
    "stale_swap": 13,  # 2 issue_report + wrap (bumps the nonce) + rejected swap
    "transfer": 58,
    "wrap": 25,
    "unwrap": 17,
    "recovery": 2,  # labelled transfer + plan_recovery + freeze + recover
}
WIDE_STEPS_PER_KIND = {
    "swap": 3, "stale_swap": 4, "transfer": 1, "wrap": 1, "unwrap": 1, "recovery": 4,
}
WIDE_SIGNERS = 3


@dataclass
class WideScenario:
    text: str
    steps: int
    rejects: int
    accounts: int


def scenario_wide(seed: int, accounts: int = 500, scale: int = 1) -> WideScenario:
    """A ``.scn`` with ``accounts`` genesis accounts and about 260 steps,
    5% of them swaps labelled to fail with StaleNonce; the benchmark runs
    it six times per repetition, about 1.5k steps.

    ``scale`` divides the step counts (tests use small instances).  The
    window is far longer than the script, so nothing matures and the
    model below is exact.
    """
    rng = random.Random(f"scenario_wide:{seed}")
    users = [f"u{i:04d}" for i in range(accounts)]
    signers = [f"s{i}" for i in range(WIDE_SIGNERS)]
    base = {u: 10_000_000 for u in users}
    settled = {u: 10_000_000 for u in users}
    unsettled = {u: 0 for u in users}

    head = ["config window=100000000 arbitrator=arb"]
    head += [f"account {u} base={base[u]} settled={settled[u]}" for u in users]
    for s in signers:
        head.append(f"account {s} base=100000000000")
        head.append(f"signer {s} model=constant rate=0.9")
    head.append("pool amm kappa_ppm=500000 min_quorum=2")

    steps: list[str] = []
    now = 0
    for s in signers:
        steps.append(f"at 0 deposit pool=amm lp={s} amount=100000000000")

    kinds = [k for k, n in WIDE_MIX.items() for _ in range(max(1, n // scale))]
    rng.shuffle(kinds)
    # Swaps need recipients of unsettled transfers to exist first.
    first = [k for k in kinds if k == "transfer"][:20]
    rest = list(kinds)
    for k in first:
        rest.remove(k)
    kinds = first + rest

    rejects = 0
    labels = 0
    for kind in kinds:
        now += rng.randint(1, 20)
        if kind == "transfer":
            src, dst = rng.sample(users, 2)
            amount = rng.randint(1, min(50_000, settled[src] + unsettled[src]))
            from_settled = min(settled[src], amount)
            settled[src] -= from_settled
            unsettled[src] -= amount - from_settled
            unsettled[dst] += amount
            steps.append(
                f"at {now} transfer from={src} to={dst} amount={amount} unsettled=true"
            )
        elif kind == "wrap":
            acct = rng.choice(users)
            amount = rng.randint(1, min(10_000, base[acct]))
            base[acct] -= amount
            settled[acct] += amount
            steps.append(f"at {now} wrap account={acct} amount={amount}")
        elif kind == "unwrap":
            acct = rng.choice(users)
            amount = rng.randint(1, min(10_000, settled[acct]))
            settled[acct] -= amount
            base[acct] += amount
            steps.append(f"at {now} unwrap account={acct} amount={amount}")
        elif kind in ("swap", "stale_swap"):
            holders = [u for u in users if unsettled[u] > 0]
            acct = rng.choice(holders)
            amount = rng.randint(1, min(5_000, unsettled[acct]))
            labels += 1
            reports = []
            for s in rng.sample(signers, 2):
                label = f"r{labels}{s}"
                reports.append(label)
                steps.append(
                    f"at {now} issue_report signer={s} requestor={acct} "
                    f"amount={amount} ttl=600 as={label}"
                )
            swap = f"at {now} swap pool=amm requestor={acct} amount={amount} reports={','.join(reports)}"
            if kind == "stale_swap":
                base[acct] -= 1
                settled[acct] += 1
                steps.append(f"at {now} wrap account={acct} amount=1")
                steps.append(swap + " expect_error=StaleNonce")
                rejects += 1
            else:
                unsettled[acct] -= amount
                steps.append(swap)
        else:  # recovery: theft, then the arbitrator claws part of it back
            victim, thief = rng.sample(users, 2)
            amount = rng.randint(1, min(20_000, settled[victim]))
            take = rng.randint(1, amount)
            labels += 1
            settled[victim] -= amount
            unsettled[thief] += amount - take
            settled[victim] += take
            steps += [
                f"at {now} transfer from={victim} to={thief} amount={amount} as=theft{labels}",
                f"at {now} plan_recovery transfer=theft{labels} amount={take} expect={thief}:{take}",
                f"at {now} freeze case=case{labels} transfer=theft{labels} amount={take}",
                f"at {now} recover case=case{labels} victim={victim} expect_amount={take}",
            ]

    expected_steps = len(signers) + sum(WIDE_STEPS_PER_KIND[k] for k in kinds)
    _check(len(steps) == expected_steps, "scenario_wide step count")
    _check(min(base.values()) >= 0 and min(settled.values()) >= 0
           and min(unsettled.values()) >= 0, "scenario_wide model went negative")
    return WideScenario("\n".join(head + steps) + "\n", len(steps), rejects, accounts)


# -- pool_deep -----------------------------------------------------------------

#: pool_deep world shape
POOL_WINDOW = 50_000
POOL_TICK = 10  # clock advance per accepted swap: window / tick records stay unsettled
POOL_QUORUM = 5
POOL_STALE_PCT = 5  # share of timed swaps sent with a stale nonce


@dataclass
class PoolDeepPlan:
    """World shape plus the operation list; ops before ``timed_from`` are
    the warm-up.  Each op is a tuple ``(time, kind, *args)``."""

    users: list[str]
    lps: list[str]
    fillers: list[str]
    signers: list[str]
    window: int
    ops: list[tuple] = field(default_factory=list)
    timed_from: int = 0


def pool_deep(
    seed: int,
    *,
    users: int = 200,
    warmup: int = 5000,
    swaps: int = 2000,
    bids: int = 100,
    lp_ops: int = 40,
    chains: int = 100,
    window: int = POOL_WINDOW,
) -> PoolDeepPlan:
    """Warm-up, then a mixed timed phase.

    Each warm-up round pays a user, who moves the unsettled tokens into the
    pool: the swap's inbound leg without its oracle check and payout, which
    would only make the warm-up slower.  The clock advances ``POOL_TICK``
    per warm-up round and per accepted swap, so from the end of the warm-up
    on records mature at the pool about as fast as swaps add them and the
    pool holds about ``window / POOL_TICK`` unsettled records.
    """
    rng = random.Random(f"pool_deep:{seed}")
    plan = PoolDeepPlan(
        users=[f"u{i:04d}" for i in range(users)],
        lps=[f"lp{i}" for i in range(10)],
        fillers=[f"f{i}" for i in range(5)],
        signers=[f"s{i}" for i in range(POOL_QUORUM)],
        window=window,
    )
    ops = plan.ops
    now = 0
    # (feed op index, payer, amount) of payments that went on into the pool
    feeds: list[tuple[int, str, int]] = []
    for _ in range(warmup):
        payer, requestor = rng.sample(plan.users, 2)
        amount = rng.randint(1_000, 100_000)
        feeds.append((len(ops), payer, amount))
        ops.append((now, "feed", payer, requestor, amount))
        ops.append((now, "inflow", requestor, amount))
        now += POOL_TICK
    plan.timed_from = len(ops)

    stale = swaps * POOL_STALE_PCT // 100
    kinds = (["swap"] * (swaps - stale) + ["stale"] * stale + ["bid"] * bids
             + ["deposit"] * lp_ops + ["withdraw"] * lp_ops + ["chain"] * chains)
    rng.shuffle(kinds)
    for kind in kinds:
        if kind in ("swap", "stale"):
            payer, requestor = rng.sample(plan.users, 2)
            amount = rng.randint(1_000, 100_000)
            feed_at = len(ops)
            ops.append((now, "feed", payer, requestor, amount))
            ops.extend((now, "report", i, requestor, amount) for i in range(POOL_QUORUM))
            if kind == "stale":
                ops.append((now, "feed", payer, requestor, rng.randint(1, 1_000)))
                ops.append((now, "swap", requestor, amount, "StaleNonce"))
            else:
                ops.append((now, "swap", requestor, amount, "ok"))
                feeds.append((feed_at, payer, amount))
                now += POOL_TICK
        elif kind == "bid":
            payer, bidder = rng.sample(plan.users, 2)
            amount = rng.randint(1_000, 100_000)
            ops.append((now, "feed", payer, bidder, amount))
            ops.append((now, "post_bid", bidder, amount, 400_000, now + 1_000))
            if rng.random() < 0.8:
                asking = -(-amount * 400_000 // PPM)
                ops.append((now, "match_bid", rng.choice(plan.fillers), asking + rng.randint(0, 100)))
        elif kind == "deposit":
            ops.append((now, "deposit", rng.choice(plan.lps), rng.randint(10**6, 10**7)))
        elif kind == "withdraw":
            ops.append((now, "withdraw", rng.choice(plan.lps), rng.randint(1_000, 20_000)))
        else:
            feed_at, payer, amount = rng.choice(feeds[-2000:])
            case = f"case{len(ops)}"
            ops.append((now, "plan_recovery", feed_at, rng.randint(1, amount)))
            ops.append((now, "freeze", case))
            ops.append((now, "recover", case, payer))

    _check(sum(1 for op in ops if op[1] == "swap") == swaps, "pool_deep swap count")
    _check(sum(1 for op in ops if op[1] == "recover") == chains, "pool_deep chain count")
    _check(all(ops[i][0] <= ops[i + 1][0] for i in range(len(ops) - 1)), "pool_deep clock order")
    return plan


# -- attack_sweep ----------------------------------------------------------------

#: LP supplies of the acceptance criterion 6 grid
ATTACK_SUPPLIES = [1, 2, 3, 7, 12, 17, 31, 64, 128, 999, 1000, 2048, 4096,
                   10_000, 31337, 65536, 10**5, 2 * 10**5, 5 * 10**5, 10**6]
ATTACK_RATE_STEPS = 24


@dataclass(frozen=True)
class AttackCase:
    pool_total: int
    lp_supply: int
    collateral: int
    shorted: int
    stolen: int
    rate: Fraction  # exact rate, at most the profitability threshold

    @property
    def rate_ppm(self) -> int:
        return min(PPM, int(self.rate * PPM))


def attack_sweep(seed: int, supplies: list[int] = ATTACK_SUPPLIES) -> list[AttackCase]:
    """The criterion 6 grid: LP supply x short x pool total x 25 rates up to
    the exact threshold.  The seed picks each cell's stolen amount (at most
    the pool total, so the swap always fits) and collateral."""
    rng = random.Random(f"attack_sweep:{seed}")
    cases = []
    for lp_supply in supplies:
        shorts = sorted({1, lp_supply // 10 or 1, lp_supply // 3 or 1,
                         lp_supply // 2 or 1, 2 * lp_supply // 3 or 1, lp_supply})
        totals = sorted({1, lp_supply // 4 or 1, lp_supply // 2 or 1,
                         3 * lp_supply // 4 or 1, lp_supply})
        for shorted in shorts:
            threshold = Fraction(lp_supply, lp_supply + shorted)
            for pool_total in totals:
                stolen = rng.randint(1, pool_total)
                collateral = rng.randint(0, 2 * pool_total)
                for k in range(ATTACK_RATE_STEPS + 1):
                    rate = threshold * Fraction(k, ATTACK_RATE_STEPS)
                    cases.append(AttackCase(pool_total, lp_supply, collateral,
                                            shorted, stolen, rate))
    if supplies is ATTACK_SUPPLIES:
        _check(len(cases) >= 10_000, "attack_sweep has at least 10^4 scenarios")
    return cases


# -- size sweep -------------------------------------------------------------------


#: steps of each runner sweep scenario
RUNNER_SWEEP_STEPS = 200


def runner_sweep_scenario(accounts: int) -> str:
    """``accounts`` genesis accounts, then ``RUNNER_SWEEP_STEPS`` wraps and
    settled transfers among them: the runner's per-step cost grows with the
    account count while the ledger work per step stays the same."""
    rng = random.Random("runner_sweep")
    users = [f"a{i:05d}" for i in range(accounts)]
    lines = ["config window=86400 arbitrator=arb"]
    lines += [f"account {u} base=1000000 settled=1000000" for u in users]
    for i in range(RUNNER_SWEEP_STEPS):
        if i % 2:
            src, dst = rng.sample(users, 2)
            lines.append(f"at {i} transfer from={src} to={dst} amount={rng.randint(1, 1000)}")
        else:
            lines.append(f"at {i} wrap account={rng.choice(users)} amount={rng.randint(1, 1000)}")
    return "\n".join(lines) + "\n"


# -- helpers ------------------------------------------------------------------------


class GenerationError(Exception):
    """A generator produced inputs that do not have their stated shape."""


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise GenerationError(what)


def serialize(inputs: object) -> bytes:
    """Canonical bytes of generated inputs, for the determinism check."""
    if isinstance(inputs, WideScenario):
        return inputs.text.encode()
    if isinstance(inputs, PoolDeepPlan):
        return json.dumps([inputs.users, inputs.lps, inputs.fillers, inputs.signers,
                           inputs.window, inputs.timed_from, inputs.ops]).encode()
    return json.dumps([[c.pool_total, c.lp_supply, c.collateral, c.shorted, c.stolen,
                        str(c.rate)] for c in inputs]).encode()
