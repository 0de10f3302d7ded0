"""Scenario script parsing and canonical formatting.

A scenario is line-oriented text: a header declaring the token config,
genesis accounts, rating entities, pools, and order books, followed by one
step per line.  Step times are non-decreasing and drive the simulated
clock.  The full grammar ships in docs/scenario-format.md; the essentials:

    config window=86400 arbitrator=arb
    account alice base=100
    signer rater model=constant rate=0.6
    pool main kappa_ppm=500000 min_quorum=1
    book ob
    at 0 wrap account=alice amount=100
    at 0 transfer from=alice to=bob amount=40 as=t1
    at 60 swap pool=main requestor=bob amount=40 reports=r1 expect_error=StaleNonce

A line ends at LF only, and its tokens are its whitespace-separated words
before any ``#``: a CR, a form feed or a Unicode line separator inside a
line separates tokens and starts no new line.
Amounts are plain integers; rates are decimals with at most six places and
convert exactly to ppm.  Unknown directives, actions, or fields are
rejected with a located :class:`ParseError`, whose column is worked out
from the token's index only when the error is raised.  The parser checks
the grammar only: whether a header's values describe a world that can be
built (a reserved name, a pool's kappa, rate and risk bounds, its quorum)
is decided by the world's constructors alone.  The script records the line
of each declaration, so :class:`~rpoolsim.runner.ScenarioRunner` reports a
refusal as a :class:`ParseError` at the field it names, else at the declared
name.  Steps may carry ``as=`` labels naming the transfer/report/bid they
produce, ``expect_*`` result checks, and ``expect_error=`` for steps that
must fail with exactly that error.
"""

from __future__ import annotations

import re
from functools import cache
from typing import Any, Callable, NamedTuple

from .errors import ERRORS_BY_NAME
from .rates import DEFAULT_RATE_CAP_PPM, PPM, format_rate, parse_rate

DEFAULT_WINDOW = 86_400
DEFAULT_ARBITRATOR = "arbiter"

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.-]*")

#: INT fields and step times stay below this bound, so a report's expiry
#: (step time + ttl) always fits the 8-byte field its signature covers.
INT_LIMIT = 1 << 63

BID_STATUSES = ("open", "cancelled", "filled")
SIGNER_MODELS = ("constant", "taint")

# Parameter schemas: name -> (type, required).  Types: int, name, rate,
# bool, targets, status, model, the declared-name types pool, book and
# signer, which name a header declaration of that directive, and the label
# types, which carry the kind K of label (transfer, report or bid) after a
# colon: "as:K" binds a new label, "label:K" and "labels:K" name one or
# more earlier labels, and "ref:K" names an earlier label or gives an
# integer id.
ACTION_SPECS: dict[str, dict[str, tuple[str, bool]]] = {
    "mint_base": {"account": ("name", True), "amount": ("int", True)},
    "wrap": {"account": ("name", True), "amount": ("int", True)},
    "unwrap": {
        "account": ("name", True),
        "amount": ("int", True),
        "to": ("name", False),
    },
    "transfer": {
        "from": ("name", True),
        "to": ("name", True),
        "amount": ("int", True),
        "unsettled": ("bool", False),
        "as": ("as:transfer", False),
        "tainted": ("bool", False),
    },
    "disable_unwrap": {"account": ("name", True)},
    "deposit": {
        "pool": ("pool", True),
        "lp": ("name", True),
        "amount": ("int", True),
        "expect_minted": ("int", False),
    },
    "withdraw": {
        "pool": ("pool", True),
        "lp": ("name", True),
        "tokens": ("int", True),
        "expect_base": ("int", False),
        "expect_unsettled": ("int", False),
    },
    "issue_report": {
        "signer": ("signer", True),
        "requestor": ("name", True),
        "amount": ("int", True),
        "ttl": ("int", True),
        "as": ("as:report", True),
        "expect_quote": ("rate", False),
    },
    "swap": {
        "pool": ("pool", True),
        "requestor": ("name", True),
        "amount": ("int", True),
        "reports": ("labels:report", True),
        "as": ("as:transfer", False),
        "tainted": ("bool", False),
        "expect_out": ("int", False),
        "expect_rate": ("rate", False),
    },
    "post_bid": {
        "book": ("book", True),
        "bidder": ("name", True),
        "amount": ("int", True),
        "min_rate": ("rate", True),
        "expiry": ("int", True),
        "as": ("as:bid", False),
    },
    "cancel_bid": {
        "book": ("book", True),
        "bid": ("ref:bid", True),
        "by": ("name", True),
    },
    "match_bid": {
        "book": ("book", True),
        "bid": ("ref:bid", True),
        "lp": ("name", True),
        "offer": ("int", True),
    },
    "freeze": {
        "case": ("name", True),
        "targets": ("targets", False),
        "transfer": ("label:transfer", False),
        "amount": ("int", False),
        "by": ("name", False),
    },
    "recover": {
        "case": ("name", True),
        "victim": ("name", True),
        "by": ("name", False),
        "expect_amount": ("int", False),
    },
    "release": {"case": ("name", True), "by": ("name", False)},
    "plan_recovery": {
        "transfer": ("label:transfer", True),
        "amount": ("int", True),
        "expect": ("targets", False),
    },
    "advance": {},
    "assert": {
        "kind": ("name", True),
        "account": ("name", False),
        "pool": ("pool", False),
        "book": ("book", False),
        "bid": ("ref:bid", False),
        "settled": ("int", False),
        "unsettled": ("int", False),
        "amount": ("int", False),
        "value": ("int", False),
        "total": ("int", False),
        "lp_supply": ("int", False),
        "status": ("status", False),
    },
}

ASSERT_KINDS: dict[str, tuple[set[str], set[str]]] = {
    # kind -> (required params, optional comparison params; at least one
    # comparison must be present)
    "balance": ({"account"}, {"settled", "unsettled"}),
    "base": ({"account", "amount"}, set()),
    "nonce": ({"account", "value"}, set()),
    "pool": ({"pool"}, {"settled", "unsettled", "total", "lp_supply"}),
    "lp": ({"pool", "account", "amount"}, set()),
    "bid": ({"book", "bid", "status"}, set()),
}

#: actions on which expect_error is meaningless and rejected
NO_EXPECT_ERROR = {"advance", "assert"}

#: Header directive fields: name -> (type, required), from the same types
#: as steps.  Config fields name :class:`ScenarioScript` attributes; account,
#: signer and pool fields name :class:`GenesisAccount`, :class:`SignerSpec`
#: and :class:`PoolSpec` fields.
DIRECTIVE_FIELDS: dict[str, dict[str, tuple[str, bool]]] = {
    "config": {"window": ("int", False), "arbitrator": ("name", False)},
    "account": {"base": ("int", False), "settled": ("int", False)},
    "signer": {
        "model": ("model", True),
        "rate": ("rate", False),
        "authorized": ("bool", False),
    },
    "pool": {
        "kappa_ppm": ("int", True),
        "risk_lo_ppm": ("int", False),
        "risk_hi_ppm": ("int", False),
        "min_quorum": ("int", False),
        "min_lp_deposit": ("int", False),
        "rate_cap_ppm": ("int", False),
    },
}

#: The one pair of directives that may declare the same name: a signer is
#: also a ledger account (rating entities must be LPs).
SHARED_NAME = {"account", "signer"}

#: Step parameters by field name; each value has the Python type its
#: ACTION_SPECS type parses to (int, str, bool, list).
Params = dict[str, Any]

#: A schema with each field's type split once: name -> (parser, the part of
#: the type after its last colon, or the whole type without one, required).
_Rows = dict[str, tuple[Callable[..., Any], str, bool]]


class ParseError(Exception):
    """Scenario text rejected; carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.reason = message


def _error_at(message: str, line_no: int, line: str, at: int) -> ParseError:
    """The error at token ``at`` of line ``line_no``, whose text is ``line``:
    0 is the directive, 1 a declared name or a step's time, 2 a step's
    action.  The token's column counts code points from 1."""
    code = line.partition("#")[0]
    end = 0
    for token in code.split()[: at + 1]:
        end = code.index(token, end) + len(token)
    return ParseError(message, line_no, end - len(token) + 1)


class GenesisAccount(NamedTuple):
    name: str
    base: int = 0
    settled: int = 0


class SignerSpec(NamedTuple):
    name: str
    model: str  # constant | taint
    rate: int = PPM  # ppm
    authorized: bool = True


class PoolSpec(NamedTuple):
    name: str
    kappa_ppm: int
    risk_lo_ppm: int = 0
    risk_hi_ppm: int = PPM
    min_quorum: int = 1
    min_lp_deposit: int = 1
    rate_cap_ppm: int = DEFAULT_RATE_CAP_PPM


class Step(NamedTuple):
    time: int
    action: str
    params: Params
    expect_error: str | None = None


class ScenarioScript:
    """A parsed scenario: its config values and its lines, each kind in
    file order.  The parser fills it; config fields are set by name.

    ``declared_at`` maps each ``(directive, name)`` declaration to its line
    number and text.  It says where the script came from, not what it
    says, so ``==`` compares the :attr:`COMPARED` fields only and a script
    equals its canonical form."""

    COMPARED = ("window", "arbitrator", "accounts", "signers", "pools", "books", "steps")
    __slots__ = (*COMPARED, "declared_at")

    def __init__(self) -> None:
        self.window = DEFAULT_WINDOW
        self.arbitrator = DEFAULT_ARBITRATOR
        self.accounts: list[GenesisAccount] = []
        self.signers: list[SignerSpec] = []
        self.pools: list[PoolSpec] = []
        self.books: list[str] = []
        self.steps: list[Step] = []
        self.declared_at: dict[tuple[str, str], tuple[int, str]] = {}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.COMPARED)

    def refusal(self, directive: str, name: str, reason: str) -> ParseError:
        """The error for a declaration the world refused: at the ``key=``
        field the reason's first word names, else at the declared name."""
        line_no, line = self.declared_at[directive, name]
        field = reason.partition(" ")[0] + "="
        tokens = line.partition("#")[0].split()
        at = next((n for n, token in enumerate(tokens) if token.startswith(field)), 1)
        return _error_at(reason, line_no, line, at)


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.script = ScenarioScript()
        self.saw_config = False
        #: name -> the directives that declared it, in line order
        self.declared: dict[str, list[str]] = {}
        self.labels: dict[str, str] = {}  # label -> kind (report/transfer/bid)
        self.last_time: int | None = None
        self.line_no = 0
        self.line = ""

    def fail(self, message: str, at: int = 0) -> ParseError:
        """The error at the current line's token ``at`` (see :func:`_error_at`)."""
        return _error_at(message, self.line_no, self.line, at)

    # -- field types ---------------------------------------------------------
    # Each parser takes the field's key, token index and text, and the part
    # of its type after any colon (the label kind, or the action of
    # expect_error), or else the type itself.

    def parse_int(self, key: str, at: int, value: str, of: str = "int") -> int:
        # an INT is ASCII digits: isdigit() alone also takes '²' and '٣'
        if not (value.isascii() and value.isdigit()):
            raise self.fail(f"{key} must be a non-negative integer, got {value!r}", at)
        number = int(value)
        if number >= INT_LIMIT:
            raise self.fail(f"{key} must be below 2**63, got {value}", at)
        return number

    def parse_name(self, key: str, at: int, value: str, of: str = "name") -> str:
        if not _NAME_RE.fullmatch(value):
            raise self.fail(f"{key} must be a name, got {value!r}", at)
        return value

    def parse_declared(self, key: str, at: int, value: str, directive: str) -> str:
        name = self.parse_name(key, at, value)
        if directive not in self.declared.get(name, ()):
            raise self.fail(f"{name!r} is not a declared {directive}", at)
        return name

    def parse_label(self, key: str, at: int, value: str, kind: str) -> str:
        label = self.parse_name(key, at, value)
        if self.labels.get(label) != kind:
            raise self.fail(f"{label!r} does not label an earlier {kind}", at)
        return label

    def parse_labels(self, key: str, at: int, value: str, kind: str) -> list[str]:
        return [self.parse_label(key, at, part, kind) for part in value.split(",")]

    def parse_ref(self, key: str, at: int, value: str, kind: str) -> int | str:
        # an integer ref is an id, checked at run time
        if value.isascii() and value.isdigit():
            return self.parse_int(key, at, value)
        return self.parse_label(key, at, value, kind)

    def parse_rate_field(self, key: str, at: int, value: str, of: str) -> int:
        try:
            return parse_rate(value)
        except ValueError as exc:
            raise self.fail(f"{key}: {exc}", at) from None

    def parse_bool(self, key: str, at: int, value: str, of: str) -> bool:
        if value not in ("true", "false"):
            raise self.fail(f"{key} must be true or false, got {value!r}", at)
        return value == "true"

    def parse_targets(self, key: str, at: int, value: str, of: str) -> list[list[Any]]:
        targets = []
        for part in value.split(","):
            if ":" not in part:
                raise self.fail(f"{key} entries are name:amount, got {part!r}", at)
            name, amount = part.rsplit(":", 1)
            if not _NAME_RE.fullmatch(name) or not (amount.isascii() and amount.isdigit()):
                raise self.fail(f"{key} entries are name:amount, got {part!r}", at)
            targets.append([name, self.parse_int(key, at, amount)])
        return targets

    def parse_status(self, key: str, at: int, value: str, of: str) -> str:
        if value not in BID_STATUSES:
            raise self.fail(f"status must be one of {BID_STATUSES}", at)
        return value

    def parse_model(self, key: str, at: int, value: str, of: str) -> str:
        if value not in SIGNER_MODELS:
            raise self.fail(f"signer model must be constant or taint, got {value!r}", at)
        return value

    def parse_error_name(self, key: str, at: int, value: str, action: str) -> str:
        if action in NO_EXPECT_ERROR:
            raise self.fail(f"expect_error is not allowed on {action!r}", at)
        if value not in ERRORS_BY_NAME:
            raise self.fail(f"unknown error name {value!r}", at)
        return value

    #: field type (the part before any ":") -> parser
    KINDS: dict[str, Callable[[_Parser, str, int, str, str], Any]] = {
        "int": parse_int,
        "name": parse_name,
        "rate": parse_rate_field,
        "bool": parse_bool,
        "as": parse_name,
        "label": parse_label,
        "labels": parse_labels,
        "targets": parse_targets,
        "ref": parse_ref,
        "status": parse_status,
        "model": parse_model,
        "error": parse_error_name,
        "pool": parse_declared,
        "book": parse_declared,
        "signer": parse_declared,
    }

    def fields(
        self,
        rows: _Rows,
        tokens: list[str],
        at: int,
        unknown: str,
        missing: str,
    ) -> Params:
        """Typed values of the ``key=value`` tokens after token ``at``.
        ``unknown`` and ``missing`` are the error texts for a field outside
        ``rows`` and for an absent required one (reported at token ``at``),
        with ``{}`` for the key."""
        values: Params = {}
        for i, token in enumerate(tokens[at + 1 :], at + 1):
            key, eq, value = token.partition("=")
            if not eq:
                raise self.fail(f"expected key=value, got {token!r}", i)
            if key in values:
                raise self.fail(f"duplicate field {key!r}", i)
            if key not in rows:
                raise self.fail(unknown.format(repr(key)), i)
            parser, of, _ = rows[key]
            values[key] = parser(self, key, i, value, of)
        if len(values) < len(rows):
            for key, (_, _, required) in rows.items():
                if required and key not in values:
                    raise self.fail(missing.format(key), at)
        return values

    # -- directives ----------------------------------------------------------
    # Each handler takes the line's tokens, its directive first.

    def handle_config(self, tokens: list[str]) -> None:
        if self.saw_config:
            raise self.fail("duplicate config directive")
        if self.script.steps:
            raise self.fail("config must precede all steps")
        self.saw_config = True
        values = self.fields(_DIRECTIVE_ROWS["config"], tokens, 0, "unknown config field {}", "")
        for key, value in values.items():
            setattr(self.script, key, value)

    def declare(self, directive: str, tokens: list[str]) -> str:
        """Declare the name a declaring line gives after its directive, and
        record the line that declares it."""
        if len(tokens) < 2:
            raise self.fail(f"{directive} needs a name")
        name = self.parse_name(directive, 1, tokens[1])
        seen = self.declared.setdefault(name, [])
        if seen and (directive in seen or {directive, *seen} != SHARED_NAME):
            raise self.fail(f"{name!r} already declared as {seen[0]}", 1)
        seen.append(directive)
        self.script.declared_at[directive, name] = (self.line_no, self.line)
        return name

    def named_directive(
        self, directive: str, tokens: list[str], hint: str = ""
    ) -> tuple[str, Params]:
        """(name, typed fields) of an account/signer/pool line; a missing
        required field's error ends with ``hint``."""
        name = self.declare(directive, tokens)
        values = self.fields(
            _DIRECTIVE_ROWS[directive],
            tokens,
            1,
            f"unknown {directive} field {{}}",
            f"{directive} {name} needs {{}}{hint}",
        )
        return name, values

    def handle_account(self, tokens: list[str]) -> None:
        name, values = self.named_directive("account", tokens)
        self.script.accounts.append(GenesisAccount(name, **values))

    def handle_signer(self, tokens: list[str]) -> None:
        name, values = self.named_directive("signer", tokens, "=" + "|".join(SIGNER_MODELS))
        self.script.signers.append(SignerSpec(name, **values))

    def handle_pool(self, tokens: list[str]) -> None:
        name, values = self.named_directive("pool", tokens)
        self.script.pools.append(PoolSpec(name=name, **values))

    def handle_book(self, tokens: list[str]) -> None:
        if len(tokens) != 2:
            raise self.fail("book takes exactly one name")
        self.script.books.append(self.declare("book", tokens))

    # -- steps -----------------------------------------------------------------

    def handle_step(self, tokens: list[str]) -> None:
        if len(tokens) < 3:
            raise self.fail("step syntax is: at <time> <action> [key=value ...]")
        time = self.parse_int("time", 1, tokens[1])
        if self.last_time is not None and time < self.last_time:
            raise self.fail(f"time {time} decreases (previous step at {self.last_time})", 1)
        self.last_time = time
        action = tokens[2]
        if action not in ACTION_SPECS:
            raise self.fail(f"unknown action {action!r}", 2)
        params = self.fields(
            _STEP_ROWS[action],
            tokens,
            2,
            f"unknown field {{}} for {action}",
            f"{action} requires {{}}=",
        )
        expect_error = params.pop("expect_error", None)
        self.check_step_semantics(action, params, 2)
        self.script.steps.append(Step(time, action, params, expect_error))

    def check_step_semantics(self, action: str, params: Params, at: int) -> None:
        """The rules that span fields; each field was checked as it parsed."""
        if action == "freeze":
            by_targets = "targets" in params
            by_plan = "transfer" in params or "amount" in params
            if by_targets == by_plan:
                raise self.fail("freeze takes either targets= or transfer=+amount=", at)
            if by_plan and not ("transfer" in params and "amount" in params):
                raise self.fail("freeze by plan needs both transfer= and amount=", at)

        if action == "assert":
            kind = params["kind"]
            if kind not in ASSERT_KINDS:
                raise self.fail(f"unknown assert kind {kind!r}", at)
            required, comparisons = ASSERT_KINDS[kind]
            allowed = required | comparisons | {"kind"}
            for key in params:
                if key not in allowed:
                    raise self.fail(f"assert {kind} does not take {key}=", at)
            for key in required:
                if key not in params:
                    raise self.fail(f"assert {kind} requires {key}=", at)
            if comparisons and not (comparisons & params.keys()):
                raise self.fail(f"assert {kind} needs at least one of {sorted(comparisons)}", at)

        if "as" in params:
            label = params["as"]
            if label in self.labels:
                raise self.fail(f"label {label!r} already used", at)
            self.labels[label] = _STEP_ROWS[action]["as"][1]

    # -- driver -------------------------------------------------------------

    DIRECTIVES: dict[str, Callable[[_Parser, list[str]], None]] = {
        "config": handle_config,
        "account": handle_account,
        "signer": handle_signer,
        "pool": handle_pool,
        "book": handle_book,
        "at": handle_step,
    }

    def parse(self) -> ScenarioScript:
        for self.line_no, self.line in enumerate(self.text.split("\n"), start=1):
            tokens = self.line.partition("#")[0].split()
            if not tokens:
                continue
            handler = self.DIRECTIVES.get(tokens[0])
            if handler is None:
                raise self.fail(f"unknown directive {tokens[0]!r}")
            handler(self, tokens)
        return self.script


@cache  # one row per distinct (type, required), shared by every schema
def _row(kind: str, required: bool) -> tuple[Callable[..., Any], str, bool]:
    return _Parser.KINDS[kind.partition(":")[0]], kind.rpartition(":")[2], required


def _rows(schema: dict[str, tuple[str, bool]]) -> _Rows:
    return {key: _row(*row) for key, row in schema.items()}


#: Each action's rows plus ``expect_error``, whose type carries the action
#: so that the parser can refuse it on the actions in NO_EXPECT_ERROR.
_STEP_ROWS = {
    action: _rows({**spec, "expect_error": (f"error:{action}", False)})
    for action, spec in ACTION_SPECS.items()
}
_DIRECTIVE_ROWS = {directive: _rows(schema) for directive, schema in DIRECTIVE_FIELDS.items()}


def parse_scenario(text: str) -> ScenarioScript:
    """Parse scenario text; raises :class:`ParseError` with line/column."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# canonical formatting
# ---------------------------------------------------------------------------

_FORMATTERS: dict[str, Callable[[Any], str]] = {
    "rate": format_rate,
    "bool": lambda value: "true" if value else "false",
    "labels": ",".join,
    "targets": lambda value: ",".join(f"{name}:{amount}" for name, amount in value),
}


def format_value(kind: str, value: Any) -> str:
    """Canonical text of a field value of the given spec type."""
    return _FORMATTERS.get(kind.partition(":")[0], str)(value)


def format_scenario(script: ScenarioScript) -> str:
    """Render a script in canonical form: normalized spacing, schema-ordered
    fields, defaults made explicit for pools, comments dropped."""
    lines = [f"config window={script.window} arbitrator={script.arbitrator}", ""]
    for acct in script.accounts:
        parts = [f"account {acct.name}"]
        if acct.base:
            parts.append(f"base={acct.base}")
        if acct.settled:
            parts.append(f"settled={acct.settled}")
        lines.append(" ".join(parts))
    if script.accounts:
        lines.append("")
    for signer in script.signers:
        line = (
            f"signer {signer.name} model={signer.model} "
            f"rate={format_rate(signer.rate)}"
        )
        if not signer.authorized:
            line += " authorized=false"
        lines.append(line)
    if script.signers:
        lines.append("")
    for pool in script.pools:
        fields = " ".join(f"{key}={getattr(pool, key)}" for key in DIRECTIVE_FIELDS["pool"])
        lines.append(f"pool {pool.name} {fields}")
    if script.pools:
        lines.append("")
    for book in script.books:
        lines.append(f"book {book}")
    if script.books:
        lines.append("")
    for step in script.steps:
        parts = [f"at {step.time} {step.action}"]
        for key, (kind, _) in ACTION_SPECS[step.action].items():
            if key in step.params:
                parts.append(f"{key}={format_value(kind, step.params[key])}")
        if step.expect_error:
            parts.append(f"expect_error={step.expect_error}")
        lines.append(" ".join(parts))
    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines) + "\n"
