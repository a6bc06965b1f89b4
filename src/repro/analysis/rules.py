"""The static rule catalogue: AST checks for RCCE/simulator programs.

Conventions the checks rely on (followed by every shipped UE program):
the communicator parameter is named ``comm``, communication goes through
``comm.<method>(...)`` and UE bodies are generator functions driven with
``yield from``.  Rules are deliberately conservative — a tag or rank
expression that is not a literal is never guessed at — so the linter is
quiet on correct code and precise on the classic SPMD bugs.

The catalogue is extensible: decorate a checker with :func:`rule` (or
call :func:`register_rule`) and it participates in every lint run.  A
checker receives a :class:`ModuleContext` and yields ``(node, message)``
pairs; the registry attaches rule id/severity/hint.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..rcce.collectives import RESERVED_TAG_BASE
from ..rcce.comm_meta import COLLECTIVE_METHODS, COMM_GEN_METHODS
from ..rcce.mpb import MPB_BYTES_PER_CORE
from .findings import Finding, Severity

__all__ = [
    "Rule",
    "ModuleContext",
    "rule",
    "register_rule",
    "all_rules",
    "get_rule",
    "run_rules",
    "COMM_GEN_METHODS",
    "COLLECTIVE_METHODS",
]

#: wall-clock sources that break simulated-time determinism.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "date.today",
        "datetime.date.today",
    }
)

#: legacy/global RNG entry points (unseeded, process-global state).
_NP_LEGACY_RANDOM = frozenset(
    {
        "rand",
        "randn",
        "random",
        "random_sample",
        "randint",
        "uniform",
        "normal",
        "choice",
        "shuffle",
        "permutation",
        "poisson",
        "exponential",
    }
)
_STDLIB_RANDOM = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "uniform",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "gauss",
        "normalvariate",
        "expovariate",
        "betavariate",
    }
)

RuleCheck = Callable[["ModuleContext"], Iterator[Tuple[ast.AST, str]]]


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    id: str
    name: str
    severity: Severity
    summary: str
    hint: str
    check: RuleCheck = field(repr=False)


_REGISTRY: Dict[str, Rule] = {}


def register_rule(r: Rule) -> Rule:
    """Add a rule to the catalogue (id must be unique)."""
    if r.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {r.id!r}")
    _REGISTRY[r.id] = r
    return r


def rule(id: str, name: str, severity: Severity, summary: str, hint: str) -> Callable[[RuleCheck], RuleCheck]:
    """Decorator form of :func:`register_rule` for checker functions."""

    def wrap(fn: RuleCheck) -> RuleCheck:
        register_rule(Rule(id, name, severity, summary, hint, fn))
        return fn

    return wrap


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by id."""
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """Look up one rule (KeyError names the unknown id)."""
    if rule_id not in _REGISTRY:
        raise KeyError(f"unknown rule {rule_id!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[rule_id]


class ModuleContext:
    """One parsed source file handed to every rule."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree

    def comm_functions(self) -> List[ast.FunctionDef]:
        """Functions with a parameter named ``comm`` — simulated code."""
        out = []
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [a.arg for a in node.args.args + node.args.kwonlyargs]
                if "comm" in names:
                    out.append(node)
        return out


def run_rules(ctx: ModuleContext, rules: Optional[List[Rule]] = None) -> List[Finding]:
    """Apply rules to one module; returns the findings."""
    findings: List[Finding] = []
    for r in rules if rules is not None else all_rules():
        for node, message in r.check(ctx):
            col_off = getattr(node, "col_offset", None)
            end_col_off = getattr(node, "end_col_offset", None)
            findings.append(
                Finding(
                    rule=r.id,
                    severity=r.severity,
                    message=message,
                    path=ctx.path,
                    line=getattr(node, "lineno", 0) or 0,
                    hint=r.hint,
                    col=0 if col_off is None else int(col_off) + 1,
                    end_line=getattr(node, "end_lineno", 0) or 0,
                    end_col=0 if end_col_off is None else int(end_col_off) + 1,
                )
            )
    return findings


# --------------------------------------------------------------------------
# AST helpers
# --------------------------------------------------------------------------


def _comm_call(node: ast.AST) -> Optional[str]:
    """Method name when ``node`` is a ``comm.<method>(...)`` call."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "comm"
    ):
        return node.func.attr
    return None


def _literal_int(node: Optional[ast.AST]) -> Optional[int]:
    """Integer value of a literal (handles unary minus), else None."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, int) and not isinstance(node.value, bool):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _literal_int(node.operand)
        return -inner if inner is not None else None
    return None


def _call_arg(call: ast.Call, index: int, keyword: str) -> Optional[ast.AST]:
    """Positional-or-keyword argument of a call, or None if omitted."""
    if len(call.args) > index:
        return call.args[index]
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    return None


def _send_tag(call: ast.Call) -> Tuple[Optional[int], bool]:
    """(literal tag, is_dynamic) of a ``comm.send(data, dest, tag)`` call."""
    node = _call_arg(call, 2, "tag")
    if node is None:
        return 0, False  # tag defaults to 0
    lit = _literal_int(node)
    return (lit, lit is None)


def _recv_tag(call: ast.Call) -> Tuple[Optional[int], bool]:
    """(literal tag, is_dynamic); None literal means wildcard."""
    node = _call_arg(call, 1, "tag")
    if node is None or (isinstance(node, ast.Constant) and node.value is None):
        return None, False  # wildcard
    lit = _literal_int(node)
    return (lit, lit is None)


def _mentions_comm_ue(node: ast.AST) -> bool:
    """True when the expression reads ``comm.ue`` (rank-dependent)."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and sub.attr == "ue"
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "comm"
        ):
            return True
    return False


def _func_dotted_name(func: ast.AST) -> str:
    """``a.b.c`` rendering of a call target (empty for exotic targets)."""
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _static_payload_bytes(node: ast.AST) -> Optional[int]:
    """Wire size of a payload expression when statically computable."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (bytes, bytearray)):
        return len(node.value)
    if isinstance(node, ast.Call):
        name = _func_dotted_name(node.func)
        short = name.split(".")[-1]
        if short in ("zeros", "ones", "empty", "full") and name.split(".")[0] in ("np", "numpy"):
            n = _literal_int(node.args[0]) if node.args else None
            return n * 8 if n is not None else None  # float64 default dtype
        if name in ("bytes", "bytearray"):
            n = _literal_int(node.args[0]) if node.args else None
            return n
    return None


# --------------------------------------------------------------------------
# RCCE protocol rules
# --------------------------------------------------------------------------


@rule(
    "RCCE101",
    "unmatched-tag",
    Severity.ERROR,
    "send/recv (peer, tag) pairs that cannot match across ranks",
    "make the send and recv tags agree (or recv with tag=None to match any)",
)
def check_unmatched_tag(ctx: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
    """Within one SPMD function, a literal send tag with no literal or
    wildcard recv tag that could match it (and vice versa) deadlocks:
    every rank runs the same code, so the other side must appear."""
    for fn in ctx.comm_functions():
        sends: List[Tuple[ast.Call, Optional[int], bool]] = []
        recvs: List[Tuple[ast.Call, Optional[int], bool]] = []
        for node in ast.walk(fn):
            method = _comm_call(node)
            if method == "send":
                tag, dyn = _send_tag(node)  # type: ignore[arg-type]
                sends.append((node, tag, dyn))  # type: ignore[arg-type]
            elif method == "recv":
                tag, dyn = _recv_tag(node)  # type: ignore[arg-type]
                recvs.append((node, tag, dyn))  # type: ignore[arg-type]
        if not sends or not recvs:
            continue  # producer-only/consumer-only helpers: out of scope
        recv_wild = any(tag is None and not dyn for _, tag, dyn in recvs)
        recv_dyn = any(dyn for _, _, dyn in recvs)
        send_dyn = any(dyn for _, _, dyn in sends)
        recv_tags = {tag for _, tag, dyn in recvs if tag is not None}
        send_tags = {tag for _, tag, dyn in sends if tag is not None}
        if not recv_wild and not recv_dyn:
            for node, tag, dyn in sends:
                if not dyn and tag not in recv_tags:
                    yield node, (
                        f"send with tag={tag} has no matching recv in this SPMD "
                        f"function (recv tags: {sorted(recv_tags)})"
                    )
        if not send_dyn:
            for node, tag, dyn in recvs:
                if tag is not None and not dyn and tag not in send_tags:
                    yield node, (
                        f"recv with tag={tag} has no matching send in this SPMD "
                        f"function (send tags: {sorted(send_tags)})"
                    )


@rule(
    "RCCE102",
    "self-send",
    Severity.ERROR,
    "send addressed to the sender's own rank",
    "rendezvous send-to-self never completes; address a different rank",
)
def check_self_send(ctx: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
    for fn in ctx.comm_functions():
        for node in ast.walk(fn):
            if _comm_call(node) == "send":
                dest = _call_arg(node, 1, "dest")  # type: ignore[arg-type]
                if (
                    isinstance(dest, ast.Attribute)
                    and dest.attr == "ue"
                    and isinstance(dest.value, ast.Name)
                    and dest.value.id == "comm"
                ):
                    yield node, "send to comm.ue blocks forever under rendezvous semantics"


@rule(
    "RCCE103",
    "reserved-tag",
    Severity.ERROR,
    "user message tag in the reserved or negative range",
    f"user tags must satisfy 0 <= tag < {RESERVED_TAG_BASE} (collectives own the rest)",
)
def check_reserved_tag(ctx: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
    for fn in ctx.comm_functions():
        for node in ast.walk(fn):
            method = _comm_call(node)
            if method == "send":
                tag, _dyn = _send_tag(node)  # type: ignore[arg-type]
            elif method == "recv":
                tag, _dyn = _recv_tag(node)  # type: ignore[arg-type]
            else:
                continue
            if tag is not None and (tag < 0 or tag >= RESERVED_TAG_BASE):
                yield node, (
                    f"tag {tag} is outside the user range "
                    f"[0, {RESERVED_TAG_BASE}): it collides with the "
                    f"collective tag space or is rejected at runtime"
                )


@rule(
    "RCCE110",
    "rank-dependent-collective",
    Severity.ERROR,
    "collective invoked under a rank-dependent branch",
    "collectives must be entered by every rank; hoist the call out of the "
    "comm.ue branch",
)
def check_rank_dependent_collective(ctx: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
    seen: set[int] = set()
    for fn in ctx.comm_functions():
        for branch in ast.walk(fn):
            if not isinstance(branch, (ast.If, ast.While)):
                continue
            if not _mentions_comm_ue(branch.test):
                continue
            for node in ast.walk(branch):
                method = _comm_call(node)
                if method in COLLECTIVE_METHODS and id(node) not in seen:
                    seen.add(id(node))
                    yield node, (
                        f"comm.{method}() under a branch on comm.ue: ranks that "
                        f"skip the branch never enter the collective (classic "
                        f"SPMD deadlock)"
                    )


@rule(
    "RCCE120",
    "oversized-mpb-payload",
    Severity.ERROR,
    f"payload larger than MPB_BYTES_PER_CORE ({MPB_BYTES_PER_CORE} B) on a "
    "non-chunked path",
    "one-sided put/write cannot exceed the 8 KB per-core MPB; chunk the "
    "transfer or use comm.send (which chunks automatically)",
)
def check_oversized_mpb_payload(ctx: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr == "put" and len(node.args) >= 4:
            payload = node.args[3]
        elif node.func.attr == "write" and len(node.args) == 2:
            payload = node.args[1]
        else:
            continue
        nbytes = _static_payload_bytes(payload)
        if nbytes is not None and nbytes > MPB_BYTES_PER_CORE:
            yield node, (
                f"payload of {nbytes} B exceeds the {MPB_BYTES_PER_CORE} B "
                f"per-core MPB on a non-chunked path"
            )


# --------------------------------------------------------------------------
# Determinism rules
# --------------------------------------------------------------------------


@rule(
    "DET201",
    "wall-clock-time",
    Severity.ERROR,
    "wall-clock time consulted inside simulated code",
    "use comm.wtime() — simulated time — instead of the host clock",
)
def check_wall_clock(ctx: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
    for fn in ctx.comm_functions():
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = _func_dotted_name(node.func)
                if name in WALL_CLOCK_CALLS:
                    yield node, (
                        f"{name}() reads the host clock; two runs of the same "
                        f"simulation would diverge"
                    )


@rule(
    "DET202",
    "unseeded-random",
    Severity.ERROR,
    "unseeded or global-state randomness inside simulated code",
    "pass an explicit seed (np.random.default_rng(seed)) created outside "
    "the UE function",
)
def check_unseeded_random(ctx: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
    for fn in ctx.comm_functions():
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            name = _func_dotted_name(node.func)
            parts = name.split(".")
            if name in ("np.random.default_rng", "numpy.random.default_rng"):
                if not node.args and not node.keywords:
                    yield node, "default_rng() without a seed is nondeterministic"
            elif (
                len(parts) == 3
                and parts[0] in ("np", "numpy")
                and parts[1] == "random"
                and parts[2] in _NP_LEGACY_RANDOM
            ):
                yield node, f"{name}() uses NumPy's process-global RNG state"
            elif len(parts) == 2 and parts[0] == "random" and parts[1] in _STDLIB_RANDOM:
                yield node, f"{name}() uses the stdlib's process-global RNG state"


@rule(
    "DET203",
    "mutable-default",
    Severity.ERROR,
    "mutable default argument on a simulated function",
    "default to None and create the object inside the function body",
)
def check_mutable_default(ctx: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
    mutable_ctors = frozenset({"list", "dict", "set", "bytearray", "deque", "defaultdict"})
    np_ctors = frozenset({"zeros", "ones", "empty", "full", "array"})
    for fn in ctx.comm_functions():
        defaults = list(fn.args.defaults) + [d for d in fn.args.kw_defaults if d is not None]
        for d in defaults:
            bad = isinstance(d, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp))
            if not bad and isinstance(d, ast.Call):
                name = _func_dotted_name(d.func)
                short = name.split(".")[-1]
                bad = name in mutable_ctors or (
                    short in np_ctors and name.split(".")[0] in ("np", "numpy")
                )
            if bad:
                yield d, (
                    f"function {fn.name!r} has a mutable default evaluated once "
                    f"per process: state leaks across UEs and runs"
                )


# --------------------------------------------------------------------------
# Yield-protocol rules
# --------------------------------------------------------------------------


@rule(
    "SIM301",
    "discarded-comm-generator",
    Severity.ERROR,
    "communication call whose generator is never driven",
    "prefix the call with `yield from` so the simulator executes it",
)
def check_discarded_comm_generator(ctx: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
    for fn in ctx.comm_functions():
        for node in ast.walk(fn):
            if isinstance(node, ast.Expr):
                method = _comm_call(node.value)
                if method in COMM_GEN_METHODS:
                    yield node, (
                        f"comm.{method}(...) builds a generator that is "
                        f"discarded — the operation silently never happens"
                    )


@rule(
    "SIM302",
    "yield-non-event",
    Severity.ERROR,
    "yielding something that is not a SimEvent",
    "UE processes may only `yield` SimEvents; drive communicator "
    "generators with `yield from`",
)
def check_yield_non_event(ctx: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
    for fn in ctx.comm_functions():
        for node in ast.walk(fn):
            if not isinstance(node, ast.Yield):
                continue
            if node.value is None:
                yield node, "bare `yield` delivers None to the engine, not a SimEvent"
                continue
            method = _comm_call(node.value)
            if method in COMM_GEN_METHODS:
                yield node, (
                    f"`yield comm.{method}(...)` hands the engine a generator, "
                    f"not a SimEvent — use `yield from`"
                )
            elif isinstance(node.value, ast.Constant):
                yield node, (
                    f"`yield {ast.unparse(node.value)}` is not a SimEvent; the "
                    f"engine will raise at runtime"
                )
