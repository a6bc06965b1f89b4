"""``repro check`` driver: run programs under the dynamic checkers.

Two modes:

- **battery** (default): boots a set of built-in representative RCCE
  programs — the same communication shapes the shipped examples use
  (ring allgather, collective rounds, one-sided flag synchronization)
  — with a :class:`~repro.analysis.runtime_checks.RuntimeChecker`
  attached and determinism replay on, and reports every finding.

- **program**: load ``path.py:function`` and drive it the same way, so
  a suspect UE program can be checked in isolation (this is how the
  test fixtures demonstrate each runtime checker).  ``repro check
  --ues MIN:MAX`` runs it once per core count; over ``2:48`` that
  covers every job size the SCC can boot.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List, Optional, Sequence, Tuple

import numpy as np

from ..rcce.errors import RCCEDeadlockError, RCCEError
from ..scc.chip import CONF0
from ..sim import ProcessFailure, SimulationError
from .determinism import verify_program_determinism
from .findings import Finding, Severity
from .runtime_checks import RuntimeChecker

__all__ = ["CheckResult", "run_checked", "check_battery", "load_program"]


@dataclass
class CheckResult:
    """Findings and status of one checked program."""

    name: str
    n_ues: int
    findings: List[Finding] = field(default_factory=list)
    completed: bool = False
    deterministic: Optional[bool] = None

    @property
    def ok(self) -> bool:
        return (
            self.completed
            and self.deterministic is not False
            and not any(f.severity is Severity.ERROR for f in self.findings)
        )


# --------------------------------------------------------------------------
# Built-in battery programs (mirror the shipped examples' shapes)
# --------------------------------------------------------------------------


def _ring_allgather(comm: Any) -> Generator[Any, Any, float]:
    """Even/odd staggered ring exchange + barrier (rcce_programming.py)."""
    payload = np.full(64, float(comm.ue))
    right = (comm.ue + 1) % comm.num_ues
    left = (comm.ue - 1) % comm.num_ues
    current = payload
    for _step in range(comm.num_ues - 1):
        if comm.ue % 2 == 0:
            yield from comm.send(current, right)
            current = yield from comm.recv(left)
        else:
            incoming = yield from comm.recv(left)
            yield from comm.send(current, right)
            current = incoming
    yield from comm.barrier()
    return comm.wtime()


def _collective_round(comm: Any) -> Generator[Any, Any, float]:
    """One of each collective in a fixed order (cg/pagerank shape)."""
    total = yield from comm.allreduce(float(comm.ue))
    data = np.full(32, total) if comm.ue == 0 else None
    data = yield from comm.bcast(data, root=0)
    partial = yield from comm.reduce(float(data[0]), root=0)
    blocks = yield from comm.gather(np.full(8, float(comm.ue)), root=0)
    yield from comm.compute(1e-6 * (1 if blocks is None else 2))
    yield from comm.barrier()
    return float(0.0 if partial is None else partial)


def _flag_handshake(comm: Any) -> Generator[Any, Any, int]:
    """One-sided put/flag/get pairs (onesided layer shape)."""
    from ..rcce.onesided import OneSided

    rt = comm._rt
    onesided = getattr(rt, "_check_onesided", None)
    if onesided is None:
        onesided = OneSided(rt)
        rt._check_onesided = onesided
    partner = comm.ue ^ 1
    if partner >= comm.num_ues:
        yield from comm.barrier()
        return 0
    if comm.ue < partner:
        yield from onesided.put(comm.ue, partner, 0, np.full(16, float(comm.ue)))
        yield from onesided.set_flag(comm.ue, partner, flag_id=0)
    else:
        yield from onesided.wait_flag(comm.ue, flag_id=0)
        payload = yield from onesided.get(comm.ue, comm.ue, 0)
        assert payload.shape == (16,)
    yield from comm.barrier()
    return 1


BATTERY: List[Tuple[str, Callable[..., Any], int]] = [
    ("ring-allgather", _ring_allgather, 8),
    ("collective-round", _collective_round, 6),
    ("onesided-flag-handshake", _flag_handshake, 4),
]


# --------------------------------------------------------------------------
# Checked execution
# --------------------------------------------------------------------------


def run_checked(
    name: str,
    fn: Callable[..., Any],
    n_ues: int,
    args_factory: Optional[Callable[[], Sequence[Any]]] = None,
    verify_determinism: bool = True,
) -> CheckResult:
    """Run one UE program with the runtime checkers attached."""
    from ..core.mapping import distance_reduction_mapping
    from ..rcce.runtime import RCCERuntime

    result = CheckResult(name=name, n_ues=n_ues)
    checker = RuntimeChecker()
    rt = RCCERuntime(distance_reduction_mapping(n_ues), config=CONF0, checker=checker)
    extra = list(args_factory()) if args_factory is not None else []
    try:
        rt.run(fn, *extra)
        result.completed = True
    except RCCEDeadlockError:
        # the checker's on_deadlock hook already recorded RT801
        result.completed = False
    except (RCCEError, ProcessFailure, SimulationError) as exc:
        result.findings.append(
            Finding(
                rule="RT800",
                severity=Severity.ERROR,
                message=f"program {name!r} crashed: {exc}",
                hint="fix the raised protocol error",
            )
        )
    result.findings.extend(checker.findings)

    if verify_determinism and result.completed:
        report = verify_program_determinism(fn, n_ues, args_factory=args_factory)
        result.deterministic = report.deterministic
        result.findings.extend(report.findings)
    return result


def check_battery(verify_determinism: bool = True) -> List[CheckResult]:
    """Run every built-in battery program under the checkers."""
    return [
        run_checked(name, fn, n_ues, verify_determinism=verify_determinism)
        for name, fn, n_ues in BATTERY
    ]


def load_program(spec: str) -> Tuple[str, Callable[..., Any]]:
    """Resolve ``path/to/file.py:function`` into a callable."""
    if ":" not in spec:
        raise ValueError(f"program spec must be 'file.py:function', got {spec!r}")
    path, _, func_name = spec.rpartition(":")
    module_spec = importlib.util.spec_from_file_location("_repro_checked_program", path)
    if module_spec is None or module_spec.loader is None:
        raise FileNotFoundError(f"cannot load module from {path!r}")
    module = importlib.util.module_from_spec(module_spec)
    sys.modules[module_spec.name] = module
    try:
        module_spec.loader.exec_module(module)
    finally:
        sys.modules.pop(module_spec.name, None)
    if not hasattr(module, func_name):
        raise AttributeError(f"{path!r} defines no function {func_name!r}")
    fn = getattr(module, func_name)
    if not callable(fn):
        raise TypeError(f"{spec!r} is not callable")
    return func_name, fn
