"""Wire protocol of the campaign server: specs, store keys, job states.

A *campaign spec* names a grid of simulation points — suite matrix ids
crossed with core counts, chip configs, mappings, kernels and machines
— plus the execution knobs that change a point's *result* (scale,
iterations, timing mode).  The server canonicalizes every point of a
spec to a content-store address (:func:`point_store_key`): two
submissions that would compute the same record share the same key, so
the second is answered straight from :mod:`repro.store` without
simulating (the dedup contract ``tests/test_serve_e2e.py`` pins down
bit for bit).

Keying rules follow ``docs/MODEL.md``: the key digests a namespace and
schema version, the machine's
:meth:`~repro.machine.base.MachineModel.cache_key`, the full point
identity and every result-affecting context knob.  Records that are
*not* pure functions of the spec — quarantined points and
metrics-carrying records — are never stored under these keys;
:class:`CampaignSpec` rejects a ``collect_metrics`` field as unknown.

The HTTP surface (all JSON, rooted at ``/api/v1``) is:

=======  ==========================  =======================================
method   path                        meaning
=======  ==========================  =======================================
GET      ``/api/v1/healthz``         liveness + job counts
GET      ``/api/v1/metrics``         serve.* / supervise.* metrics snapshot
POST     ``/api/v1/jobs``            submit ``{"spec": {...}}`` -> job id
GET      ``/api/v1/jobs``            job summaries
GET      ``/api/v1/jobs/<id>``       one job's status and counts
GET      ``/api/v1/jobs/<id>/result``  the records, in grid order
=======  ==========================  =======================================
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Sequence, Tuple

from ..core.campaign import (
    CampaignContext,
    CampaignPoint,
    Campaign,
    run_campaign_point,
    validate_points,
)
from ..core.experiment import DEFAULT_ITERATIONS, KERNELS, MODES
from ..core.mapping import MAPPINGS
from ..machine.base import DEFAULT_MACHINE
from ..machine.registry import get_machine
from ..sparse.suite import build_matrix, entry_by_id
from ..store import digest_parts

__all__ = [
    "API_ROOT",
    "JOB_STATES",
    "MEMO_CAPACITY",
    "POINT_ORIGINS",
    "SERVE_POINT_SCHEMA_VERSION",
    "SpecError",
    "CampaignSpec",
    "ExperimentMemo",
    "point_store_key",
    "execute_point",
]

#: URL prefix every endpoint lives under; bump on breaking changes.
API_ROOT = "/api/v1"

#: lifecycle of a job: accepted -> executing -> finished.
JOB_STATES = ("queued", "running", "done")

#: how a job's point got its record: ``store`` (dedup hit at submit),
#: ``shared`` (another job was already computing it), ``simulated``
#: (this job caused the execution), ``quarantined`` (every attempt and
#: fallback failed; retryable on resubmission, never cached),
#: ``predicted`` (a ``mode="predict"`` job answered at admission from
#: the trained predictor; never persisted — mode purity, see
#: docs/PREDICTOR.md).
POINT_ORIGINS = ("store", "shared", "simulated", "quarantined", "predicted")

#: version prefix of every point store key; bump whenever the record
#: shape or any upstream model constant changes meaning, orphaning old
#: entries instead of serving stale answers (docs/MODEL.md rules).
SERVE_POINT_SCHEMA_VERSION = 1


class SpecError(ValueError):
    """A submitted campaign spec is malformed; maps to HTTP 400."""


def point_store_key(pt: CampaignPoint, ctx: CampaignContext) -> str:
    """The content-store address of one campaign point's record.

    A pure function of everything that determines the record's bytes:
    the point identity, the resolved machine's cache key, and the
    context knobs (scale, iterations, mode).  ``pt.machine == ""``
    resolves to the context's default machine first, so a point pinned
    to the campaign machine and the same point spelled explicitly share
    one address.
    """
    machine = get_machine(pt.machine or ctx.machine)
    return digest_parts(
        "serve-point",
        SERVE_POINT_SCHEMA_VERSION,
        machine.cache_key(),
        pt.mid,
        pt.n_cores,
        pt.config,
        pt.mapping,
        pt.kernel,
        ctx.scale,
        ctx.iterations,
        ctx.mode,
    )


#: default :class:`ExperimentMemo` capacity: the number of matrices
#: :func:`~repro.sparse.suite.build_matrix` keeps in memory.
MEMO_CAPACITY: int = build_matrix.cache_parameters()["maxsize"]


class ExperimentMemo(OrderedDict):
    """A least-recently-used experiment memo for a long-lived process.

    :func:`execute_point`'s ``cache``: it holds at most ``capacity``
    experiments (default :data:`MEMO_CAPACITY`), so a process serving
    many scales or machines holds no more experiments than it already
    holds matrices.  An evicted experiment is rebuilt on demand; records
    are pure in the point, so eviction never changes an answer.
    """

    def __init__(self, capacity: int = MEMO_CAPACITY) -> None:
        super().__init__()
        self.capacity = capacity

    def get(self, key: Any, default: Any = None) -> Any:
        if key not in self:
            return default
        self.move_to_end(key)
        return self[key]

    def __setitem__(self, key: Any, value: Any) -> None:
        super().__setitem__(key, value)
        self.move_to_end(key)
        while len(self) > self.capacity:
            self.popitem(last=False)


def execute_point(pt: CampaignPoint, ctx: CampaignContext, cache: Dict) -> dict:
    """Run one point and finalize its record exactly like a campaign.

    Delegates to :func:`repro.core.campaign.run_campaign_point` and
    appends the ``scale`` field :meth:`Campaign.run` appends, so a
    record served from the store is bitwise-identical (canonical JSON)
    to the record a direct serial ``Campaign.run`` of the same spec
    writes — minus the campaign-file-internal ``_key``.
    """
    rec = run_campaign_point(pt, ctx, cache)
    rec["scale"] = ctx.scale
    return rec


def _tuple_of(value: Any, name: str, kind: type) -> Tuple:
    """Normalize a wire list to a deduped tuple of ``kind`` values."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Sequence):
        raise SpecError(f"spec field {name!r} must be a list, got {value!r}")
    out: List = []
    for item in value:
        if kind is int and isinstance(item, bool) or not isinstance(item, kind):
            raise SpecError(
                f"spec field {name!r} must hold {kind.__name__} values, "
                f"got {item!r}"
            )
        if item not in out:
            out.append(item)
    if not out:
        raise SpecError(f"spec field {name!r} selects nothing")
    return tuple(out)


@dataclass(frozen=True)
class CampaignSpec:
    """One submission: a validated, canonicalized campaign grid."""

    ids: Tuple[int, ...]
    core_counts: Tuple[int, ...]
    configs: Tuple[str, ...] = ("conf0",)
    mappings: Tuple[str, ...] = ("distance_reduction",)
    kernels: Tuple[str, ...] = ("csr",)
    #: per-point machine dimension; ``""`` defers to :attr:`machine`.
    machines: Tuple[str, ...] = ("",)
    #: default machine of points that don't pin one.
    machine: str = DEFAULT_MACHINE
    scale: float = 0.25
    iterations: int = DEFAULT_ITERATIONS
    mode: str = "model"

    def __post_init__(self) -> None:
        self.validate()

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`SpecError` on anything the grid cannot run."""
        if not self.ids or not self.core_counts:
            raise SpecError("spec needs at least one matrix id and core count")
        for mid in self.ids:
            try:
                entry_by_id(mid)
            except KeyError as exc:
                raise SpecError(str(exc)) from exc
        if not 0 < self.scale <= 1.0:
            raise SpecError(f"scale must be in (0, 1], got {self.scale}")
        if self.iterations < 1:
            raise SpecError(f"iterations must be >= 1, got {self.iterations}")
        if self.mode not in MODES:
            raise SpecError(f"mode must be one of {MODES}, got {self.mode!r}")
        for mapping in self.mappings:
            if mapping not in MAPPINGS:
                raise SpecError(
                    f"unknown mapping {mapping!r}; choose from {sorted(MAPPINGS)}"
                )
        for kernel in self.kernels:
            if kernel not in KERNELS:
                raise SpecError(
                    f"unknown kernel {kernel!r}; choose from {KERNELS}"
                )
        try:
            get_machine(self.machine)
            for machine_id in self.machines:
                if machine_id:
                    get_machine(machine_id)
        except KeyError as exc:
            raise SpecError(str(exc).strip('"')) from exc
        try:
            validate_points(self.points(), self.machine, self.mode)
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
        for n in self.core_counts:
            if n < 1:
                raise SpecError(f"core counts must be >= 1, got {n}")
            for machine_id in self.machines:
                m = get_machine(machine_id or self.machine)
                if n > m.n_cores:
                    raise SpecError(
                        f"core count {n} exceeds machine "
                        f"{m.machine_id!r} ({m.n_cores} cores)"
                    )

    # -- canonical views -------------------------------------------------

    def points(self) -> List[CampaignPoint]:
        """The grid in canonical (cartesian-product) order."""
        return Campaign.grid(
            self.ids,
            self.core_counts,
            configs=self.configs,
            mappings=self.mappings,
            kernels=self.kernels,
            machines=self.machines,
        )

    def context(self) -> CampaignContext:
        """The execution context every point of this spec runs under."""
        return CampaignContext(
            scale=self.scale,
            iterations=self.iterations,
            mode=self.mode,
            machine=self.machine,
        )

    # -- wire format -----------------------------------------------------

    def to_wire(self) -> Dict[str, Any]:
        """The JSON body shape of a submission."""
        return {
            "ids": list(self.ids),
            "core_counts": list(self.core_counts),
            "configs": list(self.configs),
            "mappings": list(self.mappings),
            "kernels": list(self.kernels),
            "machines": list(self.machines),
            "machine": self.machine,
            "scale": self.scale,
            "iterations": self.iterations,
            "mode": self.mode,
        }

    @classmethod
    def from_wire(cls, body: Any) -> "CampaignSpec":
        """Parse and validate a submission body; raises :class:`SpecError`."""
        if not isinstance(body, dict):
            raise SpecError(f"spec must be a JSON object, got {type(body).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(body) - known)
        if unknown:
            raise SpecError(f"unknown spec field(s): {', '.join(unknown)}")
        if "ids" not in body or "core_counts" not in body:
            raise SpecError("spec requires 'ids' and 'core_counts'")
        kwargs: Dict[str, Any] = {
            "ids": _tuple_of(body["ids"], "ids", int),
            "core_counts": _tuple_of(body["core_counts"], "core_counts", int),
        }
        for name in ("configs", "mappings", "kernels", "machines"):
            if name in body:
                kwargs[name] = _tuple_of(body[name], name, str)
        if "machine" in body:
            if not isinstance(body["machine"], str):
                raise SpecError("spec field 'machine' must be a string")
            kwargs["machine"] = body["machine"]
        if "scale" in body:
            if isinstance(body["scale"], bool) or not isinstance(
                body["scale"], (int, float)
            ):
                raise SpecError("spec field 'scale' must be a number")
            kwargs["scale"] = float(body["scale"])
        if "iterations" in body:
            if isinstance(body["iterations"], bool) or not isinstance(
                body["iterations"], int
            ):
                raise SpecError("spec field 'iterations' must be an integer")
            kwargs["iterations"] = body["iterations"]
        if "mode" in body:
            if not isinstance(body["mode"], str):
                raise SpecError("spec field 'mode' must be a string")
            kwargs["mode"] = body["mode"]
        return cls(**kwargs)
