"""Runtime constraint auditor for the MIP formulation (Section IV).

The paper's correctness claims rest on every placement satisfying the
integer program's constraints (1)-(11).  This module replays any
allocation state — a :class:`~repro.model.analytic.PlacementSolution`,
a live :class:`~repro.cluster.datacenter.Datacenter`, a finished
:class:`~repro.cluster.simulation.SimulationResult`, or a persisted
score table — against those constraints and reports violations with
structured constraint ids, so tests and CI can assert not just *that* a
state is invalid but *which* constraint it breaks.

Constraint ids follow the paper's numbering:

========  ==============================================================
id        meaning
========  ==============================================================
``C1``    assignment totality: every VM on exactly one PM (Equ. (1))
``C2``    x/y/z linkage and bookkeeping: a VM's chunks live only on its
          assigned PM, and committed usage equals the sum of allocation
          chunks (Equ. (2)/(7))
``C3``    every demanded chunk of the first anti-collocation group
          (vCPUs) placed exactly once (Equ. (3)); scalar groups fold in
``C4``    anti-collocation within the first AC group: at most one chunk
          of a VM per unit (Equ. (4))
``C5``    per-unit capacity of the first AC group (Equ. (5))
``C6``    scalar (memory-style) group capacity (Equ. (6))
``C8``    chunk completeness of later AC groups (disks, Equ. (8))
``C9``    anti-collocation of later AC groups (Equ. (9))
``C10``   per-unit capacity of later AC groups (Equ. (10))
``C11``   objective accounting: reported cost / PM counts match the
          open-PM set (Equ. (11))
========  ==============================================================

Score-table consistency findings use ``T``-codes (``T1`` non-canonical
profile, ``T2`` invalid usage, ``T3`` non-finite or negative score,
``T4`` score mismatch against a recomputation), since the table is an
implementation artifact rather than a paper constraint.

Two implementation checks audit the columnar
:class:`~repro.core.soa.SoADatacenter`: ``I1`` compares its usage-class
index against a fresh scan and ``I2`` its fleet columns against the
allocation records.  The object ``Datacenter`` is the seed scan and
maintains neither, so it is audited on ``C``-constraints alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.permutations import Placement
from repro.core.profile import MachineShape, ResourceGroup, VMType
from repro.util.validation import ValidationError

if TYPE_CHECKING:  # pragma: no cover - imports for annotations only
    from repro.cluster.datacenter import Datacenter
    from repro.cluster.simulation import SimulationResult
    from repro.core.graph import ProfileGraph
    from repro.core.score_table import ScoreTable
    from repro.model.analytic import PlacementInstance, PlacementSolution

__all__ = [
    "CONSTRAINTS",
    "Violation",
    "AuditReport",
    "AuditError",
    "audit_solution",
    "audit_datacenter",
    "audit_simulation",
    "audit_score_table",
    "save_placements",
    "load_placements",
    "PLACEMENTS_FORMAT",
]

#: Human-readable meaning of every constraint id the auditor can emit.
CONSTRAINTS: Dict[str, str] = {
    "C1": "assignment totality: every VM assigned to exactly one PM",
    "C2": "x/y/z linkage: chunks recorded only on the assigned PM, "
          "committed usage equals the sum of allocations",
    "C3": "every demanded vCPU chunk placed exactly once",
    "C4": "anti-collocation: at most one vCPU chunk per core per VM",
    "C5": "per-core CPU capacity respected",
    "C6": "scalar (memory) capacity respected",
    "C8": "every demanded disk chunk placed exactly once",
    "C9": "anti-collocation: at most one disk chunk per disk per VM",
    "C10": "per-disk capacity respected",
    "C11": "objective accounting: cost/PM counts match the open-PM set",
    "T1": "score-table profile not in canonical form",
    "T2": "score-table profile invalid for its shape",
    "T3": "score-table score non-finite or negative",
    "T4": "score-table score disagrees with recomputation",
    "I1": "usage-class index consistent with a fresh scan of the fleet",
    "I2": "columnar SoA state consistent with the allocation records",
}


@dataclass(frozen=True)
class Violation:
    """One broken constraint, with enough context to locate it."""

    constraint: str
    message: str
    vm_id: Optional[int] = None
    pm_id: Optional[int] = None
    group: Optional[str] = None

    def __str__(self) -> str:
        where = []
        if self.vm_id is not None:
            where.append(f"VM {self.vm_id}")
        if self.pm_id is not None:
            where.append(f"PM {self.pm_id}")
        if self.group is not None:
            where.append(f"group {self.group!r}")
        prefix = f"[{self.constraint}]"
        if where:
            prefix += " " + ", ".join(where) + ":"
        return f"{prefix} {self.message}"


@dataclass
class AuditReport:
    """The outcome of one audit: violations plus coverage counters."""

    violations: List[Violation] = field(default_factory=list)
    checked_vms: int = 0
    checked_pms: int = 0
    subject: str = "solution"

    @property
    def ok(self) -> bool:
        """True when no constraint is violated."""
        return not self.violations

    def constraint_ids(self) -> Tuple[str, ...]:
        """Sorted distinct ids of the violated constraints."""
        return tuple(sorted({v.constraint for v in self.violations}))

    def by_constraint(self, constraint: str) -> List[Violation]:
        """All violations of one constraint id."""
        return [v for v in self.violations if v.constraint == constraint]

    def summary(self) -> str:
        """One-line verdict suitable for CLI output."""
        if self.subject == "score table":
            coverage = f"{self.checked_pms} profiles checked"
        else:
            coverage = f"{self.checked_vms} VMs, {self.checked_pms} PMs checked"
        if self.ok:
            return (
                f"audit OK: {self.subject} satisfies constraints (1)-(11) "
                f"({coverage})"
            )
        ids = ", ".join(self.constraint_ids())
        return (
            f"audit FAILED: {len(self.violations)} violation(s) of {ids} "
            f"in {self.subject}"
        )

    def raise_if_failed(self) -> "AuditReport":
        """Raise :class:`AuditError` on violations; return self otherwise."""
        if not self.ok:
            raise AuditError(self)
        return self


class AuditError(ValidationError):
    """An audit found constraint violations.

    Attributes:
        report: the failing :class:`AuditReport`.
    """

    def __init__(self, report: AuditReport) -> None:
        self.report = report
        lines = [report.summary()]
        lines += [f"  {v}" for v in report.violations[:20]]
        if len(report.violations) > 20:
            lines.append(f"  ... and {len(report.violations) - 20} more")
        super().__init__("\n".join(lines))


# ----------------------------------------------------------------------
# Group-kind -> constraint-id mapping
# ----------------------------------------------------------------------
def _group_ids(
    shape: MachineShape, group_index: int
) -> Tuple[str, Optional[str], str]:
    """(chunk-completeness, anti-collocation, capacity) ids for a group.

    The paper's (3)-(5) govern the first anti-collocation group (vCPUs
    on cores), (8)-(10) the later ones (virtual disks), and (6) scalar
    resources (memory).  Shapes with other group mixes reuse the nearest
    family so every violation still carries a meaningful id.
    """
    group = shape.groups[group_index]
    if not group.anti_collocation:
        return "C3", None, "C6"
    first_ac = next(
        i for i, g in enumerate(shape.groups) if g.anti_collocation
    )
    if group_index == first_ac:
        return "C3", "C4", "C5"
    return "C8", "C9", "C10"


# ----------------------------------------------------------------------
# Core checker over (shape, vm_type, assignments) triples
# ----------------------------------------------------------------------
def _check_vm_assignments(
    shape: MachineShape,
    vm_type: VMType,
    assignments: Sequence[Sequence[Tuple[int, int]]],
    vm_id: int,
    pm_id: int,
    loads: List[List[int]],
    violations: List[Violation],
) -> None:
    """Check one VM's concrete placement and accumulate per-unit loads."""
    if len(assignments) != shape.n_groups:
        violations.append(Violation(
            constraint="C2",
            message=(
                f"placement has {len(assignments)} groups, "
                f"PM shape has {shape.n_groups}"
            ),
            vm_id=vm_id,
            pm_id=pm_id,
        ))
        return
    for gi, (group, group_assign) in enumerate(zip(shape.groups, assignments)):
        place_id, anti_id, _ = _group_ids(shape, gi)
        demanded = sorted(c for c in vm_type.demands[gi] if c > 0)
        placed = sorted(chunk for _, chunk in group_assign)
        if placed != demanded:
            violations.append(Violation(
                constraint=place_id,
                message=(
                    f"placed chunks {placed} != demanded {demanded} "
                    f"(constraints (3)/(8))"
                ),
                vm_id=vm_id,
                pm_id=pm_id,
                group=group.name,
            ))
        units = [idx for idx, _ in group_assign]
        if anti_id is not None and len(set(units)) != len(units):
            violations.append(Violation(
                constraint=anti_id,
                message=(
                    f"anti-collocation violated "
                    f"(units {units}; constraints (4)/(9))"
                ),
                vm_id=vm_id,
                pm_id=pm_id,
                group=group.name,
            ))
        for idx, chunk in group_assign:
            if not 0 <= idx < group.n_units:
                violations.append(Violation(
                    constraint="C2",
                    message=f"unit {idx} out of range",
                    vm_id=vm_id,
                    pm_id=pm_id,
                    group=group.name,
                ))
                continue
            loads[gi][idx] += chunk


def _check_capacities(
    shape: MachineShape,
    loads: Sequence[Sequence[int]],
    pm_id: int,
    violations: List[Violation],
) -> None:
    """Capacity constraints (5)/(6)/(10) for one PM's aggregated loads."""
    for gi, (group, unit_loads) in enumerate(zip(shape.groups, loads)):
        _, _, cap_id = _group_ids(shape, gi)
        for idx, load in enumerate(unit_loads):
            if load > group.capacities[idx]:
                violations.append(Violation(
                    constraint=cap_id,
                    message=(
                        f"unit {idx}: load {load} > capacity "
                        f"{group.capacities[idx]} (constraints (5)/(6)/(10))"
                    ),
                    pm_id=pm_id,
                    group=group.name,
                ))


# ----------------------------------------------------------------------
# Audit entry points
# ----------------------------------------------------------------------
def audit_solution(
    instance: "PlacementInstance",
    solution: "PlacementSolution",
    reported_cost: Optional[float] = None,
) -> AuditReport:
    """Audit a static solution against constraints (1)-(11).

    Args:
        instance: the problem instance (VMs, PM shapes, costs).
        solution: per-VM (pm_index, placement) assignments.
        reported_cost: when given, checked against the recomputed
            objective (11); lets callers validate externally reported
            costs, not just internal consistency.
    """
    violations: List[Violation] = []
    if len(solution.assignments) != len(instance.vms):
        violations.append(Violation(
            constraint="C1",
            message=(
                f"constraint (1): {len(solution.assignments)} assignments "
                f"for {len(instance.vms)} VMs (every VM must be assigned "
                f"exactly once)"
            ),
        ))
        return AuditReport(
            violations=violations,
            checked_vms=len(instance.vms),
            checked_pms=len(instance.pms),
        )

    loads: Dict[int, List[List[int]]] = {}
    for i, (pm_index, placement) in enumerate(solution.assignments):
        vm = instance.vms[i]
        if not 0 <= pm_index < len(instance.pms):
            violations.append(Violation(
                constraint="C1",
                message=f"PM index {pm_index} out of range",
                vm_id=i,
            ))
            continue
        shape = instance.pms[pm_index]
        if pm_index not in loads:
            loads[pm_index] = [[0] * g.n_units for g in shape.groups]
        _check_vm_assignments(
            shape, vm, placement.assignments, i, pm_index, loads[pm_index],
            violations,
        )
    for pm_index, pm_loads in loads.items():
        _check_capacities(
            instance.pms[pm_index], pm_loads, pm_index, violations
        )
    if reported_cost is not None:
        actual = solution.total_cost(instance)
        if not math.isclose(actual, reported_cost, rel_tol=1e-9, abs_tol=1e-9):
            violations.append(Violation(
                constraint="C11",
                message=(
                    f"reported objective {reported_cost!r} != recomputed "
                    f"open-PM cost {actual!r} (objective (11))"
                ),
            ))
    return AuditReport(
        violations=violations,
        checked_vms=len(instance.vms),
        checked_pms=len(instance.pms),
    )


def audit_datacenter(
    datacenter: "Datacenter",
    expected_vm_ids: Optional[Sequence[int]] = None,
) -> AuditReport:
    """Audit a live datacenter's allocation state.

    Beyond the solution-level constraints, this cross-checks the
    machines' *committed usage* bookkeeping against the sum of their
    allocation records (capacity conservation per resource dimension)
    and the datacenter's VM-location index against the machines that
    actually host each VM (the x/y/z linkage (2)/(7)).  When the
    datacenter maintains a usage-class index (the columnar serving
    path), the index is additionally compared against a fresh scan of
    the fleet (I1): a stale class, state, ordering, class-table or
    class-id entry is reported.
    Columnar (SoA) datacenters expose ``check_columns``, audited here as
    I2: usage/count/canonical columns and the CSR demand terms must
    match the allocation records exactly.

    Args:
        expected_vm_ids: when given, assignment totality (1) requires
            exactly these VMs to be hosted; otherwise only duplicate
            hosting is reported.
    """
    violations: List[Violation] = []
    hosted: Dict[int, List[int]] = {}
    for machine in datacenter.machines:
        shape = machine.shape
        loads: List[List[int]] = [[0] * g.n_units for g in shape.groups]
        for allocation in machine.allocations:
            hosted.setdefault(allocation.vm_id, []).append(machine.pm_id)
            if allocation.pm_id != machine.pm_id:
                violations.append(Violation(
                    constraint="C2",
                    message=(
                        f"allocation records PM {allocation.pm_id} but "
                        f"lives on PM {machine.pm_id} (linkage (2)/(7))"
                    ),
                    vm_id=allocation.vm_id,
                    pm_id=machine.pm_id,
                ))
            _check_vm_assignments(
                shape,
                allocation.vm_type,
                allocation.assignments,
                allocation.vm_id,
                machine.pm_id,
                loads,
                violations,
            )
        _check_capacities(shape, loads, machine.pm_id, violations)
        usage = machine.usage
        for gi, (group, unit_loads) in enumerate(zip(shape.groups, loads)):
            if tuple(unit_loads) != usage[gi]:
                violations.append(Violation(
                    constraint="C2",
                    message=(
                        f"committed usage {usage[gi]} != sum of allocation "
                        f"chunks {tuple(unit_loads)} (conservation)"
                    ),
                    pm_id=machine.pm_id,
                    group=group.name,
                ))
    for vm_id, pms in hosted.items():
        if len(pms) > 1:
            violations.append(Violation(
                constraint="C1",
                message=(
                    f"constraint (1): hosted on {len(pms)} PMs {pms} "
                    f"(every VM must be assigned exactly once)"
                ),
                vm_id=vm_id,
            ))
        located = datacenter.locate(vm_id)
        if located not in pms:
            violations.append(Violation(
                constraint="C2",
                message=(
                    f"location index says PM {located}, allocations say "
                    f"{pms} (linkage (2)/(7))"
                ),
                vm_id=vm_id,
            ))
    if expected_vm_ids is not None:
        missing = sorted(set(expected_vm_ids) - set(hosted))
        extra = sorted(set(hosted) - set(expected_vm_ids))
        if missing:
            violations.append(Violation(
                constraint="C1",
                message=(
                    f"constraint (1): expected VMs not hosted anywhere: "
                    f"{missing[:10]}{'...' if len(missing) > 10 else ''}"
                ),
            ))
        if extra:
            violations.append(Violation(
                constraint="C1",
                message=f"unexpected hosted VMs: {extra[:10]}",
            ))
    index = getattr(datacenter, "usage_index", None)
    if index is not None:
        for problem in index.check_consistency():
            violations.append(Violation(
                constraint="I1",
                message=f"usage-class index stale: {problem}",
            ))
    check_columns = getattr(datacenter, "check_columns", None)
    if check_columns is not None:
        for problem in check_columns():
            violations.append(Violation(
                constraint="I2",
                message=f"columnar state diverged: {problem}",
            ))
    return AuditReport(
        violations=violations,
        checked_vms=len(hosted),
        checked_pms=datacenter.n_machines,
        subject="datacenter",
    )


def audit_simulation(
    datacenter: "Datacenter",
    result: "SimulationResult",
    expect_all_hosted: bool = True,
) -> AuditReport:
    """Audit a finished simulation's final state and reported metrics.

    Args:
        datacenter: the datacenter the simulation ran against, in its
            final state.
        result: the metrics the simulation reported.
        expect_all_hosted: static runs (the paper's evaluation) never
            release VMs, so every placed VM must still be hosted; pass
            False for dynamic workloads with departures.
    """
    report = audit_datacenter(datacenter)
    report.subject = f"simulation[{result.policy_name}]"
    used = datacenter.pms_used
    if result.pms_used_final != used:
        report.violations.append(Violation(
            constraint="C11",
            message=(
                f"reported pms_used_final {result.pms_used_final} != "
                f"{used} open PMs (objective (11) accounting)"
            ),
        ))
    if result.pms_used_peak < used:
        report.violations.append(Violation(
            constraint="C11",
            message=(
                f"reported peak {result.pms_used_peak} below final "
                f"open-PM count {used}"
            ),
        ))
    if expect_all_hosted:
        expected = result.n_vms - result.unplaced_vms
        lost = 0
        if result.resilience is not None:
            # Under fault injection, VMs the policy could not re-place
            # after a crash or flap are reported as placements_lost and
            # are legitimately absent from the final state.
            lost = result.resilience.placements_lost
            expected -= lost
        hosted = datacenter.n_vms
        if hosted != expected:
            report.violations.append(Violation(
                constraint="C1",
                message=(
                    f"constraint (1): {hosted} VMs hosted, expected "
                    f"{expected} (= {result.n_vms} requested - "
                    f"{result.unplaced_vms} unplaced - {lost} lost to "
                    f"faults)"
                ),
            ))
    return report


def audit_score_table(
    table: "ScoreTable",
    graph: Optional["ProfileGraph"] = None,
    tolerance: float = 1e-8,
) -> AuditReport:
    """Audit a score table's internal and (optionally) semantic consistency.

    Structural checks (always): every profile is a valid, *canonical*
    usage of the table's shape; every score is finite and non-negative
    (PageRank x BPRU and the EFU DP both yield non-negative values).

    Semantic check (when ``graph`` is given): rebuild the scores from
    the graph with the table's recorded knobs (damping, vote direction)
    and compare — this is the BPRU/EFU consistency gate and catches
    tables persisted by older code or corrupted on disk.  Only sensible
    at toy scale; EC2-scale tables should rely on the structural checks
    plus the content-hash cache key.
    """
    violations: List[Violation] = []
    checked = 0
    for usage, score in table.items():
        checked += 1
        try:
            table.shape.validate_usage(usage)
        except ValidationError as error:
            violations.append(Violation(
                constraint="T2", message=f"profile {usage!r}: {error}"
            ))
            continue
        if table.shape.canonicalize(usage) != usage:
            violations.append(Violation(
                constraint="T1",
                message=f"profile {usage!r} is not canonical",
            ))
        if not math.isfinite(score) or score < 0:
            violations.append(Violation(
                constraint="T3",
                message=f"profile {usage!r}: score {score!r}",
            ))
    if graph is not None:
        from repro.core.score_table import build_score_table

        rebuilt = build_score_table(
            table.shape,
            graph.vm_types,
            damping=table.damping,
            vote_direction=table.vote_direction,
            graph=graph,
        )
        if len(rebuilt) != len(table):
            violations.append(Violation(
                constraint="T4",
                message=(
                    f"table has {len(table)} profiles, rebuild from the "
                    f"graph has {len(rebuilt)}"
                ),
            ))
        for usage, score in table.items():
            expected = rebuilt.score(usage)
            if expected is None:
                violations.append(Violation(
                    constraint="T4",
                    message=f"profile {usage!r} absent from the rebuild",
                ))
            elif abs(expected - score) > tolerance:
                violations.append(Violation(
                    constraint="T4",
                    message=(
                        f"profile {usage!r}: score {score!r} != "
                        f"recomputed {expected!r}"
                    ),
                ))
    report = AuditReport(
        violations=violations, checked_vms=0, checked_pms=checked,
        subject="score table",
    )
    return report


# ----------------------------------------------------------------------
# Persistence: placements as auditable artifacts
# ----------------------------------------------------------------------
PLACEMENTS_FORMAT = "repro.placements.v1"


def save_placements(
    instance: "PlacementInstance",
    solution: "PlacementSolution",
    path: Union[str, Path],
) -> None:
    """Persist an (instance, solution) pair for later ``repro audit``."""
    payload = {
        "format": PLACEMENTS_FORMAT,
        "pms": [
            {
                "groups": [
                    {
                        "name": g.name,
                        "capacities": list(g.capacities),
                        "anti_collocation": g.anti_collocation,
                    }
                    for g in shape.groups
                ],
                "cost": instance.cost_of(j),
            }
            for j, shape in enumerate(instance.pms)
        ],
        "vms": [
            {"name": vm.name, "demands": [list(cs) for cs in vm.demands]}
            for vm in instance.vms
        ],
        "assignments": [
            {
                "pm": pm_index,
                "groups": [
                    [[idx, chunk] for idx, chunk in group_assign]
                    for group_assign in placement.assignments
                ],
            }
            for pm_index, placement in solution.assignments
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def load_placements(
    path: Union[str, Path],
) -> Tuple["PlacementInstance", "PlacementSolution"]:
    """Load an (instance, solution) pair written by :func:`save_placements`.

    Raises:
        ValidationError: for unrecognized payloads.
    """
    from repro.model.analytic import PlacementInstance, PlacementSolution

    payload = json.loads(Path(path).read_text())
    if payload.get("format") != PLACEMENTS_FORMAT:
        raise ValidationError(
            f"unrecognized placements format in {path!s}: "
            f"{payload.get('format')!r}"
        )
    shapes = []
    costs = []
    for pm in payload["pms"]:
        shapes.append(MachineShape(groups=tuple(
            ResourceGroup(
                name=g["name"],
                capacities=tuple(g["capacities"]),
                anti_collocation=g["anti_collocation"],
            )
            for g in pm["groups"]
        )))
        costs.append(float(pm["cost"]))
    vms = tuple(
        VMType(
            name=vm["name"],
            demands=tuple(tuple(cs) for cs in vm["demands"]),
        )
        for vm in payload["vms"]
    )
    instance = PlacementInstance(
        vms=vms, pms=tuple(shapes), costs=tuple(costs)
    )
    assignments = []
    for entry in payload["assignments"]:
        groups = tuple(
            tuple((int(idx), int(chunk)) for idx, chunk in group_assign)
            for group_assign in entry["groups"]
        )
        pm_index = int(entry["pm"])
        shape = shapes[pm_index] if 0 <= pm_index < len(shapes) else shapes[0]
        # Reconstruct a usage snapshot from the chunks alone; the auditor
        # only reads .assignments, but keep new_usage well formed.
        usage = [[0] * g.n_units for g in shape.groups]
        for group_usage, group_assign in zip(usage, groups):
            for idx, chunk in group_assign:
                if 0 <= idx < len(group_usage):
                    group_usage[idx] += chunk
        placement = Placement(
            new_usage=tuple(tuple(g) for g in usage), assignments=groups
        )
        assignments.append((pm_index, placement))
    return instance, PlacementSolution(assignments=tuple(assignments))
