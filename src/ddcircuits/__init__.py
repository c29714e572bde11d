"""Exact-rational toolkit for circuit steps on pointed polyhedra.

Computes, approximates, and verifies deepest-descent circuit steps over
systems {x : Ax = b, Bx <= d}: exact enumeration oracles, a
dimension-factor polynomial approximation, the optimal circuit-neighbor
decision for unique-optimum LPs, and circulation-LP benchmark instances
with brute-force cycle oracles.  All arithmetic is exact rational.
"""

from .certify import ConeLift, is_extreme_ray, lift, verify_conformal
from .circuits import Circuit, enumerate_circuits, is_circuit_direction
from .conformal import ConformalSum, decompose
from .ddstep import (
    AugmentationTrace,
    DdStep,
    Optimal,
    UnboundedImprovement,
    approx_dd_step,
    augment,
    exact_dd_step,
)
from .errors import (
    IterationCapExceeded,
    LpUnboundedError,
    NotPointedError,
    ParseError,
    SizeGuardExceeded,
    ToolkitError,
)
from .lp import (
    LpInfeasible,
    LpOptimal,
    LpUnbounded,
    UniquenessReport,
    solve_lp,
    verify_unique,
)
from .ocnp import (
    AlreadyOptimal,
    CircuitNeighbor,
    NotCircuitNeighbor,
    NotUnique,
    decide_ocnp,
)
from .polyhedron import (
    UNBOUNDED,
    Instance,
    Point,
    Polyhedron,
    active_rows,
    format_instance,
    format_point,
    is_feasible,
    load_instance,
    max_step,
    parse_instance_text,
    parse_point_text,
)
from .ratlin import Rat, RatMat, RatVec, kernel_basis, parse_rat, rank
from .reductions import (
    Digraph,
    ReductionInstance,
    build_reduction,
    longest_cycle_oracle,
    perturb_costs,
    verify_correspondence,
)
