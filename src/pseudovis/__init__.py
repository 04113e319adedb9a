"""Recognition of pseudo-polygon visibility graphs.

Decides whether a graph with a labeled boundary cycle is the visibility
graph of a pseudo-polygon by searching for a blocker assignment that
satisfies five necessary conditions, and ships an exact integer-geometry
polygon oracle that generates ground-truth instances for every property
the recognizer relies on.
"""

from .blockers import CandidateSet, all_candidates
from .conditions import (
    SeparablePair,
    Violation,
    check_conditions,
    separable_pairs,
)
from .errors import (
    DegenerateInput,
    GenerationBudgetExceeded,
    GraphError,
    IndexOutOfRange,
    InvalidAssignment,
    MalformedInput,
    MissingCycleEdge,
    NotACandidate,
    NotInvisible,
    OracleContradiction,
    PseudovisError,
    SearchBudgetExceeded,
    SelfLoop,
    UnknownPair,
    VertexOutsideInterval,
)
from .geometry import (
    Polygon,
    check_blocker_uniqueness,
    check_edge_vertex_visibility,
    check_gap_witness_cases,
    designated_blocker_geo,
    geometric_blockers,
    random_simple_polygon,
    sees_edge,
    sees_vertex,
    validate_polygon,
    ve_graph_geo,
    visibility_graph,
)
from .graph_core import VisGraph, invisible_pairs, validate_graph
from .recognizer import (
    EmptyCandidateSet,
    ExhaustedSearch,
    Verdict,
    VerifyReport,
    find_assignment,
    verify,
)
from .vertex_edge import (
    CharacterizationFailure,
    VEGraph,
    build_ve,
    check_ve_characterization,
    is_articulation,
    seen_edge_gaps,
)

__version__ = "0.1.0"
