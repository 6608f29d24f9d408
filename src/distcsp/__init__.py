"""Distance constraint satisfaction over the integers.

Templates are finite sets of difference-defined relations on Z.  The package
analyzes their distance structure, hunts for modular median polymorphisms and
eventually periodic endomorphisms, and decides instances either by pairwise
distance propagation or by exhaustive search over a sound window.
"""

from .analysis import (
    AnalysisReport,
    analyze_template,
    gaifman_distances,
    graph_distance,
    is_connected,
    realizing_path_length,
    stretch_constant,
)
from .brute import brute_solve, search_space_estimate, verify_assignment
from .endomorphism import (
    EndoClassification,
    PeriodicMapSpec,
    classify_endomorphism,
    compose_maps,
    format_map_spec,
    is_endomorphism,
    parse_map_spec,
    reduce_template,
    search_periodic_endomorphism,
    stable_numbers,
)
from .errors import (
    CapExceededError,
    DisconnectedTemplateError,
    InputError,
    InternalInvariantError,
)
from .formats import (
    ParseError,
    parse_assignment,
    parse_instance,
    parse_template,
    to_json,
)
from .model import (
    EMPTY,
    FULL,
    Constraint,
    Instance,
    OffsetSet,
    RelationDef,
    Template,
    project_constraint,
    tuple_in_relation,
)
from .polymorphism import (
    PreservationResult,
    check_two_decomposable,
    find_modular_median,
    modular_median,
    preserves_relation,
    random_preservation_trials,
)
from .solver import Verdict, solve

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "CapExceededError",
    "Constraint",
    "DisconnectedTemplateError",
    "EMPTY",
    "EndoClassification",
    "FULL",
    "InputError",
    "Instance",
    "InternalInvariantError",
    "OffsetSet",
    "ParseError",
    "PeriodicMapSpec",
    "PreservationResult",
    "RelationDef",
    "Template",
    "Verdict",
    "analyze_template",
    "brute_solve",
    "check_two_decomposable",
    "classify_endomorphism",
    "compose_maps",
    "find_modular_median",
    "format_map_spec",
    "gaifman_distances",
    "graph_distance",
    "is_connected",
    "is_endomorphism",
    "modular_median",
    "parse_assignment",
    "parse_instance",
    "parse_map_spec",
    "parse_template",
    "preserves_relation",
    "project_constraint",
    "random_preservation_trials",
    "realizing_path_length",
    "reduce_template",
    "search_periodic_endomorphism",
    "search_space_estimate",
    "solve",
    "stable_numbers",
    "stretch_constant",
    "to_json",
    "tuple_in_relation",
    "verify_assignment",
]
