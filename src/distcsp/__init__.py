"""Distance constraint satisfaction over the integers.

Templates are finite sets of difference-defined relations on Z.  The package
analyzes their distance structure, hunts for modular median polymorphisms and
eventually periodic endomorphisms, and decides instances either by pairwise
distance propagation or by exhaustive search over a sound window.
"""

from importlib import import_module

# The module that defines each public name.  A name is imported from it on
# first access (PEP 562), so that importing the package, or one module of it
# such as the CLI, loads nothing else.
_EXPORTS = {
    "analysis": (
        "AnalysisReport",
        "analyze_template",
        "gaifman_distances",
        "graph_distance",
        "is_connected",
        "realizing_path_length",
        "stretch_constant",
    ),
    "brute": ("brute_solve", "search_space_estimate", "verify_assignment"),
    "endomorphism": (
        "EndoClassification",
        "PeriodicMapSpec",
        "classify_endomorphism",
        "compose_maps",
        "format_map_spec",
        "is_endomorphism",
        "parse_map_spec",
        "reduce_template",
        "search_periodic_endomorphism",
        "stable_numbers",
    ),
    "errors": (
        "CapExceededError",
        "DisconnectedTemplateError",
        "InputError",
        "InternalInvariantError",
    ),
    "formats": ("ParseError", "parse_assignment", "parse_instance", "parse_template", "to_json"),
    "model": (
        "EMPTY",
        "FULL",
        "Constraint",
        "Instance",
        "OffsetSet",
        "RelationDef",
        "Template",
        "project_constraint",
        "tuple_in_relation",
    ),
    "polymorphism": (
        "PreservationResult",
        "check_two_decomposable",
        "find_modular_median",
        "modular_median",
        "preserves_relation",
        "random_preservation_trials",
    ),
    "solver": ("Verdict", "solve"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
