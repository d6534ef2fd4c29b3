"""Exact-arithmetic linearization of truncated Poisson structures, Lie
algebra actions, and Lie algebroids around a fixed point.

The namespace is lazy (PEP 562): `import poislin` loads no submodule, and a
public name or a submodule is imported on its first use and kept here, so a
process pays only for the modules it touches."""

__version__ = "0.1.0"

# every public name under the submodule that defines it
_EXPORTS = {
    "polyalg": ("Jet", "CoordChange", "PoissonJet", "PolyOneForm", "ParseError",
                "poisson_bracket", "jacobiator", "pushforward", "is_poisson_map",
                "compose_change", "invert_change", "koszul_bracket", "differential", "sharp",
                "format_polynomial", "parse_polynomial", "monomials"),
    "liealg": ("LieAlgebra", "LeviSplit", "LeviSplitError", "SolverFailure",
               "isotropy_from_linear_part", "killing_form", "is_semisimple",
               "is_compact_type", "radical", "center", "derived_subalgebra",
               "verify_levi_split", "levi_lift"),
    "cohomology": ("GModule", "Cochain", "ObstructionClass", "InputNotCocycle",
                   "ce_differential", "is_cocycle", "solve_coboundary",
                   "cohomology_dimension", "coadjoint_rep", "induced_polynomial_module"),
    "normalform": ("ActionJet", "IterationStep", "IterationTrace", "LeviNormalForm",
                   "PreconditionNotNormalized", "SplitNotCertified", "hermitian_inner",
                   "hermitian_norm", "convergence_report", "poisson_remainder",
                   "action_remainder", "conjugate_action", "is_action_map",
                   "linearize_poisson", "linearize_action", "levi_decompose"),
    "algebroid": ("AlgebroidJet", "AlgebroidChange", "LinearAlgebroid", "action_algebroid",
                  "algebroid_to_poisson", "poisson_to_algebroid",
                  "fiberwise_linearity_check", "apply_algebroid_change",
                  "linearize_algebroid", "levi_algebroid"),
    "cli": ("ProblemSpec", "parse_problem", "print_problem"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "linalg", "corpus")
# the cached builders, each a `functools.lru_cache`, by submodule
_BUILDERS = {"cohomology": ("_induced_module", "twisted_field_module"),
             "algebroid": ("_graded_complex",), "polyalg": ("_factorials",)}

__all__ = [*_HOME, "clear_caches"]


def __getattr__(name: str):
    from importlib import import_module

    if name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})


def clear_caches() -> None:
    """Empty the cached builders of modules, graded complexes and the alpha!
    tables of the Hermitian pairing, each a `functools.lru_cache` keyed by
    its arguments, so the next request builds anew.  A submodule not yet
    imported has filled none and stays unloaded."""
    for module, builders in _BUILDERS.items():
        # an imported submodule is an attribute of its package
        loaded = globals().get(module)
        for builder in builders if loaded is not None else ():
            getattr(loaded, builder).cache_clear()
