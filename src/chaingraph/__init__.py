"""chaingraph: a compiler for mixed directed/undirected probabilistic models.

Parse ``.cg`` model files, validate the chain-graph law, decompose into
chain components / component subgraphs / a master graph, answer
conditional-independence queries by moralization, emit symbolic
factorizations (text or LaTeX), expand plates, and verify every
graph-level answer with a brute-force numeric oracle.

``_EXPORTS`` names each public name once, under the module that defines
it.  Importing the package loads none of them: a name's module is
imported on its first read (PEP 562), and the name is then stored here,
so later reads are plain lookups.  The submodules ``corpus``, ``oracle``
and ``cli`` resolve the same way.  So a command loads only the modules it
uses, and numpy only with an oracle name.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "ChainGraph", "Edge", "GraphError", "NodeAttr", "StateSpaceError", "ValidationReport",
        "Violation", "directed", "undirected", "validate_chain_graph",
    ),
    "decompose": (
        "ConditionalSubgraph", "Partition",
        "chain_components", "component_subgraphs", "conditional_subgraphs", "master_graph",
    ),
    "markov": (
        "CiQuery", "CliqueBoundError", "QueryError", "UndirectedGraph", "implies_ci", "max_cliques",
        "moralize_chain", "parse_ci_query",
    ),
    "factorize": (
        "FactorError", "FactorExpression", "FactorTerm", "PlateProduct", "condition_expression",
        "eliminate_deterministic", "factorize_chain", "factorize_plated", "render", "render_term",
        "simplify_conditional",
    ),
    "plates": ("Binding", "Plate", "PlateError", "PlateModel", "expand", "validate_plates"),
    "lang": (
        "Diagnostic", "EdgeDecl", "ModelAst", "ModelError", "NodeDecl", "ParseResult", "PlateDecl",
        "ResolveResult", "SourceSpan", "emit_model", "parse", "parse_model", "read_model", "resolve",
    ),
    "dot": ("to_dot",),
    "oracle": (
        "EquivalenceReport", "MarkovReport", "OracleError", "PotentialAssignment", "QueryRecord",
        "TermTable", "all_singleton_queries", "assignment_from_rng", "build_joint",
        "check_equivalence", "check_global_markov", "ci_deviation",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({"corpus", "oracle", "cli"})

__all__ = [*_HOME, "corpus", "__version__"]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
