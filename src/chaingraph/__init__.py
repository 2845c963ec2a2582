"""chaingraph: a compiler for mixed directed/undirected probabilistic models.

Parse ``.cg`` model files, validate the chain-graph law, decompose into
chain components / component subgraphs / a master graph, answer
conditional-independence queries by moralization, emit symbolic
factorizations (text or LaTeX), expand plates, and verify every
graph-level answer with a brute-force numeric oracle.
"""

from .core import (
    ChainGraph,
    Edge,
    GraphError,
    NodeAttr,
    StateSpaceError,
    ValidationReport,
    Violation,
    directed,
    undirected,
    validate_chain_graph,
)
from .decompose import (
    ConditionalSubgraph,
    MasterGraph,
    Partition,
    chain_components,
    component_subgraphs,
    conditional_subgraphs,
    master_graph,
)
from .markov import (
    CiQuery,
    CliqueBoundError,
    QueryError,
    UndirectedGraph,
    implies_ci,
    max_cliques,
    moralize_chain,
    parse_ci_query,
    simplify_conditional_directed,
    simplify_conditional_undirected,
)
from .factorize import (
    FactorError,
    FactorExpression,
    FactorTerm,
    PlateProduct,
    condition_expression,
    eliminate_deterministic,
    factorize_chain,
    render,
    render_term,
)
from .plates import (
    Binding,
    Plate,
    PlateError,
    PlateModel,
    expand,
    factorize_plated,
    validate_plates,
)
from .lang import (
    Diagnostic,
    EdgeDecl,
    ModelAst,
    ModelError,
    NodeDecl,
    ParseResult,
    PlateDecl,
    ResolveResult,
    SourceSpan,
    emit_model,
    load_model,
    parse,
    parse_model,
    resolve,
)
from .dot import to_dot
from . import corpus

__version__ = "0.1.0"

# The oracle needs numpy; its names are resolved on first use (PEP 562) so
# that importing the package, or running any other CLI command, does not
# load numpy.
_ORACLE_NAMES = frozenset({
    "EquivalenceReport", "JointTable", "MarkovReport", "OracleError",
    "PotentialAssignment", "QueryRecord", "TermTable",
    "all_singleton_queries", "assignment_from_rng",
    "build_joint", "check_equivalence", "check_global_markov",
    "ci_deviation", "conditional_deviation", "eliminated_assignment",
    "marginal_deviation",
})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ChainGraph", "Edge", "GraphError", "NodeAttr", "ValidationReport", "Violation",
    "directed", "undirected", "validate_chain_graph",
    "ConditionalSubgraph", "MasterGraph", "Partition",
    "chain_components", "component_subgraphs", "conditional_subgraphs", "master_graph",
    "CiQuery", "CliqueBoundError", "QueryError", "UndirectedGraph",
    "implies_ci", "max_cliques", "moralize_chain",
    "parse_ci_query",
    "simplify_conditional_directed", "simplify_conditional_undirected",
    "FactorError", "FactorExpression", "FactorTerm", "PlateProduct",
    "condition_expression", "eliminate_deterministic",
    "factorize_chain",
    "render", "render_term",
    "Binding", "Plate", "PlateError", "PlateModel",
    "expand", "factorize_plated", "validate_plates",
    "Diagnostic", "EdgeDecl", "ModelAst", "ModelError", "NodeDecl",
    "ParseResult", "PlateDecl", "ResolveResult", "SourceSpan",
    "emit_model", "load_model", "parse", "parse_model", "resolve",
    "to_dot",
    "EquivalenceReport", "JointTable", "MarkovReport", "OracleError",
    "PotentialAssignment", "QueryRecord", "StateSpaceError", "TermTable",
    "all_singleton_queries", "assignment_from_rng",
    "build_joint", "check_equivalence", "check_global_markov",
    "ci_deviation", "conditional_deviation", "eliminated_assignment",
    "marginal_deviation",
    "corpus",
    "__version__",
]
