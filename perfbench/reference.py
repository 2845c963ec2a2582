"""References the benchmark checks the program's outputs against.

None of this code comes from chaingraph: it reads `.cg` sources with its
own small parser, finds semi-directed cycles through strongly connected
components, answers CI queries with its own LWF moralization and, on DAGs,
with path-based d-separation, and holds goldens pinned by hand from the
README and the paper figures.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

# -- goldens (README and the paper figures) -------------------------------------

FIG2_COMPONENTS = ["a b", "c", "d", "e f g h"]
FIG2_FACTORIZATION = (
    "p(a,b) p(c|b) p(d|a,c) f_0(b,c) f_1(b,f) f_2(c,e) f_3(e,f) f_4(e,g) f_5(f,h) f_6(g,h)"
)
FIG2_QUERY = ("a _||_ e | b,c", "true")
BANKS_SYMBOLIC = (
    "p(theta) p(mu) p(lambda) prod_{i in Banks} [ p(class_i|theta) prod_{j in Prices(i)} "
    "[ p(spread_i_j|lambda,class_i) p(bid_ask_diff_i_j|mu,class_i) ] ]"
)
COIN_SYMBOLIC = "p(theta) prod_{i in N} [ p(heads_i|theta) ]"
BOLTZMANN_CONDITION_O = (
    "sum_{h1} [ f_1(x1,h1,o,wC1) f_2(x2,h1,o,wC2) f_3(x3,x4,o,wC3) ] / "
    "sum_{h1,o} [ f_1(x1,h1,o,wC1) f_2(x2,h1,o,wC2) f_3(x3,x4,o,wC3) ]"
)
FIG3_QUERIES = (240, 46)  # singleton queries, implied independences


def ground_graph(model: str, binding: dict) -> tuple[list[str], list[tuple[str, str, bool]]]:
    """The ground graph of a plated model, written out from the binding.

    Copies are named ``base_i`` and ``base_i_j``; so ``coin`` has 1 + N
    nodes and N edges, and ``banks`` 3 + B + 2P and B + 4P, where P is the
    total of the ragged ``Prices`` list."""
    if model == "coin":
        idx = range(1, binding["N"] + 1)
        return ["theta"] + [f"heads_{i}" for i in idx], [("theta", f"heads_{i}", True) for i in idx]
    if model == "banks":
        cells = [(i, j) for i, n in enumerate(binding["Prices"], 1) for j in range(1, n + 1)]
        names = ["theta", "mu", "lambda"] + [f"class_{i}" for i in range(1, binding["Banks"] + 1)]
        names += [f"{v}_{i}_{j}" for v in ("spread", "bid_ask_diff") for i, j in cells]
        edges = [("theta", f"class_{i}", True) for i in range(1, binding["Banks"] + 1)]
        for i, j in cells:
            edges += [
                ("lambda", f"spread_{i}_{j}", True),
                (f"class_{i}", f"spread_{i}_{j}", True),
                ("mu", f"bid_ask_diff_{i}_{j}", True),
                (f"class_{i}", f"bid_ask_diff_{i}_{j}", True),
            ]
        return names, edges
    raise KeyError(model)


def edge_key(u: str, v: str, directed: bool):
    return (u, v) if directed else frozenset((u, v))


def singleton_query_count(n: int) -> int:
    """Every pair of nodes against every subset of the other n - 2."""
    return n * (n - 1) // 2 * 2 ** (n - 2)


# -- a small reader for the .cg language ----------------------------------------

_TOKEN = re.compile(r"#[^\n]*|(?P<tok>->|--|[{}\[\];]|[A-Za-z_][A-Za-z0-9_]*|\d+)|\s+|(?P<bad>.)")


@dataclass
class Model:
    nodes: list[str] = field(default_factory=list)
    observed: set[str] = field(default_factory=set)
    deterministic: set[str] = field(default_factory=set)
    edges: list[tuple[str, str, bool]] = field(default_factory=list)


def read_model(source: str) -> Model:
    """Read a well-formed `.cg` model; raises ValueError on anything else."""
    toks = []
    for m in _TOKEN.finditer(source):
        if m.group("bad"):
            raise ValueError(f"unexpected character {m.group('bad')!r}")
        if m.group("tok"):
            toks.append(m.group("tok"))
    model = Model()
    stack: list[str] = []
    i = 0

    def take(want: str | None = None) -> str:
        nonlocal i
        if i >= len(toks) or (want is not None and toks[i] != want):
            raise ValueError(f"expected {want!r} at token {i}")
        i += 1
        return toks[i - 1]

    take("model")
    take()
    take("{")
    while toks[i] != "}" or stack:
        if toks[i] == "}":
            take("}")
            stack.pop()
            continue
        flags = set()
        while toks[i] in ("obs", "det"):
            flags.add(take())
        if toks[i] == "node":
            take()
            name = take()
            if toks[i] == "[":
                take("[")
                take()
                take("]")
            take(";")
            model.nodes.append(name)
            if "obs" in flags:
                model.observed.add(name)
            if "det" in flags:
                model.deterministic.add(name)
        elif toks[i] == "plate":
            take()
            name = take()
            take("[")
            take()
            take("]")
            take("{")
            stack.append(name)
        else:
            u = take()
            kind = take()
            if kind not in ("->", "--"):
                raise ValueError(f"expected an edge after {u!r}")
            v = take()
            take(";")
            model.edges.append((u, v, kind == "->"))
    take("}")
    if i != len(toks):
        raise ValueError("text after the model")
    return model


# -- graph references -------------------------------------------------------------


def _adjacency(names, edges):
    parents = {n: set() for n in names}
    children = {n: set() for n in names}
    neighbors = {n: set() for n in names}
    for u, v, d in edges:
        if d:
            parents[v].add(u)
            children[u].add(v)
        else:
            neighbors[u].add(v)
            neighbors[v].add(u)
    return parents, children, neighbors


def undirected_components(names, edges) -> list[frozenset[str]]:
    """Connected components once every arc is deleted (union-find)."""
    root = {n: n for n in names}

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for u, v, d in edges:
        if not d:
            root[find(u)] = find(v)
    groups: dict[str, set[str]] = {}
    for n in names:
        groups.setdefault(find(n), set()).add(n)
    return [frozenset(g) for g in groups.values()]


def has_semi_directed_cycle(names, edges) -> bool:
    """A semi-directed cycle exists iff some arc has both ends in one strongly
    connected component of the graph where undirected edges run both ways
    (Tarjan's algorithm, iterative)."""
    succ = {n: [] for n in names}
    for u, v, d in edges:
        succ[u].append(v)
        if not d:
            succ[v].append(u)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    comp: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = 0
    for start in names:
        if start in index:
            continue
        work = [(start, iter(succ[start]))]
        index[start] = low[start] = counter
        counter += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            x, it = work[-1]
            advanced = False
            for y in it:
                if y not in index:
                    index[y] = low[y] = counter
                    counter += 1
                    stack.append(y)
                    on_stack.add(y)
                    work.append((y, iter(succ[y])))
                    advanced = True
                    break
                if y in on_stack:
                    low[x] = min(low[x], index[y])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[x])
            if low[x] == index[x]:
                while True:
                    y = stack.pop()
                    on_stack.discard(y)
                    comp[y] = index[x]
                    if y == x:
                        break
    return any(d and comp[u] == comp[v] for u, v, d in edges)


def is_semi_directed_cycle(nodes, edges) -> bool:
    """True iff ``nodes``, read cyclically, walks the graph along arcs forward
    and undirected edges either way, using at least one arc."""
    if len(nodes) < 2:
        return False
    arcs = {(u, v) for u, v, d in edges if d}
    lines = {frozenset((u, v)) for u, v, d in edges if not d}
    used_arc = False
    for k, u in enumerate(nodes):
        v = nodes[(k + 1) % len(nodes)]
        if (u, v) in arcs:
            used_arc = True
        elif frozenset((u, v)) not in lines:
            return False
    return used_arc


def moral_edges(names, edges) -> set[frozenset[str]]:
    """Skeleton plus, per chain component, every pair of its parents."""
    parents, _, _ = _adjacency(names, edges)
    out = {frozenset((u, v)) for u, v, _ in edges}
    for comp in undirected_components(names, edges):
        ps = sorted(set().union(*(parents[x] for x in comp)) - comp)
        for k, u in enumerate(ps):
            for v in ps[k + 1:]:
                out.add(frozenset((u, v)))
    return out


def lwf_separated(names, edges, a: str, b: str, s) -> bool:
    """A _||_ B | S under the LWF Markov property: separation in the moral
    graph of the smallest anterior set holding A, B and S."""
    parents, _, neighbors = _adjacency(names, edges)
    keep = {a, b, *s}
    todo = list(keep)
    while todo:
        x = todo.pop()
        for y in parents[x] | neighbors[x]:
            if y not in keep:
                keep.add(y)
                todo.append(y)
    sub = [e for e in edges if e[0] in keep and e[1] in keep]
    adj: dict[str, set[str]] = {n: set() for n in keep}
    for pair in moral_edges([n for n in names if n in keep], sub):
        u, v = tuple(pair)
        adj[u].add(v)
        adj[v].add(u)
    blocked = set(s)
    seen = {a}
    todo = [a]
    while todo:
        for y in adj[todo.pop()]:
            if y == b:
                return False
            if y not in seen and y not in blocked:
                seen.add(y)
                todo.append(y)
    return True


def d_separated(names, edges, a: str, b: str, s) -> bool:
    """Path-based d-separation on a DAG (reachability over active trails)."""
    parents, children, _ = _adjacency(names, edges)
    s = set(s)
    anc = set(s)
    todo = list(s)
    while todo:
        for p in parents[todo.pop()]:
            if p not in anc:
                anc.add(p)
                todo.append(p)
    visited = set()
    frontier = [(a, "up")]
    while frontier:
        state = frontier.pop()
        if state in visited:
            continue
        visited.add(state)
        x, direction = state
        if x == b and x not in s:
            return False
        if direction == "up":
            if x in s:
                continue
            frontier.extend((p, "up") for p in parents[x])
            frontier.extend((c, "down") for c in children[x])
        else:
            if x not in s:
                frontier.extend((c, "down") for c in children[x])
            if x in anc:
                frontier.extend((p, "up") for p in parents[x])
    return True


# -- rendered factorizations -----------------------------------------------------

_TERM = re.compile(r"(?:p|delta|f_\d+)\(([^()]*)\)|Z\^-1")


def rendered_terms(text: str) -> list[set[str]]:
    """The variable set of each term of a flat text factorization."""
    terms = []
    for m in _TERM.finditer(text):
        inside = m.group(1) or ""
        terms.append({v for v in re.split(r"[,|]", inside) if v})
    return terms


def factorization_problem(text: str, names, edges) -> str | None:
    """Every node appears in some term, and the two ends of every edge
    appear together in some term; the reason if not."""
    terms = rendered_terms(text)
    if not terms:
        return "no terms"
    seen = set().union(*terms)
    missing = [n for n in names if n not in seen]
    if missing:
        return f"node {missing[0]} appears in no term"
    by_node: dict[str, list[int]] = {}
    for k, t in enumerate(terms):
        for v in t:
            by_node.setdefault(v, []).append(k)
    for u, v, _ in edges:
        if not set(by_node[u]) & set(by_node[v]):
            return f"edge {u}-{v} is in no term"
    return None
