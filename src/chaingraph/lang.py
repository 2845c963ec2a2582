"""The .cg model language.

    model M {
        obs node x [3];      # attributes: det, obs; bracket = domain size
        node y;
        x -> y;              # directed arc
        x -- y;              # undirected edge (not both!)
        plate p [N] {        # bracketed name = cardinality symbol
            node z;
        }
    }

`#` starts a line comment.  Parsing recovers after a bad statement so one
pass reports many errors; `resolve` turns an AST into a validated
PlateModel, reusing the statement spans for graph-level diagnostics.
Neither ever raises on arbitrary input text.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Union

from .core import ChainGraph, Edge, GraphError, NodeAttr, Violation
from .plates import Plate, PlateError, PlateModel, validate_plates
from .core import validate_chain_graph

MAX_PLATE_NESTING = 16

_KEYWORDS = frozenset({"model", "node", "plate", "det", "obs"})


class _SourceSpan(NamedTuple):
    line: int  # 1-based, of the span start
    column: int  # 1-based
    start: int  # byte offset, inclusive
    end: int  # byte offset, exclusive


class SourceSpan(_SourceSpan):
    __slots__ = ()

    def __new__(cls, line: int, column: int, start: int, end: int) -> "SourceSpan":
        if start > end:
            raise ValueError("span start after end")
        return tuple.__new__(cls, (line, column, start, end))

    @classmethod
    def _make(cls, fields: Iterable) -> "SourceSpan":
        # ``_replace`` builds through here, so it checks too
        return cls(*fields)


class Diagnostic(NamedTuple):
    severity: str  # "error" | "warning"
    message: str
    span: SourceSpan | None = None

    def render(self, filename: str = "<model>") -> str:
        if self.span is None:
            return f"{filename}: {self.severity}: {self.message}"
        return f"{filename}:{self.span.line}:{self.span.column}: {self.severity}: {self.message}"


# -- AST ---------------------------------------------------------------------


class NodeDecl(NamedTuple):
    name: str
    attrs: tuple[str, ...]  # subset of {"det", "obs"}, canonical order
    domain: int | None
    span: SourceSpan


class EdgeDecl(NamedTuple):
    u: str
    v: str
    directed: bool
    span: SourceSpan


class PlateDecl(NamedTuple):
    name: str
    symbol: str
    body: tuple["Stmt", ...]
    span: SourceSpan


Stmt = Union[NodeDecl, EdgeDecl, PlateDecl]


class ModelAst(NamedTuple):
    name: str
    statements: tuple[Stmt, ...]
    span: SourceSpan


class ParseResult:
    def __init__(self, ast: ModelAst | None, diagnostics: list[Diagnostic]) -> None:
        self.ast = ast
        self.diagnostics = diagnostics

    @property
    def ok(self) -> bool:
        return self.ast is not None and not any(d.severity == "error" for d in self.diagnostics)


# -- lexer -------------------------------------------------------------------

# One alternative per token kind, tried in order; a match's kind is its group
# name.  ``skip`` is whitespace or a comment, and the last three groups are
# lexical errors.  An ``ident`` may not run into a non-ASCII word character,
# so ``abcé`` is one ``word``, reported whole.
_TOKEN = re.compile(
    r"(?P<skip>[ \t\r\n]+|\#[^\n]*)"
    r"|(?P<lbrace>\{)|(?P<rbrace>\})|(?P<lbracket>\[)|(?P<rbracket>\])|(?P<semi>;)"
    r"|(?P<arrow>->)|(?P<line>--)|(?P<stray>-)"
    r"|(?P<int>[0-9]+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*(?!\w))"
    r"|(?P<word>[^\W\d]\w*)"
    r"|(?P<char>.)",
    re.DOTALL,
)

_LEX_ERRORS = {
    "stray": "stray '-': expected '->' or '--'",
    "word": "non-ASCII identifier {!r}",
    "char": "unexpected character {!r}",
}


class _Token(NamedTuple):
    kind: str  # a _TOKEN group other than skip and the errors, a keyword, or eof
    value: str
    span: SourceSpan


def _lex(source: str, diags: list[Diagnostic]) -> list[_Token]:
    """Tokens of ``source``, ending with ``eof``; lexical errors go to
    ``diags``.  Columns count code points, offsets count UTF-8 bytes."""
    toks: list[_Token] = []
    line, line_start = 1, 0
    ascii_only = source.isascii()
    byte = 0  # where the current match ends, in UTF-8 bytes
    for m in _TOKEN.finditer(source):
        kind, text, i = m.lastgroup, m.group(), m.start()
        if ascii_only:
            b, byte = i, m.end()
        else:
            b, byte = byte, byte + len(text.encode("utf-8", "surrogatepass"))
        if kind == "skip":
            if "\n" in text:
                line += text.count("\n")
                line_start = i + text.rindex("\n") + 1
            continue
        span = SourceSpan(line, i - line_start + 1, b, byte)
        if kind in _LEX_ERRORS:
            diags.append(Diagnostic("error", _LEX_ERRORS[kind].format(text), span))
            continue
        if kind == "ident" and text in _KEYWORDS:
            kind = text
        toks.append(_Token(kind, text, span))
    toks.append(_Token("eof", "", SourceSpan(line, len(source) - line_start + 1, byte, byte)))
    return toks


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, toks: list[_Token], diags: list[Diagnostic]) -> None:
        self.toks = toks
        self.pos = 0
        self.diags = diags

    @property
    def cur(self) -> _Token:
        return self.toks[self.pos]

    def bump(self) -> _Token:
        t = self.cur
        if t.kind != "eof":
            self.pos += 1
        return t

    def error(self, message: str, span: SourceSpan | None = None) -> None:
        self.diags.append(Diagnostic("error", message, span or self.cur.span))

    def expect(self, kind: str, what: str) -> _Token | None:
        if self.cur.kind == kind:
            return self.bump()
        got = self.cur.value or "end of input"
        self.error(f"expected {what}, found {got!r}")
        return None

    def sync_statement(self) -> None:
        """Skip to just past the next ';' at brace depth 0 (or stop before
        an unmatched '}' / at end of input)."""
        depth = 0
        while True:
            k = self.cur.kind
            if k == "eof":
                return
            if k == "lbrace":
                depth += 1
            elif k == "rbrace":
                if depth == 0:
                    return
                depth -= 1
            elif k == "semi" and depth == 0:
                self.bump()
                return
            self.bump()

    def skip_block(self) -> None:
        """Consume a '{ ... }' without building anything (over-deep plates)."""
        if self.cur.kind != "lbrace":
            return
        depth = 0
        while self.cur.kind != "eof":
            k = self.bump().kind
            if k == "lbrace":
                depth += 1
            elif k == "rbrace":
                depth -= 1
                if depth == 0:
                    return

    def parse_model(self) -> ModelAst | None:
        first = self.cur.span
        if self.expect("model", "'model'") is None:
            return None
        name_tok = self.expect("ident", "model name")
        if name_tok is None:
            return None
        if self.expect("lbrace", "'{'") is None:
            return None
        stmts = self.parse_statements(depth=0)
        closing = self.expect("rbrace", "'}'")
        if self.cur.kind != "eof":
            self.error("trailing input after model")
        end = (closing or self.toks[self.pos - 1] if self.pos else self.cur).span.end
        return ModelAst(name_tok.value, tuple(stmts), SourceSpan(first.line, first.column, first.start, end))

    def parse_statements(self, depth: int) -> list[Stmt]:
        out: list[Stmt] = []
        while True:
            k = self.cur.kind
            if k in ("rbrace", "eof"):
                return out
            stmt = self.parse_statement(depth)
            if stmt is not None:
                out.append(stmt)

    def parse_statement(self, depth: int) -> Stmt | None:
        t = self.cur
        if t.kind in ("det", "obs", "node"):
            return self.parse_node_decl()
        if t.kind == "plate":
            return self.parse_plate_decl(depth)
        if t.kind == "ident":
            return self.parse_edge_decl()
        self.error(f"expected a statement, found {t.value or 'end of input'!r}")
        self.sync_statement()
        return None

    def parse_node_decl(self) -> NodeDecl | None:
        start = self.cur.span
        attrs: list[str] = []
        while self.cur.kind in ("det", "obs"):
            word = self.bump().value
            if word in attrs:
                self.error(f"duplicate attribute '{word}'", self.toks[self.pos - 1].span)
            else:
                attrs.append(word)
        if self.expect("node", "'node'") is None:
            self.sync_statement()
            return None
        name = self.expect("ident", "node name")
        if name is None:
            self.sync_statement()
            return None
        domain: int | None = None
        if self.cur.kind == "lbracket":
            self.bump()
            size = self.expect("int", "domain size")
            if size is None or self.expect("rbracket", "']'") is None:
                self.sync_statement()
                return None
            domain = int(size.value)
            if domain < 1:
                self.error(f"domain size must be at least 1, got {domain}", size.span)
                self.sync_statement()
                return None
        semi = self.expect("semi", "';'")
        if semi is None:
            self.sync_statement()
            return None
        ordered = tuple(a for a in ("det", "obs") if a in attrs)
        return NodeDecl(name.value, ordered, domain, _join(start, semi.span))

    def parse_edge_decl(self) -> EdgeDecl | None:
        u = self.bump()  # ident, checked by caller
        if self.cur.kind not in ("arrow", "line"):
            got = self.cur.value or "end of input"
            self.error(f"expected '->' or '--' after {u.value!r}, found {got!r}")
            self.sync_statement()
            return None
        directed = self.bump().kind == "arrow"
        v = self.expect("ident", "edge endpoint")
        if v is None:
            self.sync_statement()
            return None
        semi = self.expect("semi", "';'")
        if semi is None:
            self.sync_statement()
            return None
        return EdgeDecl(u.value, v.value, directed, _join(u.span, semi.span))

    def parse_plate_decl(self, depth: int) -> PlateDecl | None:
        start = self.bump().span  # 'plate'
        name = self.expect("ident", "plate name")
        if name is None:
            self.sync_statement()
            return None
        if self.expect("lbracket", "'['") is None:
            self.sync_statement()
            return None
        symbol = self.expect("ident", "cardinality symbol")
        if symbol is None or self.expect("rbracket", "']'") is None:
            self.sync_statement()
            return None
        if depth + 1 > MAX_PLATE_NESTING:
            self.error(
                f"plate {name.value!r} has {depth + 1} levels of nesting, over the limit of {MAX_PLATE_NESTING}",
                start,
            )
            self.skip_block()
            return None
        if self.expect("lbrace", "'{'") is None:
            self.sync_statement()
            return None
        body = self.parse_statements(depth + 1)
        closing = self.expect("rbrace", "'}'")
        end = closing.span if closing else self.toks[max(self.pos - 1, 0)].span
        return PlateDecl(name.value, symbol.value, tuple(body), _join(start, end))


def _join(a: SourceSpan, b: SourceSpan) -> SourceSpan:
    return SourceSpan(a.line, a.column, a.start, max(a.end, b.end))


def parse(source: str) -> ParseResult:
    """Parse model text.  Never raises; errors are returned as diagnostics
    and parsing resumes at the next statement."""
    diags: list[Diagnostic] = []
    toks = _lex(source, diags)
    ast = _Parser(toks, diags).parse_model()
    return ParseResult(ast, diags)


# -- resolver ----------------------------------------------------------------


class ResolveResult:
    def __init__(self, model: PlateModel | None, diagnostics: list[Diagnostic]) -> None:
        self.model = model
        self.diagnostics = diagnostics

    @property
    def ok(self) -> bool:
        return self.model is not None


def _walk(stmts: tuple[Stmt, ...], stack: tuple[str, ...]) -> Iterator[tuple[Stmt, tuple[str, ...]]]:
    for s in stmts:
        yield s, stack
        if isinstance(s, PlateDecl):
            yield from _walk(s.body, stack + (s.name,))


def resolve(ast: ModelAst) -> ResolveResult:
    diags: list[Diagnostic] = []
    node_spans: dict[str, SourceSpan] = {}
    attrs: dict[str, NodeAttr] = {}
    plate_members: dict[str, set[str]] = {}
    plate_decls: dict[str, PlateDecl] = {}
    plate_parent: dict[str, str | None] = {}
    plate_order: list[str] = []
    edge_decls: list[EdgeDecl] = []

    for stmt, stack in _walk(ast.statements, ()):
        if isinstance(stmt, NodeDecl):
            if stmt.name in attrs:
                diags.append(Diagnostic("error", f"duplicate node {stmt.name!r}", stmt.span))
                continue
            attrs[stmt.name] = NodeAttr(
                deterministic="det" in stmt.attrs,
                observed="obs" in stmt.attrs,
                domain_size=stmt.domain if stmt.domain is not None else 2,
            )
            node_spans[stmt.name] = stmt.span
            for plate_name in stack:
                plate_members[plate_name].add(stmt.name)
        elif isinstance(stmt, PlateDecl):
            if stmt.name in plate_decls:
                diags.append(Diagnostic("error", f"duplicate plate {stmt.name!r}", stmt.span))
                continue
            plate_decls[stmt.name] = stmt
            plate_members[stmt.name] = set()
            plate_parent[stmt.name] = stack[-1] if stack else None
            plate_order.append(stmt.name)
        else:
            edge_decls.append(stmt)

    seen_pairs: dict[frozenset[str], EdgeDecl] = {}
    edges: list[Edge] = []
    for d in edge_decls:
        bad = False
        for endpoint in (d.u, d.v):
            if endpoint not in attrs:
                diags.append(Diagnostic("error", f"unknown node {endpoint!r} in edge", d.span))
                bad = True
        if bad:
            continue
        if d.u == d.v:
            diags.append(Diagnostic("error", f"self loop on {d.u!r}", d.span))
            continue
        pair = frozenset((d.u, d.v))
        if pair in seen_pairs:
            diags.append(Diagnostic("error", f"duplicate edge between {d.u!r} and {d.v!r}", d.span))
            continue
        seen_pairs[pair] = d
        edges.append(Edge(d.u, d.v, d.directed))

    if not attrs:
        diags.append(Diagnostic("error", "model declares no nodes", ast.span))

    if any(d.severity == "error" for d in diags):
        return ResolveResult(None, diags)

    try:
        graph = ChainGraph(attrs, edges)
        model = PlateModel(
            graph,
            tuple(
                Plate(
                    name,
                    plate_decls[name].symbol,
                    frozenset(plate_members[name]),
                    plate_parent[name],
                )
                for name in plate_order
            ),
            name=ast.name,
        )
    except (GraphError, PlateError) as exc:
        diags.append(Diagnostic("error", str(exc), ast.span))
        return ResolveResult(None, diags)

    def span_for(v: Violation) -> SourceSpan:
        if v.edge is not None:
            for d in edge_decls:
                if {d.u, d.v} == set(v.edge):
                    return d.span
        for n in v.nodes:
            if n in node_spans:
                return node_spans[n]
        return ast.span

    report = validate_chain_graph(graph)
    plate_report = validate_plates(model)
    for violation in report.errors + plate_report.errors:
        diags.append(Diagnostic("error", violation.message, span_for(violation)))
    for text in report.warnings + plate_report.warnings:
        diags.append(Diagnostic("warning", text, ast.span))

    if any(d.severity == "error" for d in diags):
        return ResolveResult(None, diags)
    return ResolveResult(model, diags)


# -- emission and loading ----------------------------------------------------


def emit_model(m: Union[PlateModel, ChainGraph], name: str | None = None) -> str:
    """Model text that resolves back to an equivalent model.

    Nodes keep their declaration order except that a plate's members are
    grouped into its block (they are contiguous for any parsed model): a
    top-level plate opens at its first member, and one with no member
    node opens after the unplated nodes.  A node in two plates that do not
    nest (which `validate_plates` accepts) has no text: PlateError.
    """
    if isinstance(m, ChainGraph):
        m = PlateModel(m)
    g = m.graph
    for v in g.node_names:
        chain = m.membership(v)
        apart = [p.name for p in chain if p not in m.path(chain[-1])] if chain else []
        if apart:
            raise PlateError(
                f"node {v!r} is in plates {apart[0]!r} and {chain[-1].name!r}, which do not nest;"
                " .cg text cannot place it in both"
            )
    lines: list[str] = [f"model {name or m.name} {{"]

    def node_line(v: str, pad: str) -> str:
        a = g.attr(v)
        words = [w for w, on in (("det", a.deterministic), ("obs", a.observed)) if on]
        words += ["node", v]
        dom = f" [{a.domain_size}]" if a.domain_size != 2 else ""
        return f"{pad}{' '.join(words)}{dom};"

    def open_plate(root: Plate) -> None:
        for d, item in m.walk(root):
            pad = "    " * (d + 1)
            if isinstance(item, Plate):
                lines.append(f"{pad}plate {item.name} [{item.symbol}] {{")
            elif item is None:
                lines.append(f"{pad}}}")
            else:
                lines.append(node_line(item, pad))

    opened: set[str] = set()
    for v in g.node_names:
        chain = m.membership(v)
        if not chain:
            lines.append(node_line(v, "    "))
        elif chain[0].name not in opened:
            opened.add(chain[0].name)
            open_plate(chain[0])
    for root in m.children(None):
        if root.name not in opened:
            open_plate(root)
    for e in g.edges:
        op = "->" if e.directed else "--"
        lines.append(f"    {e.u} {op} {e.v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


class ModelError(ValueError):
    """Raised by the throwing convenience loaders; carries rendered diagnostics."""

    def __init__(self, filename: str, diagnostics: list[Diagnostic]) -> None:
        self.filename = filename
        self.diagnostics = diagnostics
        super().__init__(
            "\n".join(d.render(filename) for d in diagnostics) or f"{filename}: invalid model"
        )


def parse_model(source: str, filename: str = "<model>") -> PlateModel:
    """Parse + resolve, raising ModelError on any error diagnostic."""
    parsed = parse(source)
    if parsed.ast is None or not parsed.ok:
        raise ModelError(filename, [d for d in parsed.diagnostics if d.severity == "error"])
    resolved = resolve(parsed.ast)
    if resolved.model is None:
        raise ModelError(filename, [d for d in resolved.diagnostics if d.severity == "error"])
    return resolved.model


def load_model(path: str | Path) -> PlateModel:
    p = Path(path)
    return parse_model(p.read_text(encoding="utf-8"), str(p))
