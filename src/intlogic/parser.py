"""Concrete ASCII syntax: lexer, recursive-descent parser and pretty printer.

Token set:  ~  /\\  \\/  &  |+|  ->  ALL x.  EX x.  INT ... dx  rat(p/q)  =

Precedence (tightest first): ~ ; & and |+| ; /\\ and \\/ ; -> (right
associative).  Quantifiers bind the longest formula to the right; '='
appears only at the top level, between two quantifier expressions.

The lexer is one linear scan of the whole text (`_TOKEN_RE.finditer`)
whose last alternative matches any single character, so the first
character no token starts with is an error before parsing begins.  A
token keeps its text's offsets; its line and column are computed only
when an error reports them.

Nesting is bounded by `MAX_NESTING`: every `~`, quantifier, `INT`,
parenthesis, `->` and function application opens one level, and the formula
tree (binary connectives included) may be no deeper.  Deeper input is a
ParseError, so the recursive parser, printer and evaluator stay well inside
Python's recursion limit.

Identifier classification is driven by the vocabulary: a name declared as a
predicate/function/constant parses as such, anything else in term position
is a variable.  Without a vocabulary the parser runs in permissive mode and
infers symbol kinds from usage (applied name in formula position ->
predicate, applied name in term position -> function, bare name ->
variable), holding arities consistent across one `VocabBuilder`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import ArityMismatch, NestedQuantEq, ParseError, UnknownSymbol, ValueOutOfRange
from .rational import unit
from .syntax import (
    APPROX_PRED,
    EQ_PRED,
    And,
    Atom,
    Constant,
    Exists,
    Forall,
    Formula,
    FuncApp,
    Implies,
    Integral,
    Not,
    Or,
    QuantEq,
    StrongAnd,
    StrongOr,
    Term,
    TruthConst,
    Variable,
    Vocabulary,
    free_vars,
    substitute,
)


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    line: int
    column: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError("span start exceeds end")

    def __str__(self):
        return f"line {self.line}, column {self.column}"


class Token(NamedTuple):
    """One lexeme, its offsets and the text it was read from.

    `line`, `column` and `span` are computed from `start` when read, which
    only error reports do.
    """

    kind: str
    text: str
    start: int
    end: int
    source: str

    @property
    def line(self) -> int:
        return self.source.count("\n", 0, self.start) + 1

    @property
    def column(self) -> int:
        return self.start - self.source.rfind("\n", 0, self.start)

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end, self.line, self.column)


_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<WAND>/\\)
  | (?P<WOR>\\/)
  | (?P<SOR>\|\+\|)
  | (?P<ARROW>->)
  | (?P<TILDE>~)
  | (?P<AMP>&)
  | (?P<EQUALS>=)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<DOT>\.)
  | (?P<SLASH>/)
  | (?P<NUMBER>\d+)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<BAD>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_KEYWORDS = {"ALL", "EX", "INT"}

MAX_NESTING = 100


def tokenize(text: str) -> list[Token]:
    """The tokens of `text` and a closing `EOF`, from one scan of the whole text.

    The first character no token starts with raises `ParseError`, so a bad
    character anywhere wins over every error the parser could report.
    """
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind != "WS":
            token = Token(kind, match.group(), match.start(), match.end(), text)
            if kind == "BAD":
                raise ParseError(f"unexpected character {token.text!r}", token.span)
            tokens.append(token)
    tokens.append(Token("EOF", "", len(text), len(text), text))
    return tokens


class VocabBuilder:
    """Grow a vocabulary from usage while parsing without declarations."""

    def __init__(self):
        self.predicates: dict[str, int] = {}
        self.functions: dict[str, int] = {}

    def predicate(self, name: str, arity: int, token: Token) -> None:
        self._record(self.predicates, self.functions, "predicate", name, arity, token)

    def function(self, name: str, arity: int, token: Token) -> None:
        self._record(self.functions, self.predicates, "function", name, arity, token)

    @staticmethod
    def _record(table, other, kind, name, arity, token):
        """Record one use of `name`; an inconsistent use is an error at `token`."""
        if name in other:
            raise ParseError(f"{name!r} used both as predicate and function", token.span)
        seen = table.setdefault(name, arity)
        if seen != arity:
            raise ArityMismatch(f"{kind} {name!r} used with arities {seen} and {arity}", token.span)


class _Parser:
    def __init__(self, tokens: list[Token], voc: Vocabulary | None, builder: VocabBuilder | None):
        self.tokens = tokens
        self.pos = 0
        self.voc = voc
        self.builder = builder
        self.depth = 0

    # -- token helpers ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.text or 'end of input'!r}", tok.span)
        return self.advance()

    def nested(self, parse, tok: Token):
        """Run `parse` one nesting level deeper than `tok`."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"formula nests deeper than {MAX_NESTING} levels", tok.span)
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

    # -- grammar ----------------------------------------------------------

    def parse_top(self) -> Formula:
        first = self.parse_impl()
        if self.peek().kind == "EQUALS":
            eq_tok = self.advance()
            second = self.parse_impl()
            try:
                result: Formula = QuantEq(first, second)
            except ValueError as exc:
                raise ParseError(str(exc), eq_tok.span) from None
        else:
            result = first
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.span)
        return result

    def parse_impl(self) -> Formula:
        left = self.parse_weak()
        if self.peek().kind == "ARROW":
            arrow = self.advance()
            return Implies(left, self.nested(self.parse_impl, arrow))
        return left

    def parse_weak(self) -> Formula:
        left = self.parse_strong()
        while self.peek().kind in ("WAND", "WOR"):
            op = self.advance()
            right = self.parse_strong()
            left = And(left, right) if op.kind == "WAND" else Or(left, right)
        return left

    def parse_strong(self) -> Formula:
        left = self.parse_unary()
        while self.peek().kind in ("AMP", "SOR"):
            op = self.advance()
            right = self.parse_unary()
            left = StrongAnd(left, right) if op.kind == "AMP" else StrongOr(left, right)
        return left

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "TILDE":
            self.advance()
            return Not(self.nested(self.parse_unary, tok))
        if tok.kind == "IDENT" and tok.text in ("ALL", "EX"):
            self.advance()
            var = self.parse_bound_variable()
            self.expect("DOT", "'.' after the bound variable")
            body = self.nested(self.parse_impl, tok)
            return Forall(var, body) if tok.text == "ALL" else Exists(var, body)
        if tok.kind == "IDENT" and tok.text == "INT":
            self.advance()
            body = self.nested(self.parse_impl, tok)
            dtok = self.expect("IDENT", "the closing 'd<var>' of the integral")
            if len(dtok.text) < 2 or not dtok.text.startswith("d"):
                raise ParseError(f"expected 'd<var>' to close the integral, found {dtok.text!r}", dtok.span)
            return Integral(dtok.text[1:], body)
        if tok.kind == "LPAREN":
            self.advance()
            inner = self.nested(self.parse_impl, tok)
            self.expect("RPAREN", "')'")
            return inner
        if tok.kind == "IDENT" and tok.text == "rat":
            return self.parse_truth_const()
        if tok.kind == "IDENT":
            return self.parse_atom()
        raise ParseError(f"expected a formula, found {tok.text or 'end of input'!r}", tok.span)

    def parse_bound_variable(self) -> str:
        tok = self.expect("IDENT", "a variable name")
        if tok.text in _KEYWORDS or tok.text == "rat":
            raise ParseError(f"{tok.text!r} is a keyword, not a variable", tok.span)
        if self.voc is not None and tok.text in self.voc.symbol_names():
            raise ParseError(f"{tok.text!r} is a declared symbol, not a variable", tok.span)
        return tok.text

    def parse_truth_const(self) -> Formula:
        rat_tok = self.advance()
        self.expect("LPAREN", "'(' after rat")
        num = self.expect("NUMBER", "a numerator")
        if self.peek().kind == "SLASH":
            self.advance()
            den = self.expect("NUMBER", "a denominator")
            if int(den.text) == 0:
                raise ParseError("denominator must be nonzero", den.span)
            value = Fraction(int(num.text), int(den.text))
        else:
            value = Fraction(int(num.text))
        close = self.expect("RPAREN", "')'")
        try:
            value = unit(value)
        except ValueOutOfRange:
            raise ParseError(f"truth constant {value} is outside [0, 1]",
                             SourceSpan(rat_tok.start, close.end, rat_tok.line, rat_tok.column))
        return TruthConst(value)

    def parse_atom(self) -> Formula:
        tok = self.advance()
        name = tok.text
        if self.peek().kind != "LPAREN":
            raise ParseError(f"expected a predicate application, found bare name {name!r}", tok.span)
        args = self.parse_args()
        if self.voc is not None:
            arity = self.voc.predicate_arity(name)
            if arity is None:
                if self.voc.function_arity(name) is not None or self.voc.is_constant(name):
                    raise ParseError(f"{name!r} is not a predicate", tok.span)
                raise UnknownSymbol(name, span=tok.span)
            if arity != len(args):
                raise ArityMismatch(
                    f"predicate {name!r} expects {arity} arguments, got {len(args)}", tok.span)
        else:
            if name in (EQ_PRED, APPROX_PRED):
                if len(args) != 2:
                    raise ArityMismatch(f"predicate {name!r} expects 2 arguments, got {len(args)}", tok.span)
            elif self.builder is not None:
                self.builder.predicate(name, len(args), tok)
        return Atom(name, args)

    def parse_args(self) -> tuple[Term, ...]:
        self.expect("LPAREN", "'('")
        args = [self.parse_term()]
        while self.peek().kind == "COMMA":
            self.advance()
            args.append(self.parse_term())
        self.expect("RPAREN", "')'")
        return tuple(args)

    def parse_term(self) -> Term:
        tok = self.expect("IDENT", "a term")
        name = tok.text
        if name in _KEYWORDS or name == "rat":
            raise ParseError(f"{name!r} is a keyword, not a term", tok.span)
        if self.peek().kind == "LPAREN":
            args = self.nested(self.parse_args, tok)
            if self.voc is not None:
                arity = self.voc.function_arity(name)
                if arity is None:
                    if self.voc.predicate_arity(name) is not None:
                        raise ParseError(f"predicate {name!r} cannot appear inside a term", tok.span)
                    raise UnknownSymbol(name, span=tok.span)
                if arity != len(args):
                    raise ArityMismatch(
                        f"function {name!r} expects {arity} arguments, got {len(args)}", tok.span)
            elif self.builder is not None:
                self.builder.function(name, len(args), tok)
            return FuncApp(name, args)
        if self.voc is not None:
            if self.voc.is_constant(name):
                return Constant(name)
            if self.voc.predicate_arity(name) is not None or self.voc.function_arity(name) is not None:
                raise ParseError(f"symbol {name!r} needs arguments", tok.span)
        return Variable(name)


def parse_formula(text: str, voc: Vocabulary | None = None, builder: VocabBuilder | None = None) -> Formula:
    """Parse `text` into a formula over `voc`.

    With `voc=None` the parser is permissive and classifies symbols from
    usage; pass a shared `builder` to hold arities consistent across several
    related formulas (a sentence pool, a proof script).
    """
    formula = _Parser(tokenize(text), voc, builder).parse_top()
    if _tree_depth(formula) > MAX_NESTING:
        raise ParseError(f"formula nests deeper than {MAX_NESTING} levels",
                         SourceSpan(0, len(text), 1, 1))
    return formula


def _tree_depth(formula: Formula) -> int:
    """Nesting depth of the formula tree, counted like `_Parser.nested` but without recursion.

    Chains of binary connectives nest in the tree without nesting in the parser.
    """
    deepest = 0
    stack = [(formula, 0)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, Atom):
            stack.extend((arg, depth) for arg in node.args)
        elif isinstance(node, FuncApp):
            stack.extend((arg, depth + 1) for arg in node.args)
        elif isinstance(node, QuantEq):
            stack += [(node.left, depth), (node.right, depth)]
        elif isinstance(node, (Not, Forall, Exists, Integral)):
            stack.append((node.body, depth + 1))
        elif isinstance(node, (And, Or, StrongAnd, StrongOr, Implies)):
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
    return deepest


def close_free_names(formula: Formula) -> Formula:
    """Reinterpret the free variables of a permissively parsed formula as constants.

    Binding is explicit in the syntax, so a name that stays free across the
    whole formula can only have been meant as a constant.
    """
    out = formula
    for name in sorted(free_vars(formula)):
        out = substitute(out, name, Constant(name))
    return out


# ---------------------------------------------------------------------------
# Pretty printer

_LEVEL_IMPL = 1
_LEVEL_WEAK = 2
_LEVEL_STRONG = 3
_LEVEL_UNARY = 4
_LEVEL_ATOM = 5

_WEAK_OPS = {And: "/\\", Or: "\\/"}
_STRONG_OPS = {StrongAnd: "&", StrongOr: "|+|"}


def _fmt_term(term: Term) -> str:
    if isinstance(term, (Variable, Constant)):
        return term.name
    args = ",".join(_fmt_term(a) for a in term.args)
    return f"{term.func}({args})"


def _fmt(phi: Formula, min_level: int, open_ok: bool) -> str:
    if isinstance(phi, Atom):
        args = ",".join(_fmt_term(a) for a in phi.args)
        return f"{phi.pred}({args})"
    if isinstance(phi, TruthConst):
        return f"rat({phi.value})"
    if isinstance(phi, Not):
        return f"~{_fmt(phi.body, _LEVEL_UNARY, open_ok)}"
    if isinstance(phi, (And, Or)):
        op = _WEAK_OPS[type(phi)]
        text = f"{_fmt(phi.left, _LEVEL_WEAK, False)} {op} {_fmt(phi.right, _LEVEL_WEAK + 1, open_ok)}"
        return f"({text})" if _LEVEL_WEAK < min_level else text
    if isinstance(phi, (StrongAnd, StrongOr)):
        op = _STRONG_OPS[type(phi)]
        text = f"{_fmt(phi.left, _LEVEL_STRONG, False)} {op} {_fmt(phi.right, _LEVEL_STRONG + 1, open_ok)}"
        return f"({text})" if _LEVEL_STRONG < min_level else text
    if isinstance(phi, Implies):
        text = f"{_fmt(phi.left, _LEVEL_IMPL + 1, False)} -> {_fmt(phi.right, _LEVEL_IMPL, open_ok)}"
        return f"({text})" if _LEVEL_IMPL < min_level else text
    if isinstance(phi, (Forall, Exists)):
        head = "ALL" if isinstance(phi, Forall) else "EX"
        text = f"{head} {phi.var}. {_fmt(phi.body, _LEVEL_IMPL, True)}"
        # an unparenthesized ALL/EX body runs to the end of its region
        return text if open_ok else f"({text})"
    if isinstance(phi, Integral):
        # the trailing d<var> closes the integral, so no parentheses needed
        return f"INT {_fmt(phi.body, _LEVEL_IMPL, True)} d{phi.var}"
    if isinstance(phi, QuantEq):
        raise NestedQuantEq("quantifier equality can only be printed at the top level")
    raise TypeError(f"not a formula: {phi!r}")


def print_formula(formula: Formula) -> str:
    """Canonical text for a formula; `parse_formula` inverts it exactly."""
    if isinstance(formula, QuantEq):
        return f"{_fmt(formula.left, _LEVEL_IMPL, True)} = {_fmt(formula.right, _LEVEL_IMPL, True)}"
    return _fmt(formula, _LEVEL_IMPL, True)
