"""Sandboxed expression language for model-authored computation.

A total, loop-free expression grammar: arithmetic, single comparisons
(yielding 1.0/0.0), if/then/else, abs/ln/exp/min/max, and mean/std over
literal lists. No loops, no recursion, no I/O — every parseable program
terminates in time linear in its size. The grammar reference lives in
docs/dsl.md; conformance triples in tests/fixtures/dsl_conformance.json.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Mapping

from finorch.errors import DomainError, ParseError, UnboundVariable

__all__ = [
    "MAX_DEPTH",
    "CodeArtifact",
    "Program",
    "eval_dsl",
    "parse_dsl",
    "run_code",
]

#: Nesting cap: deeper programs are rejected at parse time, keeping the
#: recursive-descent parser well inside the interpreter's stack budget.
MAX_DEPTH = 100

_UNARY_FUNCS = ("abs", "ln", "exp")
_VARIADIC_FUNCS = ("min", "max")
_AGG_FUNCS = ("mean", "std")
_KEYWORDS = ("if", "then", "else")
_COMPARATORS = ("<=", ">=", "==", "!=", "<", ">")

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op><=|>=|==|!=|[+\-*/<>(),\[\]])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "name" | "op" | "end"
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise ParseError(f"unexpected character {source[pos]!r}", pos)
        if match.lastgroup != "ws":
            tokens.append(
                _Token(kind=match.lastgroup or "", text=match.group(), pos=pos)
            )
        pos = match.end()
    tokens.append(_Token(kind="end", text="", pos=len(source)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._i = 0
        self._depth = 0

    def _peek(self) -> _Token:
        return self._tokens[self._i]

    def _advance(self) -> _Token:
        tok = self._tokens[self._i]
        self._i += 1
        return tok

    def _expect_op(self, text: str) -> None:
        tok = self._advance()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(
                f"expected {text!r}, got {tok.text!r}" if tok.kind != "end"
                else f"expected {text!r}, got end of input",
                tok.pos,
            )

    def _expect_keyword(self, word: str) -> None:
        tok = self._advance()
        if tok.kind != "name" or tok.text != word:
            raise ParseError(
                f"expected '{word}', got {tok.text!r}" if tok.kind != "end"
                else f"expected '{word}', got end of input",
                tok.pos,
            )

    def parse(self) -> tuple:
        node = self._expr()
        tok = self._peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def _expr(self) -> tuple:
        self._depth += 1
        if self._depth > MAX_DEPTH:
            raise ParseError("expression nested too deeply", self._peek().pos)
        try:
            tok = self._peek()
            if tok.kind == "name" and tok.text == "if":
                self._advance()
                cond = self._expr()
                self._expect_keyword("then")
                then = self._expr()
                self._expect_keyword("else")
                other = self._expr()
                return ("if", cond, then, other)
            return self._comparison()
        finally:
            self._depth -= 1

    def _comparison(self) -> tuple:
        left = self._sum()
        tok = self._peek()
        if tok.kind == "op" and tok.text in _COMPARATORS:
            self._advance()
            right = self._sum()
            after = self._peek()
            if after.kind == "op" and after.text in _COMPARATORS:
                raise ParseError("chained comparisons are not allowed", after.pos)
            return ("cmp", tok.text, left, right)
        return left

    def _sum(self) -> tuple:
        node = self._product()
        while True:
            tok = self._peek()
            if tok.kind == "op" and tok.text in ("+", "-"):
                self._advance()
                node = ("bin", tok.text, node, self._product())
            else:
                return node

    def _product(self) -> tuple:
        node = self._unary()
        while True:
            tok = self._peek()
            if tok.kind == "op" and tok.text in ("*", "/"):
                self._advance()
                node = ("bin", tok.text, node, self._unary())
            else:
                return node

    def _unary(self) -> tuple:
        tok = self._peek()
        if tok.kind == "op" and tok.text == "-":
            self._advance()
            return ("neg", self._unary())
        return self._atom()

    def _atom(self) -> tuple:
        tok = self._advance()
        if tok.kind == "number":
            return ("num", float(tok.text))
        if tok.kind == "name":
            if tok.text in _KEYWORDS:
                raise ParseError(f"unexpected keyword {tok.text!r}", tok.pos)
            if tok.text in _AGG_FUNCS:
                return self._aggregate(tok)
            if tok.text in _UNARY_FUNCS or tok.text in _VARIADIC_FUNCS:
                return self._call(tok)
            return ("var", tok.text)
        if tok.kind == "op" and tok.text == "(":
            node = self._expr()
            self._expect_op(")")
            return node
        if tok.kind == "op" and tok.text == "[":
            raise ParseError(
                "list literals are only allowed inside mean(...) or std(...)",
                tok.pos,
            )
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.pos)
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)

    def _call(self, name_tok: _Token) -> tuple:
        self._expect_op("(")
        args = [self._expr()]
        while self._peek().kind == "op" and self._peek().text == ",":
            self._advance()
            args.append(self._expr())
        self._expect_op(")")
        if name_tok.text in _UNARY_FUNCS and len(args) != 1:
            raise ParseError(
                f"{name_tok.text} expects exactly 1 argument, got {len(args)}",
                name_tok.pos,
            )
        return ("call", name_tok.text, tuple(args))

    def _aggregate(self, name_tok: _Token) -> tuple:
        self._expect_op("(")
        open_tok = self._peek()
        if open_tok.kind != "op" or open_tok.text != "[":
            raise ParseError(
                f"{name_tok.text} expects a literal list, e.g. "
                f"{name_tok.text}([1, 2, 3])",
                open_tok.pos,
            )
        self._advance()
        if self._peek().kind == "op" and self._peek().text == "]":
            raise ParseError(
                "list needs at least one element", self._peek().pos
            )
        items = [self._expr()]
        while self._peek().kind == "op" and self._peek().text == ",":
            self._advance()
            items.append(self._expr())
        self._expect_op("]")
        self._expect_op(")")
        return ("agg", name_tok.text, tuple(items))


def _free_vars(root: tuple, out: set[str]) -> None:
    # explicit worklist: flat +/- chains nest arbitrarily deep in the AST
    stack: list[tuple] = [root]
    while stack:
        node = stack.pop()
        kind = node[0]
        if kind == "var":
            out.add(node[1])
        elif kind == "neg":
            stack.append(node[1])
        elif kind in ("bin", "cmp"):
            stack.append(node[2])
            stack.append(node[3])
        elif kind == "if":
            stack.append(node[1])
            stack.append(node[2])
            stack.append(node[3])
        elif kind in ("call", "agg"):
            stack.extend(node[2])


def _checked(op: str, value: float) -> float:
    if not math.isfinite(value):
        raise DomainError(op, "result overflows")
    return value


_CMP_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def _apply_call(name: str, args: list[float]) -> float:
    if name == "abs":
        return abs(args[0])
    if name == "ln":
        if args[0] <= 0.0:
            raise DomainError("ln", f"argument {args[0]!r} is not positive")
        return math.log(args[0])
    if name == "exp":
        try:
            return _checked("exp", math.exp(args[0]))
        except OverflowError:
            raise DomainError("exp", "result overflows") from None
    if name == "min":
        return min(args)
    return max(args)


def _apply_agg(name: str, values: list[float]) -> float:
    mean = _checked("mean", math.fsum(values) / len(values))
    if name == "mean":
        return mean
    variance = math.fsum((v - mean) ** 2 for v in values) / len(values)
    return _checked("std", math.sqrt(variance))


def _eval(root: tuple, env: Mapping[str, float]) -> float:
    """Explicit-stack evaluator: immune to AST depth, lazy on conditionals.

    Tasks are ("eval", node) to produce a value, ("apply", node) to combine
    already-produced child values, and ("branch", node) to pick the taken
    side of a conditional once its condition value is known.
    """
    tasks: list[tuple[str, tuple]] = [("eval", root)]
    values: list[float] = []
    while tasks:
        what, node = tasks.pop()
        kind = node[0]
        if what == "eval":
            if kind == "num":
                if not math.isfinite(node[1]):
                    raise DomainError("number", "literal overflows")
                values.append(node[1])
            elif kind == "var":
                values.append(env[node[1]])
            elif kind == "neg":
                tasks.append(("apply", node))
                tasks.append(("eval", node[1]))
            elif kind in ("bin", "cmp"):
                tasks.append(("apply", node))
                tasks.append(("eval", node[3]))  # popped second
                tasks.append(("eval", node[2]))  # popped first
            elif kind == "if":
                tasks.append(("branch", node))
                tasks.append(("eval", node[1]))
            else:  # call / agg
                tasks.append(("apply", node))
                for child in reversed(node[2]):
                    tasks.append(("eval", child))
        elif what == "branch":
            condition = values.pop()
            tasks.append(("eval", node[2] if condition != 0.0 else node[3]))
        else:  # apply
            if kind == "neg":
                values.append(-values.pop())
            elif kind == "bin":
                right = values.pop()
                left = values.pop()
                op = node[1]
                if op == "+":
                    values.append(_checked(op, left + right))
                elif op == "-":
                    values.append(_checked(op, left - right))
                elif op == "*":
                    values.append(_checked(op, left * right))
                else:
                    if right == 0.0:
                        raise DomainError("division", "division by zero")
                    values.append(_checked("division", left / right))
            elif kind == "cmp":
                right = values.pop()
                left = values.pop()
                values.append(1.0 if _CMP_OPS[node[1]](left, right) else 0.0)
            elif kind == "call":
                arity = len(node[2])
                args = values[-arity:]
                del values[-arity:]
                values.append(_apply_call(node[1], args))
            else:  # agg
                arity = len(node[2])
                args = values[-arity:]
                del values[-arity:]
                values.append(_apply_agg(node[1], args))
    assert len(values) == 1
    return values[0]


@dataclass(frozen=True)
class Program:
    """A parsed program; evaluation needs every free variable bound."""

    source: str
    ast: tuple = field(repr=False)
    free_variables: frozenset[str] = frozenset()

    def evaluate(self, inputs: Mapping[str, float] | None = None) -> float:
        env: dict[str, float] = {}
        for name, value in (inputs or {}).items():
            bound = float(value)
            if not math.isfinite(bound):
                raise DomainError("binding", f"{name} is not finite")
            env[name] = bound
        missing = sorted(self.free_variables - env.keys())
        if missing:
            raise UnboundVariable(missing[0])
        return _eval(self.ast, env)


def parse_dsl(source: str) -> Program:
    """Parse; raises ParseError with the character position of the fault."""
    ast = _Parser(_tokenize(source)).parse()
    free: set[str] = set()
    _free_vars(ast, free)
    return Program(source=source, ast=ast, free_variables=frozenset(free))


def eval_dsl(source: str, inputs: Mapping[str, float] | None = None) -> float:
    """Parse and evaluate in one step."""
    return parse_dsl(source).evaluate(inputs)


@dataclass(frozen=True)
class CodeArtifact:
    """Audit record of one model-authored computation."""

    source: str
    inputs: Mapping[str, float]
    result: float | None
    error: str | None = None


def run_code(
    source: str, inputs: Mapping[str, float] | None = None
) -> CodeArtifact:
    """Evaluate and capture either the result or the rendered error."""
    bound = dict(inputs or {})
    try:
        result = eval_dsl(source, bound)
    except (ParseError, UnboundVariable, DomainError) as exc:
        return CodeArtifact(
            source=source, inputs=bound, result=None,
            error=f"{type(exc).__name__}: {exc}",
        )
    return CodeArtifact(source=source, inputs=bound, result=result, error=None)
