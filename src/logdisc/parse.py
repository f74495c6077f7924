"""Recursive-descent parser for polynomial expressions.

Grammar: integer, rational (p/q) and decimal literals, variable names,
+ - * ^ and parentheses.  Decimals are converted exactly (0.1 -> 1/10).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import Polynomial


class PolyParseError(ValueError):
    """Syntax error with a character position."""

    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


_TOKEN = re.compile(r"\s*(?:(\d+\.\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()/]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise PolyParseError("unexpected character %r" % text[pos], pos)
            break
        num, name, op = m.groups()
        if num is not None:
            tokens.append(("num", num, m.start(1)))
        elif name is not None:
            tokens.append(("name", name, m.start(2)))
        else:
            tokens.append(("op", op, m.start(3)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, vt):
        self.text = text
        self.vt = vt
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise PolyParseError("expected %r" % op, pos)

    def parse(self):
        p = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise PolyParseError("unexpected %r" % val, pos)
        return p

    def expr(self):
        kind, val, _ = self.peek()
        sign = 1
        while kind == "op" and val in "+-":
            self.next()
            if val == "-":
                sign = -sign
            kind, val, _ = self.peek()
        p = self.term() * sign
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def term(self):
        p = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                p = p * self.factor()
            else:
                return p

    def factor(self):
        p = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, pos = self.next()
            if kind != "num" or "." in val:
                raise PolyParseError("exponent must be a nonnegative integer", pos)
            p = p ** int(val)
        return p

    def atom(self):
        kind, val, pos = self.next()
        if kind == "op" and val in "+-":
            sub = self.atom()
            return sub if val == "+" else -sub
        if kind == "num":
            c = self._number(val, pos)
            # a rational literal p/q
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "/":
                self.next()
                kind3, val3, pos3 = self.next()
                if kind3 != "num" or "." in val3:
                    raise PolyParseError("denominator must be an integer", pos3)
                den = int(val3)
                if not den:
                    raise PolyParseError("division by zero", pos3)
                c = c / den
            return Polynomial.const(self.vt, c)
        if kind == "name":
            try:
                self.vt.index(val)
            except KeyError:
                raise PolyParseError("unknown variable %r" % val, pos) from None
            return Polynomial.var(self.vt, val)
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise PolyParseError("unexpected %r" % (val or "end of input"), pos)

    @staticmethod
    def _number(text, pos):
        if "." in text:
            whole, frac = text.split(".")
            return Fraction(int(whole or 0) * 10 ** len(frac) + int(frac),
                            10 ** len(frac))
        return Fraction(int(text))


def parse_poly(text, vt):
    """Parse text into a canonical Polynomial over vt."""
    return _Parser(text, vt).parse()
