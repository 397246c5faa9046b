"""SQL lexer: text -> token stream."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import SqlSyntaxError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "AS", "AND", "OR", "NOT", "IN", "BETWEEN", "LIKE", "IS", "NULL",
    "TRUE", "FALSE", "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "OUTER",
    "CROSS", "ON", "ASC", "DESC", "DISTINCT", "UNION", "ALL", "CASE",
    "WHEN", "THEN", "ELSE", "END", "CAST", "CREATE", "OR", "REPLACE",
    "TABLE", "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE",
    "MERGE", "USING", "MATCHED", "TIMESTAMP", "DATE", "INTERVAL",
    "MODEL", "WITH", "COUNT", "EXCEPT", "IF", "EXISTS",
    "FOR", "SYSTEM_TIME", "OF", "OPTIONS", "REMOTE", "CONNECTION",
}

SYMBOLS = [
    "<=", ">=", "!=", "<>", "||", "(", ")", ",", ".", "*", "+", "-", "/",
    "%", "<", ">", "=", ";",
]


# Longest match first: a two-char symbol wins over its first char.
_TWO_CHAR_SYMBOLS = frozenset(sym for sym in SYMBOLS if len(sym) == 2)
_ONE_CHAR_SYMBOLS = frozenset(sym for sym in SYMBOLS if len(sym) == 1)


class TokenKind(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    SYMBOL = "symbol"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    pos: int

    def is_keyword(self, *words: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text in words

    def is_symbol(self, *symbols: str) -> bool:
        return self.kind is TokenKind.SYMBOL and self.text in symbols


def tokenize(sql: str) -> list[Token]:
    """Lex ``sql`` into tokens; raises :class:`SqlSyntaxError` on garbage."""
    tokens: list[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and i + 1 < n and sql[i + 1] == "-":  # line comment
            while i < n and sql[i] != "\n":
                i += 1
            continue
        if ch == "'":  # string literal with '' escaping
            j = i + 1
            chunks: list[str] = []
            while True:
                end = sql.find("'", j)
                if end < 0:
                    raise SqlSyntaxError(f"unterminated string literal at {i}")
                chunks.append(sql[j:end])
                if not sql.startswith("''", end):
                    break
                chunks.append("'")
                j = end + 2
            tokens.append(Token(TokenKind.STRING, "".join(chunks), i))
            i = end + 1
            continue
        if ch == "`":  # quoted identifier
            j = sql.find("`", i + 1)
            if j < 0:
                raise SqlSyntaxError(f"unterminated quoted identifier at {i}")
            tokens.append(Token(TokenKind.IDENT, sql[i + 1 : j], i))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            j = i
            seen_dot = False
            seen_exp = False
            while j < n:
                c = sql[j]
                if c.isdigit():
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp and j > i:
                    seen_exp = True
                    j += 1
                    if j < n and sql[j] in "+-":
                        j += 1
                else:
                    break
            tokens.append(Token(TokenKind.NUMBER, sql[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            word = sql[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenKind.KEYWORD, upper, i))
            else:
                tokens.append(Token(TokenKind.IDENT, word, i))
            i = j
            continue
        sym = sql[i : i + 2]
        if sym not in _TWO_CHAR_SYMBOLS:
            sym = ch
            if sym not in _ONE_CHAR_SYMBOLS:
                raise SqlSyntaxError(f"unexpected character {ch!r} at position {i}")
        tokens.append(Token(TokenKind.SYMBOL, sym, i))
        i += len(sym)
    tokens.append(Token(TokenKind.EOF, "", n))
    return tokens
