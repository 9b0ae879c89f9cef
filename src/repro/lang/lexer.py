"""Tokenizer for minij."""

from repro.errors import LexError

KEYWORDS = {
    "class",
    "trait",
    "object",
    "extends",
    "implements",
    "def",
    "var",
    "static",
    "if",
    "else",
    "while",
    "return",
    "new",
    "null",
    "this",
    "super",
    "true",
    "false",
    "is",
    "as",
    "fun",
    "int",
    "bool",
    "void",
}

#: Multi-character operators, longest first.
_OPERATORS = [
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "=>",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "=",
    "!",
    "&",
    "|",
    "^",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ",",
    ";",
    ":",
    ".",
    "@",
]


class Token:
    """One token: kind is ``num``, ``ident``, a keyword, or an operator."""

    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column

    def __repr__(self):
        return "Token(%s, %r)" % (self.kind, self.value)


EOF = "<eof>"


def tokenize(source):
    """Tokenize *source*; returns a list ending with an EOF token."""
    tokens = []
    line = 1
    column = 1
    index = 0
    length = len(source)
    while index < length:
        ch = source[index]
        if ch == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if ch in " \t\r":
            index += 1
            column += 1
            continue
        if ch == "/" and index + 1 < length and source[index + 1] == "/":
            while index < length and source[index] != "\n":
                index += 1
            continue
        if ch == "/" and index + 1 < length and source[index + 1] == "*":
            index += 2
            column += 2
            while index + 1 < length and not (
                source[index] == "*" and source[index + 1] == "/"
            ):
                if source[index] == "\n":
                    line += 1
                    column = 1
                else:
                    column += 1
                index += 1
            if index + 1 >= length:
                raise LexError("unterminated block comment", line, column)
            index += 2
            column += 2
            continue
        if "0" <= ch <= "9":
            # ASCII only: str.isdigit() also accepts digits such as
            # "²" (which int() rejects) and "٣" (which it reads as 3).
            start = index
            while index < length and "0" <= source[index] <= "9":
                index += 1
            text = source[start:index]
            tokens.append(Token("num", int(text), line, column))
            column += len(text)
            continue
        if ch.isalpha() or ch == "_" or ch == "$":
            start = index
            while index < length and (
                source[index].isalnum() or source[index] in "_$"
            ):
                index += 1
            text = source[start:index]
            kind = text if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, column))
            column += len(text)
            continue
        for op in _OPERATORS:
            if source.startswith(op, index):
                tokens.append(Token(op, op, line, column))
                index += len(op)
                column += len(op)
                break
        else:
            raise LexError("unexpected character %r" % ch, line, column)
    tokens.append(Token(EOF, None, line, column))
    return tokens
