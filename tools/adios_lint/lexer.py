"""A lightweight C++ lexer.

Produces a flat token stream plus two side tables the rules need:

  * comments: {line: text} for `// adios-lint: ignore(...)` suppressions;
  * pp_lines: [(line, text)] preprocessor directives (for include checks).

The lexer is exact about the things that break naive regex linting --
string/char literals (including raw strings), block comments, line
continuations -- and deliberately simple about everything else. It never
needs a preprocessor or a compilation database.
"""

KIND_ID = "id"
KIND_NUM = "num"
KIND_STR = "str"
KIND_CHAR = "char"
KIND_PUNCT = "punct"


class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):
        return f"Token({self.kind!r}, {self.text!r}, L{self.line})"


class LexedFile:
    __slots__ = ("path", "tokens", "comments", "pp_lines")

    def __init__(self, path, tokens, comments, pp_lines):
        self.path = path
        self.tokens = tokens
        self.comments = comments  # {line: comment text (joined if several)}
        self.pp_lines = pp_lines  # [(line, directive text)]


_ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_ID_CONT = _ID_START | set("0123456789")
_DIGITS = set("0123456789")

# Multi-char operators the rules care about distinguishing; everything else
# is emitted one character at a time.
_TWO_CHAR = {"::", "->", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
             "*=", "/=", "++", "--", "<<", ">>"}


def lex(path, text=None):
    """Lexes one file; returns a LexedFile."""
    if text is None:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
    tokens = []
    comments = {}
    pp_lines = []
    i = 0
    n = len(text)
    line = 1

    def note_comment(start_line, body):
        if start_line in comments:
            comments[start_line] += " " + body
        else:
            comments[start_line] = body

    at_line_start = True
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        # Preprocessor directive: consume to end of line (honoring \-continuations).
        if c == "#" and at_line_start:
            start = i
            start_line = line
            while i < n:
                if text[i] == "\n":
                    if i > 0 and text[i - 1] == "\\":
                        line += 1
                        i += 1
                        continue
                    break
                i += 1
            pp_lines.append((start_line, text[start:i]))
            continue
        at_line_start = False
        # Line comment.
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            note_comment(line, text[i + 2:j].strip())
            i = j
            continue
        # Block comment.
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j == -1:
                j = n
            body = text[i + 2:j]
            note_comment(line, body.strip())
            line += body.count("\n")
            i = j + 2 if j < n else n
            continue
        # Raw string literal: R"delim( ... )delim".
        if c == "R" and i + 1 < n and text[i + 1] == '"':
            j = text.find("(", i + 2)
            if j != -1 and j - (i + 2) <= 16:
                delim = text[i + 2:j]
                end_marker = ")" + delim + '"'
                k = text.find(end_marker, j + 1)
                if k != -1:
                    body = text[i:k + len(end_marker)]
                    tokens.append(Token(KIND_STR, body, line))
                    line += body.count("\n")
                    i = k + len(end_marker)
                    continue
        # String / char literal.
        if c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                if text[j] == "\n":
                    break  # Unterminated; bail at EOL.
                j += 1
            body = text[i:min(j + 1, n)]
            tokens.append(Token(KIND_STR if quote == '"' else KIND_CHAR, body, line))
            i = min(j + 1, n)
            continue
        # Identifier / keyword.
        if c in _ID_START:
            j = i + 1
            while j < n and text[j] in _ID_CONT:
                j += 1
            tokens.append(Token(KIND_ID, text[i:j], line))
            i = j
            continue
        # Number (good enough: digits, hex, suffixes, dots, exponent signs,
        # and digit separators, which must not open a char literal).
        if c in _DIGITS or (c == "." and i + 1 < n and text[i + 1] in _DIGITS):
            j = i + 1
            while j < n and (text[j] in _ID_CONT or text[j] == "." or
                             (text[j] in "+-" and text[j - 1] in "eEpP") or
                             (text[j] == "'" and j + 1 < n and text[j + 1] in _ID_CONT)):
                j += 1
            tokens.append(Token(KIND_NUM, text[i:j], line))
            i = j
            continue
        # Punctuation.
        if i + 1 < n and text[i:i + 2] in _TWO_CHAR:
            tokens.append(Token(KIND_PUNCT, text[i:i + 2], line))
            i += 2
            continue
        tokens.append(Token(KIND_PUNCT, c, line))
        i += 1

    return LexedFile(path, tokens, comments, pp_lines)
