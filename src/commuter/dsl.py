"""The .cmt text format: signatures, diagrams, and rules as statements.

Grammar (binary operators always parenthesized):

    file  := statement*
    stmt  := 'obj' NAME+
           | 'gen' NAME ':' word '->' word
           | 'dia' NAME '=' term
           | 'rule' NAME ':' term '=' term
    word  := '1' | NAME+
    term  := 'id' word | NAME | '(' term ';' term ')' | '(' term '*' term ')'

'#' starts a comment running to end of line.  The keywords obj, gen, dia,
rule, and id are reserved.  A NAME in term position refers to a previously
declared diagram if one exists, otherwise to a generator.

Errors carry one-based line and column plus the token set that would have
been accepted.  Typing failures inside a term are reported at the opening
position of the offending construct.  Terms may nest at most
MAX_TERM_DEPTH parentheses deep; the parser recurses once per level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import NAME_RE, Diagram, Signature, Word, compose, fmt_word, gen_diagram, identity, intermediate_words, tensor
from .errors import ParseError, SignatureError, TypingError

MAX_TERM_DEPTH = 200  # far below the interpreter's recursion limit

_KEYWORDS = {"obj", "gen", "dia", "rule", "id"}
_PUNCTUATION = {":": "COLON", "=": "EQUALS", "(": "LPAREN", ")": "RPAREN", ";": "SEMI", "*": "STAR"}


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # NAME, OBJ, GEN, DIA, RULE, ID, ONE, COLON, ARROW, EQUALS, LPAREN, RPAREN, SEMI, STAR, EOF
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        i = 0
        n = len(raw)
        while i < n:
            ch = raw[i]
            if ch in " \t\r":
                i += 1
                continue
            if ch == "#":
                break
            col = i + 1
            if raw.startswith("->", i):
                out.append(Token("ARROW", "->", ln, col))
                i += 2
                continue
            if ch in _PUNCTUATION:
                out.append(Token(_PUNCTUATION[ch], ch, ln, col))
                i += 1
                continue
            if ch == "1":
                nxt = raw[i + 1] if i + 1 < n else ""
                if nxt and (nxt.isalnum() or nxt == "_"):
                    raise ParseError(f"bad token starting at {raw[i:i+8]!r}", ln, col)
                out.append(Token("ONE", "1", ln, col))
                i += 1
                continue
            m = NAME_RE.match(raw, i)
            if m:
                word = m.group(0)
                kind = word.upper() if word in _KEYWORDS else "NAME"
                out.append(Token(kind, word, ln, col))
                i = m.end()
                continue
            raise ParseError(f"unexpected character {ch!r}", ln, col)
    # one column past the last line, so an error at the end of a term typed
    # without a trailing newline points after its last character
    last_line = text[text.rfind("\n") + 1 :]
    out.append(Token("EOF", "", text.count("\n") + 1, len(last_line) + 1))
    return out


@dataclass
class Document:
    """A parsed .cmt file: the signature (rules are its equations) plus named diagrams."""

    signature: Signature = field(default_factory=Signature)
    diagrams: dict[str, Diagram] = field(default_factory=dict)


_TERM_START = ("id", "generator or diagram name", "(")


class _Parser:
    def __init__(self, tokens: list[Token], doc: Document):
        self.tokens = tokens
        self.pos = 0
        self.doc = doc
        self.depth = 0  # parentheses open around the current term

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, shown: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {shown}", tok.line, tok.col, expected=(shown,))
        return self.advance()

    # ------------------------------------------------------------ statements

    def file(self) -> Document:
        statements = {"OBJ": self.stmt_obj, "GEN": self.stmt_gen, "DIA": self.stmt_dia, "RULE": self.stmt_rule}
        while self.peek().kind != "EOF":
            tok = self.advance()
            if tok.kind not in statements:
                raise ParseError(
                    "expected a statement",
                    tok.line,
                    tok.col,
                    expected=("obj", "gen", "dia", "rule"),
                )
            statements[tok.kind]()
        return self.doc

    def fresh_name(self, tok: Token) -> str:
        name = tok.text
        sig = self.doc.signature
        if name in sig.objects or name in sig.morphisms or name in self.doc.diagrams or name in sig.equations:
            raise ParseError(f"name {name!r} already declared", tok.line, tok.col)
        return name

    def stmt_obj(self) -> None:
        if self.peek().kind != "NAME":
            tok = self.peek()
            raise ParseError("expected object name", tok.line, tok.col, expected=("name",))
        while self.peek().kind == "NAME":
            tok = self.advance()
            self.doc.signature.add_object(self.fresh_name(tok))

    def stmt_gen(self) -> None:
        name_tok = self.expect("NAME", "generator name")
        name = self.fresh_name(name_tok)
        self.expect("COLON", "':'")
        dom = self.word()
        self.expect("ARROW", "'->'")
        cod = self.word()
        self.doc.signature.add_morphism(name, dom, cod)

    def stmt_dia(self) -> None:
        name_tok = self.expect("NAME", "diagram name")
        name = self.fresh_name(name_tok)
        self.expect("EQUALS", "'='")
        self.doc.diagrams[name] = self.term()

    def stmt_rule(self) -> None:
        name_tok = self.expect("NAME", "rule name")
        name = self.fresh_name(name_tok)
        self.expect("COLON", "':'")
        lhs = self.term()
        eq = self.expect("EQUALS", "'='")
        rhs = self.term()
        try:
            self.doc.signature.add_equation(name, lhs, rhs)
        except (TypingError, ValueError) as e:  # boundaries, MAX_RULE_SLICES
            raise ParseError(str(e), eq.line, eq.col) from e

    # ------------------------------------------------------------ words, terms

    def word(self) -> Word:
        tok = self.peek()
        if tok.kind == "ONE":
            self.advance()
            return ()
        if tok.kind != "NAME":
            raise ParseError("expected a word", tok.line, tok.col, expected=("1", "object name"))
        letters: list[str] = []
        while self.peek().kind == "NAME":
            t = self.advance()
            if t.text not in self.doc.signature.objects:
                raise ParseError(f"unknown object {t.text!r}", t.line, t.col)
            letters.append(t.text)
        return tuple(letters)

    def term(self) -> Diagram:
        tok = self.peek()
        if tok.kind == "ID":
            self.advance()
            return identity(self.word())
        if tok.kind == "NAME":
            self.advance()
            if tok.text in self.doc.diagrams:
                return self.doc.diagrams[tok.text]
            gen = self.doc.signature.morphisms.get(tok.text)
            if gen is None:
                raise ParseError(f"unknown generator or diagram {tok.text!r}", tok.line, tok.col)
            return gen_diagram(gen)
        if tok.kind == "LPAREN":
            if self.depth >= MAX_TERM_DEPTH:
                raise ParseError(
                    f"term nests more than {MAX_TERM_DEPTH} parentheses deep", tok.line, tok.col
                )
            opener = self.advance()
            self.depth += 1
            left = self.term()
            op = self.peek()
            if op.kind not in ("SEMI", "STAR"):
                raise ParseError("expected ';' or '*'", op.line, op.col, expected=(";", "*"))
            self.advance()
            right = self.term()
            self.expect("RPAREN", "')'")
            self.depth -= 1
            try:
                if op.kind == "SEMI":
                    return compose(left, right)
                return tensor(left, right)
            except TypingError as e:
                raise TypingError(f"line {opener.line}, col {opener.col}: {e}") from e
        raise ParseError("expected a term", tok.line, tok.col, expected=_TERM_START)


def parse_document(text: str) -> Document:
    doc = Document()
    parser = _Parser(tokenize(text), doc)
    try:
        return parser.file()
    except SignatureError as e:
        tok = parser.peek()
        raise ParseError(str(e), tok.line, tok.col) from e


def parse_term(text: str, doc: Document) -> Diagram:
    """Parse a standalone term against an already loaded document."""
    parser = _Parser(tokenize(text), doc)
    term = parser.term()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError("expected end of term", tok.line, tok.col, expected=("end of input",))
    return term


def load_document(path: str) -> Document:
    with open(path, encoding="utf-8") as fh:
        return parse_document(fh.read())


# ------------------------------------------------------------ pretty printer

def print_term(d: Diagram) -> str:
    """One whiskered generator per slice, composed right to left.

    Parsing the result against the same signature rebuilds the diagram
    slice for slice, so printing then parsing is the identity.
    """
    if not d.slices:
        return f"id {fmt_word(d.input)}"
    words = intermediate_words(d)
    parts: list[str] = []
    for k, s in enumerate(d.slices):
        before = words[k]
        left = before[: s.offset]
        right = before[s.offset + len(s.gen.dom):]
        piece = s.gen.name
        if right:
            piece = f"({piece} * id {fmt_word(right)})"
        if left:
            piece = f"(id {fmt_word(left)} * {piece})"
        parts.append(piece)
    out = parts[-1]
    for piece in reversed(parts[:-1]):
        out = f"({piece} ; {out})"
    return out


def print_document(doc: Document) -> str:
    """Emit a .cmt source that reloads to an equivalent document."""
    lines: list[str] = []
    if doc.signature.objects:
        lines.append("obj " + " ".join(doc.signature.objects))
    for gen in doc.signature.morphisms.values():
        lines.append(f"gen {gen.name} : {fmt_word(gen.dom)} -> {fmt_word(gen.cod)}")
    for name, dia in doc.diagrams.items():
        lines.append(f"dia {name} = {print_term(dia)}")
    for rule in doc.signature.equations.values():
        lines.append(f"rule {rule.name} : {print_term(rule.lhs)} = {print_term(rule.rhs)}")
    return "\n".join(lines) + "\n"
