"""Text formats for automata and models, plus corpus readers.

FA format (UTF-8, line oriented)::

    # comment until end of line
    %Alphabet a b 0x0A        # omitted => implicitly all 256 byte values
    %Initial q0 q1
    %Final q2
    q0 a q1                   # transition: SRC SYMBOL DST

PA format uses the same skeleton with weights appended, one state per
%Initial or %Final line; a state may appear once under each directive and
a (SRC, SYMBOL, DST) transition once::

    %Initial q0 1.0
    %Final q1 0.25
    q0 a q1 0.75              # SRC SYMBOL DST PROB

Symbols are either printable non-whitespace tokens without ``#`` or byte
literals ``0xHH`` (parsed to ints 0-255).  State names are arbitrary tokens
mapped to indices in order of first appearance.  Serialization is canonical:
sections in the order Alphabet, Initial, Final, then transitions sorted by
(src, symbol, dst), weights with 17 significant digits.

Corpora come in two modes: text (one word per line, whitespace-separated
symbol tokens, blank line = empty word) and binary (repeated records of a
4-byte little-endian length followed by that many payload bytes).  A text
word is a tuple of symbols, a binary word the ``bytes`` of its payload.
"""

import re
import struct

from .errors import FormatError
from .nfa import Nfa
from .pa import Pa, validate_pa

BYTE_ALPHABET = tuple(range(256))

_BYTE_TOKEN = re.compile(r"^0x([0-9A-Fa-f]{2})$")


def parse_symbol(token):
    """A symbol token: 0xHH becomes an int, anything else stays a string."""
    m = _BYTE_TOKEN.match(token)
    if m:
        return int(m.group(1), 16)
    if not token.isprintable():
        raise FormatError(f"symbol token {token!r} is not printable")
    return token


def format_symbol(sym):
    if isinstance(sym, int):
        if not 0 <= sym <= 255:
            raise FormatError(f"byte symbol {sym!r} outside 0..255")
        return f"0x{sym:02X}"
    # '#' would start a comment on the line read back
    if (not sym or any(c.isspace() for c in sym) or not sym.isprintable()
            or "#" in sym):
        raise FormatError(f"symbol {sym!r} cannot be written as a token")
    if _BYTE_TOKEN.match(sym):
        raise FormatError(f"string symbol {sym!r} would re-parse as a byte")
    return sym


def _logical_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _read_fa(text, weighted):
    """The one pass over the FA text format that ``parse_nfa`` and
    ``parse_pa`` share: the %Alphabet line, unknown directives, the byte
    alphabet when none is declared, and the check of each transition's
    symbol, which waits for the whole text since %Alphabet may come last.

    Weighted (the PA format), a %Initial or %Final line names one state
    and its weight, a transition ends in its weight, and a state given
    twice under one directive, or a transition given twice, is an error.
    Returns the alphabet, the number of states, the %Initial and the
    %Final entries (states, or (state, weight) pairs when weighted) and
    the transitions, as (src, symbol, dst[, weight]) tuples.
    """
    alphabet = None
    names = {}  # state name token -> index, in order of first appearance
    marked = {"%Initial": [], "%Final": []}
    first_line = {}
    raw_transitions = []
    shape = "SRC SYMBOL DST PROB" if weighted else "SRC SYMBOL DST"
    width = len(shape.split())
    for lineno, tokens in _logical_lines(text):
        head = tokens[0]
        if head == "%Alphabet":
            if alphabet is not None:
                raise FormatError(f"line {lineno}: duplicate %Alphabet")
            alphabet = tuple(parse_symbol(t) for t in tokens[1:])
            if not alphabet:
                raise FormatError(f"line {lineno}: empty alphabet")
        elif head in marked and not weighted:
            marked[head].extend(names.setdefault(t, len(names))
                               for t in tokens[1:])
        elif head in marked:
            if len(tokens) != 3:
                raise FormatError(
                    f"line {lineno}: expected '{head} STATE WEIGHT'")
            q = names.setdefault(tokens[1], len(names))
            _once(first_line, (head, q), lineno, tokens[:2])
            marked[head].append((q, _parse_weight(tokens[2], lineno)))
        elif head.startswith("%"):
            raise FormatError(f"line {lineno}: unknown directive {head!r}")
        else:
            if len(tokens) != width:
                raise FormatError(f"line {lineno}: expected '{shape}'")
            entry = (names.setdefault(tokens[0], len(names)),
                     parse_symbol(tokens[1]),
                     names.setdefault(tokens[2], len(names)))
            if weighted:
                _once(first_line, entry, lineno, tokens[:3])
                entry += (_parse_weight(tokens[3], lineno),)
            raw_transitions.append((lineno, entry))
    if alphabet is None:
        alphabet = BYTE_ALPHABET
    symbols = set(alphabet)
    for lineno, (_src, sym, *_rest) in raw_transitions:
        if sym not in symbols:
            raise FormatError(f"line {lineno}: symbol {sym!r} not in alphabet")
    return (alphabet, len(names), marked["%Initial"], marked["%Final"],
            [entry for _lineno, entry in raw_transitions])


def _once(first_line, key, lineno, tokens):
    """Record that ``key``, written as ``tokens``, is given on ``lineno``;
    it must be the first time."""
    if key in first_line:
        raise FormatError(f"line {lineno}: {' '.join(tokens)!r} given twice "
                          f"(first on line {first_line[key]})")
    first_line[key] = lineno


def parse_nfa(text, name=None):
    """Parse the FA text format into an Nfa."""
    alphabet, n, initial, final, transitions = _read_fa(text, weighted=False)
    return Nfa(n, alphabet, transitions, initial, final, name=name)


def serialize_nfa(a):
    """Canonical FA text for an automaton; states are written as their
    indices, isolated anonymous states are not representable."""
    lines = []
    if a.alphabet != BYTE_ALPHABET:
        lines.append("%Alphabet " + " ".join(format_symbol(s)
                                             for s in a.alphabet))
    if a.initial:
        lines.append("%Initial " + " ".join(str(q) for q in sorted(a.initial)))
    if a.final:
        lines.append("%Final " + " ".join(str(q) for q in sorted(a.final)))
    for src, sym, dst in a.transitions():
        lines.append(f"{src} {format_symbol(sym)} {dst}")
    return "\n".join(lines) + "\n"


def _parse_weight(token, lineno):
    try:
        w = float(token)
    except ValueError:
        raise FormatError(f"line {lineno}: bad weight {token!r}") from None
    if not 0.0 <= w <= 1.0:  # NaN fails this too
        raise FormatError(f"line {lineno}: weight {token!r} outside [0, 1]")
    return w


def parse_pa(text, name=None):
    """Parse the PA text format into a validated Pa."""
    alphabet, n, initial, final, transitions = _read_fa(text, weighted=True)
    initial, final = dict(initial), dict(final)
    pa = Pa(alphabet, [initial.get(q, 0.0) for q in range(n)],
            [final.get(q, 0.0) for q in range(n)], transitions, name=name)
    diags = validate_pa(pa)
    if diags:
        raise FormatError("not a valid PA: " + "; ".join(diags))
    return pa


def serialize_pa(p):
    """Canonical PA/PPA text; weights carry 17 significant digits so they
    round-trip exactly."""
    lines = []
    if p.alphabet != BYTE_ALPHABET:
        lines.append("%Alphabet " + " ".join(format_symbol(s)
                                             for s in p.alphabet))
    for q, w in enumerate(p.initial):
        if w > 0.0:
            lines.append(f"%Initial {q} {w:.17g}")
    for q, w in enumerate(p.final):
        if w > 0.0:
            lines.append(f"%Final {q} {w:.17g}")
    for src, sym, dst, w in p.entries():
        lines.append(f"{src} {format_symbol(sym)} {dst} {w:.17g}")
    return "\n".join(lines) + "\n"


def read_corpus_text(text):
    """Words from a text corpus: one word per line, whitespace-separated
    symbol tokens, a blank line is the empty word."""
    words = []
    for raw in text.splitlines():
        words.append(tuple(parse_symbol(t) for t in raw.split()))
    return words


def read_corpus_bin(data):
    """Words from a binary corpus: repeated records of a 4-byte little-endian
    unsigned length followed by that many payload bytes.  Each word is the
    ``bytes`` slice of its payload, whose items are the byte symbols 0-255."""
    words = []
    off = 0
    total = len(data)
    while off < total:
        if off + 4 > total:
            raise FormatError("truncated record header in binary corpus")
        (length,) = struct.unpack_from("<I", data, off)
        off += 4
        if off + length > total:
            raise FormatError("truncated payload in binary corpus")
        words.append(data[off:off + length])
        off += length
    return words
