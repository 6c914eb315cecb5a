"""Seeded input generators for the benchmark.

Everything here is plain Python over byte values 0-255 and is independent
of the library: the benchmark hands the library only the files these
functions produce.  The same ``random.Random`` state always yields the same
automata, models and corpora.

Automata are ``(num_states, transitions, initial, final)`` tuples with
``transitions`` a list of ``(src, byte, dst)``.
"""

import struct

ALL_BYTES = tuple(range(256))
DIGITS = tuple(b"0123456789")
LETTERS = tuple(b"abcdefghijklmnopqrstuvwxyz")
PRINTABLE = tuple(range(0x21, 0x7F))  # printable, no space
PUNCTUATION = tuple(b for b in PRINTABLE if not chr(b).isalnum())

# last-byte classes of the traffic skeletons
CLASS_DIGIT, CLASS_LETTER, CLASS_PRINT, CLASS_OTHER = range(4)


def byte_class(b):
    if 0x30 <= b <= 0x39:
        return CLASS_DIGIT
    if 0x41 <= b <= 0x5A or 0x61 <= b <= 0x7A:
        return CLASS_LETTER
    if 0x20 <= b <= 0x7E:
        return CLASS_PRINT
    return CLASS_OTHER


# ---------------------------------------------------------------- rule sets

def make_rule(rng, length, class_at=(), repeat=None):
    """One rule as a list of slots ``(symbols, optional)``.

    ``length`` required slots of random printable bytes.  The slots at
    ``class_at`` become classes, digits and letters in turn.  The slot at
    ``repeat`` becomes ``x{1,2}``, the slot plus an optional copy right
    after it, with ``x`` a punctuation byte, which no class matches.  A
    leading repeat makes a Sigma*-prefixed rule ambiguous, since ``xx`` can
    start the match at either ``x``.
    """
    slots = [(rng.choice(PRINTABLE),) for _ in range(length)]
    for k, i in enumerate(class_at):
        slots[i] = (DIGITS, LETTERS)[k % 2]
    out = []
    for i, symbols in enumerate(slots):
        if i == repeat:
            symbols = (rng.choice(PUNCTUATION),)
            out += [(symbols, False), (symbols, True)]
        else:
            out.append((symbols, False))
    return out


def rule_literal(rng, rule):
    """A concrete byte string matched by ``rule``."""
    word = []
    for symbols, optional in rule:
        if optional and rng.random() < 0.5:
            continue
        word.append(rng.choice(symbols))
    return bytes(word)


def rule_set(rules, sink_rules=()):
    """Sigma*-prefixed union of ``rules`` over the byte alphabet.

    State 0 is the single initial state with a self-loop on every byte, so a
    rule may start anywhere.  A rule is end-anchored (the word must end with
    the match) unless its index is in ``sink_rules``: then its accepting
    states also lead to one shared universal accepting sink, so the match
    may sit anywhere.
    """
    transitions = [(0, b, 0) for b in ALL_BYTES]
    final = []
    n = 1
    sink = None
    for r, rule in enumerate(rules):
        frontier = [0]
        for symbols, optional in rule:
            q = n
            n += 1
            for src in frontier:
                transitions.extend((src, b, q) for b in symbols)
            frontier = frontier + [q] if optional else [q]
        final.extend(frontier)
        if r in sink_rules:
            if sink is None:
                sink = n
                n += 1
                transitions.extend((sink, b, sink) for b in ALL_BYTES)
                final.append(sink)
            for src in frontier:
                transitions.extend((src, b, sink) for b in ALL_BYTES)
    return n, transitions, [0], sorted(set(final))


def tentacles(rng, lengths):
    """Disjoint byte chains, one per entry of ``lengths``: initial head,
    accepting tail, one random printable byte per edge.  Returns the
    automaton and the chain words."""
    transitions = []
    initial = []
    final = []
    words = []
    n = 0
    for length in lengths:
        word = bytes(rng.choice(PRINTABLE) for _ in range(length))
        transitions.extend((n + i, b, n + i + 1) for i, b in enumerate(word))
        initial.append(n)
        final.append(n + length)
        words.append(word)
        n += length + 1
    return (n, transitions, initial, final), words


# ------------------------------------------------------------ DFA skeletons

def last_byte_skeleton():
    """Complete DFA remembering the class of the last byte read: state 0 is
    the start, state 1 + c means the last byte had class c."""
    transitions = [(q, b, 1 + byte_class(b))
                   for q in range(5) for b in ALL_BYTES]
    return 5, transitions, [0], []


def line_skeleton(lines=8):
    """Complete DFA over (header line index, last-byte class): a newline
    moves to the next line (the last line absorbs the rest), any other byte
    stays on the line.  State 0 is the start, then ``lines * 4`` states."""
    def state(line, cls):
        return 1 + 4 * line + cls

    transitions = []
    sources = [(0, 0)] + [(state(l, c), l) for l in range(lines)
                          for c in range(4)]
    for q, line in sources:
        for b in ALL_BYTES:
            if b == 0x0A:
                dst = state(min(line + 1, lines - 1), CLASS_OTHER)
            else:
                dst = state(line, byte_class(b))
            transitions.append((q, b, dst))
    return 1 + 4 * lines, transitions, [0], []


# ------------------------------------------------------------------ corpora

def text_corpus(rng, words, count, min_len, max_len, plant_share):
    """Short printable words; a ``plant_share`` of them end with one of
    ``words`` and as many again carry one in the middle."""
    out = []
    for _ in range(count):
        body = bytes(rng.choice(PRINTABLE + (0x20,))
                     for _ in range(rng.randint(min_len, max_len)))
        u = rng.random()
        if u < plant_share:
            body += rng.choice(words)
        elif u < 2 * plant_share:
            cut = rng.randint(0, len(body))
            body = body[:cut] + rng.choice(words) + body[cut:]
        out.append(body)
    return out


_METHODS = (b"GET", b"POST", b"HEAD", b"PUT")
_HEADERS = (b"Host", b"User-Agent", b"Accept", b"Accept-Language",
            b"Cookie", b"Referer", b"Connection", b"Content-Type",
            b"X-Request-Id", b"Cache-Control")


def _token(rng, alphabet, lo, hi):
    return bytes(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def http_corpus(rng, literals, count, plant_share):
    """HTTP-like request packets: a request line and 4-9 header lines with
    CRLF endings.  A ``plant_share`` of the packets end with one of
    ``literals`` (appended to the last header value)."""
    word_chars = LETTERS + DIGITS + tuple(b"-_.")
    packets = []
    for _ in range(count):
        path = b"/".join(_token(rng, word_chars, 2, 10)
                         for _ in range(rng.randint(1, 4)))
        lines = [rng.choice(_METHODS) + b" /" + path + b" HTTP/1.1"]
        for name in rng.sample(_HEADERS, rng.randint(4, 9)):
            value = b" ".join(_token(rng, PRINTABLE, 3, 14)
                              for _ in range(rng.randint(1, 5)))
            lines.append(name + b": " + value)
        packet = b"\r\n".join(lines)
        if rng.random() < plant_share:
            packet += rng.choice(literals)
        packets.append(packet)
    return packets


# -------------------------------------------------------------- file output

def fa_text(automaton):
    """FA text format over the implicit byte alphabet.  A state is named
    only by the lines it appears on; every generated state has a transition
    or is initial or final."""
    _, transitions, initial, final = automaton
    lines = ["%Initial " + " ".join(str(q) for q in initial)]
    if final:
        lines.append("%Final " + " ".join(str(q) for q in final))
    lines += [f"{src} 0x{b:02X} {dst}" for src, b, dst in sorted(transitions)]
    return "\n".join(lines) + "\n"


def learn_model_text(skeleton, corpus):
    """PA text learned by event counting: a DFA skeleton state's outgoing
    probabilities are its transition and word-end frequencies on the
    corpus.  States never visited are left out."""
    _, transitions, initial, _ = skeleton
    delta = {(src, b): dst for src, b, dst in transitions}
    trans = {}
    ends = {}
    for word in corpus:
        q = initial[0]
        for b in word:
            key = (q, b)
            trans[key] = trans.get(key, 0) + 1
            q = delta[key]
        ends[q] = ends.get(q, 0) + 1
    totals = dict(ends)
    for (q, _), c in trans.items():
        totals[q] = totals.get(q, 0) + c
    lines = [f"%Initial {initial[0]} 1"]
    lines += [f"%Final {q} {ends[q] / totals[q]:.17g}" for q in sorted(ends)]
    lines += [f"{q} 0x{b:02X} {delta[(q, b)]} {c / totals[q]:.17g}"
              for (q, b), c in sorted(trans.items())]
    return "\n".join(lines) + "\n"


def corpus_bin(words):
    """Binary corpus: 4-byte little-endian length, then the payload."""
    return b"".join(struct.pack("<I", len(w)) + w for w in words)
