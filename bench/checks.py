"""Output checks and the behaviour digest.

Membership is decided here, by a lazy subset simulation over the FA text
the library wrote, not by the library's own ``accepts``.  Each check
returns ``(problems, digest)``: a command counts as failed when it exited
non-zero or ``problems`` is not empty; the digest records what it produced
so that later changes can show the same outputs.

The witness rule rests on one fact about the inputs: every corpus word has
positive probability under the model, because the model was learned from
that corpus.  So if some corpus word is classified differently by two
automata, their distance under the model is positive, and so must be every
certified bound on it.  The library's own ``exact_distance`` is not used as
a reference for soundness: in floating point it can be off from the true
value by orders of magnitude on tiny probabilities, either way, so a
witness that contradicts it goes into the digest's ``notes``.
"""

import hashlib
import math

from nfareduce.errors import FormatError
from nfareduce.formats import parse_nfa, parse_pa


class Matcher:
    """An automaton read from FA or PA text, run as a lazily built DFA.

    With ``weighted`` the text is a PA and only weights above zero count,
    so ``accepts`` tells whether a word has positive probability.
    """

    def __init__(self, text, weighted=False):
        self.initial = set()
        self.final = set()
        delta = {}
        for raw in text.splitlines():
            tokens = raw.split("#", 1)[0].split()
            if not tokens:
                continue
            head = tokens[0]
            if head == "%Alphabet":
                raise ValueError("only the implicit byte alphabet is read")
            if head in ("%Initial", "%Final"):
                target = self.initial if head == "%Initial" else self.final
                if not weighted:
                    target.update(tokens[1:])
                elif float(tokens[2]) > 0.0:  # PA: STATE WEIGHT
                    target.add(tokens[1])
                continue
            if weighted and float(tokens[3]) <= 0.0:
                continue
            src, sym, dst = tokens[:3]
            delta.setdefault((src, int(sym, 16)), set()).add(dst)
        self._delta = delta
        self._subsets = [frozenset(self.initial)]
        self._index = {self._subsets[0]: 0}
        self._rows = [[-1] * 256]
        self._accepting = [bool(self._subsets[0] & self.final)]

    @property
    def num_states(self):
        states = set(self.initial) | self.final
        for (src, _), dsts in self._delta.items():
            states.add(src)
            states.update(dsts)
        return len(states)

    def _step(self, i, b):
        target = set()
        for q in self._subsets[i]:
            target.update(self._delta.get((q, b), ()))
        target = frozenset(target)
        j = self._index.get(target)
        if j is None:
            j = len(self._subsets)
            self._index[target] = j
            self._subsets.append(target)
            self._rows.append([-1] * 256)
            self._accepting.append(bool(target & self.final))
        self._rows[i][b] = j
        return j

    def accepts(self, word):
        i = 0
        rows = self._rows
        for b in word:
            j = rows[i][b]
            if j < 0:
                j = self._step(i, b)
            i = j
        return self._accepting[i]


def _read(path, binary=False):
    with open(path, "rb" if binary else "r") as f:
        return f.read()


def _sha256(path):
    return hashlib.sha256(_read(path, binary=True)).hexdigest()


def report_pairs(stdout):
    """The CLI's key=value report lines as a dict of strings."""
    pairs = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            pairs[key] = value
    return pairs


def _number(pairs, key, problems):
    """A finite non-negative number from the report, or None."""
    try:
        value = float(pairs[key])
    except (KeyError, ValueError):
        problems.append(f"report lacks a number for {key}")
        return None
    if not math.isfinite(value) or value < 0.0:
        problems.append(f"{key}={pairs[key]} is not finite and >= 0")
    return value


def differing_words(first, second, corpus):
    """Corpus words exactly one of the two matchers accepts, split by which
    one: (only in first, only in second)."""
    only_first = only_second = 0
    for word in corpus:
        a, b = first.accepts(word), second.accepts(word)
        only_first += a and not b
        only_second += b and not a
    return only_first, only_second


def witness_problems(differing, **bounds):
    """A corpus word classified differently has positive probability, so
    each named bound (an error bound or a distance) must be positive."""
    if not differing:
        return []
    return [f"{differing} corpus words classified differently but "
            f"{name}={value!r}" for name, value in bounds.items()
            if value is not None and not value > 0.0]


def _reparse_fa(path, problems):
    try:
        parse_nfa(_read(path), name=path)
    except (FormatError, ValueError, OSError) as exc:
        problems.append(f"{path} does not re-parse: {exc}")
        return False
    return True


def check_reduce(info, pairs, corpus):
    problems = []
    bound = _number(pairs, "error_bound", problems)
    output_states = _number(pairs, "output_states", problems)
    exact = pairs.get("exact_distance")
    exact = None if exact is None else _number(pairs, "exact_distance",
                                               problems)
    digest = {"error_bound": bound, "output_states": output_states,
              "chosen_set_size": pairs.get("removed_set_size"),
              "exact_distance": exact}
    if not _reparse_fa(info["output"], problems):
        return problems, digest
    digest["output_sha256"] = _sha256(info["output"])
    original = Matcher(_read(info["input"]))
    reduced = Matcher(_read(info["output"]))
    if info["mode"] == "size" and output_states is not None:
        param = info["param"]
        limit = (int(param) if param >= 1.0
                 else math.ceil(param * original.num_states))
        if output_states > limit:
            problems.append(f"output_states={output_states:g} above the "
                            f"size bound {limit}")
    lost, gained = differing_words(original, reduced, corpus)
    if info["type"] == "prune" and gained:
        problems.append(f"prune result accepts {gained} corpus words the "
                        "input rejects")
    if info["type"] == "selfloop" and lost:
        problems.append(f"self-loop result rejects {lost} corpus words the "
                        "input accepts")
    digest["differing_words"] = lost + gained
    problems += witness_problems(lost + gained, error_bound=bound)
    # at these masses the library's floating-point distance is rounding
    # noise (defect 2 in README.md): its sign is recorded, not checked
    digest["notes"] = witness_problems(lost + gained, exact_distance=exact)
    return problems, digest


def round_sig(value, digits=12):
    """``value`` rounded to ``digits`` significant digits, as text."""
    return f"{value:.{digits - 1}e}"


def check_label(info, pairs, corpus):
    problems = []
    n = Matcher(_read(info["input"])).num_states
    rounded = []
    for i, line in enumerate(_read(info["output"]).splitlines()):
        state, _, value = line.partition("\t")
        try:
            state, value = int(state), float(value)
        except ValueError:
            problems.append(f"label line {i + 1} is not 'STATE<TAB>VALUE'")
            continue
        if state != i:
            problems.append(f"label line {i + 1} names state {state}")
        if not math.isfinite(value) or value < 0.0:
            problems.append(f"label of state {state} is {value!r}")
        rounded.append(round_sig(value))
    if len(rounded) != n:
        problems.append(f"{len(rounded)} labels for {n} states")
    text = "\n".join(rounded).encode()
    return problems, {"labels": len(rounded),
                      "labels_sha256": hashlib.sha256(text).hexdigest()}


def check_learn(info, pairs, corpus):
    problems = []
    text = _read(info["output"])
    try:
        pa = parse_pa(text, name=info["output"])
    except (FormatError, ValueError) as exc:
        return [f"learned model does not re-parse: {exc}"], {}
    model = Matcher(text, weighted=True)
    zero = sum(1 for word in corpus if not model.accepts(word))
    if zero:
        problems.append(f"{zero} corpus words have probability 0 under "
                        "the model learned from them")
    if pairs.get("model_states") != str(pa.num_states):
        problems.append("reported model_states differs from the model file")
    return problems, {"model_states": pa.num_states,
                      "model_sha256": _sha256(info["output"])}


def check_distance(info, pairs, corpus):
    problems = []
    d = _number(pairs, "distance", problems)
    if d is not None and d > 1.0:
        problems.append(f"distance={d!r} above 1")
    first = Matcher(_read(info["first"]))
    second = Matcher(_read(info["second"]))
    differing = sum(differing_words(first, second, corpus))
    problems += witness_problems(differing, distance=d)
    return problems, {"distance": d, "differing_words": differing}


def check_eval(info, pairs, corpus):
    problems = []
    first = Matcher(_read(info["first"]))
    second = Matcher(_read(info["second"]))
    differing = sum(differing_words(first, second, corpus))
    if pairs.get("mismatches") != str(differing):
        problems.append(f"mismatches={pairs.get('mismatches')} but "
                        f"{differing} corpus words differ")
    if pairs.get("total") != str(len(corpus)):
        problems.append(f"total={pairs.get('total')} for {len(corpus)} words")
    return problems, {"mismatches": differing}


CHECKS = {"reduce": check_reduce, "label": check_label, "learn": check_learn,
          "distance": check_distance, "eval": check_eval}
