"""Shared fixtures: hand automata, random instance generators, and naive
brute-force oracles kept independent of the library's solver pipeline."""

import itertools

from nfareduce import Nfa, Pa, accepts, trim, validate_pa, word_prob

ABC = ("a", "b", "c")
AB = ("a", "b")


def a2():
    """4-state automaton accepting {ab, b}; the worked micro example."""
    return Nfa(4, AB, [(0, "a", 1), (1, "b", 2), (0, "b", 3)],
               initial=[0], final=[2, 3])


def canon_dfa(a):
    """BFS renumbering of a deterministic automaton; a canonical form, so
    two isomorphic DFAs compare equal after it."""
    assert len(a.initial) <= 1
    order = []
    seen = set()
    queue = sorted(a.initial)
    while queue:
        q = queue.pop(0)
        if q in seen:
            continue
        seen.add(q)
        order.append(q)
        for sym in a.alphabet:
            queue.extend(a.succ(q, sym))
    pos = {old: new for new, old in enumerate(order)}
    transitions = [(pos[s], sym, pos[d]) for s, sym, d in a.transitions()
                   if s in pos and d in pos]
    return Nfa(len(order), a.alphabet, transitions,
               [pos[q] for q in a.initial if q in pos],
               [pos[q] for q in sorted(a.final) if q in pos])


def naive_closure(seeds, pairs):
    """Least superset of ``seeds`` closed under the (src, dst) ``pairs``,
    by plain fixed-point iteration."""
    reached = set(seeds)
    while True:
        new = {d for s, d in pairs if s in reached} - reached
        if not new:
            return frozenset(reached)
        reached |= new


def naive_trim_survivors(a, avoid=frozenset()):
    """States on some initial-to-final path of ``a`` that avoids the states
    in ``avoid``, from the transitions() triples alone."""
    pairs = {(s, d) for s, _, d in a.transitions()
             if s not in avoid and d not in avoid}
    fwd = naive_closure(a.initial - avoid, pairs)
    bwd = naive_closure(a.final - avoid, {(d, s) for s, d in pairs})
    return fwd & bwd


def naive_components(a):
    """Weakly-connected components ordered by smallest member."""
    pairs = {(s, d) for s, _, d in a.transitions()}
    pairs |= {(d, s) for s, d in pairs}
    comps = []
    for q in range(a.num_states):
        if not any(q in c for c in comps):
            comps.append(naive_closure([q], pairs))
    return comps


def words_upto(alphabet, max_len):
    for length in range(max_len + 1):
        for w in itertools.product(alphabet, repeat=length):
            yield w


def lang_upto(a, max_len):
    return {w for w in words_upto(a.alphabet, max_len) if accepts(a, w)}


def naive_lang_prob(p, a, max_len):
    """Word-by-word truncated language probability; the slowest, most
    literal oracle."""
    return sum(word_prob(p, w) for w in words_upto(a.alphabet, max_len)
               if accepts(a, w))


def naive_total_mass(p, alphabet, max_len):
    return sum(word_prob(p, w) for w in words_upto(alphabet, max_len))


def random_nfa(rng, max_states=8, alphabet=ABC, single_initial=False,
               acyclic=False):
    """Random trimmed nonempty NFA."""
    while True:
        n = rng.randint(1, max_states)
        transitions = []
        for q in range(n):
            for sym in alphabet:
                if rng.random() < 0.4:
                    targets = range(q + 1, n) if acyclic else range(n)
                    targets = list(targets)
                    if targets:
                        for dst in rng.sample(targets,
                                              k=min(len(targets),
                                                    rng.randint(1, 2))):
                            transitions.append((q, sym, dst))
        if single_initial:
            initial = [rng.randrange(n)]
        else:
            initial = rng.sample(range(n), k=rng.randint(1, n))
        final = rng.sample(range(n), k=rng.randint(1, n))
        a = trim(Nfa(n, alphabet, transitions, initial, final))
        if a.num_states:
            return a


def random_dfa(rng, max_states=5, alphabet=AB):
    """Random deterministic automaton (single initial state, at most one
    successor per symbol); possibly partial."""
    n = rng.randint(1, max_states)
    transitions = []
    for q in range(n):
        for sym in alphabet:
            if rng.random() < 0.7:
                transitions.append((q, sym, rng.randrange(n)))
    return Nfa(n, alphabet, transitions, [rng.randrange(n)],
               rng.sample(range(n), k=rng.randint(0, n)))


def random_pa(rng, max_states=5, alphabet=ABC):
    """Random valid PA: all states keep positive initial and final weight,
    so the support is trim by construction."""
    n = rng.randint(1, max_states)
    initial = [rng.random() + 0.05 for _ in range(n)]
    total = sum(initial)
    initial = [x / total for x in initial]
    transitions = []
    final = []
    for q in range(n):
        weights = {}
        for sym in alphabet:
            for dst in range(n):
                if rng.random() < 0.45:
                    weights[(sym, dst)] = rng.random() + 0.01
        stop = rng.random() + 0.1
        denom = sum(weights.values()) + stop
        final.append(stop / denom)
        for (sym, dst), w in weights.items():
            transitions.append((q, sym, dst, w / denom))
    p = Pa(alphabet, initial, final, transitions)
    assert validate_pa(p) == []
    return p


def sample_word(rng, p):
    """Draw one word from the distribution of a valid PA."""
    states = range(p.num_states)
    q = rng.choices(list(states), weights=p.initial)[0]
    word = []
    while True:
        moves = [(None, None, p.final[q])]
        for sym in p.alphabet:
            for dst, w in p.row(sym, q).items():
                moves.append((sym, dst, w))
        choice = rng.choices(moves, weights=[m[2] for m in moves])[0]
        if choice[0] is None:
            return tuple(word)
        word.append(choice[0])
        q = choice[1]


def tentacles(rng, chains=20, min_len=5, max_len=10, alphabet=ABC):
    """Union of disjoint chains: initial head, accepting tail, one random
    symbol per edge."""
    transitions = []
    initial = []
    final = []
    next_state = 0
    for _ in range(chains):
        length = rng.randint(min_len, max_len)
        head = next_state
        for i in range(length):
            transitions.append((head + i, rng.choice(alphabet), head + i + 1))
        initial.append(head)
        final.append(head + length)
        next_state = head + length + 1
    return Nfa(next_state, alphabet, transitions, initial, final)
