"""Shared fixtures: hand automata, random instance generators, and naive
brute-force oracles kept independent of the library's solver pipeline."""

import itertools

import mpmath
from hypothesis import strategies as st

from nfareduce import (CountTable, Nfa, Pa, Ppa, accepts, determinize,
                       product, product_pa_nfa, product_with_pairs, trim,
                       trim_survivors, validate_pa, word_prob)
from nfareduce.nfa import _closure, _explore

ABC = ("a", "b", "c")
AB = ("a", "b")
# an alphabet whose order is not lexical, so alphabet order is tested
BA = ("b", "a")

# digits of the mpmath reference solves
MP_DPS = 40


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


def self_product_unambiguous(a):
    """Ambiguity by the book: build the self-product automaton, trim it,
    and look for a surviving off-diagonal pair."""
    prod, pairs = product_with_pairs(a, a)
    return all(pairs[i][0] == pairs[i][1] for i in trim_survivors(prod))


def ppa_product(p, a, final_weights="model"):
    """The PA x NFA product built as a ``Ppa`` transition by transition;
    returns (ppa, pair_map)."""
    def step(pair):
        qp, qa = pair
        for sym, dsts in a.moves(qa):
            row = p.row(sym, qp)
            for qa2 in dsts:
                for qp2, w in row.items():
                    yield (sym, w), (qp2, qa2)

    starts = [(qp, qa) for qp in range(p.num_states) if p.initial[qp] > 0.0
              for qa in sorted(a.initial)]
    pairs, edges = _explore(starts, step)

    def is_final(pair):
        qp, qa = pair
        if qa not in a.final:
            return False
        return True if final_weights == "unit" else p.final[qp] > 0.0

    rev = {}
    for i, _label, j in edges:
        rev.setdefault(j, []).append(i)
    alive = _closure([i for i, pair in enumerate(pairs) if is_final(pair)],
                     lambda j: rev.get(j, ()))

    kept = [i for i in range(len(pairs)) if i in alive]
    pos = {old: new for new, old in enumerate(kept)}
    kept_pairs = tuple(pairs[i] for i in kept)
    initial = [0.0] * len(kept)
    for new, (qp, qa) in enumerate(kept_pairs):
        if qa in a.initial and p.initial[qp] > 0.0:
            initial[new] = p.initial[qp]
    final = [0.0] * len(kept)
    for new, pair in enumerate(kept_pairs):
        if is_final(pair):
            final[new] = 1.0 if final_weights == "unit" else p.final[pair[0]]
    trans = [(pos[i], sym, pos[j], w) for i, (sym, w), j in edges
             if i in alive and j in alive]
    return Ppa(a.alphabet, initial, final, trans), kept_pairs


def mp_solve_star(r):
    """initial . (I - E)^-1 . final of the product ``r`` (a ``ProductPpa``)
    as an mpf, in MP_DPS-digit arithmetic: the reference the float solver
    is held to.  (I - E) x = final is solved by sparse Gaussian elimination
    on the diagonal, which an M-matrix admits."""
    n = len(r.pair_map)
    with mpmath.workdps(MP_DPS):
        rows = [{i: mpmath.mpf(1)} for i in range(n)]
        for i, j, w in zip(r.src.tolist(), r.dst.tolist(),
                           r.weight.tolist()):
            rows[i][j] = rows[i].get(j, mpmath.mpf(0)) - w
        x = [mpmath.mpf(v) for v in r.final.tolist()]
        for k in range(n):
            pivot = rows[k]
            for i in range(k + 1, n):
                row = rows[i]
                if k in row:
                    f = row.pop(k) / pivot[k]
                    for j, v in pivot.items():
                        if j > k:
                            row[j] = row.get(j, 0) - f * v
                    x[i] -= f * x[k]
        for k in reversed(range(n)):
            x[k] = (x[k] - mpmath.fsum(v * x[j] for j, v in rows[k].items()
                                       if j > k)) / rows[k][k]
        return mpmath.fsum(w * x[i] for i, w in enumerate(r.initial.tolist()))


def mp_lang(p, a, final_weights="model"):
    """Reference probability (or, with ``final_weights="unit"``, weight)
    of L(a): the MP_DPS-digit solve on the product with determinize(a)."""
    return mp_solve_star(product_pa_nfa(p, determinize(a), final_weights))


def mp_distance(p, a1, a2):
    """Reference distance by inclusion-exclusion, p1 + p2 - 2 p12, in
    MP_DPS-digit arithmetic, where the cancellation costs no float digits."""
    with mpmath.workdps(MP_DPS):
        d = (mp_lang(p, a1) + mp_lang(p, a2)
             - 2 * mp_lang(p, product(a1, a2)))
        return float(d)


def per_word_count_events(skeleton, corpus):
    """Event counts by running the complete DFA ``skeleton`` over each
    corpus word in turn, one symbol at a time."""
    (init,) = skeleton.initial
    table = CountTable()
    for word in corpus:
        q = init
        table.visit[q] = table.visit.get(q, 0) + 1
        for sym in word:
            key = (q, sym)
            table.trans_count[key] = table.trans_count.get(key, 0) + 1
            (q,) = skeleton.succ(q, sym)
            table.visit[q] = table.visit.get(q, 0) + 1
        table.end_count[q] = table.end_count.get(q, 0) + 1
    return table


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


@st.composite
def nfas(draw, min_states=0, max_states=6):
    """A random NFA over BA with up to ``max_states`` states; any number of
    initial states, and up to two successors per state and symbol on
    average."""
    n = draw(st.integers(min_states, max_states))
    if n == 0:
        return Nfa(0, BA)
    states = st.integers(0, n - 1)
    transitions = draw(st.lists(st.tuples(states, st.sampled_from(BA),
                                          states), max_size=4 * max_states))
    return Nfa(n, BA, transitions, draw(st.frozensets(states)),
               draw(st.frozensets(states)))


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
