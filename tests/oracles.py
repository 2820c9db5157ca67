"""Brute-force reference implementations the library tests check against.

Everything here is deliberately naive and independent of the package
internals: direct position scans, literal dictionary-of-strings searches,
closed-form parse structure, dense linear algebra, a dense transitive
closure for the closed classes of a Markov chain, and a Markov sampler
that draws one symbol at a time into a Python list.
"""

import math
from bisect import bisect_right
from collections import Counter

import numpy as np


def gram_counts(symbols, q):
    """Count overlapping q-grams by scanning every position."""
    symbols = list(symbols)
    return Counter(tuple(symbols[i : i + q]) for i in range(len(symbols) - q + 1))


def gram_entropy_bits(symbols, q):
    """Plug-in entropy of the q-gram distribution, in bits."""
    counts = gram_counts(symbols, q)
    total = sum(counts.values())
    return -sum((k / total) * math.log2(k / total) for k in counts.values())


def naive_lzw_codes(symbols, alphabet_size):
    """Longest-match LZW by literal string search in a dict of tuples.

    The LZW dictionary is prefix-closed, so extending the match one symbol
    at a time finds the longest entry.
    """
    table = {(s,): s for s in range(alphabet_size)}
    next_code = alphabet_size
    codes = []
    symbols = list(symbols)
    i, n = 0, len(symbols)
    while i < n:
        length = 1
        while i + length + 1 <= n and tuple(symbols[i : i + length + 1]) in table:
            length += 1
        word = tuple(symbols[i : i + length])
        codes.append(table[word])
        if i + length < n:
            table[word + (symbols[i + length],)] = next_code
            next_code += 1
        i += length
    return codes


def constant_run_codes(n):
    """Emitted LZW codes for the constant sequence 0^n over a binary alphabet.

    The parse structure is closed-form: phrase lengths grow 1, 2, 3, ...
    and the run of length k sits at dictionary index k (the first inserted
    entry "00" lands at index 2), with a final leftover phrase.
    """
    codes = [0]
    consumed = 1
    length = 2
    while consumed + length <= n:
        codes.append(length)
        consumed += length
        length += 1
    rest = n - consumed
    if rest == 1:
        codes.append(0)
    elif rest >= 2:
        codes.append(rest)
    return codes


def footnote_bits(codes):
    """Description length of a code stream: log2(log2 M) + c * log2(M)."""
    m = max(2, max(codes))
    return math.log2(math.log2(m)) + len(codes) * math.log2(m)


def stationary_by_eigendecomposition(transition_table, alphabet_size, order):
    """Stationary distribution via dense eigendecomposition of the state chain."""
    table = np.asarray(transition_table, dtype=np.float64)
    n_states = alphabet_size**order
    keep = alphabet_size ** (order - 1)
    step = np.zeros((n_states, n_states))
    for s in range(n_states):
        for a in range(alphabet_size):
            step[s, (s % keep) * alphabet_size + a] += table[s, a]
    eigvals, eigvecs = np.linalg.eig(step.T)
    k = int(np.argmin(np.abs(eigvals - 1.0)))
    pi = np.real(eigvecs[:, k])
    return pi / pi.sum()


def closed_classes(transition_table, alphabet_size, order):
    """Closed communicating classes of the composite-state chain, as sorted tuples.

    A dense boolean transitive closure, squared until it stops growing:
    ``reach[s, t]`` says t follows s in zero or more steps of positive
    probability.  A state lies in a closed class when every state it reaches
    reaches it back, and that class is everything it reaches.
    """
    table = np.asarray(transition_table)
    n_states = alphabet_size**order
    keep = alphabet_size ** (order - 1)
    reach = np.eye(n_states, dtype=bool)
    for s in range(n_states):
        for a in range(alphabet_size):
            if table[s, a] > 0:
                reach[s, (s % keep) * alphabet_size + a] = True
    while True:
        wider = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        if (wider == reach).all():
            break
        reach = wider
    return sorted(
        {
            tuple(np.flatnonzero(reach[s]).tolist())
            for s in range(n_states)
            if (reach[:, s] | ~reach[s]).all()
        }
    )


def markov_sample(transition_table, alphabet_size, order, stationary, n, rng):
    """Order-m chain sample drawn one symbol at a time into a Python list.

    The start state takes one ``rng.random()`` against the cumulative
    ``stationary`` law; every later symbol bisects its state's cumulative
    row with the next uniform of a single ``rng.random(n - order)`` call,
    clipped to the row's last symbol of positive probability for draws at
    or past the row's total.
    """
    A, m = alphabet_size, order
    cum_pi = np.cumsum(stationary)
    state = min(int(np.searchsorted(cum_pi, rng.random(), side="right")), len(cum_pi) - 1)
    symbols = [(state // A ** (m - 1 - i)) % A for i in range(m)]
    if n <= m:
        return np.array(symbols[:n], dtype=np.int64)
    cum_rows = np.cumsum(np.asarray(transition_table), axis=1).tolist()
    last_positive = [max(a for a in range(A) if row[a] > 0) for row in transition_table]
    for u in rng.random(n - m).tolist():
        x = min(bisect_right(cum_rows[state], u), last_positive[state])
        symbols.append(x)
        state = (state % A ** (m - 1)) * A + x
    return np.array(symbols, dtype=np.int64)
