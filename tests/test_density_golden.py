"""Golden density searches over conditions with nonempty badsets.

The CLI's default density-search trace (pinned in test_trace_digests.py)
starts from the empty badset, so it never closes one.  This battery does:
every condition has a nonempty badset, several of whose k-closures hold
nodes outside the badset, and the searches between them reach the
totality tree, fusion, the zero tree and the non-totality extension.  Each
digest is the sha256 of the verdict's kind, certificate and trace as sorted
JSON.  The first fourteen were recorded before the searches shared one
closure of the badset; the digit-set entries before the zero tree was
forced in one pass and the fusion returned its pairs, and they reach a
fused prefix shorter than the fusion, a zero tree that stops early, and
no zero tree at all.  EXITS adds the failure exits the battery never
reaches, each with its own program index and limits; their digests were
recorded before the zero tree read its Delta sets off the totality tree.
"""

import hashlib
import json

import pytest

from dnrlab.asm import const_index
from dnrlab.bushy import OrderFunction
from dnrlab.forcing import FiniteFunctional, ForcingCondition, SearchLimits, density_search

G8 = OrderFunction.constant(8)
G16 = OrderFunction.constant(16)
G32 = OrderFunction.constant(32)


def _levels_table(width: int, levels: int, depth: int, bits) -> FiniteFunctional:
    """Each node of length <= levels outputs bits(node)."""
    entries, frontier = {}, [()]
    for _ in range(levels):
        frontier = [node + (c,) for node in frontier for c in range(width)]
        for node in frontier:
            entries[node] = bits(node)
    return FiniteFunctional.from_entries(depth, entries)


def _parity(width: int, levels: int, depth: int) -> FiniteFunctional:
    return _levels_table(width, levels, depth, lambda node: tuple(c % 2 for c in node))


def _zeros(width: int, levels: int, depth: int) -> FiniteFunctional:
    return _levels_table(width, levels, depth, lambda node: (0,) * len(node))


def _digits(*zero_sets) -> FiniteFunctional:
    """Width 16, depth 2: bit j is 0 iff the node's j-th digit lies in zero_sets[j]."""
    return _levels_table(16, 2, 2, lambda node: tuple(
        int(c not in zero_sets[j]) for j, c in enumerate(node)))


_ONES = {(a,): (1,) for a in range(16)}
_ONES.update({(a, b): (1, b % 2) for a in range(16) for b in range(16)})
_PARTIAL = {(a,): (a % 2,) for a in range(16)}
_PARTIAL.update({(0, b): (0, b % 2) for b in range(5)})

# name: (table, q's constant, g, stem, badset, digest)
BATTERY = {
    "parity": (_parity(16, 1, 2), 0, G16, (), [(7,)],
        "342ce01f39507cebe44bc966df3b9724f3399d6eee5996f270b9b1ab381a7abf"),
    "parity-deep-bad": (_parity(32, 2, 2), 0, G32, (), [(7,), (3, 0), (3, 1)],
        "682e05cd177868dc93c5b2c071d0d6ac187be73eee9dd9d41597d3b6ee172ed8"),
    "constant": (FiniteFunctional.constant(2, (0, 0)), 0, G16, (), [(7,), (3, 0)],
        "c61a105f21d8407c1720c6554ed439ab87284c79c28b89d6b69032b6d183d9db"),
    "constant-q1": (FiniteFunctional.constant(3, (0, 0, 0)), 1, G16, (), [(4,), (9, 9)],
        "e37794f626d4d7a128c7b1f6f5b068d15b3090cdeb86462a829c1e856f19b4a0"),
    "forced-ones": (FiniteFunctional.from_entries(3, _ONES), 0, G16, (), [(0, 0), (15,)],
        "0e1c3a0145156fbd298382afbd0b8c767e22378253e51db7634175f77e423aa6"),
    "empty": (FiniteFunctional(2, ()), 0, G16, (), [(1,)],
        "d7533dabe925502cc7ed3e4fb8229183dc94985e8dca03f715d9baa5d51f2383"),
    "partial": (FiniteFunctional.from_entries(2, _PARTIAL), 0, G16, (), [(9,)],
        "18882feb0ee3a8c075b7d396f0ba683c99ca82d5b722d6f7c6bfae359744d93d"),
    "stem": (_parity(16, 2, 2), 0, G16, (2,), [(2, 3)],
        "30c80079fd5abe77bcce8a715191d5df1fe4819eaded1bca24382e06075457eb"),
    "deep-badset": (_parity(16, 1, 2), 0, G16, (), [(5, 1, 1), (5, 1, 2)],
        "9031c07a4fd27d2e91fc3f81f1d3e10643e8b617f7bea7a6a9573ce5f71e9b04"),
    "zeros-q1": (_zeros(16, 2, 2), 1, G16, (), [(5, 1), (5, 2)],
        "0acbe72931cc8f4ae0f641802e4281306bd522198d35df01b31d4f81e9432a3a"),
    "parity-q1": (_parity(16, 2, 2), 1, G16, (), [(5, 1), (5, 2)],
        "5ee578969642531b75a61cb9482d57ab7cc65afa9fa026cd151a94ee43caed35"),
    "lengthen": (_parity(16, 2, 2), 0, OrderFunction((8, 16)), (), [(0, 0), (0, 1)],
        "bb2f530b268f0611b12e57e2b46e113bd698532ad9324e85647cd556e4a21efd"),
    "k3": (_parity(32, 2, 2), 1, G32, (), [(0,), (4, 5), (4, 6), (4, 7)],
        "a549f8c2d7923c1117704f85b422bac95694501ebfb51a471d0d173f251a8009"),
    "k3-zeros": (_zeros(32, 2, 2), 0, G32, (), [(0,), (4, 5), (4, 6), (4, 7)],
        "cc317668c29c999c71f81d16d2e744ef2869be34b56d21a840209602a1bb5586"),
    "digits-short-prefix": (_digits({6}, {12}), 0, G16, (), [(13, 11)],
        "2ef863b1a90daff574bb5b07170f0a889ea6dd24672f4171d60b2f68aebe5bc9"),
    "digits-zero-capacity": (_digits(set(range(16)) - {13, 15}, {1, 10}), 2, G16, (), [(1, 9)],
        "69ce621278e12eec9dbff22069fa5d665a1c8512801cd1d07fa04285558ba357"),
    "digits-no-zero-tree": (_digits({0, 1}, {3, 11}), 2, G16, (), [(7, 12)],
        "8425071b1985e03be45379a195bb4dc40c53ac756004d5dc7dc7676d0127566d"),
}

# name: (table, q's index, g, stem, badset, limits, digest); index 0 diverges
EXITS = {
    "never-reaches": (FiniteFunctional.constant(2, (0, 0)), const_index(0), G8, (), [(7,)],
        SearchLimits(), "630c4f69918d8a06414493e36b8a05939e5b9a317d7557e024a7c1e055aa322b"),
    "too-shallow": (FiniteFunctional.constant(0, (0,)), const_index(0), OrderFunction((2, 16)),
        (), [(1,)], SearchLimits(),
        "1c6b7b52ad0519735cc4ffd805e6e9266050fb941a2277ec0f808b1e04462efe"),
    "zero-q-not-total": (_digits({0, 7, 8, 10, 11, 12, 13, 15}, {1, 2, 3, 5, 7, 14, 15}), 0,
        G16, (), [(12, 3)], SearchLimits(),
        "8ba93a173f7b4fa5da5983f5bac7e7068e681291258d5e91b669dea575723187"),
    "audit-failed": (FiniteFunctional.constant(2, (0, 0)), const_index(0), G16, (),
        [(7,), (3, 0)], SearchLimits(eval_budget=20),
        "e5dd08823a50a19d184282febd8d374ecfc002dacc7951408f8466e005cfd39a"),
}


def search_digest(table, q, g, stem, badset, limits) -> str:
    verdict = density_search(table, q, ForcingCondition(stem, frozenset(badset), g), limits)
    doc = {"verdict": type(verdict).__name__,
           "certificate": getattr(verdict, "certificate", None),
           "trace": list(verdict.trace)}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(BATTERY))
def test_density_search_golden(name):
    table, q, *search, digest = BATTERY[name]
    assert search_digest(table, const_index(q), *search, SearchLimits()) == digest


@pytest.mark.parametrize("name", sorted(EXITS))
def test_density_search_exit_golden(name):
    *search, digest = EXITS[name]
    assert search_digest(*search) == digest
