"""GMS Set interface (paper §5.1–5.2, Listing 1) in two layers.

Layer 1 — Catalyst set algebra over array columns. Neighbourhoods are
sorted integer array columns; ∩, ∪, ∖, |·|, ∈ map onto Spark SQL array
functions, so a whole "set-centric" formulation (e.g. triangle counting
``tc += |N(v) ∩ N(w)|``) stays inside the optimizer. These wrappers give
the paper's names (`intersect`, `diff`, `union`, `cardinality`,
`contains`) to the Catalyst primitives and are the 5+ modularity seam:
any algorithm written against them is representation-agnostic.

Layer 2 — driver/worker-side set representations used inside Python
kernels (Bron–Kerbosch, subgraph isomorphism run per-root via
mapInPandas). Three implementations mirror the paper's SortedSet /
RoaringSet / HashSet: ``SortedSet`` (sorted numpy arrays, merge-based
ops — the CSR analog), ``BitmapSet`` (packed uint64 bitvector, bulk
bitwise ops, O(1) add/remove — the roaring-bitmap analog), ``HashSet``
(Python frozenset — Robin-Hood-hashtable analog). They share one
interface so a kernel is parameterised by the class alone.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import Column
from pyspark.sql import functions as F

# --------------------------------------------------------------------------
# Layer 1: Catalyst set algebra over array<long> columns.
# --------------------------------------------------------------------------


def intersect(a: Column, b: Column) -> Column:
    """A ∩ B as a new array column (sorted for canonical comparisons)."""
    return F.array_sort(F.array_intersect(a, b))


def intersect_count(a: Column, b: Column) -> Column:
    """|A ∩ B| without materialising the intersection order."""
    return F.size(F.array_intersect(a, b))


def diff(a: Column, b: Column) -> Column:
    """A ∖ B as a new array column."""
    return F.array_sort(F.array_except(a, b))


def union(a: Column, b: Column) -> Column:
    """A ∪ B as a new array column."""
    return F.array_sort(F.array_union(a, b))


def union_count(a: Column, b: Column) -> Column:
    """|A ∪ B|."""
    return F.size(F.array_union(a, b))


def cardinality(a: Column) -> Column:
    """|A|; empty/null-safe (null set ≡ ∅)."""
    return F.coalesce(F.size(a), F.lit(0))


def contains(a: Column, elem) -> Column:
    """elem ∈ A."""
    return F.array_contains(a, elem)


# --------------------------------------------------------------------------
# Layer 2: kernel-side set representations (one neighbourhood = one set).
# --------------------------------------------------------------------------


class SortedSet:
    """Sorted contiguous integer array; merge-based ∩/∖ (paper's CSR sets)."""

    __slots__ = ("a",)

    def __init__(self, items=()):
        arr = np.asarray(list(items) if not isinstance(items, np.ndarray) else items,
                         dtype=np.int64)
        self.a = np.unique(arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "SortedSet":
        s = cls.__new__(cls)
        s.a = arr
        return s

    def intersect(self, other: "SortedSet") -> "SortedSet":
        return self._wrap(np.intersect1d(self.a, other.a, assume_unique=True))

    def intersect_count(self, other: "SortedSet") -> int:
        return int(np.intersect1d(self.a, other.a, assume_unique=True).size)

    def diff(self, other: "SortedSet") -> "SortedSet":
        return self._wrap(np.setdiff1d(self.a, other.a, assume_unique=True))

    def union(self, other: "SortedSet") -> "SortedSet":
        return self._wrap(np.union1d(self.a, other.a))

    def add(self, x: int) -> "SortedSet":
        return self._wrap(np.union1d(self.a, np.int64(x)))

    def remove(self, x: int) -> "SortedSet":
        return self._wrap(self.a[self.a != x])

    def contains(self, x: int) -> bool:
        i = np.searchsorted(self.a, x)
        return bool(i < self.a.size and self.a[i] == x)

    def cardinality(self) -> int:
        return int(self.a.size)

    def to_list(self) -> list[int]:
        return [int(x) for x in self.a]

    def nbytes(self) -> int:
        return int(self.a.nbytes)

    def __iter__(self):
        return iter(self.to_list())

    def __bool__(self):
        return self.a.size > 0

    def __eq__(self, other):
        return isinstance(other, SortedSet) and np.array_equal(self.a, other.a)


# Byte-wise popcount table: numpy<2 has no bitwise_count ufunc.
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint32)


def _popcount(words: np.ndarray) -> int:
    return int(_POPCOUNT8[words.view(np.uint8)].sum())


class BitmapSet:
    """Dense packed-uint64 bitvector over a fixed universe [0, n).

    The roaring-bitmap analog: bulk ∩/∪/∖ are single vectorised bitwise
    ops; add/remove are O(1) bit flips. Requires the universe size up
    front (in BK kernels that is the root's neighbourhood size, so the
    bitvectors are tiny — exactly the paper's subgraph optimisation).
    """

    __slots__ = ("bits", "n")

    def __init__(self, items=(), n: int | None = None):
        items = list(items)
        if n is None:
            n = (max(items) + 1) if items else 1
        self.n = n
        self.bits = np.zeros((n + 63) // 64, dtype=np.uint64)
        if items:
            idx = np.asarray(items, dtype=np.int64)
            np.bitwise_or.at(self.bits, idx // 64,
                             np.uint64(1) << (idx % 64).astype(np.uint64))

    @classmethod
    def _wrap(cls, bits: np.ndarray, n: int) -> "BitmapSet":
        s = cls.__new__(cls)
        s.bits, s.n = bits, n
        return s

    def intersect(self, other: "BitmapSet") -> "BitmapSet":
        return self._wrap(self.bits & other.bits, self.n)

    def intersect_count(self, other: "BitmapSet") -> int:
        return _popcount(self.bits & other.bits)

    def diff(self, other: "BitmapSet") -> "BitmapSet":
        return self._wrap(self.bits & ~other.bits, self.n)

    def union(self, other: "BitmapSet") -> "BitmapSet":
        return self._wrap(self.bits | other.bits, self.n)

    def add(self, x: int) -> "BitmapSet":
        b = self.bits.copy()
        b[x // 64] |= np.uint64(1) << np.uint64(x % 64)
        return self._wrap(b, self.n)

    def remove(self, x: int) -> "BitmapSet":
        b = self.bits.copy()
        b[x // 64] &= ~(np.uint64(1) << np.uint64(x % 64))
        return self._wrap(b, self.n)

    def contains(self, x: int) -> bool:
        return bool((self.bits[x // 64] >> np.uint64(x % 64)) & np.uint64(1))

    def cardinality(self) -> int:
        return _popcount(self.bits)

    def to_list(self) -> list[int]:
        out = []
        for w, word in enumerate(self.bits):
            word = int(word)
            base = w * 64
            while word:
                low = word & -word
                out.append(base + low.bit_length() - 1)
                word ^= low
        return out

    def nbytes(self) -> int:
        return int(self.bits.nbytes)

    def __iter__(self):
        return iter(self.to_list())

    def __bool__(self):
        return bool(self.bits.any())

    def __eq__(self, other):
        return (isinstance(other, BitmapSet) and self.n == other.n
                and np.array_equal(self.bits, other.bits))


class HashSet:
    """Hashtable-backed set (paper's Robin Hood HashSet analog)."""

    __slots__ = ("s",)

    def __init__(self, items=()):
        self.s = frozenset(int(x) for x in items)

    @classmethod
    def _wrap(cls, s: frozenset) -> "HashSet":
        h = cls.__new__(cls)
        h.s = s
        return h

    def intersect(self, other: "HashSet") -> "HashSet":
        return self._wrap(self.s & other.s)

    def intersect_count(self, other: "HashSet") -> int:
        return len(self.s & other.s)

    def diff(self, other: "HashSet") -> "HashSet":
        return self._wrap(self.s - other.s)

    def union(self, other: "HashSet") -> "HashSet":
        return self._wrap(self.s | other.s)

    def add(self, x: int) -> "HashSet":
        return self._wrap(self.s | {int(x)})

    def remove(self, x: int) -> "HashSet":
        return self._wrap(self.s - {int(x)})

    def contains(self, x: int) -> bool:
        return int(x) in self.s

    def cardinality(self) -> int:
        return len(self.s)

    def to_list(self) -> list[int]:
        return sorted(self.s)

    def nbytes(self) -> int:
        # sys.getsizeof(frozenset) is interpreter-detail; 8B/slot with
        # ~1.6x open-addressing overhead is the comparable payload size.
        return int(len(self.s) * 8 * 1.6) + 64

    def __iter__(self):
        return iter(self.to_list())

    def __bool__(self):
        return bool(self.s)

    def __eq__(self, other):
        return isinstance(other, HashSet) and self.s == other.s


def make_set_factory(repr_name: str, universe: int):
    """Return ``items -> Set`` for the named representation.

    The universe size only matters for ``bitmap``; the other factories
    ignore it. This is the single point where a kernel picks its set
    representation (paper's 5+ modularity).
    """
    if repr_name == "sorted":
        return SortedSet
    if repr_name == "bitmap":
        return lambda items=(): BitmapSet(items, n=universe)
    if repr_name == "hash":
        return HashSet
    raise ValueError(f"unknown set representation {repr_name!r}; "
                     f"expected one of sorted|bitmap|hash")
