"""Truncated binary trees with level-dependent edge resistances.

Vertices are finite 0/1 words; the empty word is the base.  The edge from a
word at level n to each of its children carries resistance r(n), i.e.
conductance 1/r(n).  With summable r the resistance metric makes deep rays
Cauchy, boundary points acquire finite mutual distance 2 * sum of r over the
tail beyond the meet level, and point-mass energies blow up toward the
boundary.

Level 0 needs a declared resistance: the root edges divide by r(0), so a
zero value there would mean infinite conductance and no finite model.  The
default convention is r(0) = 1, recorded in outputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import PointSet
from .errors import BoundaryWord, WeightUndefined
from .network import Network, resistance

Word = tuple


def parse_word(text: str) -> Word:
    """Parse a 0/1 string into a word; the empty string is the root."""
    if text in ("", "()"):
        return ()
    if any(ch not in "01" for ch in text):
        raise ValueError(f"words are strings over 0/1, got {text!r}")
    return tuple(int(ch) for ch in text)


def word_str(word: Word) -> str:
    return "".join(str(b) for b in word) if word else "()"


def meet_level(w1: Word, w2: Word) -> int:
    """Length of the longest common prefix."""
    n = 0
    for a, b in zip(w1, w2):
        if a != b:
            break
        n += 1
    return n


class LevelWeights:
    """Edge resistances r(0), r(1), ... indexed by tree level.

    ``geometric:q`` means r(n) = q**n (so r(0) = 1), ``constant:c`` means
    r(n) = c for all n, and an explicit list covers exactly the given levels.
    Summability is what makes the boundary completion collapse; only the
    geometric family (q < 1) carries a closed-form tail here.
    """

    def __init__(self, kind: str, *, ratio=None, value=None, values=None):
        self.kind = kind
        self.ratio = ratio
        self.value = value
        self.values = tuple(float(v) for v in values) if values is not None else None

    @classmethod
    def geometric(cls, ratio: float) -> "LevelWeights":
        if not ratio > 0:
            raise ValueError("geometric ratio must be positive")
        return cls("geometric", ratio=float(ratio))

    @classmethod
    def constant(cls, value: float) -> "LevelWeights":
        if not value > 0:
            raise ValueError("constant resistance must be positive")
        return cls("constant", value=float(value))

    @classmethod
    def explicit(cls, values) -> "LevelWeights":
        vals = [float(v) for v in values]
        if not vals or any(v <= 0 for v in vals):
            raise ValueError("explicit weights must be positive, one per level from 0")
        return cls("explicit", values=vals)

    @classmethod
    def parse(cls, spec: str) -> "LevelWeights":
        """Parse ``geometric:q``, ``constant:c``, or ``file:path`` (one
        resistance per line, line n = r(n))."""
        if not isinstance(spec, str):
            raise ValueError(f"weight spec must be a string, got {spec!r}")
        kind, _, arg = spec.partition(":")
        if kind == "geometric":
            return cls.geometric(float(arg))
        if kind == "constant":
            return cls.constant(float(arg))
        if kind == "file":
            with open(arg) as fh:
                vals = [float(line) for line in fh if line.strip()]
            return cls.explicit(vals)
        raise ValueError(f"unknown weight spec {spec!r}")

    def spec(self) -> str:
        if self.kind == "geometric":
            return f"geometric:{self.ratio}"
        if self.kind == "constant":
            return f"constant:{self.value}"
        return f"explicit:{len(self.values)} levels"

    def r(self, level: int) -> float:
        """Resistance at the level; raises ``WeightUndefined`` where there is
        none, where it is 0 or not finite in floating point, or where its
        conductance 1/r is not (a subnormal r)."""
        if level < 0:
            raise WeightUndefined(f"no resistance below level 0 (asked for {level})")
        if self.kind == "geometric":
            try:
                value = self.ratio ** level
            except OverflowError:
                value = math.inf
        elif self.kind == "constant":
            value = self.value
        elif level >= len(self.values):
            raise WeightUndefined(
                f"explicit weights cover levels 0..{len(self.values) - 1}, asked for {level}"
            )
        else:
            value = self.values[level]
        if not 0.0 < value < math.inf or 1.0 / value == math.inf:
            raise WeightUndefined(f"resistance at level {level} is {value} in floating point")
        return value

    @property
    def summable(self) -> bool:
        if self.kind == "geometric":
            return self.ratio < 1
        if self.kind == "constant":
            return False
        return False  # a finite list says nothing about its tail

    def partial_sum(self, start: int, stop: int) -> float:
        """sum of r(n) for start <= n < stop."""
        return sum(self.r(n) for n in range(start, stop))

    def tail_sum(self, start: int):
        """sum of r(n) for n >= start, when a closed form exists."""
        if self.kind == "geometric" and self.ratio < 1:
            return self.ratio ** start / (1.0 - self.ratio)
        return None


def build_tree(depth: int, weights: LevelWeights) -> Network:
    """Complete binary tree of all words up to the given depth, as a network
    with 2^(depth+1) - 1 vertices rooted at the empty word.

    Vertices are in heap order: the root, then each level left to right, so
    the children of vertex i are vertices 2i+1 and 2i+2, and edge k joins
    vertex k+1 to its parent k//2 with conductance 1/r(level of the parent).
    """
    words = (word for level in range(depth + 1) for word in itertools.product((0, 1), repeat=level))
    return _tree_network(depth, weights, words)


def _tree_network(depth: int, weights: LevelWeights, labels) -> Network:
    """:func:`build_tree`'s network over the given vertex labels, one per
    vertex in heap order; they are read only after the depth and the
    weights are checked."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    level_cond = [1.0 / weights.r(level) for level in range(depth)]
    child = np.arange(1, (2 << depth) - 1, dtype=np.intp)
    ends = np.column_stack(((child - 1) // 2, child))
    cond = np.repeat(level_cond, 2 << np.arange(depth))  # 2^(level+1) edges per level
    return Network._from_arrays(PointSet.canonical(tuple(labels)), 0, ends, cond)


def _heap_index(word: Word) -> int:
    """Vertex index of a 0/1 word in :func:`build_tree`'s heap order,
    2^len(word) - 1 + the word read in binary."""
    index = 0
    for bit in word:
        if bit not in (0, 1):
            raise ValueError(f"words are tuples over 0/1, got {word!r}")
        index = 2 * index + (2 if bit else 1)
    return index


def tree_delta_norm_closed(word: Word, weights: LevelWeights, depth: int) -> float:
    """Point-mass energy 2/r(level) + 1/r(level - 1) at an interior word:
    two child edges plus the parent edge."""
    level = len(word)
    if level == 0:
        raise ValueError("the root is the base point; its energy is 2/r(0) by the edge count")
    if level >= depth:
        raise BoundaryWord(
            f"word at level {level} is a leaf of the depth-{depth} truncation; "
            "its closed form needs the missing children"
        )
    return _level_energy(level, weights)


def _level_energy(level: int, weights: LevelWeights) -> float:
    """Point-mass energy 2/r(level) + 1/r(level - 1) of an interior word at
    the level; raises ``WeightUndefined`` where it overflows."""
    energy = 2.0 / weights.r(level) + 1.0 / weights.r(level - 1)
    if energy == math.inf:
        raise WeightUndefined(f"point-mass energy at level {level} overflows floating point")
    return energy


@dataclass(frozen=True)
class BoundaryResistance:
    """Resistance between two boundary rays seen through a finite truncation."""

    meet: int
    truncation: int
    series_sum: float            # 2 * sum of r over levels meet .. truncation-1
    network_value: float | None  # solver cross-check, when a network was solved
    tail_value: float | None     # 2 * infinite tail sum, when in closed form


def boundary_resistance(w1: Word, w2: Word, weights: LevelWeights) -> BoundaryResistance:
    """Distance between two distinct rays truncated at the same depth.

    Tree paths are series circuits, so the resistance is twice the sum of
    level resistances from the meet level up to the truncation.  A network
    solve cross-checks that when ``truncation <= 12``.  It runs on
    :func:`build_tree`'s network over the heap indices
    ``0 .. 2^(truncation+1) - 2`` in place of the words: the same edges and
    conductances, so the same factor and the same value bit for bit, with no
    word labels built.
    """
    if len(w1) != len(w2):
        raise ValueError("both words must be truncated at the same depth")
    if w1 == w2:
        raise ValueError("rays must be distinct")
    truncation = len(w1)
    meet = meet_level(w1, w2)
    series = 2.0 * weights.partial_sum(meet, truncation)
    network_value = None
    if truncation <= 12:
        net = _tree_network(truncation, weights, range((2 << truncation) - 1))
        network_value = resistance(net, _heap_index(w1), _heap_index(w2))
    tail = weights.tail_sum(meet)
    return BoundaryResistance(
        meet=meet,
        truncation=truncation,
        series_sum=series,
        network_value=network_value,
        tail_value=2.0 * tail if tail is not None else None,
    )


@dataclass(frozen=True)
class HistogramRow:
    level: int
    energy: float
    multiplicity: int
    uses_level0: bool  # level-1 rows depend on the declared r(0)


def energy_histogram(depth: int, weights: LevelWeights) -> list[HistogramRow]:
    """Point-mass energy per interior level with multiplicities 2^level.

    Multiplicities total 2^depth - 2.  With summable weights the energies
    grow without bound toward the truncation depth.
    """
    if depth < 2:
        raise ValueError("a histogram needs depth at least 2")
    rows = []
    for level in range(1, depth):
        rows.append(
            HistogramRow(
                level=level,
                energy=_level_energy(level, weights),
                multiplicity=2 ** level,
                uses_level0=(level == 1),
            )
        )
    return rows
