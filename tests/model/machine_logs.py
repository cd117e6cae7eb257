"""Event histories for the component machine logs.

A :class:`History` feeds one event sequence two ways: as a ported kernel
logs it (records appended to a :class:`~repro.ir.codegen_runtime.FusedBuffet`
or :class:`~repro.ir.codegen_runtime.FusedCache` log, under loop-context
ids and frames numbered as the generated loops number them), and as the
interpreter streams it (one ``access_read``/``access_write`` call per
event on the per-event :class:`~repro.model.components.BuffetModel` /
:class:`~repro.model.components.CacheModel`).  Read keys are elements of
one small three-level arena, so key-depth truncation walks real
segments; a path-keyed history reads them as a tensor with a projected
level is read, by interned paths whose coordinates carry an offset.
Writes are points of a separate output box, logged in its mixed radix as
a kernel logs its output writes: an Einsum never reads its own output,
so no write point is a read path at any key depth.
"""

import hypothesis.strategies as st
import numpy as np

import repro.ir.codegen_runtime as rt
from repro.fibertree import Tensor
from repro.model.components import BuffetModel, CacheModel, DramModel
from repro.spec.architecture import Component
from repro.spec.binding import DataBinding

#: Loop ranks by depth; a binding evicting on "Z" never meets its rank.
LOOP_RANKS = ("P", "Q", "R")
#: The arena's rank per level (the rank its events name).
RANKS = ("K", "M", "N")
BITS = 96.0
#: The output box and the rank its writes name.  Written points have a
#: first coordinate of 9 to 11, which no read path has (arena paths run
#: 0..4, shifted by at most OFF, and misses read coordinate 7).
WRITE_SHAPE = (12, 4, 3)
OUT_RANK = "W"
#: The coordinate offset of a path-keyed history's paths.
OFF = 1


def arena():
    """Three levels, fibers of one to three coordinates."""
    points = {}
    for k in (0, 2, 3):
        for m in range(k % 3 + 1):
            for n in range((k + m) % 3 + 1):
                points[(k, 2 * m, n)] = 1.0
    return Tensor.from_points("X", list(RANKS), points, [4, 5, 3]) \
        .stored_arena


def evict_rank(cut):
    """The ``evict-on`` rank giving evict-window cut ``cut``."""
    if cut == 0:
        return None
    return LOOP_RANKS[cut - 1] if cut <= len(LOOP_RANKS) else "Z"


def dram():
    return DramModel(Component(name="DRAM", klass="DRAM", attributes={}))


def buffet_model(key_depth, cut):
    component = Component(name="Buf", klass="Buffer",
                          attributes={"type": "buffet", "width": 64,
                                      "depth": 8})
    binding = DataBinding(tensor="X", rank="K", evict_on=evict_rank(cut))
    return BuffetModel(component, binding, dram(), BITS, BITS, key_depth)


def cache_model(key_depth, depth, bits=BITS):
    component = Component(name="C", klass="Buffer",
                          attributes={"type": "cache", "width": bits,
                                      "depth": depth})
    binding = DataBinding(tensor="X", rank="K")
    return CacheModel(component, binding, dram(), bits, bits, key_depth)


def buffet_pair(key_depth, cut):
    """A per-event buffet model and the machine of the same binding."""
    return buffet_model(key_depth, cut), rt.FusedBuffet(
        key_depth, rt.WHOLE_CTX if cut > len(LOOP_RANKS) else cut)


def cache_pair(key_depth, depth, bits=BITS):
    model = cache_model(key_depth, depth, bits)
    return model, rt.FusedCache(key_depth, model.capacity_bits,
                                model.fill_bits)


class History:
    """One event history, logged for ``machine`` and streamed to
    ``model`` (see the module docs); ``paths`` logs reads by interned
    paths."""

    def __init__(self, model, machine, depth=len(LOOP_RANKS), paths=False):
        self.model = model
        self.machine = machine
        self.paths = paths
        self.arena = arena()
        self.x = [d << rt.DEPTH for d in range(depth + 1)]
        self.frames = [[] for _ in range(depth + 1)]
        self.ctx = []  # the live loop context: (rank, coord) pairs
        machine.radix = tuple(int(np.prod(WRITE_SHAPE[r + 1:]))
                              for r in range(len(WRITE_SHAPE)))

    # ---- loop contexts ------------------------------------------------
    def enter(self, level, coord):
        """An iteration of the depth-``level`` loop: a new context node
        one level deeper, numbered as the generated kernels number it."""
        del self.ctx[level:]
        self.ctx.append((LOOP_RANKS[level], coord))
        self.x[level + 1] += 1
        if level + 2 < len(self.x):
            self.frames[level + 2].append(self.x[level + 2])

    def _record(self, key, depth):
        self.machine.log.append(key)
        self.machine.log.append(self.x[depth])

    # ---- keys -----------------------------------------------------------
    def size(self, level):
        return len(self.arena.coords[level])

    def parent(self, level, pos):
        """The position of element ``pos``'s parent, one level up."""
        return int(np.searchsorted(self.arena.segs[level], pos,
                                   side="right")) - 1

    def span_end(self, level, lo):
        """The last ``hi`` of a span from ``lo``: the level's end, or the
        end of ``lo``'s fiber when reads are path-keyed (one span reads
        one fiber under one path)."""
        if not self.paths or not level:
            return self.size(level)
        return int(self.arena.segs[level][self.parent(level, lo) + 1])

    def path(self, level, pos):
        """The coordinate path of element ``pos`` of ``level`` (shifted
        by :data:`OFF` when path-keyed)."""
        path = []
        for lvl in range(level, -1, -1):
            path.append(int(self.arena.coords[lvl][pos]))
            if lvl:
                pos = self.parent(lvl, pos)
        off = OFF if self.paths else 0
        return tuple(c + off for c in reversed(path))

    def key(self, level, pos):
        return RANKS[level], self.path(level, pos)

    def point_key(self, point):
        """A written point's logged key, without its flags."""
        return sum(c * m for c, m in zip(point, self.machine.radix))

    # ---- events ---------------------------------------------------------
    def read(self, level, pos, depth, pair=False):
        key = self.key(level, pos)
        for _ in range(2 if pair else 1):
            self.model.access_read(key, self.ctx[:depth])
        logged = self.machine.intern((0,) + key) if self.paths else \
            level << rt.CODE | pos
        self._record(logged | (rt.PAIR if pair else 0), depth)

    def span(self, level, lo, hi, depth, pairs=0):
        """Reads of positions ``[lo, hi)``, the first ``pairs`` of them
        coord+payload pairs."""
        for pos in range(lo, hi):
            for _ in range(2 if pos - lo < pairs else 1):
                self.model.access_read(self.key(level, pos),
                                       self.ctx[:depth])
        if self.paths:
            base = self.path(level - 1, self.parent(level, lo)) \
                if level else ()
            coords = [int(c) for c in self.arena.coords[level]]
            rt.log_paths(self.machine, RANKS[level], base, coords,
                         range(lo, hi), OFF, self.x[depth], pairs)
            return
        self._record(rt.SPAN | level << rt.CODE | lo, depth)
        self.machine.log.append(hi)
        self.machine.log.append(pairs)

    def miss(self, level, parent, coord, depth):
        """A lookup of ``coord`` that missed in the level-``level``
        fiber under element ``parent`` of the level above."""
        base = self.path(level - 1, parent) if level else ()
        off = OFF if self.paths else 0
        key = (RANKS[level], base + (coord + off,))
        self.model.access_read(key, self.ctx[:depth])
        self._record(self.machine.intern(
            (0,) + key if self.paths else (1, level, parent, coord)), depth)

    def write(self, point, depth):
        self.model.access_write((OUT_RANK, point), self.ctx[:depth])
        self._record(rt.WRITE | self.point_key(point), depth)

    def leaf_writes(self, point, depth, n):
        """``n`` writes of one point, each in a fresh leaf context one
        level below ``depth`` (a reduction span's per-element windows).
        Like a kernel's leaf, it stands in for the loop one level down,
        so ``depth`` must be the deepest live context."""
        for c in range(n):
            self.model.access_write(
                (OUT_RANK, point),
                self.ctx[:depth] + [(LOOP_RANKS[depth], 100 + c)])
        self._record(rt.RUN | rt.WRITE | self.point_key(point), depth)
        self.machine.log[-1] |= rt.LEAF
        self.machine.log.append(n)
        self.machine.log.append(0)

    # ---- settle ---------------------------------------------------------
    def levels(self):
        return [(self.arena.segs, level) for level in range(len(RANKS))]

    def settle(self):
        frames = [np.asarray(f, dtype=np.int64) - (d << rt.DEPTH)
                  for d, f in enumerate(self.frames)]
        return self.machine.settle(self.levels(), frames)

    def written_keys(self):
        """The model keys of every logged write, decoded from their
        settled keys — the buffet's drained-key set once it finishes."""
        keys, writes, _, _ = rt._decode(self.machine.log)
        kd = self.machine.key_depth
        radix = self.machine.radix
        keys = rt._canonical(keys[writes], writes[writes], kd,
                             self.levels(), self.machine.rich, radix)
        n = len(WRITE_SHAPE) if kd is None else min(kd, len(WRITE_SHAPE))
        out = set()
        for key in keys.tolist():
            if not n:
                out.add(())
                continue
            # A truncated key counts in units of coordinate n - 1.
            key = (key & ~rt.WRITE) * radix[n - 1]
            point = tuple(key // m % s for m, s in zip(radix, WRITE_SHAPE))
            out.add((OUT_RANK, point) if kd is None else point[:n])
        return out


def priced(model_factory, tallies):
    """A fresh model with ``tallies`` priced in: every count it keeps."""
    model = model_factory()
    model.price_actions(tallies)
    return model


def buffet_counts(model):
    return (model.reads, model.writes, model.fills, model.drains,
            model.partial_output_fills,
            dict(model.dram.traffic.read_counts),
            dict(model.dram.traffic.write_counts))


def cache_counts(model):
    return (model.reads, model.writes, model.hits, model.misses,
            model.writebacks, dict(model.dram.traffic.read_counts),
            dict(model.dram.traffic.write_counts))


# ----------------------------------------------------------------------
# Hypothesis histories
# ----------------------------------------------------------------------
def element(data, h, label):
    level = data.draw(st.integers(0, 2), label=f"{label} level")
    return level, data.draw(st.integers(0, h.size(level) - 1),
                            label=f"{label} pos")


def point(data, label):
    """A written point of the output box (see :data:`WRITE_SHAPE`)."""
    return (data.draw(st.integers(9, WRITE_SHAPE[0] - 1), label=f"{label} k"),
            data.draw(st.integers(0, WRITE_SHAPE[1] - 1), label=f"{label} m"),
            data.draw(st.integers(0, WRITE_SHAPE[2] - 1), label=f"{label} n"))


def event(data, h, depth, writes, leaf=False):
    """One logged event at the depth-``depth`` context; ``leaf`` allows
    leaf writes (whose fresh contexts sit one level below ``depth``, so
    ``depth`` must be the deepest live context)."""
    kinds = ["read", "pair", "span", "miss"] + (
        ["write", "write"] if writes else []) + (
        ["leaf"] if writes and leaf and depth < len(LOOP_RANKS) else [])
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind in ("read", "pair"):
        h.read(*element(data, h, kind), depth, pair=kind == "pair")
    elif kind == "span":
        level, lo = element(data, h, "span")
        hi = data.draw(st.integers(lo, min(lo + 3, h.span_end(level, lo))),
                       label="span hi")
        h.span(level, lo, hi, depth,
               data.draw(st.integers(0, hi - lo), label="pairs"))
    elif kind == "miss":
        level = data.draw(st.integers(0, 2), label="miss level")
        parent = -1 if level == 0 else data.draw(
            st.integers(0, h.size(level - 1) - 1), label="miss parent")
        # Coordinates run 0..4; 7 is in no fiber.
        h.miss(level, parent, 7, depth)
    elif kind == "write":
        h.write(point(data, "write"), depth)
    else:
        n = data.draw(st.integers(0, 3), label="leaf n")
        h.leaf_writes(point(data, "leaf"), depth, n)


def walk(data, h, level=0, writes=True):
    """Events and nested loops under the current depth-``level`` node;
    each loop visits ascending coordinates, as a fiber loop does."""
    for _ in range(data.draw(st.integers(0, 3), label="items")):
        if level < len(LOOP_RANKS) and data.draw(st.booleans(),
                                                 label="loop"):
            coords = data.draw(st.lists(st.integers(0, 3), max_size=3,
                                        unique=True), label="coords")
            for c in sorted(coords):
                h.enter(level, c)
                walk(data, h, level + 1, writes)
        else:
            depth = data.draw(st.integers(0, level), label="depth")
            event(data, h, depth, writes, leaf=depth == level)
