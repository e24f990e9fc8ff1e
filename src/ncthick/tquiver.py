"""Valued translation quivers: vertices, valued arrows, partial translate."""

from __future__ import annotations

from collections.abc import Hashable

from .errors import DimensionMismatchError, OutOfRangeError

Valuation = tuple[int, int]


class TranslationQuiver:
    """A quiver with arrow valuations (d, d') and a partial translate tau.

    Vertices may be any hashable labels; an arrow end, a tau key or a tau
    value outside them raises DimensionMismatchError, and a valuation
    below 1 OutOfRangeError, all on build.  Where tau(z) is defined, the
    arrows into z must biject with the arrows out of tau(z); this mesh
    shape is checkable via check_mesh_shape, not enforced on build, so
    that windows cut out of an ambient quiver remain representable.  The
    in/out adjacency is built on the first arrows_into, arrows_out_of or
    check_mesh_shape call, since readers that walk `arrows` once never
    need it.
    """

    __slots__ = ("vertices", "arrows", "tau", "meta", "_into", "_out")

    def __init__(
        self,
        vertices: tuple[Hashable, ...],
        arrows: tuple[tuple[Hashable, Hashable, Valuation], ...],
        tau: dict[Hashable, Hashable],
        meta: dict | None = None,
    ):
        self.vertices, self.arrows, self.tau, self.meta = vertices, arrows, tau, meta
        self._into = self._out = None
        known = set(vertices)
        for s, t, val in arrows:
            if s not in known or t not in known:
                raise DimensionMismatchError(f"arrow {s} -> {t} names a vertex outside the quiver")
            if val[0] < 1 or val[1] < 1:
                raise OutOfRangeError(f"arrow {s} -> {t} has valuation {val}; both parts must be positive")
        for z, tz in tau.items():
            if z not in known or tz not in known:
                raise DimensionMismatchError(f"tau {z} -> {tz} names a vertex outside the quiver")

    def _adjacency(self) -> None:
        into: dict[Hashable, list] = {v: [] for v in self.vertices}
        out: dict[Hashable, list] = {v: [] for v in self.vertices}
        for s, t, val in self.arrows:
            out[s].append((t, val))
            into[t].append((s, val))
        self._into = {v: tuple(xs) for v, xs in into.items()}
        self._out = {v: tuple(xs) for v, xs in out.items()}

    def arrows_into(self, v: Hashable) -> tuple[tuple[Hashable, Valuation], ...]:
        if self._into is None:
            self._adjacency()
        return self._into.get(v, ())

    def arrows_out_of(self, v: Hashable) -> tuple[tuple[Hashable, Valuation], ...]:
        if self._out is None:
            self._adjacency()
        return self._out.get(v, ())

    def check_mesh_shape(self) -> list[str]:
        """Report vertices where arrows into z fail to match arrows out of
        tau z: y -> z valued (d, d') must pair with tau z -> y valued (d', d)."""
        problems = []
        for z, tz in self.tau.items():
            into = sorted(self.arrows_into(z))
            out = sorted((dst, (val[1], val[0])) for dst, val in self.arrows_out_of(tz))
            if into != out:
                problems.append(f"mesh at {z}: sources {into} vs tau-targets {out}")
        return problems
