"""Multidegrees valued in Z^r plus cyclic torsion factors."""

from __future__ import annotations

from dataclasses import dataclass
from operator import index


@dataclass(frozen=True)
class DegreeClass:
    """An element of Z^r + Z/t_1 + ... + Z/t_m.

    free        r integers
    residues    m residues, residue i normalized to [0, t_i)
    moduli      the invariant factors t_1 | t_2 | ... (each >= 2)
    """

    free: tuple[int, ...]
    residues: tuple[int, ...] = ()
    moduli: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.residues) != len(self.moduli):
            raise ValueError("residue/modulus length mismatch")
        moduli = tuple(map(index, self.moduli))
        if any(t < 2 for t in moduli):
            raise ValueError(f"torsion factors must be at least 2, got {moduli}")
        object.__setattr__(self, "free", tuple(map(index, self.free)))
        object.__setattr__(
            self, "residues", tuple(index(c) % t for c, t in zip(self.residues, moduli))
        )
        object.__setattr__(self, "moduli", moduli)

    @classmethod
    def _trusted(cls, free, residues, moduli) -> "DegreeClass":
        """The class of these tuples as given, without re-validation: only for
        tuples of ints, each residue reduced and each modulus at least 2."""
        d = object.__new__(cls)
        d.__dict__.update(free=free, residues=residues, moduli=moduli)
        return d

    def _compat(self, other: "DegreeClass"):
        if len(self.free) != len(other.free) or self.moduli != other.moduli:
            raise ValueError(f"degree groups differ: {self} vs {other}")

    def __add__(self, other: "DegreeClass") -> "DegreeClass":
        self._compat(other)
        return DegreeClass._trusted(
            tuple(a + b for a, b in zip(self.free, other.free)),
            tuple((a + b) % t for a, b, t in zip(self.residues, other.residues, self.moduli)),
            self.moduli,
        )

    def __sub__(self, other: "DegreeClass") -> "DegreeClass":
        self._compat(other)
        return DegreeClass._trusted(
            tuple(a - b for a, b in zip(self.free, other.free)),
            tuple((a - b) % t for a, b, t in zip(self.residues, other.residues, self.moduli)),
            self.moduli,
        )

    def __neg__(self) -> "DegreeClass":
        return self.scale(-1)

    def scale(self, k: int) -> "DegreeClass":
        return DegreeClass(
            tuple(k * a for a in self.free),
            tuple((k * c) % t for c, t in zip(self.residues, self.moduli)),
            self.moduli,
        )

    def is_zero(self) -> bool:
        return not any(self.free) and not any(self.residues)

    @classmethod
    def zero(cls, rank: int, moduli=()) -> "DegreeClass":
        return cls((0,) * rank, (0,) * len(moduli), tuple(moduli))

    def __str__(self) -> str:
        if len(self.free) == 1 and not self.moduli:
            return str(self.free[0])
        parts = [str(a) for a in self.free] + [f"[{c}]" for c in self.residues]
        return "(" + ",".join(parts) + ")"
