"""Minimal deterministic chemistry: SMILES parsing and conformers.

This is not RDKit; it is a self-contained model with enough structure for
the docking pipeline to be real code with real invariants: atom counting
from a SMILES subset, molecular weight, and deterministic 3D conformer
generation (same SMILES → same coordinates, the reproducibility property
the test suite checks).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

ATOMIC_WEIGHTS: Dict[str, float] = {
    "C": 12.011,
    "N": 14.007,
    "O": 15.999,
    "S": 32.06,
    "P": 30.974,
    "F": 18.998,
    "Cl": 35.45,
    "Br": 79.904,
    "H": 1.008,
}

# the one-letter atoms of the accepted subset; aromatic c/n/o read as C/N/O
_ATOM_SYMBOL: Dict[str, str] = {
    "C": "C", "N": "N", "O": "O", "S": "S", "P": "P", "F": "F",
    "c": "C", "n": "N", "o": "O",
}
_VALENCE: Dict[str, int] = {
    "C": 4, "N": 3, "O": 2, "S": 2, "P": 3, "F": 1, "Cl": 1, "Br": 1,
}


@dataclass(frozen=True)
class Molecule:
    """A parsed molecule: heavy atoms, rings, and implicit hydrogens."""

    smiles: str
    atoms: Tuple[str, ...]
    bonds: Tuple[Tuple[int, int], ...]
    ring_count: int

    @property
    def heavy_atom_count(self) -> int:
        return len(self.atoms)

    @cached_property
    def implicit_hydrogens(self) -> int:
        """Hydrogens implied by unfilled valences (computed once per molecule).

        The value is kept in the instance ``__dict__``; equality, hashing
        and ``repr`` read the dataclass fields only.
        """
        degree = [0] * len(self.atoms)
        for a, b in self.bonds:
            degree[a] += 1
            degree[b] += 1
        return sum(
            max(0, _VALENCE[sym] - deg)
            for sym, deg in zip(self.atoms, degree)
        )

    @property
    def molecular_weight(self) -> float:
        heavy = sum(ATOMIC_WEIGHTS[a] for a in self.atoms)
        return heavy + self.implicit_hydrogens * ATOMIC_WEIGHTS["H"]

    def conformer(self, seed: int = 0) -> List[Tuple[float, float, float]]:
        """Deterministic 3D coordinates: same molecule+seed → same geometry.

        Atoms are placed on a jittered helix whose jitter comes from a
        content hash, so geometry is stable across machines and runs.
        """
        coords: List[Tuple[float, float, float]] = []
        for i, symbol in enumerate(self.atoms):
            digest = hashlib.sha256(
                f"{self.smiles}|{seed}|{i}|{symbol}".encode()
            ).digest()
            jitter = tuple(b / 255.0 - 0.5 for b in digest[:3])
            angle = 2 * math.pi * i / max(4, len(self.atoms))
            coords.append(
                (
                    1.5 * math.cos(angle) + 0.3 * jitter[0],
                    1.5 * math.sin(angle) + 0.3 * jitter[1],
                    0.8 * i / max(1, len(self.atoms)) + 0.3 * jitter[2],
                )
            )
        return coords


def parse_smiles(smiles: str) -> Molecule:
    """Parse an organic-subset SMILES string.

    Supports: atoms C/N/O/S/P/F/Cl/Br (aromatic c/n/o as C/N/O), branches
    ``( )``, ring-closure digits (ASCII ``0``-``9`` only), and
    single/double/triple bond symbols (bond order is ignored beyond
    connectivity). Raises ``ValueError`` on anything else.
    """
    if not smiles:
        raise ValueError("empty SMILES")
    atoms: List[str] = []
    bonds: List[Tuple[int, int]] = []
    branch_stack: List[int] = []
    ring_open: Dict[str, int] = {}
    previous = -1
    ring_count = 0
    end = len(smiles)
    i = 0
    while i < end:
        ch = smiles[i]
        i += 1
        symbol = _ATOM_SYMBOL.get(ch)
        # the two-letter halogens, by a one-character look-ahead
        if symbol is None:
            if ch == "B" and smiles.startswith("r", i):
                symbol = "Br"
                i += 1
        elif ch == "C" and smiles.startswith("l", i):
            symbol = "Cl"
            i += 1
        if symbol is not None:
            if previous >= 0:
                bonds.append((previous, len(atoms)))
            previous = len(atoms)
            atoms.append(symbol)
        elif ch == "(":
            if previous < 0:
                raise ValueError(f"branch before any atom in {smiles!r}")
            branch_stack.append(previous)
        elif ch == ")":
            if not branch_stack:
                raise ValueError(f"unbalanced ')' in {smiles!r}")
            previous = branch_stack.pop()
        elif ch in "0123456789":
            if previous < 0:
                raise ValueError(f"ring digit before any atom in {smiles!r}")
            if ch in ring_open:
                bonds.append((ring_open.pop(ch), previous))
                ring_count += 1
            else:
                ring_open[ch] = previous
        elif ch not in "=#-":
            raise ValueError(f"unsupported SMILES token {ch!r} in {smiles!r}")
    if branch_stack:
        raise ValueError(f"unbalanced '(' in {smiles!r}")
    if ring_open:
        raise ValueError(f"unclosed ring bond(s) {sorted(ring_open)} in {smiles!r}")
    return Molecule(
        smiles=smiles,
        atoms=tuple(atoms),
        bonds=tuple(bonds),
        ring_count=ring_count,
    )
