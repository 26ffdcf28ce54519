"""Receptor/ligand preparation and the docking score function.

The score is a deterministic Vina-flavoured energy: hydrogen-bond,
hydrophobic, and steric terms computed from ligand composition and a
receptor pocket profile, plus a conformer-search term that improves
(decreases) with exhaustiveness. More negative = better binding, like
real Vina output. Determinism is the property §6.1's reproducibility
evaluation relies on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List

from repro.apps.parsldock.chemistry import Molecule, parse_smiles

DEFAULT_RECEPTOR_SEQUENCE = (
    "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQAPILSRVGDGTQDNLSGAEKAVQVKVKALPDAQ"
)


@dataclass(frozen=True)
class Receptor:
    """A prepared receptor: a pocket profile derived from its sequence."""

    name: str
    sequence: str
    hbond_sites: int
    hydrophobic_sites: int
    pocket_volume: float


@dataclass(frozen=True)
class PreparedLigand:
    """A ligand ready to dock: molecule + rotatable-bond estimate."""

    molecule: Molecule
    rotatable_bonds: int
    donors: int
    acceptors: int


def prepare_receptor(sequence: str = DEFAULT_RECEPTOR_SEQUENCE, name: str = "target") -> Receptor:
    """Derive a pocket profile from a protein sequence (MGLTools stand-in)."""
    if not sequence or any(not c.isalpha() for c in sequence):
        raise ValueError("receptor sequence must be non-empty letters")
    seq = sequence.upper()
    hbond = sum(seq.count(res) for res in "STNQYHKRDE")
    hydrophobic = sum(seq.count(res) for res in "AVLIMFWP")
    volume = 120.0 + 3.5 * len(seq) % 400
    return Receptor(
        name=name,
        sequence=seq,
        hbond_sites=hbond,
        hydrophobic_sites=hydrophobic,
        pocket_volume=float(volume),
    )


def prepare_ligand(smiles: str) -> PreparedLigand:
    """Parse and annotate a ligand (the 'prepare_ligand4' stand-in)."""
    molecule = parse_smiles(smiles)
    donors = sum(1 for a in molecule.atoms if a in ("N", "O")) // 2
    acceptors = sum(1 for a in molecule.atoms if a in ("N", "O", "F"))
    # bonds not in rings and not terminal are (roughly) rotatable
    degree: Dict[int, int] = {}
    for a, b in molecule.bonds:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    rotatable = sum(
        1
        for a, b in molecule.bonds
        if degree.get(a, 0) > 1 and degree.get(b, 0) > 1
    )
    rotatable = max(0, rotatable - 2 * molecule.ring_count)
    return PreparedLigand(
        molecule=molecule,
        rotatable_bonds=rotatable,
        donors=donors,
        acceptors=acceptors,
    )


def _pair_term(ligand: PreparedLigand, receptor: Receptor) -> float:
    """Deterministic ligand-receptor interaction seed in [0, 1)."""
    digest = hashlib.sha256(
        f"{ligand.molecule.smiles}|{receptor.sequence}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def dock(
    ligand: PreparedLigand,
    receptor: Receptor,
    exhaustiveness: int = 8,
) -> float:
    """Docking score in kcal/mol (negative = favourable).

    Monotone properties the tests assert:

    * higher exhaustiveness never yields a *worse* (higher) score;
    * identical inputs yield identical scores;
    * a ligand too large for the pocket is penalized.
    """
    if exhaustiveness < 1:
        raise ValueError("exhaustiveness must be >= 1")
    mol = ligand.molecule
    pair = _pair_term(ligand, receptor)

    hbond = -0.35 * min(ligand.acceptors, receptor.hbond_sites / 4.0)
    hydrophobic = -0.12 * min(
        mol.heavy_atom_count, receptor.hydrophobic_sites / 2.0
    )
    entropy_penalty = 0.25 * ligand.rotatable_bonds
    size_ratio = (mol.heavy_atom_count * 18.0) / receptor.pocket_volume
    steric = 4.0 * max(0.0, size_ratio - 1.0) ** 2
    # conformer search: the best of `exhaustiveness` deterministic poses
    best_pose = min(_pose_energies(mol, receptor, exhaustiveness))
    base = hbond + hydrophobic + entropy_penalty + steric + best_pose
    return round(base - 2.0 * pair, 4)


def _pose_energies(mol: Molecule, receptor: Receptor, poses: int) -> List[float]:
    """Energies of poses ``0 .. poses-1``, each drawn from the SHA-256 of
    ``f"{smiles}|{receptor name}|pose{n}"``.

    The shared prefix is hashed once; each pose continues a copy of that
    hash with its number, which gives the digest of the whole string.
    """
    prefix = hashlib.sha256(f"{mol.smiles}|{receptor.name}|pose".encode())
    energies: List[float] = []
    for pose in range(poses):
        digest = prefix.copy()
        digest.update(str(pose).encode())
        energies.append(-3.0 * (int.from_bytes(digest.digest()[:4], "big") / 2**32))
    return energies


def dock_batch(
    smiles_list: List[str],
    receptor: Receptor,
    exhaustiveness: int = 8,
) -> Dict[str, float]:
    """Dock a batch of SMILES; returns {smiles: score}."""
    return {
        s: dock(prepare_ligand(s), receptor, exhaustiveness=exhaustiveness)
        for s in smiles_list
    }
