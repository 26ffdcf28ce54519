"""The ML surrogate guiding the docking campaign.

Ridge regression on simple molecular fingerprints, vectorized with numpy
(the fit is one linear solve — no loops over samples). The campaign
trains on already-docked candidates and ranks the rest by predicted
score, docking the most promising next; the test suite checks the
surrogate actually beats random ordering on held-out data.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.apps.parsldock.chemistry import Molecule, parse_smiles

FINGERPRINT_SIZE = 8


def fingerprint(molecule: Molecule) -> np.ndarray:
    """A fixed-length descriptor: composition + topology features."""
    return np.array(_features(molecule), dtype=float)


def _features(molecule: Molecule) -> List[float]:
    """The :func:`fingerprint` values of one molecule, as a plain row."""
    atoms = molecule.atoms
    return [
        len(atoms),
        molecule.implicit_hydrogens,
        molecule.ring_count,
        atoms.count("C"),
        atoms.count("N") + atoms.count("O"),
        atoms.count("S") + atoms.count("F"),
        len(molecule.bonds),
        molecule.molecular_weight / 100.0,
    ]


def _feature_matrix(smiles: Sequence[str]) -> np.ndarray:
    """One fingerprint row per SMILES string, built as a single array."""
    return np.array([_features(parse_smiles(s)) for s in smiles], dtype=float)


class SurrogateModel:
    """Ridge regression: fingerprints → docking scores."""

    def __init__(self, alpha: float = 1.0) -> None:
        if not (math.isfinite(alpha) and alpha > 0):
            raise ValueError(f"alpha must be finite and positive, got {alpha!r}")
        self.alpha = alpha
        self._weights: np.ndarray | None = None
        self._mean: np.ndarray | None = None
        self._scale: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        return self._weights is not None

    def fit(self, smiles: Sequence[str], scores: Sequence[float]) -> "SurrogateModel":
        if len(smiles) != len(scores):
            raise ValueError("smiles and scores must have equal length")
        if len(smiles) < 2:
            raise ValueError("need at least two training samples")
        X = _feature_matrix(smiles)
        y = np.asarray(scores, dtype=float)
        if not np.isfinite(y).all():
            raise ValueError("scores must be finite")
        self._mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0] = 1.0
        self._scale = scale
        Xn = (X - self._mean) / self._scale
        Xn = np.hstack([Xn, np.ones((len(Xn), 1))])  # bias column
        n_features = Xn.shape[1]
        ridge = self.alpha * np.eye(n_features)
        ridge[-1, -1] = 0.0  # do not penalize the bias
        self._weights = np.linalg.solve(Xn.T @ Xn + ridge, Xn.T @ y)
        return self

    def predict(self, smiles: Sequence[str]) -> np.ndarray:
        if not self.is_fitted:
            raise RuntimeError("model is not fitted")
        X = _feature_matrix(smiles)
        Xn = (X - self._mean) / self._scale
        Xn = np.hstack([Xn, np.ones((len(Xn), 1))])
        return Xn @ self._weights

    def rank(self, smiles: Sequence[str]) -> List[str]:
        """Candidates sorted most-promising (lowest predicted score) first."""
        predictions = self.predict(smiles)
        order = np.argsort(predictions)
        return [smiles[i] for i in order]
