"""The ML-guided docking campaign (the ParslDock workflow itself)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.apps.parsldock.docking import (
    Receptor,
    dock,
    prepare_ligand,
    prepare_receptor,
)
from repro.apps.parsldock.ml import SurrogateModel

# A drug-like candidate library (organic-subset SMILES the parser accepts).
CANDIDATE_SMILES: List[str] = [
    "CCO",
    "CCN",
    "CCC",
    "CC(C)O",
    "CC(N)C(O)O",
    "c1ccccc1",
    "c1ccccc1O",
    "c1ccccc1N",
    "CC(C)Cc1ccccc1",
    "CCOC(C)O",
    "CN(C)CCO",
    "OC(O)c1ccccc1",
    "NC(N)c1ccccc1",
    "CC(O)C(O)CO",
    "c1ccncc1",
    "c1ccoc1",
    "CCSCC",
    "FC(F)c1ccccc1",
    "CCCCCCCC",
    "CC(C)(C)c1ccccc1O",
    "NCCc1ccccc1",
    "OCCOCCO",
    "CC(N)CS",
    "c1ccc2ccccc2c1",
]


@dataclass
class DockingCampaign:
    """Iterative dock → learn → select loop over a candidate library."""

    receptor: Receptor = field(default_factory=prepare_receptor)
    exhaustiveness: int = 8
    batch_size: int = 4
    scores: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")

    def dock_batch(self, smiles_batch: List[str]) -> Dict[str, float]:
        """Dock candidates not yet scored; records and returns new scores."""
        new_scores: Dict[str, float] = {}
        for smiles in smiles_batch:
            if smiles in self.scores:
                continue
            score = dock(
                prepare_ligand(smiles),
                self.receptor,
                exhaustiveness=self.exhaustiveness,
            )
            self.scores[smiles] = score
            new_scores[smiles] = score
        return new_scores

    def run(self, library: List[str], rounds: int = 3) -> List[Tuple[str, float]]:
        """Run the campaign; returns candidates ranked by measured score.

        Round 1 docks an arbitrary seed batch; later rounds train the
        surrogate on everything measured so far and dock the candidates it
        ranks most promising.
        """
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        remaining = [s for s in library if s not in self.scores]
        self.dock_batch(remaining[: self.batch_size])
        for _ in range(rounds - 1):
            remaining = [s for s in library if s not in self.scores]
            if not remaining:
                break
            if len(self.scores) >= 2:
                model = SurrogateModel().fit(
                    list(self.scores), list(self.scores.values())
                )
                remaining = model.rank(remaining)
            self.dock_batch(remaining[: self.batch_size])
        return self.best()

    def best(self, k: Optional[int] = None) -> List[Tuple[str, float]]:
        ranked = sorted(self.scores.items(), key=lambda kv: kv[1])
        return ranked if k is None else ranked[:k]
