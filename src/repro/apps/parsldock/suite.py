"""The ParslDock test suite and repository contents.

Ten test cases spanning three orders of magnitude in cost, mirroring the
mix in Fig. 4: cheap parsing/prep checks dominated by fixed per-process
overhead (where the FaaS/pilot model shines) and expensive docking /
end-to-end runs dominated by compute speed (where Chameleon's faster
cores win).
"""

from __future__ import annotations

from typing import Dict

from repro.apps.parsldock.chemistry import parse_smiles
from repro.apps.parsldock.docking import (
    dock,
    dock_batch,
    prepare_ligand,
    prepare_receptor,
)
from repro.apps.parsldock.ml import SurrogateModel
from repro.apps.parsldock.pipeline import CANDIDATE_SMILES, DockingCampaign
from repro.shellsim.suites import SuiteContext, TestSuite, check


def _test_smiles_parse(ctx: SuiteContext) -> None:
    mol = parse_smiles("CC(C)Cc1ccccc1")
    check(mol.heavy_atom_count == 10)
    check(mol.ring_count == 1)


def _test_molecular_weight(ctx: SuiteContext) -> None:
    ethanol = parse_smiles("CCO")
    check(abs(ethanol.molecular_weight - 46.07) < 0.1)


def _test_conformer_deterministic(ctx: SuiteContext) -> None:
    a = parse_smiles("CCN").conformer(seed=7)
    b = parse_smiles("CCN").conformer(seed=7)
    check(a == b)
    c = parse_smiles("CCN").conformer(seed=8)
    check(a != c)


def _test_prepare_ligand(ctx: SuiteContext) -> None:
    ligand = prepare_ligand("CC(N)C(O)O")
    check(ligand.acceptors >= 3)
    check(ligand.rotatable_bonds >= 1)


def _test_prepare_receptor(ctx: SuiteContext) -> None:
    receptor = prepare_receptor()
    check(receptor.hbond_sites > 0)
    check(receptor.pocket_volume > 100)


def _test_dock_single(ctx: SuiteContext) -> None:
    receptor = prepare_receptor()
    score = dock(prepare_ligand("c1ccccc1O"), receptor)
    check(score < 0, "favourable ligand must have a negative score")


def _test_dock_exhaustive(ctx: SuiteContext) -> None:
    receptor = prepare_receptor()
    ligand = prepare_ligand("CC(C)Cc1ccccc1")
    quick = dock(ligand, receptor, exhaustiveness=1)
    thorough = dock(ligand, receptor, exhaustiveness=32)
    check(thorough <= quick, "more search cannot find a worse pose")


def _test_scores_reproducible(ctx: SuiteContext) -> None:
    receptor = prepare_receptor()
    batch = dock_batch(CANDIDATE_SMILES[:8], receptor)
    again = dock_batch(CANDIDATE_SMILES[:8], receptor)
    check(batch == again)


def _test_ml_surrogate(ctx: SuiteContext) -> None:
    receptor = prepare_receptor()
    train = CANDIDATE_SMILES[:16]
    scores = dock_batch(train, receptor)
    model = SurrogateModel().fit(train, [scores[s] for s in train])
    held_out = CANDIDATE_SMILES[16:]
    ranked = model.rank(held_out)
    check(set(ranked) == set(held_out))
    true_scores = dock_batch(held_out, receptor)
    top_half = ranked[: len(ranked) // 2]
    bottom_half = ranked[len(ranked) // 2:]
    top_mean = sum(true_scores[s] for s in top_half) / len(top_half)
    bottom_mean = sum(true_scores[s] for s in bottom_half) / len(bottom_half)
    check(
        top_mean <= bottom_mean + 1.0,
        "surrogate ranking should roughly order true scores",
    )


def _test_pipeline_end_to_end(ctx: SuiteContext) -> None:
    campaign = DockingCampaign(batch_size=4)
    ranked = campaign.run(CANDIDATE_SMILES, rounds=3)
    check(len(ranked) >= 8, "three rounds of four should dock >= 8 ligands")
    best_smiles, best_score = ranked[0]
    check(best_score == min(campaign.scores.values()))
    check(best_smiles in CANDIDATE_SMILES)


def _build_suite() -> TestSuite:
    suite = TestSuite("tests/test_docking.py")
    suite.add("test_smiles_parse", work=0.4, fn=_test_smiles_parse)
    suite.add("test_molecular_weight", work=0.5, fn=_test_molecular_weight)
    suite.add(
        "test_conformer_deterministic", work=2.0, fn=_test_conformer_deterministic
    )
    suite.add("test_prepare_ligand", work=4.0, fn=_test_prepare_ligand)
    suite.add("test_prepare_receptor", work=7.0, fn=_test_prepare_receptor)
    suite.add("test_dock_single", work=25.0, fn=_test_dock_single)
    suite.add(
        "test_dock_exhaustive", work=110.0, fn=_test_dock_exhaustive, threads=4
    )
    suite.add("test_scores_reproducible", work=45.0, fn=_test_scores_reproducible)
    suite.add("test_ml_surrogate", work=18.0, fn=_test_ml_surrogate)
    suite.add(
        "test_pipeline_end_to_end",
        work=190.0,
        fn=_test_pipeline_end_to_end,
        threads=8,
    )
    return suite


PARSLDOCK_SUITE = _build_suite()


def repo_files() -> Dict[str, str]:
    """Contents of the hosted parsl-docking-tutorial repository."""
    return {
        "README.md": (
            "# ParslDock tutorial\n\nML-guided protein docking. "
            "Run the test suite with `pytest`.\n"
        ),
        "requirements.txt": (
            "parsl>=2024\nautodock-vina==1.2.6\nvmd==1.9.3\nmgltools==1.5.7\n"
            "pytest>=8\n"
        ),
        ".repro-suite": "repro.apps.parsldock.suite:PARSLDOCK_SUITE",
        "tox.ini": (
            "[tox]\nenvlist = py311\n\n[testenv]\ndeps =\n    pytest>=8\n"
            "commands = pytest\n"
        ),
        "docking/__init__.py": "# docking pipeline package\n",
    }
