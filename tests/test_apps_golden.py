"""Golden outputs of the KaMPIng and ParslDock kernels, pinned across commits.

``tests/data/apps_golden.json`` was written by the per-element loop
implementations of the sample sort, the SMILES parser, pose hashing and
the surrogate's feature matrix. The current code must reproduce every
value bit for bit: floats are stored as ``float.hex`` strings, and the
sample sort's per-rank chunks as their lengths plus the SHA-256 of their
``repr``.

The file was written on CPython 3.11, whose ``sum`` adds floats left to
right. From 3.12 on, ``sum`` compensates rounding error, which moves the
last bit of 15 candidates' molecular weights (and so their fingerprints
and the surrogate's predictions); under such an interpreter those values
are compared to a relative tolerance of 1e-12 instead of bit for bit.

Regenerate (only when a kernel's output changes on purpose) with::

    PYTHONPATH=src python tests/test_apps_golden.py tests/data
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.apps.kamping.algorithms import sample_sort
from repro.apps.kamping.artifacts import ARTIFACT_COMMANDS
from repro.apps.kamping.bindings import KampingBindings
from repro.apps.kamping.mpi import SimMPI
from repro.apps.parsldock.chemistry import parse_smiles
from repro.apps.parsldock.docking import (
    dock,
    dock_batch,
    prepare_ligand,
    prepare_receptor,
)
from repro.apps.parsldock.ml import SurrogateModel, fingerprint
from repro.apps.parsldock.pipeline import CANDIDATE_SMILES, DockingCampaign

GOLDEN = Path(__file__).parent / "data" / "apps_golden.json"

# whether this interpreter's sum() adds floats left to right, as the one
# that wrote the file did
LEFT_TO_RIGHT_SUM = sum([1.0, 1e100, 1.0, -1e100]) == 0.0

# the artifact-evaluation inputs ae-sort-bench sorts
_AE_RANKS = 8
_AE_ELEMENTS_PER_RANK = 2000


def _stub_session():
    """A session whose compute charge does nothing: artifacts need no site."""
    return SimpleNamespace(handle=SimpleNamespace(compute=lambda *a, **k: None))


def _artifact(name: str) -> dict:
    result = ARTIFACT_COMMANDS[name](_stub_session(), [])
    return {
        "exit_code": result.exit_code,
        "stdout": result.stdout,
        "stderr": result.stderr,
    }


def _ae_sort() -> dict:
    rng = random.Random(42)
    per_rank = [
        [rng.randrange(10**6) for _ in range(_AE_ELEMENTS_PER_RANK)]
        for _ in range(_AE_RANKS)
    ]
    comm = SimMPI(_AE_RANKS)
    chunks = sample_sort(comm, KampingBindings(comm), per_rank)
    return {
        "lengths": [len(chunk) for chunk in chunks],
        "sha256": hashlib.sha256(repr(chunks).encode()).hexdigest(),
    }


def _candidate(smiles: str) -> dict:
    mol = parse_smiles(smiles)
    receptor = prepare_receptor()
    ligand = prepare_ligand(smiles)
    return {
        "atoms": list(mol.atoms),
        "bonds": [list(bond) for bond in mol.bonds],
        "ring_count": mol.ring_count,
        "implicit_hydrogens": mol.implicit_hydrogens,
        "molecular_weight": mol.molecular_weight.hex(),
        "fingerprint": [float(v).hex() for v in fingerprint(mol)],
        "dock_8": dock(ligand, receptor, exhaustiveness=8).hex(),
        "dock_32": dock(ligand, receptor, exhaustiveness=32).hex(),
    }


def _campaign() -> list:
    ranked = DockingCampaign(batch_size=4).run(CANDIDATE_SMILES, rounds=3)
    return [[smiles, score.hex()] for smiles, score in ranked]


def _surrogate() -> list:
    """The split of the suite's ``test_ml_surrogate``: fit 16, predict 8."""
    receptor = prepare_receptor()
    train = CANDIDATE_SMILES[:16]
    scores = dock_batch(train, receptor)
    model = SurrogateModel().fit(train, [scores[s] for s in train])
    return [float(v).hex() for v in model.predict(CANDIDATE_SMILES[16:])]


def _assert_summed_floats_match(actual: list, expected: list) -> None:
    """Hex floats derived from a float ``sum``: see the module docstring."""
    if LEFT_TO_RIGHT_SUM:
        assert actual == expected
        return
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert math.isclose(float.fromhex(got), float.fromhex(want), rel_tol=1e-12)


def compute_golden() -> dict:
    return {
        "kamping": {
            "artifacts": {
                name: _artifact(name) for name in sorted(ARTIFACT_COMMANDS)
            },
            "ae_sample_sort": _ae_sort(),
        },
        "parsldock": {
            "candidates": {s: _candidate(s) for s in CANDIDATE_SMILES},
            "campaign": _campaign(),
            "surrogate_predict": _surrogate(),
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(ARTIFACT_COMMANDS))
def test_artifact_output_matches_golden(golden, name):
    assert _artifact(name) == golden["kamping"]["artifacts"][name]


def test_ae_sample_sort_matches_golden(golden):
    assert _ae_sort() == golden["kamping"]["ae_sample_sort"]


@pytest.mark.parametrize("smiles", CANDIDATE_SMILES)
def test_candidate_matches_golden(golden, smiles):
    actual = _candidate(smiles)
    expected = dict(golden["parsldock"]["candidates"][smiles])
    for key in ("molecular_weight", "fingerprint"):
        got, want = actual.pop(key), expected.pop(key)
        if isinstance(got, str):
            got, want = [got], [want]
        _assert_summed_floats_match(got, want)
    assert actual == expected


def test_campaign_matches_golden(golden):
    assert _campaign() == golden["parsldock"]["campaign"]


def test_surrogate_predictions_match_golden(golden):
    _assert_summed_floats_match(
        _surrogate(), golden["parsldock"]["surrogate_predict"]
    )


def test_golden_covers_every_artifact_and_candidate(golden):
    assert sorted(golden["kamping"]["artifacts"]) == sorted(ARTIFACT_COMMANDS)
    assert list(golden["parsldock"]["candidates"]) == CANDIDATE_SMILES


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN.parent
    target.mkdir(parents=True, exist_ok=True)
    text = json.dumps(compute_golden(), indent=1) + "\n"
    (target / GOLDEN.name).write_text(text)
