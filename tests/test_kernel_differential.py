"""Differential tests: the CI kernels against their per-element originals.

Each ``_ref_*`` function below is the loop implementation the current
code replaced, kept verbatim as the reference definition. The current
code must give the same result, or raise the same exception type with
the same message, on every input hypothesis draws:

* ``sample_sort``: the bucket lists handed to ``alltoall``, the returned
  chunks and the modeled communication cost;
* ``parse_smiles``, over an ASCII alphabet reaching every branch of the
  parser plus characters it rejects;
* pose energies, and the surrogate's fit and predictions;
* the shell scanners (``tokenize``, ``split_chain``, ``expand_variables``)
  and yamlite's ``_cut_comment``.
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict, List, Sequence, Tuple

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.kamping.algorithms import sample_sort
from repro.apps.kamping.bindings import KampingBindings
from repro.apps.kamping.mpi import SimMPI
from repro.apps.parsldock.chemistry import _VALENCE, Molecule, parse_smiles
from repro.apps.parsldock.docking import Receptor, _pose_energies, prepare_receptor
from repro.apps.parsldock.ml import SurrogateModel, fingerprint
from repro.apps.parsldock.pipeline import CANDIDATE_SMILES
from repro.errors import ShellError
from repro.shellsim.parsing import expand_variables, split_chain, tokenize
from repro.util.yamlite import _cut_comment

# -- reference implementations (the replaced loops, verbatim) ---------------


def _ref_sample_sort(
    comm: SimMPI, bindings, per_rank: Sequence[Sequence[int]]
) -> List[List[int]]:
    p = comm.comm_size
    local_sorted = [sorted(chunk) for chunk in per_rank]
    if p == 1:
        return [list(local_sorted[0])]

    # 1. each rank contributes p-1 regular samples
    samples_per_rank: List[List[int]] = []
    for chunk in local_sorted:
        if not chunk:
            samples_per_rank.append([])
            continue
        step = max(1, len(chunk) // p)
        samples_per_rank.append(chunk[step::step][: p - 1])
    all_samples = bindings.allgatherv(samples_per_rank)[0]
    all_samples.sort()

    # 2. choose p-1 splitters from the gathered samples
    if all_samples:
        stride = max(1, len(all_samples) // p)
        splitters = all_samples[stride::stride][: p - 1]
    else:
        splitters = []
    while len(splitters) < p - 1:
        splitters.append(splitters[-1] if splitters else 0)

    # 3. partition each rank's data by splitter bucket, exchange alltoall
    sends: List[List[List[int]]] = []
    for chunk in local_sorted:
        buckets: List[List[int]] = [[] for _ in range(p)]
        for value in chunk:
            bucket = 0
            while bucket < p - 1 and value > splitters[bucket]:
                bucket += 1
            buckets[bucket].append(value)
        sends.append(buckets)
    received = bindings.alltoall(sends)

    # 4. local merge
    return [sorted(v for chunk in received[rank] for v in chunk) for rank in range(p)]


def _ref_allgatherv(comm: SimMPI, per_rank):
    comm._check(per_rank)
    flat: List = []
    for chunk in per_rank:
        flat.extend(chunk)
    comm._charge(len(flat) * 2)
    return [list(flat) for _ in range(comm.comm_size)]


_REF_ATOM_RE = re.compile(r"Cl|Br|[CNOSPF]")


def _ref_parse_smiles(smiles: str) -> Molecule:
    if not smiles:
        raise ValueError("empty SMILES")
    atoms: List[str] = []
    bonds: List[Tuple[int, int]] = []
    branch_stack: List[int] = []
    ring_open: Dict[str, int] = {}
    previous = -1
    ring_count = 0
    i = 0
    while i < len(smiles):
        ch = smiles[i]
        match = _REF_ATOM_RE.match(smiles, i)
        if match:
            atoms.append(match.group(0))
            idx = len(atoms) - 1
            if previous >= 0:
                bonds.append((previous, idx))
            previous = idx
            i = match.end()
            continue
        if ch == "(":
            if previous < 0:
                raise ValueError(f"branch before any atom in {smiles!r}")
            branch_stack.append(previous)
            i += 1
            continue
        if ch == ")":
            if not branch_stack:
                raise ValueError(f"unbalanced ')' in {smiles!r}")
            previous = branch_stack.pop()
            i += 1
            continue
        if ch.isdigit():
            if previous < 0:
                raise ValueError(f"ring digit before any atom in {smiles!r}")
            if ch in ring_open:
                bonds.append((ring_open.pop(ch), previous))
                ring_count += 1
            else:
                ring_open[ch] = previous
            i += 1
            continue
        if ch in "=#-":
            i += 1
            continue
        if ch == "c":  # aromatic carbon, common in drug-like SMILES
            atoms.append("C")
            idx = len(atoms) - 1
            if previous >= 0:
                bonds.append((previous, idx))
            previous = idx
            i += 1
            continue
        if ch in "no":  # aromatic N / O
            atoms.append(ch.upper())
            idx = len(atoms) - 1
            if previous >= 0:
                bonds.append((previous, idx))
            previous = idx
            i += 1
            continue
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


def _ref_implicit_hydrogens(molecule: Molecule) -> int:
    degree = [0] * len(molecule.atoms)
    for a, b in molecule.bonds:
        degree[a] += 1
        degree[b] += 1
    return sum(
        max(0, _VALENCE[sym] - deg)
        for sym, deg in zip(molecule.atoms, degree)
    )


def _ref_pose_energy(mol: Molecule, receptor: Receptor, pose: int) -> float:
    digest = hashlib.sha256(
        f"{mol.smiles}|{receptor.name}|pose{pose}".encode()
    ).digest()
    return -3.0 * (int.from_bytes(digest[:4], "big") / 2**32)


def _ref_fingerprint(molecule: Molecule) -> np.ndarray:
    counts = {symbol: 0 for symbol in ("C", "N", "O", "S", "F")}
    for atom in molecule.atoms:
        if atom in counts:
            counts[atom] += 1
    return np.array(
        [
            molecule.heavy_atom_count,
            molecule.implicit_hydrogens,
            molecule.ring_count,
            counts["C"],
            counts["N"] + counts["O"],
            counts["S"] + counts["F"],
            len(molecule.bonds),
            molecule.molecular_weight / 100.0,
        ],
        dtype=float,
    )


def _ref_fit_predict(train, scores, queries, alpha=1.0) -> np.ndarray:
    X = np.stack([_ref_fingerprint(parse_smiles(s)) for s in train])
    y = np.asarray(scores, dtype=float)
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0] = 1.0
    Xn = (X - mean) / scale
    Xn = np.hstack([Xn, np.ones((len(Xn), 1))])  # bias column
    n_features = Xn.shape[1]
    ridge = alpha * np.eye(n_features)
    ridge[-1, -1] = 0.0  # do not penalize the bias
    weights = np.linalg.solve(Xn.T @ Xn + ridge, Xn.T @ y)
    Q = np.stack([_ref_fingerprint(parse_smiles(s)) for s in queries])
    Qn = (Q - mean) / scale
    Qn = np.hstack([Qn, np.ones((len(Qn), 1))])
    return Qn @ weights


def _ref_tokenize(command: str) -> List[str]:
    tokens: List[str] = []
    current: List[str] = []
    quote = None
    has_content = False
    for ch in command:
        if quote:
            if ch == quote:
                quote = None
            else:
                current.append(ch)
        elif ch in "'\"":
            quote = ch
            has_content = True
        elif ch.isspace():
            if current or has_content:
                tokens.append("".join(current))
                current = []
                has_content = False
        elif ch in "|<>*":
            raise ShellError(
                f"unsupported shell syntax {ch!r} in {command!r} "
                "(pipes/redirection/globs are not modeled)"
            )
        else:
            current.append(ch)
    if quote:
        raise ShellError(f"unterminated quote in {command!r}")
    if current or has_content:
        tokens.append("".join(current))
    return tokens


def _ref_split_chain(command_line: str) -> List[Tuple[str, str]]:
    parts: List[Tuple[str, str]] = []
    current: List[str] = []
    quote = None
    op = ""
    i = 0
    while i < len(command_line):
        ch = command_line[i]
        if quote:
            current.append(ch)
            if ch == quote:
                quote = None
            i += 1
            continue
        if ch in "'\"":
            quote = ch
            current.append(ch)
            i += 1
            continue
        if command_line.startswith("&&", i):
            parts.append((op, "".join(current).strip()))
            current = []
            op = "&&"
            i += 2
            continue
        if ch == ";":
            parts.append((op, "".join(current).strip()))
            current = []
            op = ";"
            i += 1
            continue
        current.append(ch)
        i += 1
    parts.append((op, "".join(current).strip()))
    return [(o, c) for o, c in parts if c]


def _ref_expand_variables(token: str, env: Dict[str, str]) -> str:
    out: List[str] = []
    i = 0
    while i < len(token):
        ch = token[i]
        if ch == "$" and i + 1 < len(token):
            if token[i + 1] == "{":
                end = token.find("}", i + 2)
                if end == -1:
                    raise ShellError(f"unterminated ${{ in {token!r}")
                name = token[i + 2 : end]
                out.append(env.get(name, ""))
                i = end + 1
                continue
            j = i + 1
            while j < len(token) and (token[j].isalnum() or token[j] == "_"):
                j += 1
            if j > i + 1:
                out.append(env.get(token[i + 1 : j], ""))
                i = j
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def _ref_cut_comment(line: str) -> str:
    quote = None
    for i, ch in enumerate(line):
        if quote:
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        elif ch == "#" and (i == 0 or line[i - 1] in " \t"):
            return line[:i]
    return line


# -- helpers ----------------------------------------------------------------


def _outcome(fn, *args):
    """``("ok", value)`` or ``("raised", type, message)``."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # compared, not handled
        return ("raised", type(exc), str(exc))


class _RecordingBindings:
    """KaMPIng bindings that keep a copy of every ``alltoall`` send matrix."""

    def __init__(self, comm: SimMPI) -> None:
        self.inner = KampingBindings(comm)
        self.sends: List[List[List[List[int]]]] = []

    def allgatherv(self, per_rank):
        return self.inner.allgatherv(per_rank)

    def alltoall(self, per_rank):
        self.sends.append([[list(bucket) for bucket in row] for row in per_rank])
        return self.inner.alltoall(per_rank)


def _sort_run(sort, per_rank):
    comm = SimMPI(len(per_rank))
    bindings = _RecordingBindings(comm)
    chunks = sort(comm, bindings, [list(chunk) for chunk in per_rank])
    return chunks, bindings.sends, comm.cost, bindings.inner.stats


# -- sample sort ------------------------------------------------------------

# a narrow range makes values equal to a splitter common; a wide one
# spreads the buckets
_values = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(10**6), max_value=10**6),
)


class TestSampleSortDifferential:
    @given(st.lists(st.lists(_values, max_size=40), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    @example([[5, 1], [], [3], []])  # empty ranks
    @example([[], [], []])  # no data at all: splitters pad with 0
    @example([[2, 2, 2, 2], [2, 2, 1, 3], [2, 0, 2, 4]])  # values == splitter
    @example([[-5, -1, -1, 0], [-1, -7, 3, -1]])  # negatives == splitter
    @example([[9, 8, 7]])  # one rank
    def test_buckets_chunks_and_cost_match(self, per_rank):
        chunks, sends, cost, stats = _sort_run(sample_sort, per_rank)
        ref_chunks, ref_sends, ref_cost, ref_stats = _sort_run(
            _ref_sample_sort, per_rank
        )
        assert sends == ref_sends  # bucket by bucket, rank by rank
        assert chunks == ref_chunks
        assert cost == ref_cost
        assert stats == ref_stats

    def test_a_value_equal_to_a_splitter_stays_in_the_lower_bucket(self):
        # splitters come out as [2, 2]: every 2 belongs to bucket 0
        per_rank = [[2, 2, 2, 2], [2, 2, 1, 3], [2, 0, 2, 4]]
        _, sends, _, _ = _sort_run(sample_sort, per_rank)
        _, ref_sends, _, _ = _sort_run(_ref_sample_sort, per_rank)
        assert sends == ref_sends
        assert sends[0][0] == [[2, 2, 2, 2], [], []]


class TestAllgathervBuffers:
    @given(st.lists(st.lists(st.integers(), max_size=6), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_result_and_cost_match_reference(self, per_rank):
        comm, ref_comm = SimMPI(len(per_rank)), SimMPI(len(per_rank))
        assert comm.allgatherv(per_rank) == _ref_allgatherv(ref_comm, per_rank)
        assert comm.cost == ref_comm.cost

    def test_every_rank_owns_a_distinct_list(self):
        per_rank = [[1], [2, 3], [], [4]]
        expected = [1, 2, 3, 4]
        for mutated in range(4):
            result = SimMPI(4).allgatherv(per_rank)
            result[mutated].append(99)
            for rank, got in enumerate(result):
                if rank != mutated:
                    assert got == expected
        assert per_rank == [[1], [2, 3], [], [4]]

    def test_single_rank_result_does_not_alias_the_input(self):
        per_rank = [[1, 2]]
        result = SimMPI(1).allgatherv(per_rank)
        result[0].append(3)
        assert per_rank == [[1, 2]]


# -- SMILES -----------------------------------------------------------------

# every branch of the parser: one- and two-letter atoms (and the letters
# of the halogens alone), aromatics, branches, ring digits, bond symbols,
# and characters it rejects
_SMILES_TOKENS = [
    "C", "N", "O", "S", "P", "F", "Cl", "Br", "c", "n", "o",
    "B", "l", "r", "(", ")", "1", "2", "0", "9", "=", "#", "-",
    "X", "%", "[", "]", "@", "+", " ", "H", "s",
]
_SMILES_CHARS = "CNOSPFcnoBlr()0123456789=#-X%[]@+ Hs.\\/"
_smiles = st.one_of(
    st.lists(st.sampled_from(_SMILES_TOKENS), max_size=16).map("".join),
    st.text(alphabet=_SMILES_CHARS, max_size=16),
)


class TestParseSmilesDifferential:
    @given(_smiles)
    @settings(max_examples=600, deadline=None)
    @example("ClCBr")
    @example("CCl")
    @example("Cl")
    @example("BrC(Cl)Br")
    @example("CB")
    @example("CBx")
    @example("C(Cl)(Br)c1ccncc1")
    def test_same_molecule_or_same_error(self, smiles):
        got = _outcome(parse_smiles, smiles)
        assert got == _outcome(_ref_parse_smiles, smiles)  # Molecule compares fields
        if got[0] == "ok":
            molecule = got[1]
            assert molecule.implicit_hydrogens == _ref_implicit_hydrogens(molecule)

    def test_every_candidate_matches(self):
        for smiles in CANDIDATE_SMILES:
            assert parse_smiles(smiles) == _ref_parse_smiles(smiles)


# -- docking and the surrogate ----------------------------------------------


class TestPoseEnergiesDifferential:
    def test_candidates_times_forty_poses(self):
        receptor = prepare_receptor()
        for smiles in CANDIDATE_SMILES:
            mol = parse_smiles(smiles)
            assert _pose_energies(mol, receptor, 40) == [
                _ref_pose_energy(mol, receptor, pose) for pose in range(40)
            ]

    @given(
        smiles=st.text(
            st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=20
        ),
        name=st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
        poses=st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_text_hashes_alike(self, smiles, name, poses):
        mol = Molecule(smiles=smiles, atoms=(), bonds=(), ring_count=0)
        receptor = Receptor(
            name=name, sequence="AV", hbond_sites=0, hydrophobic_sites=1,
            pocket_volume=120.0,
        )
        assert _pose_energies(mol, receptor, poses) == [
            _ref_pose_energy(mol, receptor, pose) for pose in range(poses)
        ]


class TestSurrogateDifferential:
    def test_fingerprints_match(self):
        for smiles in CANDIDATE_SMILES:
            mol = parse_smiles(smiles)
            assert np.array_equal(fingerprint(mol), _ref_fingerprint(mol))

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(CANDIDATE_SMILES),
                st.floats(min_value=-12.0, max_value=2.0),
            ),
            min_size=2,
            max_size=16,
        ),
        st.lists(st.sampled_from(CANDIDATE_SMILES), min_size=1, max_size=8),
    )
    @settings(max_examples=120, deadline=None)
    def test_predictions_bit_identical(self, training, queries):
        train = [smiles for smiles, _ in training]
        scores = [score for _, score in training]
        got = SurrogateModel().fit(train, scores).predict(queries)
        want = _ref_fit_predict(train, scores, queries)
        assert got.tobytes() == want.tobytes()


# -- shell and YAML scanners ------------------------------------------------

_SCANNER_TOKENS = [
    "'", '"', "&&", "&", ";", "$", "${", "}", "{", "#", "|", "<", ">", "*",
    "\t", " ", "  ", "\n", "\x0b", "\x1c", "\u00a0", "\u2003",
    "a", "b", "_", "1", "-", "=", "/", ".", "HOME", "X_1", "\u00e9",
]
_scanner_text = st.one_of(
    st.lists(st.sampled_from(_SCANNER_TOKENS), max_size=14).map("".join),
    st.text(alphabet="'\"&;${}#|<>*\t \nab_1-=/.\u00e9\x0b\u2003", max_size=20),
)
_ENV = {"HOME": "/home/u", "X_1": "x1", "a": "A", "b": ""}


class TestScannersDifferential:
    @given(_scanner_text)
    @settings(max_examples=400, deadline=None)
    @example("ls *.py")
    @example("pytest -q tests/test_docking.py")
    @example("a\x1cb c d")
    @example("echo '' \"x y\"")
    def test_tokenize(self, command):
        assert _outcome(tokenize, command) == _outcome(_ref_tokenize, command)

    @given(_scanner_text)
    @settings(max_examples=400, deadline=None)
    @example("a && b; c")
    @example("  ")
    @example("echo 'a && b'")
    @example("a & b")
    def test_split_chain(self, command_line):
        assert _outcome(split_chain, command_line) == _outcome(
            _ref_split_chain, command_line
        )

    @given(_scanner_text)
    @settings(max_examples=400, deadline=None)
    @example("hello-$HOME")
    @example("${X_1}22")
    @example("${unterminated")
    @example("$")
    @example("plain-token")
    def test_expand_variables(self, token):
        assert _outcome(expand_variables, token, _ENV) == _outcome(
            _ref_expand_variables, token, _ENV
        )

    @given(_scanner_text)
    @settings(max_examples=400, deadline=None)
    @example("key: value # comment")
    @example("url: 'a#b'")
    @example("#")
    @example("no comment here")
    def test_cut_comment(self, line):
        assert _cut_comment(line) == _ref_cut_comment(line)
