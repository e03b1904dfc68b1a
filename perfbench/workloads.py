"""Seeded benchmark inputs and the answers they must produce.

Nothing here imports kscheck.  Every expected answer follows from how the
input is built: edge signs come from the small Pauli product below, and the
verdicts from the structure of the blocks (a parity proof stays a parity
proof under qubit placement, cyclic X->Y->Z relabelling and reordering).

A workload is a list of cases; a case is one scenario file (or a built-in
name) plus the CLI calls made on it, each with the verdict fields the
oracle pins.  One round makes every call of every case once.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("paper", "qubits", "wide")

# -- a minimal Pauli algebra, independent of the program under test ----------

# (a, b) -> (power of i, letter) for the single-qubit product a*b
_PRODUCT = {}
for _a in "IXYZ":
    for _b in "IXYZ":
        if _a == "I" or _b == "I":
            _PRODUCT[_a, _b] = (0, _b if _a == "I" else _a)
        elif _a == _b:
            _PRODUCT[_a, _b] = (0, "I")
        else:
            _c = "XYZ"[3 - "XYZ".index(_a) - "XYZ".index(_b)]
            _PRODUCT[_a, _b] = (1 if ("XYZ".index(_b) - "XYZ".index(_a)) % 3 == 1 else 3, _c)


def edge_sign(words) -> int:
    """Sign s with the ordered product of the words equal to s * identity."""
    power, letters = 0, list(words[0])
    for word in words[1:]:
        for q, letter in enumerate(word):
            p, letters[q] = _PRODUCT[letters[q], letter]
            power += p
    if set(letters) != {"I"} or power % 2:
        raise ValueError(f"{words} does not multiply to a signed identity")
    return 1 if power % 4 == 0 else -1


# X -> Y -> Z -> X is conjugation by a Clifford, so it keeps every product
# and sign; an odd permutation of the letters would not.
_CYCLE = {"I": "I", "X": "Y", "Y": "Z", "Z": "X"}


def _relabel(letter: str, shift: int) -> str:
    for _ in range(shift):
        letter = _CYCLE[letter]
    return letter


# -- the two contextual blocks -------------------------------------------------

PM_WORDS = ("ZI", "IZ", "ZZ", "IX", "XI", "XX", "ZX", "XZ", "YY")
PM_EDGES = ((0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8))
GHZ_WORDS = ("XII", "YII", "IXI", "IYI", "IIX", "IIY", "XXX", "YYX", "YXY", "XYY")
GHZ_EDGES = ((0, 2, 4, 6), (1, 3, 4, 7), (1, 2, 5, 8), (0, 3, 5, 9), (6, 7, 8, 9))
GHZ_THREE_BODY = 4  # the one edge of three-qubit words

BLOCKS = {"pm": (PM_WORDS, PM_EDGES), "ghz": (GHZ_WORDS, GHZ_EDGES)}

# Every vertex lies on two edges, so the incidence rows sum to zero and the
# rank is |E| - 1.  With one edge dropped the rest stay independent, leaving
# 2^(|V| - |E| + 1) witnesses: 2^(9-5) for the square, 2^(10-4) for the
# pentagram.
WITNESSES_ONE_EDGE_DROPPED = {"pm": 16, "ghz": 64}

# A union of UNSAT blocks violates exactly one edge per block at best.
MIN_VIOLATED_EDGES_PER_BLOCK = 1


@dataclass
class Call:
    verb: str
    options: list[str]
    expect: dict  # pinned verdict fields; see oracle.check

    def argv(self, case: "Case") -> list[str]:
        """Arguments after ``python -m kscheck.cli``."""
        return [self.verb, *([case.scenario] if case.scenario else []), *self.options, "--json"]


@dataclass
class Case:
    name: str
    scenario: str  # built-in name, or a file path once written
    calls: list[Call]
    doc: dict | None = None  # scenario JSON, None for built-ins
    size: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    cases: list[Case]

    def round_calls(self, rng: random.Random) -> list[tuple[Case, Call]]:
        calls = [(case, call) for case in self.cases for call in case.calls]
        rng.shuffle(calls)
        return calls

    def write(self, directory: Path) -> None:
        """Write each scenario and its expected answers; fill in sizes."""
        for case in self.cases:
            if case.doc is None:
                continue
            path = directory / f"{case.name}.json"
            path.write_text(json.dumps(case.doc))
            case.scenario = str(path)
            expected = [{"argv": call.argv(case), "expect": call.expect} for call in case.calls]
            (directory / f"{case.name}.expected.json").write_text(json.dumps(expected))
            case.size["bytes"] = path.stat().st_size


def _scenario(name, words, labels, edges, realizations, states):
    return {
        "name": name,
        "vertices": [{"label": l, "operator": "+" + w} for l, w in zip(labels, words)],
        "hyperedges": [list(e) for e in edges],
        "states": states,
        "realizations": {
            rname: {"assoc": {l: [l] for l in labels},
                    "comeasurable": [[labels[v] for v in edge] for edge in rs]}
            for rname, rs in realizations.items()
        },
    }


def _mixed(n_qubits: int) -> dict:
    dim = 2**n_qubits
    diag = str(Fraction(1, dim))
    return {"density": [[diag if i == j else "0" for j in range(dim)] for i in range(dim)]}


def _basis_state(n_qubits: int, index: int) -> dict:
    dim = 2**n_qubits
    return {"density": [["1" if i == j == index else "0" for j in range(dim)] for i in range(dim)]}


def _shuffled_graph(rng, words, labels, edges):
    """Seeded vertex order and edge order; edge members kept sorted."""
    order = list(range(len(words)))
    rng.shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}
    words = [words[old] for old in order]
    labels = [labels[old] for old in order]
    edges = [tuple(sorted(new_index[v] for v in e)) for e in edges]
    rng.shuffle(edges)
    return words, labels, edges


def _place(word: str, positions, shifts, n_qubits: int) -> str:
    out = ["I"] * n_qubits
    for logical, letter in enumerate(word):
        q = positions[logical]
        out[q] = _relabel(letter, shifts[q])
    return "".join(out)


# -- paper: the README command list on the built-ins ---------------------------

# Hand-written from the README's command list and the acceptance claims.
PAPER_CALLS = (
    (["verify", "peres-mermin"], {"satisfiable": False, "witness_count": 0, "certificate": "parity"}),
    (["verify", "ghz"], {"satisfiable": False, "witness_count": 0, "certificate": "parity"}),
    (["classify", "peres-mermin", "--realization", "spin"], {"type": "III"}),
    (["classify", "ghz", "--realization", "standard"], {"type": "II"}),
    (
        ["search-model", "peres-mermin", "--realization", "full"],
        {"satisfiable": False, "min_violation_fraction": "1/6", "model_states": 0},
    ),
    (["search-model", "box-m1"], {"satisfiable": True, "model_states": 2}),
    (
        ["ghz", "ghz", "--tuple", "+1,+1,+1,-1"],
        {"satisfiable": False, "eigenstate_verified": True},
    ),
    (["ghz", "ghz", "--flip-sign"], {"satisfiable": True, "eigenstate_verified": False}),
    (["robustness", "ghz", "--realization", "full"], {"min_violation_fraction": "1/5"}),
    (["catalog"], {"catalog": ["army", "box-m1", "box-m2", "box-m3", "ghz", "peres-mermin"]}),
    (["catalog", "peres-mermin"], {"catalog_vertices": 9, "catalog_edges": 6}),
)


def paper() -> Workload:
    cases = []
    for argv, expect in PAPER_CALLS:
        verb, scenario, options = argv[0], (argv[1:2] or [""])[0], argv[2:]
        cases.append(Case(scenario or "builtins", scenario, [Call(verb, options, expect)]))
    return Workload("paper", cases)


# -- qubits: the pentagram padded to n qubits ----------------------------------

# One size: the cost of a call grows about 4x per qubit, so a round mixing
# sizes has a cost boundary at every size and its median flips between them.
QUBITS_N = 4

# The cyclic shift of each of the pentagram's three qubits.  The seed decides
# which qubit gets which shift, never the multiset: exact matrix products
# skip zero entries, so Z (diagonal) is cheaper than X or Y, and a seeded
# multiset would make the cost of a call depend on the seed.
PENTAGRAM_SHIFTS = (0, 1, 2)


def padded_pentagram(rng: random.Random, n_qubits: int, name: str) -> Case:
    positions = rng.sample(range(n_qubits), 3)
    shifts = [0] * n_qubits  # a padding qubit carries only I
    for q, shift in zip(positions, rng.sample(PENTAGRAM_SHIFTS, 3)):
        shifts[q] = shift
    words = [_place(w, positions, shifts, n_qubits) for w in GHZ_WORDS]
    labels = [f"v{k}" for k in range(len(words))]
    three_body = set(GHZ_EDGES[GHZ_THREE_BODY])
    words, labels, edges = _shuffled_graph(rng, words, labels, GHZ_EDGES)
    signs = [edge_sign([words[v] for v in e]) for e in edges]
    if sorted(signs) != [-1, 1, 1, 1, 1]:
        raise AssertionError(f"relabelling broke the pentagram: {signs}")
    pinned = next(e for e in edges if {int(labels[v][1:]) for v in e} == three_body)
    standard = [e for e in edges if e != pinned]
    doc = _scenario(
        f"pentagram-{n_qubits}q",
        words,
        labels,
        edges,
        {"full": edges, "standard": standard},
        {"mixed": _mixed(n_qubits), "zero": _basis_state(n_qubits, 0)},
    )
    # The scan and the eigenstate check run twice each, so the median of the
    # eight calls falls between the two scans (robustness), with three
    # cheaper calls below them and three dearer ones above.
    robustness = Call("robustness", ["--realization", "full"], {"min_violation_fraction": "1/5"})
    ghz = Call("ghz", ["--realization", "standard"], {"satisfiable": False, "eigenstate_verified": True})
    calls = [
        Call("verify", [], {"satisfiable": False, "witness_count": 0, "certificate": "parity"}),
        Call("classify", ["--realization", "standard"], {"type": "II"}),
        Call("ghz", ["--realization", "standard", "--flip-sign"],
             {"satisfiable": True, "eigenstate_verified": False}),
        robustness,
        robustness,
        Call("search-model", ["--realization", "full"],
             {"satisfiable": False, "min_violation_fraction": "1/5", "model_states": 0}),
        ghz,
        ghz,
    ]
    size = {"qubits": n_qubits, "vertices": len(words), "edges": len(edges)}
    return Case(name, "", calls, doc, size)


def qubits(seed: int) -> Workload:
    """One seeded placement of the pentagram padded to QUBITS_N qubits."""
    rng = random.Random(f"qubits:{seed}")
    return Workload("qubits", [padded_pentagram(rng, QUBITS_N, f"pentagram-{QUBITS_N}q")])


# -- wide: two blocks stacked on three qubits ------------------------------------


def block_union(rng: random.Random, kinds, drop_one_edge: bool):
    """Words, labels, edges and signs of the blocks side by side.

    Each square sits on a seeded pair of the three qubits, each pentagram on
    a seeded permutation of them; every qubit gets its own cyclic letter
    relabelling per block.  Labels are distinct across blocks, so the blocks
    share no variable even where their operators coincide.
    """
    words, labels, edges = [], [], []
    for b, kind in enumerate(kinds):
        block_words, block_edges = BLOCKS[kind]
        positions = rng.sample(range(3), len(block_words[0]))
        shifts = [rng.randrange(3) for _ in range(3)]
        if drop_one_edge:
            dropped = rng.randrange(len(block_edges))
            block_edges = [e for k, e in enumerate(block_edges) if k != dropped]
        offset = len(words)
        words += [_place(w, positions, shifts, 3) for w in block_words]
        labels += [f"{kind}{b}_{k}" for k in range(len(block_words))]
        edges += [tuple(offset + v for v in e) for e in block_edges]
    words, labels, edges = _shuffled_graph(rng, words, labels, edges)
    signs = [edge_sign([words[v] for v in e]) for e in edges]
    return words, labels, edges, signs


def wide_case(rng: random.Random, name: str, kinds, sat: bool, verbs) -> Case:
    words, labels, edges, signs = block_union(rng, kinds, drop_one_edge=sat)
    doc = _scenario(name, words, labels, edges, {"full": edges}, {"mixed": _mixed(3)})
    full = ["--realization", "full"]
    if sat:
        witnesses = 1
        for kind in kinds:
            witnesses *= WITNESSES_ONE_EDGE_DROPPED[kind]
        constraints = {"labels": labels, "edges": [list(e) for e in edges], "signs": signs}
        calls = {
            "verify": Call("verify", [], {"satisfiable": True, "witness_count": witnesses,
                                          "witnesses_satisfy": constraints}),
            "robustness": Call("robustness", full, {"min_violation_fraction": "0"}),
            "search-model": Call("search-model", full, {
                "satisfiable": True, "min_violation_fraction": "0", "model_states": witnesses,
                "model_states_satisfy": constraints}),
        }
    else:
        fraction = str(Fraction(MIN_VIOLATED_EDGES_PER_BLOCK * len(kinds), len(edges)))
        calls = {
            "verify": Call("verify", [], {"satisfiable": False, "witness_count": 0}),
            "robustness": Call("robustness", full, {"min_violation_fraction": fraction}),
            "search-model": Call("search-model", full, {
                "satisfiable": False, "min_violation_fraction": fraction, "model_states": 0}),
        }
    size = {"qubits": 3, "vertices": len(words), "edges": len(edges)}
    return Case(name, "", [calls[verb] for verb in verbs], doc, size)


# (blocks, SAT, verbs) of each case in a round.  The blocks are fixed so
# that every seed costs the same; the seed moves placement, relabelling,
# dropped edges and order.  Two calls of a round scan all 2^18 assignments
# of a union of two squares: robustness on an UNSAT one (answer 1/6) and
# search-model on a SAT one (a 256-state model).  The other six list the
# 1024 witnesses of a square-plus-pentagram union (verify, about 200 KB of
# JSON) or stop at the first (robustness, answer 0).  The witness listings
# are most of the calls, so the median is one of them, while the scans are
# most of the time.  search-model on a 19-vertex union would take about
# twice as long as on 18 vertices, so the round uses the smaller one.
WIDE = (
    (("pm", "ghz"), True, ("verify", "robustness")),
    *[(("pm", "ghz"), True, ("verify",))] * 4,
    (("pm", "pm"), True, ("search-model",)),
    (("pm", "pm"), False, ("robustness",)),
)


def wide(seed: int) -> Workload:
    rng = random.Random(f"wide:{seed}")
    return Workload("wide", [wide_case(rng, f"wide-{k}", kinds, sat, verbs)
                             for k, (kinds, sat, verbs) in enumerate(WIDE)])


def build(name: str, seed: int) -> Workload:
    if name == "paper":
        return paper()
    if name == "qubits":
        return qubits(seed)
    if name == "wide":
        return wide(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
