"""Phase-tracked Pauli words, their symplectic form and a dense oracle.

A Pauli word is a global phase in {+1, -1, +i, -i} together with a letter
per qubit from {I, X, Y, Z}.  Products, commutation and signed-identity
checks are done symbolically.  ``PauliString.symplectic`` gives the word
as an x mask, a z mask and an i-power (Aaronson and Gottesman, PRA 70,
052328, 2004): the word is a signed permutation matrix with one nonzero
per column, P[c ^ x][c] = i**power * (-1)**popcount(c & z), which is what
the Born-rule layer works from.  ``to_matrix`` and ``spectral_projection``
build the exact dense Q[i] matrices; they cross-check the symbolic algebra
and the Pauli expansion and are not on any verdict path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Sequence

from .exact import ComplexMatrix

# Born tables sweep O(2^n) entries per Pauli product, and the dense 2^n x 2^n
# oracle matrices stay affordable too; all shipped scenarios need <= 3.
MAX_QUBITS = 8

LETTERS = "IXYZ"

_PHASE_STR = {0: "+", 1: "+i", 2: "-", 3: "-i"}


@dataclass(frozen=True)
class Phase:
    """A global phase i**power with power in {0, 1, 2, 3}."""

    power: int

    def __post_init__(self):
        object.__setattr__(self, "power", self.power % 4)

    def __mul__(self, other: "Phase") -> "Phase":
        return Phase(self.power + other.power)

    @property
    def is_real(self) -> bool:
        return self.power % 2 == 0

    def value(self) -> complex:
        return 1j**self.power

    def to_exact(self):
        re = (1, 0, -1, 0)[self.power]
        im = (0, 1, 0, -1)[self.power]
        from .exact import GaussianRational

        return GaussianRational(re, im)

    def __str__(self):
        return _PHASE_STR[self.power]


PLUS = Phase(0)
PLUS_I = Phase(1)
MINUS = Phase(2)
MINUS_I = Phase(3)


def _single_product(a: str, b: str) -> tuple[int, str]:
    """Product of two single-qubit letters as (i-power, letter)."""
    if a == "I":
        return 0, b
    if b == "I":
        return 0, a
    if a == b:
        return 0, "I"
    # cyclic: XY = iZ, YZ = iX, ZX = iY; swapped order picks up -i
    cyc = "XYZ"
    ia, ib = cyc.index(a), cyc.index(b)
    c = cyc[3 - ia - ib]
    return (1, c) if (ib - ia) % 3 == 1 else (3, c)


_PRODUCT_TABLE = {
    (a, b): _single_product(a, b) for a in LETTERS for b in LETTERS
}


class Symplectic(NamedTuple):
    """A Pauli word as bitmasks: P[c ^ x][c] = i**power * (-1)**popcount(c & z).

    The word is i**power * X^x Z^z, with bit n-1-k of each mask standing for
    qubit k, so that matrix indices read in ``to_matrix``'s kron order.
    ``*`` is the operator product, not tuple repetition.
    """

    x: int
    z: int
    power: int

    def __mul__(self, other: "Symplectic") -> "Symplectic":
        # Z^z X^x' = (-1)**popcount(z & x') X^x' Z^z
        flips = (self.z & other.x).bit_count()
        return Symplectic(
            self.x ^ other.x, self.z ^ other.z, (self.power + other.power + 2 * flips) % 4
        )

    @property
    def is_scalar(self) -> bool:
        return not (self.x or self.z)


SYMPLECTIC_IDENTITY = Symplectic(0, 0, 0)

# letter -> (x bit, z bit, i-power); Y = iXZ
_LETTER_BITS = {"I": (0, 0, 0), "X": (1, 0, 0), "Y": (1, 1, 1), "Z": (0, 1, 0)}


@dataclass(frozen=True)
class PauliString:
    """Phase-tracked tensor word over {I, X, Y, Z}."""

    phase: Phase
    letters: str

    def __post_init__(self):
        if not self.letters:
            raise ValueError("Pauli word needs at least one qubit")
        if len(self.letters) > MAX_QUBITS:
            raise ValueError(
                f"{len(self.letters)} qubits exceeds the configured cap of {MAX_QUBITS}"
            )
        bad = set(self.letters) - set(LETTERS)
        if bad:
            raise ValueError(f"invalid Pauli letters: {sorted(bad)}")

    @classmethod
    def parse(cls, text: str) -> "PauliString":
        """Parse the text form ``[sign][i]LETTERS``, e.g. ``+ZZ``, ``-iXY``."""
        body = text.strip()
        power = 0
        if body.startswith("+"):
            body = body[1:]
        elif body.startswith("-"):
            power = 2
            body = body[1:]
        if body.startswith("i"):
            power += 1
            body = body[1:]
        if not body:
            raise ValueError(f"no Pauli letters in {text!r}")
        return cls(Phase(power), body)

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(PLUS, "I" * n_qubits)

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    @property
    def is_hermitian(self) -> bool:
        return self.phase.is_real

    @property
    def is_identity_word(self) -> bool:
        return set(self.letters) == {"I"}

    @cached_property
    def symplectic(self) -> Symplectic:
        """The word as x and z masks and an i-power; see ``Symplectic``."""
        x = z = 0
        power = self.phase.power
        for letter in self.letters:
            bx, bz, p = _LETTER_BITS[letter]
            x = (x << 1) | bx
            z = (z << 1) | bz
            power += p
        return Symplectic(x, z, power % 4)

    def __mul__(self, other: "PauliString") -> "PauliString":
        if not isinstance(other, PauliString):
            return NotImplemented
        if self.n_qubits != other.n_qubits:
            raise ValueError(
                f"length mismatch: {self.n_qubits} vs {other.n_qubits} qubits"
            )
        power = self.phase.power + other.phase.power
        out = []
        for a, b in zip(self.letters, other.letters):
            p, c = _PRODUCT_TABLE[(a, b)]
            power += p
            out.append(c)
        return PauliString(Phase(power), "".join(out))

    def commutes(self, other: "PauliString") -> bool:
        if self.n_qubits != other.n_qubits:
            raise ValueError(
                f"length mismatch: {self.n_qubits} vs {other.n_qubits} qubits"
            )
        conflicts = sum(
            1
            for a, b in zip(self.letters, other.letters)
            if a != "I" and b != "I" and a != b
        )
        return conflicts % 2 == 0

    def __str__(self):
        return f"{self.phase}{self.letters}"


def parse(text: str) -> PauliString:
    return PauliString.parse(text)


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Exact phase-tracked product a * b."""
    return a * b


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff a*b == b*a; even number of conflicting non-identity slots."""
    return a.commutes(b)


@lru_cache(maxsize=None)
def _letter_matrix(letter: str) -> ComplexMatrix:
    from .exact import GaussianRational

    i = GaussianRational(0, 1)
    table = {
        "I": [[1, 0], [0, 1]],
        "X": [[0, 1], [1, 0]],
        "Y": [[0, -i], [i, 0]],
        "Z": [[1, 0], [0, -1]],
    }
    return ComplexMatrix(table[letter])


@lru_cache(maxsize=4096)
def to_matrix(p: PauliString) -> ComplexMatrix:
    """Dense 2^n exact matrix of the word, phase included."""
    m = _letter_matrix(p.letters[0])
    for letter in p.letters[1:]:
        m = m.kron(_letter_matrix(letter))
    if p.phase.power == 0:
        return m
    return m.scale(p.phase.to_exact())


@lru_cache(maxsize=4096)
def spectral_projection(p: PauliString, eigenvalue: int) -> ComplexMatrix:
    """Projection (I + eigenvalue * p) / 2 onto the ±1 eigenspace.

    Requires a hermitian, non-identity word (so both eigenvalues occur).
    """
    if eigenvalue not in (1, -1):
        raise ValueError(f"eigenvalue must be +1 or -1, got {eigenvalue!r}")
    if not p.is_hermitian:
        raise ValueError(f"{p} is not hermitian (imaginary phase)")
    if p.is_identity_word:
        raise ValueError("identity word is not a two-valued observable")
    m = to_matrix(p)
    if eigenvalue == -1:
        m = -m
    return (ComplexMatrix.identity(m.dim) + m).scale(Fraction(1, 2))


def edge_product(ops: Sequence[PauliString] | Iterable[PauliString]) -> int:
    """Sign s with the ordered product equal to s * identity.

    The inputs must be of equal length and mutually commuting; the result
    is then independent of their order.  Raises ValueError when the
    product is not a signed identity (the set is not a valid hyperedge).
    """
    ops = tuple(ops)
    if not ops:
        raise ValueError("edge_product needs at least one operator")
    n = ops[0].n_qubits
    for op in ops[1:]:
        if op.n_qubits != n:
            raise ValueError(f"length mismatch: {n} vs {op.n_qubits} qubits")
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            if not ops[i].commutes(ops[j]):
                raise ValueError(f"{ops[i]} and {ops[j]} do not commute")
    prod = ops[0]
    for op in ops[1:]:
        prod = prod * op
    if not prod.is_identity_word or not prod.phase.is_real:
        raise ValueError(f"product {prod} is not a signed identity")
    return 1 if prod.phase.power == 0 else -1
