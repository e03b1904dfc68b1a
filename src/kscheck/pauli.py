"""Phase-tracked Pauli words and their one algebra, symplectic masks.

A word is stored and printed as a phase in {+1, -1, +i, -i} and a letter
per qubit from {I, X, Y, Z}; the letters are storage and text only.  The
algebra is ``PauliString.symplectic``, an x mask, a z mask and an i-power
(Aaronson and Gottesman, PRA 70, 052328, 2004): products, commutation,
signed identities, the shared checks below, and the Born-rule sweeps,
which read the word as P[c ^ x][c] = i**power * (-1)**popcount(c & z).
No dense matrix of a word is ever built.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .values import Frozen

# Born tables sweep O(2^n) entries per Pauli product and a state holds up to
# 4^n of them; all shipped scenarios need <= 3.
MAX_QUBITS = 8

LETTERS = "IXYZ"

_PHASE_STR = {0: "+", 1: "+i", 2: "-", 3: "-i"}


class Phase(Frozen):
    """A global phase i**power with power in {0, 1, 2, 3}."""

    _fields = ("power",)

    def __init__(self, power: int):
        self._set(power % 4)

    def __mul__(self, other: "Phase") -> "Phase":
        return Phase(self.power + other.power)

    @property
    def is_real(self) -> bool:
        return self.power % 2 == 0

    def value(self) -> complex:
        return 1j**self.power

    def __str__(self):
        return _PHASE_STR[self.power]


PLUS = Phase(0)


class Symplectic(NamedTuple):
    """A Pauli word as bitmasks: P[c ^ x][c] = i**power * (-1)**popcount(c & z).

    The word is i**power * X^x Z^z, with bit n-1-k of each mask standing for
    qubit k, so that matrix indices read qubit 0 as the most significant bit,
    the Kronecker-product order.
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

    def commutes(self, other: "Symplectic") -> bool:
        # the two orders differ by (-1)**(popcount(x1 & z2) + popcount(z1 & x2))
        return ((self.x & other.z).bit_count() + (self.z & other.x).bit_count()) % 2 == 0


SYMPLECTIC_IDENTITY = Symplectic(0, 0, 0)

# letter -> (x bit, z bit, i-power); Y = iXZ
_LETTER_BITS = {"I": (0, 0, 0), "X": (1, 0, 0), "Y": (1, 1, 1), "Z": (0, 1, 0)}


class PauliString(Frozen):
    """Phase-tracked tensor word over {I, X, Y, Z}."""

    _fields = ("phase", "letters")

    def __init__(self, phase: Phase, letters: str):
        if not letters:
            raise ValueError("Pauli word needs at least one qubit")
        if len(letters) > MAX_QUBITS:
            raise ValueError(
                f"{len(letters)} qubits exceeds the configured cap of {MAX_QUBITS}"
            )
        bad = set(letters) - set(LETTERS)
        if bad:
            raise ValueError(f"invalid Pauli letters: {sorted(bad)}")
        self._set(phase, letters)

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
        _check_lengths((self, other))
        return _from_symplectic(self.symplectic * other.symplectic, self.n_qubits)

    def commutes(self, other: "PauliString") -> bool:
        _check_lengths((self, other))
        return self.symplectic.commutes(other.symplectic)

    def __str__(self):
        return f"{self.phase}{self.letters}"


def _from_symplectic(word: Symplectic, n_qubits: int) -> PauliString:
    """The n-qubit word with these masks; each Y gives back its i, as XZ = -iY."""
    letters = "".join(
        "IZXY"[2 * (word.x >> k & 1) + (word.z >> k & 1)] for k in reversed(range(n_qubits))
    )
    return PauliString(Phase(word.power - (word.x & word.z).bit_count()), letters)


def _check_lengths(ops: Sequence[PauliString]) -> None:
    n = ops[0].n_qubits
    for op in ops[1:]:
        if op.n_qubits != n:
            raise ValueError(f"length mismatch: {n} vs {op.n_qubits} qubits")


def check_two_valued(op: PauliString) -> None:
    """Raise ValueError unless op is hermitian and not ±I, so that it has
    both eigenvalues +1 and -1."""
    if not op.is_hermitian or op.is_identity_word:
        raise ValueError(f"{op} is not a two-valued hermitian observable")


def check_commuting(ops: Sequence[PauliString]) -> None:
    """Raise ValueError naming the first pair of ops that does not commute."""
    _check_lengths(ops)
    words = [op.symplectic for op in ops]
    for i, word in enumerate(words):
        for j in range(i + 1, len(words)):
            if not word.commutes(words[j]):
                raise ValueError(f"{ops[i]} and {ops[j]} do not commute")


def commutation_masks(ops: Sequence[PauliString]) -> list[int]:
    """Bit j of entry i is set iff ops[i] and ops[j] commute (bit i always is)."""
    _check_lengths(ops)
    words = [op.symplectic for op in ops]
    return [sum(1 << j for j, other in enumerate(words) if word.commutes(other)) for word in words]


def all_commute(masks: Sequence[int], members: int) -> bool:
    """True iff the words at the set bits of members commute pairwise, read
    from a ``commutation_masks`` table."""
    rest = members
    while rest:
        low = rest & -rest
        if members & ~masks[low.bit_length() - 1]:
            return False
        rest ^= low
    return True


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Exact phase-tracked product a * b."""
    return a * b


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff a*b == b*a; see ``Symplectic.commutes``."""
    return a.commutes(b)


def edge_product(ops: Sequence[PauliString] | Iterable[PauliString]) -> int:
    """Sign s with the ordered product equal to s * identity.

    The inputs must be of equal length and mutually commuting; the result
    is then independent of their order.  Raises ValueError when the
    product is not a signed identity (the set is not a valid hyperedge).
    """
    ops = tuple(ops)
    if not ops:
        raise ValueError("edge_product needs at least one operator")
    check_commuting(ops)
    product = SYMPLECTIC_IDENTITY
    for op in ops:
        product = product * op.symplectic
    if not product.is_scalar or product.power % 2:
        raise ValueError(
            f"product {_from_symplectic(product, ops[0].n_qubits)} is not a signed identity"
        )
    return 1 - product.power
