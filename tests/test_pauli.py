"""Symbolic Pauli algebra against the exact matrix oracle."""

import random
import re
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kscheck.pauli import (
    LETTERS,
    MAX_QUBITS,
    PauliString,
    Phase,
    all_commute,
    check_commuting,
    commutation_masks,
    commutes,
    edge_product,
    multiply,
)

from dense_oracle import ComplexMatrix, GaussianRational, spectral_projection, to_matrix

P = PauliString.parse


def all_words(n, phases=(0,)):
    for power in phases:
        for letters in product(LETTERS, repeat=n):
            yield PauliString(Phase(power), "".join(letters))


def letter_product(a: str, b: str) -> tuple[int, str]:
    """Single-qubit product a * b as (i-power, letter), from the cyclic rule
    XY = iZ, YZ = iX, ZX = iY."""
    if a == "I":
        return 0, b
    if b == "I":
        return 0, a
    if a == b:
        return 0, "I"
    ia, ib = "XYZ".index(a), "XYZ".index(b)
    return (1 if (ib - ia) % 3 == 1 else 3), "XYZ"[3 - ia - ib]


def letter_table_multiply(a: PauliString, b: PauliString) -> PauliString:
    """The product letter by letter: the table the symplectic masks replaced."""
    power = a.phase.power + b.phase.power
    letters = []
    for x, y in zip(a.letters, b.letters):
        p, c = letter_product(x, y)
        power += p
        letters.append(c)
    return PauliString(Phase(power), "".join(letters))


def random_word(rng, n):
    return PauliString(Phase(rng.randrange(4)), "".join(rng.choice(LETTERS) for _ in range(n)))


class TestParsing:
    @pytest.mark.parametrize(
        "text,power,letters",
        [
            ("+ZZ", 0, "ZZ"),
            ("ZZ", 0, "ZZ"),
            ("-iXY", 3, "XY"),
            ("iX", 1, "X"),
            ("+XXX", 0, "XXX"),
            ("-Y", 2, "Y"),
        ],
    )
    def test_parse(self, text, power, letters):
        p = P(text)
        assert p.phase == Phase(power)
        assert p.letters == letters

    def test_print_round_trip(self):
        for p in all_words(2, phases=(0, 1, 2, 3)):
            assert P(str(p)) == p

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            P("+ZQ")
        with pytest.raises(ValueError):
            P("")
        with pytest.raises(ValueError):
            P("-i")

    def test_qubit_cap(self):
        PauliString(Phase(0), "I" * MAX_QUBITS)
        with pytest.raises(ValueError):
            PauliString(Phase(0), "I" * (MAX_QUBITS + 1))


class TestMultiply:
    def test_single_qubit_table(self):
        assert multiply(P("X"), P("Y")) == P("iZ")
        assert multiply(P("Y"), P("X")) == P("-iZ")
        assert P("Y") * P("Z") == P("iX")
        assert P("Z") * P("X") == P("iY")
        assert P("Z") * P("Z") == P("I")

    def test_two_qubit_example_against_oracle(self):
        prod = P("ZZ") * P("XX")
        assert prod == P("-YY")
        assert to_matrix(prod) == to_matrix(P("ZZ")) @ to_matrix(P("XX"))

    def test_identity_neutral(self):
        for p in all_words(2, phases=(0, 1, 2, 3)):
            assert P("II") * p == p
            assert p * P("II") == p

    def test_square_of_hermitian_word_is_identity(self):
        for p in all_words(2, phases=(0, 2)):
            assert p * p == P("II")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            P("X") * P("XX")

    def test_homomorphism_exhaustive_single_qubit(self):
        words = list(all_words(1, phases=(0, 1, 2, 3)))
        for a in words:
            for b in words:
                assert to_matrix(a * b) == to_matrix(a) @ to_matrix(b)

    def test_matches_letter_table_on_all_small_words(self):
        for n in (1, 2):
            words = list(all_words(n, phases=(0, 1, 2, 3)))
            for a in words:
                for b in words:
                    assert a * b == letter_table_multiply(a, b)

    def test_matches_letter_table_on_random_wide_words(self):
        rng = random.Random(90210)
        for _ in range(5000):
            n = rng.randint(1, MAX_QUBITS)
            a, b = random_word(rng, n), random_word(rng, n)
            assert a * b == letter_table_multiply(a, b)
            # words commute iff an even number of slots hold two different non-I letters
            conflicts = sum(x != "I" and y != "I" and x != y for x, y in zip(a.letters, b.letters))
            assert commutes(a, b) == (conflicts % 2 == 0)

    def test_homomorphism_random_larger_words(self):
        rng = random.Random(20240811)
        for n in (3, 4):
            for _ in range(150):
                a = PauliString(
                    Phase(rng.randrange(4)),
                    "".join(rng.choice(LETTERS) for _ in range(n)),
                )
                b = PauliString(
                    Phase(rng.randrange(4)),
                    "".join(rng.choice(LETTERS) for _ in range(n)),
                )
                assert to_matrix(a * b) == to_matrix(a) @ to_matrix(b)


class TestCommutes:
    def test_shared_line_pairs_commute(self):
        # same row or same column of the two-qubit square
        assert commutes(P("ZI"), P("IZ"))
        assert commutes(P("ZI"), P("ZZ"))

    def test_off_line_pair_anticommutes(self):
        assert not commutes(P("ZI"), P("XI"))

    def test_commuting_but_not_comeasurable_pairs(self):
        # the two famous commuting pairs that no joint procedure measures
        assert commutes(P("XZ"), P("ZX"))
        assert commutes(P("XXX"), P("YYX"))

    def test_self_commutes(self):
        for p in all_words(2):
            assert commutes(p, p)

    def test_matches_matrix_commutator_exhaustively(self):
        for n in (1, 2):
            words = list(all_words(n))
            for a in words:
                for b in words:
                    ma, mb = to_matrix(a), to_matrix(b)
                    assert commutes(a, b) == (ma @ mb == mb @ ma)

    def test_matches_matrix_commutator_random_three_qubit(self):
        rng = random.Random(13)
        for _ in range(1000):
            a = PauliString(Phase(0), "".join(rng.choice(LETTERS) for _ in range(3)))
            b = PauliString(Phase(0), "".join(rng.choice(LETTERS) for _ in range(3)))
            ma, mb = to_matrix(a), to_matrix(b)
            assert commutes(a, b) == (ma @ mb == mb @ ma)


class TestCommutationMasks:
    def test_mask_table_and_pair_check_match_matrix_commutators(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 3)
            ops = [random_word(rng, n) for _ in range(rng.randint(1, 6))]
            matrices = [to_matrix(op) for op in ops]
            clashes = [
                (a, b)
                for a, b in combinations(range(len(ops)), 2)
                if matrices[a] @ matrices[b] != matrices[b] @ matrices[a]
            ]
            masks = commutation_masks(ops)
            for members in range(1 << len(ops)):
                expected = not any(members >> a & 1 and members >> b & 1 for a, b in clashes)
                assert all_commute(masks, members) == expected
            if clashes:
                a, b = clashes[0]
                with pytest.raises(ValueError, match=f"^{re.escape(f'{ops[a]} and {ops[b]}')}"):
                    check_commuting(ops)
            else:
                check_commuting(ops)


class TestToMatrix:
    def test_standard_single_matrices(self):
        assert to_matrix(P("Z")) == ComplexMatrix([[1, 0], [0, -1]])
        i = GaussianRational(0, 1)
        assert to_matrix(P("iX")) == ComplexMatrix([[0, i], [i, 0]])

    def test_two_qubit_kron(self):
        assert to_matrix(P("ZZ")) == ComplexMatrix(
            [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
        )

    def test_entries_limited_to_units(self):
        allowed = {
            GaussianRational(0),
            GaussianRational(1),
            GaussianRational(-1),
            GaussianRational(0, 1),
            GaussianRational(0, -1),
        }
        for p in all_words(2, phases=(0, 1, 2, 3)):
            assert {v for row in to_matrix(p).rows for v in row} <= allowed


class TestSpectralProjection:
    def test_z_plus(self):
        assert spectral_projection(P("Z"), 1) == ComplexMatrix([[1, 0], [0, 0]])

    def test_x_plus_is_uniform(self):
        half = Fraction(1, 2)
        assert spectral_projection(P("X"), 1) == ComplexMatrix(
            [[half, half], [half, half]]
        )

    def test_zz_minus_from_oracle(self):
        assert spectral_projection(P("ZZ"), -1) == ComplexMatrix(
            [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]
        )

    def test_projection_identities(self):
        for p in (P("Z"), P("XX"), P("YY"), P("ZX")):
            plus = spectral_projection(p, 1)
            minus = spectral_projection(p, -1)
            eye = ComplexMatrix.identity(plus.dim)
            assert plus + minus == eye
            assert plus @ plus == plus
            assert minus @ minus == minus
            assert plus.is_hermitian() and minus.is_hermitian()
            m = to_matrix(p)
            assert m @ plus == plus
            assert m @ minus == minus.scale(-1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            spectral_projection(P("iX"), 1)
        with pytest.raises(ValueError):
            spectral_projection(P("II"), 1)
        with pytest.raises(ValueError):
            spectral_projection(P("Z"), 2)


class TestEdgeProduct:
    def test_third_column_of_the_square(self):
        assert edge_product([P("ZZ"), P("XX"), P("YY")]) == -1

    def test_first_row_of_the_square(self):
        assert edge_product([P("ZI"), P("IZ"), P("ZZ")]) == 1

    def test_pentagram_horizontal_edge_against_oracle(self):
        ops = [P("XXX"), P("YYX"), P("YXY"), P("XYY")]
        assert edge_product(ops) == -1
        matrix = to_matrix(ops[0])
        for op in ops[1:]:
            matrix = matrix @ to_matrix(op)
        assert matrix.scalar_identity_factor() == GaussianRational(-1)

    def test_rejects_noncommuting(self):
        with pytest.raises(ValueError):
            edge_product([P("X"), P("Z")])

    def test_rejects_non_identity_product(self):
        with pytest.raises(ValueError, match=r"product \+ZZ is not a signed identity"):
            edge_product([P("ZI"), P("IZ")])

    def test_names_the_first_noncommuting_pair(self):
        # (ZI, IZ) commute, (ZI, XX) is the first pair that does not
        with pytest.raises(ValueError, match=r"^\+ZI and \+XX do not commute$"):
            edge_product([P("ZI"), P("IZ"), P("XX"), P("XZ")])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch: 2 vs 3 qubits"):
            edge_product([P("ZZ"), P("ZZZ")])

    @given(st.permutations([0, 1, 2]))
    @settings(max_examples=6, deadline=None)
    def test_order_invariance_square_edges(self, order):
        rows = [
            [P("ZI"), P("IZ"), P("ZZ")],
            [P("ZZ"), P("XX"), P("YY")],
        ]
        for ops in rows:
            reordered = [ops[k] for k in order]
            assert edge_product(reordered) == edge_product(ops)

    def test_order_invariance_pentagram(self):
        ops = [P("XXX"), P("YYX"), P("YXY"), P("XYY")]
        for order in permutations(range(4)):
            assert edge_product([ops[k] for k in order]) == -1
