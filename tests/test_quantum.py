"""Born-rule layer: probabilities, supports, common eigenbases."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kscheck import catalog
from kscheck.exact import ComplexMatrix, GaussianRational
from kscheck.graph import KSGraph, admissible_tuples, build_graph
from kscheck.ontology import min_violation_fraction
from kscheck.operational import from_quantum
from kscheck.pauli import PauliString, to_matrix
from kscheck.quantum import (
    DensityOperator,
    born_probability,
    common_eigenbasis,
    is_operational_eigenstate,
    joint_born_probability,
    joint_distribution,
    joint_projection,
    support_table,
)
from kscheck.realization import Realization, run_type2_argument

P = PauliString.parse


@pytest.fixture(scope="module")
def z00():
    return catalog.pm_states()["z00"]


@pytest.fixture(scope="module")
def ghz_state():
    return catalog.ghz_states()["ghz"]


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityOperator(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_state_vector_normalizes(self):
        rho = DensityOperator.from_state_vector([2.0, 0.0])
        assert abs(rho.matrix[0, 0] - 1.0) < 1e-12

    def test_projection_state(self):
        rho = DensityOperator.from_projection(ComplexMatrix.identity(4))
        assert rho.exact is not None
        assert rho.exact.trace().re == 1


class TestBornProbability:
    def test_eigenstate_is_certain(self, z00):
        assert born_probability(z00, P("ZI"), 1) == 1

    def test_maximally_mixed_is_uniform(self):
        rho = DensityOperator.maximally_mixed(2)
        assert born_probability(rho, P("Z"), 1) == Fraction(1, 2)

    def test_plus_basis_on_z_eigenstate(self):
        rho = DensityOperator.from_exact(ComplexMatrix([[1, 0], [0, 0]]))
        assert born_probability(rho, P("X"), 1) == Fraction(1, 2)

    def test_complementary_probabilities_sum_to_one(self, z00):
        for op in ("ZI", "XX", "YY", "ZX"):
            total = born_probability(z00, P(op), 1) + born_probability(z00, P(op), -1)
            assert abs(float(total) - 1.0) < 1e-12

    def test_float_state_matches_exact(self):
        exact = DensityOperator.maximally_mixed(4)
        floating = DensityOperator(exact.matrix.copy())
        assert floating.exact is None
        for op in ("ZI", "XX"):
            assert abs(
                float(born_probability(exact, P(op), 1))
                - born_probability(floating, P(op), 1)
            ) < 1e-12

    def test_dimension_mismatch(self, z00):
        with pytest.raises(ValueError):
            born_probability(z00, P("Z"), 1)


class TestJointBornProbability:
    def test_row_one_uniform_on_mixed(self, pm_graph):
        rho = DensityOperator.maximally_mixed(4)
        ops = pm_graph.edge_operators(0)
        assert joint_born_probability(rho, ops, (1, 1, 1)) == Fraction(1, 4)

    def test_vanishes_outside_admissible(self, pm_graph, z00):
        ops = pm_graph.edge_operators(catalog.PM_COLUMN_3)
        for rho in (DensityOperator.maximally_mixed(4), z00):
            for combo in product((1, -1), repeat=3):
                if combo[0] * combo[1] * combo[2] == 1:
                    assert joint_born_probability(rho, ops, combo) == 0

    def test_ghz_state_pins_horizontal_edge(self, ghz_graph, ghz_state):
        ops = ghz_graph.edge_operators(catalog.GHZ_HORIZONTAL)
        assert joint_born_probability(ghz_state, ops, (1, -1, -1, -1)) == 1

    def test_marginal_reproduces_single(self, pm_graph, z00):
        ops = pm_graph.edge_operators(0)
        total = sum(
            joint_born_probability(z00, ops, (1, j, k))
            for j in (1, -1)
            for k in (1, -1)
        )
        assert total == born_probability(z00, ops[0], 1)

    def test_rejects_noncommuting(self):
        rho = DensityOperator.maximally_mixed(2)
        with pytest.raises(ValueError):
            joint_born_probability(rho, (P("X"), P("Z")), (1, 1))

    def test_order_independent(self, pm_graph, z00):
        ops = pm_graph.edge_operators(0)
        assert joint_born_probability(z00, ops, (1, 1, 1)) == joint_born_probability(
            z00, ops[::-1], (1, 1, 1)
        )


class TestNoDisturbanceAtQuantumLevel:
    def test_sum_over_partner_equals_marginal(self, pm_graph):
        states = [
            DensityOperator.maximally_mixed(4),
            catalog.pm_states()["z00"],
        ]
        for edge in range(6):
            ops = pm_graph.edge_operators(edge)
            for a in range(3):
                for b in range(3):
                    if a == b:
                        continue
                    for rho in states:
                        for i in (1, -1):
                            total = sum(
                                joint_born_probability(rho, (ops[a], ops[b]), (i, j))
                                for j in (1, -1)
                            )
                            direct = born_probability(rho, ops[a], i)
                            assert abs(float(total) - float(direct)) < 1e-12


class TestSupportTable:
    def test_square_matches_admissible_everywhere(self, pm_graph):
        table = support_table(pm_graph)
        for e in range(6):
            assert set(table.tuples_for(e)) == set(admissible_tuples(pm_graph, e))
            # brute force over all 8 tuples: zero operator outside, nonzero inside
            ops = pm_graph.edge_operators(e)
            for combo in product((1, -1), repeat=3):
                projection = joint_projection(ops, combo)
                assert projection.is_zero() == (combo not in table.tuples_for(e))

    def test_pentagram_eight_per_edge(self, ghz_graph):
        table = support_table(ghz_graph)
        for e in range(5):
            assert len(table.tuples_for(e)) == 8
            assert set(table.tuples_for(e)) == set(admissible_tuples(ghz_graph, e))

    def test_reconstruction_sums_to_identity(self, pm_graph, ghz_graph):
        for graph in (pm_graph, ghz_graph):
            table = support_table(graph)
            for e in range(len(graph.hyperedges)):
                ops = graph.edge_operators(e)
                dim = 2 ** ops[0].n_qubits
                total = ComplexMatrix.zeros(dim)
                for combo in table.tuples_for(e):
                    total = total + joint_projection(ops, combo)
                assert total == ComplexMatrix.identity(dim)


class TestCommonEigenbasis:
    def test_single_z(self):
        basis = common_eigenbasis([P("Z")])
        assert [t for _, t in basis] == [(1,), (-1,)]
        np.testing.assert_allclose(np.abs(basis[0][0]), [1, 0], atol=1e-12)
        np.testing.assert_allclose(np.abs(basis[1][0]), [0, 1], atol=1e-12)

    def test_square_row_has_four_states(self, pm_graph):
        ops = pm_graph.edge_operators(0)
        basis = common_eigenbasis(ops)
        assert len(basis) == 4
        tuples = {t for _, t in basis}
        assert tuples == set(admissible_tuples(pm_graph, 0))

    def test_pentagram_horizontal_has_eight_onedim_spaces(self, ghz_graph):
        ops = ghz_graph.edge_operators(catalog.GHZ_HORIZONTAL)
        basis = common_eigenbasis(ops)
        assert len(basis) == 8
        for _, t in basis:
            value = 1
            for x in t:
                value *= x
            assert value == -1

    def test_vectors_orthonormal_and_eigen(self, pm_graph):
        ops = pm_graph.edge_operators(catalog.PM_COLUMN_3)
        basis = common_eigenbasis(ops)
        vectors = np.array([v for v, _ in basis])
        gram = vectors.conj() @ vectors.T
        np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-10)
        for vector, outcomes in basis:
            for op, eigenvalue in zip(ops, outcomes):
                m = to_matrix(op).to_numpy()
                assert np.linalg.norm(m @ vector - eigenvalue * vector) < 1e-10

    def test_rejects_noncommuting(self):
        with pytest.raises(ValueError):
            common_eigenbasis([P("X"), P("Z")])


class TestOperationalEigenstate:
    def test_common_eigenstate_of_its_own_edge(self, ghz_graph, ghz_state):
        ops = ghz_graph.edge_operators(catalog.GHZ_HORIZONTAL)
        assert is_operational_eigenstate(ghz_state, ops)

    def test_mixed_state_is_not(self, pm_graph):
        rho = DensityOperator.maximally_mixed(4)
        assert not is_operational_eigenstate(rho, pm_graph.edge_operators(0))

    def test_product_state_for_first_row(self, pm_graph, z00):
        assert is_operational_eigenstate(z00, pm_graph.edge_operators(0))


# -- the Pauli expansion against the dense Q[i] oracle ----------------------------


@st.composite
def commuting_words(draw):
    """1-4 mutually commuting hermitian non-identity words on 1-3 qubits.

    Repeats and negated repeats are allowed; they give empty projections.
    """
    n = draw(st.integers(1, 3))
    words = st.text("IXYZ", min_size=n, max_size=n).filter(lambda t: set(t) != {"I"})
    ops = []
    for _ in range(draw(st.integers(1, 4))):
        op = P(draw(st.sampled_from("+-")) + draw(words))
        if all(op.commutes(other) for other in ops):
            ops.append(op)
    return tuple(ops)


@st.composite
def exact_states(draw, n_qubits):
    """A random mixture of 1-3 Gaussian-integer vectors, normalized."""
    dim = 2**n_qubits
    entry = st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2))
    vectors = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=1, max_size=3))
    rows = [
        [sum((v[i] * v[j].conjugate() for v in vectors), GaussianRational(0)) for j in range(dim)]
        for i in range(dim)
    ]
    trace = sum(rows[i][i].re for i in range(dim))
    assume(trace > 0)
    return DensityOperator.from_exact(ComplexMatrix(rows).scale(Fraction(1) / trace))


class TestPauliExpansionOracle:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_distribution_matches_dense_products(self, data):
        ops = data.draw(commuting_words())
        rho = data.draw(exact_states(ops[0].n_qubits))
        floating = DensityOperator(rho.matrix.copy())
        exact_dist = joint_distribution(rho, ops)
        float_dist = joint_distribution(floating, ops)
        assert list(exact_dist) == list(product((1, -1), repeat=len(ops)))
        for combo, p in exact_dist.items():
            projection = joint_projection(ops, combo)
            expected = rho.exact.trace_product(projection)
            assert expected.im == 0
            assert isinstance(p, Fraction) and p == expected.re
            dense = np.trace(floating.matrix @ projection.to_numpy()).real
            assert isinstance(float_dist[combo], float)
            assert abs(float_dist[combo] - dense) < 1e-12
        combo = data.draw(st.sampled_from(list(exact_dist)))
        assert joint_born_probability(rho, ops, combo) == exact_dist[combo]
        assert born_probability(rho, ops[0], combo[0]) == sum(
            p for c, p in exact_dist.items() if c[0] == combo[0]
        )

    @given(commuting_words())
    @settings(max_examples=60, deadline=None)
    def test_supports_and_projections_match_dense_products(self, ops):
        graph = KSGraph(
            vertices=tuple((f"v{k}", op) for k, op in enumerate(ops)),
            hyperedges=(tuple(range(len(ops))),),
            edge_signs=(1,),
        )
        allowed = support_table(graph).tuples_for(0)
        for combo in product((1, -1), repeat=len(ops)):
            projection = joint_projection(ops, combo)
            assert (combo in allowed) == (not projection.is_zero())
            if projection.is_zero():
                with pytest.raises(ValueError):
                    DensityOperator.from_eigenspace(ops, combo)
                continue
            pinned = DensityOperator.from_eigenspace(ops, combo)
            assert pinned.exact.scale(projection.trace()) == projection
            oracle = DensityOperator.from_projection(projection)
            assert pinned.exact == oracle.exact
            assert np.array_equal(pinned.matrix, oracle.matrix)
            assert joint_distribution(pinned, ops) == joint_distribution(
                DensityOperator.from_exact(oracle.exact), ops
            )
            assert is_operational_eigenstate(pinned, ops)

    def test_maximally_mixed_matches_scaled_identity(self):
        rho = DensityOperator.maximally_mixed(8)
        assert rho.exact == ComplexMatrix.identity(8).scale(Fraction(1, 8))
        assert np.array_equal(rho.matrix, rho.exact.to_numpy())

    def test_checks_kept(self, z00):
        with pytest.raises(ValueError):
            joint_distribution(z00, (P("XI"), P("ZI")))
        with pytest.raises(ValueError):
            joint_distribution(z00, (P("II"),))
        with pytest.raises(ValueError):
            joint_distribution(z00, (P("iZI"),))
        with pytest.raises(ValueError):
            joint_distribution(z00, (P("Z"),))
        with pytest.raises(ValueError):
            born_probability(z00, P("ZI"), 0)
        with pytest.raises(ValueError):
            joint_born_probability(z00, (P("ZI"), P("IZ")), (1,))


def _padded_pentagram(n_qubits: int, positions: tuple[int, int, int]):
    vertices = []
    for label, word in catalog.GHZ_VERTICES:
        letters = ["I"] * n_qubits
        for q, letter in zip(positions, word):
            letters[q] = letter
        vertices.append((label, "".join(letters)))
    graph = build_graph(vertices, catalog.GHZ_EDGES)
    singles = [{label} for label in graph.labels]
    edges = [graph.edge_labels(e) for e in range(len(graph.hyperedges))]
    full = Realization.build(singles, edges)
    standard = Realization.build(singles, edges[: catalog.GHZ_HORIZONTAL])
    return graph, full, standard


class TestPaddedPentagramKnownAnswer:
    def test_six_qubits_without_dense_products(self, monkeypatch):
        def dense(*args):
            raise AssertionError("dense Q[i] product on the verdict path")

        for name in ("__matmul__", "kron", "trace_product"):
            monkeypatch.setattr(ComplexMatrix, name, dense)
        graph, full, standard = _padded_pentagram(6, (1, 3, 4))
        states = {
            "mixed": DensityOperator.maximally_mixed(64),
            "ghz": DensityOperator.from_eigenspace(
                graph.edge_operators(catalog.GHZ_HORIZONTAL), (1, 1, 1, -1)
            ),
        }
        theory = from_quantum(graph, states, full)
        assert min_violation_fraction(theory) == Fraction(1, 5)
        result = run_type2_argument(graph, standard, (1, 1, 1, -1))
        assert result.satisfiable is False
        assert result.eigenstate_verified is True
        assert result.pinned_edge == catalog.GHZ_HORIZONTAL
