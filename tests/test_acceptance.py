"""Acceptance criteria, one test per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion.  Every tolerance is pinned here: verdict-level checks are exact
(Fraction / exact matrices), state-level checks use 1e-10.
"""

import json
import random
import time
from fractions import Fraction
from itertools import product

from kscheck import catalog
from kscheck.cli import main
from kscheck.graph import admissible_tuples
from kscheck.ontology import (
    factorizes,
    is_noncontextual,
    is_value_definite,
    min_violation_fraction,
    recovers,
    satisfies_spekkens,
    search_ncvd,
)
from kscheck.operational import is_nondisturbing
from kscheck.pauli import LETTERS, PauliString, Phase, edge_product
from kscheck.quantum import born_probability, support_table
from kscheck.realization import classify_type, lemma_pivots, run_type2_argument

from dense_oracle import joint_projection, state_from_projection, to_matrix
from lemma_oracle import enumerate_lemma_sweep


def report(number: int, description: str):
    print(f"ACCEPTANCE {number:02d} PASS  {description}")


def run_cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, f"exit code {code} for {argv}"
    return json.loads(out)


def test_criterion_01_peres_mermin_theorem(capsys):
    start = time.perf_counter()
    doc = run_cli_json(capsys, "verify", "peres-mermin", "--json")
    elapsed = time.perf_counter() - start
    assert doc["verdicts"]["satisfiable"] is False
    assert doc["verdicts"]["assignment_space"] == 512
    assert doc["verdicts"]["witness_count"] == 0
    assert doc["verdicts"]["certificate"] == "parity"
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(1, f"square UNSAT over 512 assignments with parity certificate ({elapsed:.3f}s)")


def test_criterion_02_ghz_theorem(capsys):
    doc = run_cli_json(capsys, "verify", "ghz", "--json")
    assert doc["verdicts"]["satisfiable"] is False
    assert doc["verdicts"]["assignment_space"] == 1024
    assert doc["verdicts"]["certificate"] == "parity"
    report(2, "pentagram UNSAT over 1024 assignments with parity certificate")


def test_criterion_03_edge_signs_exact():
    pm = catalog.peres_mermin_graph()
    assert pm.edge_signs == (1, 1, 1, 1, 1, -1)
    assert pm.edge_signs[catalog.PM_COLUMN_3] == -1
    ghz = catalog.ghz_graph()
    assert ghz.edge_signs == (1, 1, 1, 1, -1)
    assert ghz.edge_signs[catalog.GHZ_HORIZONTAL] == -1
    # symbolic sign equals the exact matrix product's identity factor
    for graph in (pm, ghz):
        for e in range(len(graph.hyperedges)):
            ops = graph.edge_operators(e)
            symbolic = edge_product(ops)
            matrix = to_matrix(ops[0])
            for op in ops[1:]:
                matrix = matrix @ to_matrix(op)
            factor = matrix.scalar_identity_factor()
            assert factor is not None
            assert factor.im == 0 and factor.re == symbolic
    report(3, "edge signs match the exact matrix oracle with zero tolerance")


def test_criterion_04_quantum_support_exact():
    pm = catalog.peres_mermin_graph()
    table = support_table(pm)
    for e in range(6):
        admissible = set(admissible_tuples(pm, e))
        assert set(table.tuples_for(e)) == admissible
        ops = pm.edge_operators(e)
        for combo in product((1, -1), repeat=3):
            projection = joint_projection(ops, combo)
            if combo in admissible:
                assert not projection.is_zero()
            else:
                assert projection.is_zero()
    report(4, "square joint projections vanish exactly outside the admissible tuples")


def test_criterion_05_no_ncvd_model_for_the_square(capsys):
    doc = run_cli_json(
        capsys, "search-model", "peres-mermin", "--realization", "full", "--json"
    )
    assert doc["verdicts"]["satisfiable"] is False
    assert doc["verdicts"]["assignments_checked"] == 512
    report(5, "square operational theory: all 512 deterministic models rejected")


def test_criterion_06_robustness_bound():
    assert min_violation_fraction(catalog.pm_theory("full")) == Fraction(1, 6)
    assert min_violation_fraction(catalog.ghz_theory("full")) == Fraction(1, 5)
    report(6, "minimum violation fractions exactly 1/6 (square) and 1/5 (pentagram)")


def test_criterion_07_type_classification():
    pm = catalog.peres_mermin_graph()
    kind = classify_type(pm, catalog.pm_spin_realization())
    assert kind.kind == "III"
    assert kind.non_comeasurable_edges == (catalog.PM_ROW_3, catalog.PM_COLUMN_3)
    ghz = catalog.ghz_graph()
    kind = classify_type(ghz, catalog.ghz_standard_realization())
    assert kind.kind == "II"
    assert kind.non_comeasurable_edges == (catalog.GHZ_HORIZONTAL,)
    report(7, "spin square is type III {row 3, column 3}; standard pentagram type II {horizontal}")


def test_criterion_08_type2_pipeline():
    ghz = catalog.ghz_graph()
    realization = catalog.ghz_standard_realization()
    admissible = admissible_tuples(ghz, catalog.GHZ_HORIZONTAL)
    assert len(admissible) == 8
    for combo in admissible:
        result = run_type2_argument(ghz, realization, combo)
        assert not result.satisfiable, combo
        assert result.eigenstate_verified
        # the eigenstate pins each horizontal outcome within 1e-10
        rho = state_from_projection(
            joint_projection(ghz.edge_operators(catalog.GHZ_HORIZONTAL), combo)
        )
        for op, value in zip(ghz.edge_operators(catalog.GHZ_HORIZONTAL), combo):
            assert abs(float(born_probability(rho, op, value)) - 1.0) <= 1e-10
    flipped = [c for c in product((1, -1), repeat=4) if c[0] * c[1] * c[2] * c[3] == 1]
    assert len(flipped) == 8
    for combo in flipped:
        result = run_type2_argument(ghz, realization, combo, flip_sign=True)
        assert result.satisfiable, combo
    report(8, "pentagram pipeline UNSAT on all 8 eigenstate tuples, SAT on all 8 controls")


def test_criterion_09_lemma_sweep():
    sweep = enumerate_lemma_sweep(
        catalog.peres_mermin_graph(), pool_limit=12, assoc_limit=2
    )
    assert sweep.n_hyperedge_based > 0
    assert sweep.n_antecedent > 0
    assert sweep.n_antecedent_and_unique == 0
    assert sweep.n_antecedent_and_singly_associated == 0
    assert None not in lemma_pivots(catalog.peres_mermin_graph())
    report(
        9,
        f"lemma sweep: {sweep.n_realizations} realizations, "
        f"{sweep.n_antecedent} antecedent cases, zero unique",
    )


def test_criterion_10_toy_model_separation(box_fixtures):
    m1, m2, m3 = box_fixtures
    assert is_noncontextual(m1.model)[0] and satisfies_spekkens(m1.model, m1.theory)[0]
    assert is_noncontextual(m2.model)[0] and not satisfies_spekkens(m2.model, m2.theory)[0]
    assert not is_noncontextual(m3.model)[0] and satisfies_spekkens(m3.model, m3.theory)[0]
    assert not is_nondisturbing(m3.theory)[0]
    for fixture in (m1, m2, m3):
        ok, witnesses = recovers(fixture.model, fixture.theory)
        assert ok, (fixture.name, witnesses[:2])
    report(10, "box models separate noncontextuality from statistics-equivalence")


def test_criterion_11_property_suites(box_fixtures):
    # (a) symbolic/matrix homomorphism: exhaustive n <= 2, randomized n = 3
    words1 = [
        PauliString(Phase(p), letters)
        for p in range(4)
        for letters in LETTERS
    ]
    for a in words1:
        for b in words1:
            assert to_matrix(a * b) == to_matrix(a) @ to_matrix(b)
    words2 = [
        PauliString(Phase(p), x + y)
        for p in range(4)
        for x in LETTERS
        for y in LETTERS
    ]
    for a in words2:
        for b in words2:
            assert to_matrix(a * b) == to_matrix(a) @ to_matrix(b)
    rng = random.Random(0)
    for _ in range(500):
        a = PauliString(Phase(rng.randrange(4)), "".join(rng.choice(LETTERS) for _ in range(3)))
        b = PauliString(Phase(rng.randrange(4)), "".join(rng.choice(LETTERS) for _ in range(3)))
        assert to_matrix(a * b) == to_matrix(a) @ to_matrix(b)

    # (b) every Born-rule theory is non-disturbing
    for theory in (
        catalog.pm_theory("full"),
        catalog.pm_theory("spin"),
        catalog.ghz_theory("full"),
        catalog.ghz_theory("standard"),
    ):
        ok, witnesses = is_nondisturbing(theory)
        assert ok, witnesses[:2]

    # (c) value-definite and noncontextual implies factorizing
    models = [fixture.model for fixture in box_fixtures]
    sat_model = search_ncvd(box_fixtures[0].theory)
    assert sat_model is not None
    models.append(sat_model)
    for model in models:
        if is_value_definite(model) and is_noncontextual(model)[0]:
            assert factorizes(model)

    # (d) statistics-equivalence implies noncontextuality on non-disturbing fixtures
    for fixture in box_fixtures:
        if is_nondisturbing(fixture.theory)[0] and satisfies_spekkens(
            fixture.model, fixture.theory
        )[0]:
            assert is_noncontextual(fixture.model)[0]
    report(11, "homomorphism, no-disturbance, factorization and implication properties hold")
