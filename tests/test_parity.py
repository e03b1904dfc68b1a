"""The GF(2) solver against a scan of every assignment."""

import json
import random
import subprocess
import sys
from itertools import product

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kscheck.parity import first_solution, least_violated, solutions


def brute_force(n, rows):
    """(the solutions in ``itertools.product`` order, the least number of
    rows any assignment violates), from all 2^n assignments."""
    found, least = [], len(rows)
    for values in product((1, -1), repeat=n):
        x = sum(1 << v for v, s in enumerate(values) if s < 0)
        violated = sum((mask & x).bit_count() % 2 != rhs for mask, rhs in rows)
        if not violated:
            found.append(values)
        least = min(least, violated)
    return found, least


@st.composite
def systems(draw):
    n = draw(st.integers(0, 10))
    row = st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, 1))
    rows = draw(st.lists(row, max_size=12))
    # repeat some rows, so that elimination meets dependent ones
    rows += draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []
    return n, rows


@settings(max_examples=300, deadline=None)
@given(systems())
@example((0, []))
@example((0, [(0, 1)]))
@example((3, [(0, 1), (0b101, 0)]))
@example((4, [(0b0110, 0), (0b0110, 0), (0b1111, 0)]))
@example((4, [(0b0011, 1), (0b0011, 0)]))
def test_matches_scan_of_every_assignment(system):
    n, rows = system
    found, least = brute_force(n, rows)
    assert list(solutions(n, rows)) == found
    assert first_solution(n, rows) == (found[0] if found else None)
    assert least_violated(n, rows) == least
    assert (least == 0) == bool(found)


def test_least_violated_past_the_table():
    # unit rows on 12 variables give the incidence matrix rank 12, so the
    # walk goes two basis vectors past the ten it tables
    rng = random.Random(5)
    n = 12
    rows = [(1 << v, rng.randrange(2)) for v in range(n)]
    rows += [(rng.randrange(1, 1 << n), rng.randrange(2)) for _ in range(10)]
    found, least = brute_force(n, rows)
    assert not found and least > 0
    assert least_violated(n, rows) == least
    assert solutions(n, rows) == ()
    assert first_solution(n, rows) is None


def test_import_loads_no_other_kscheck_module(child_env):
    script = (
        "import json, sys; import kscheck.parity; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('kscheck'))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=child_env(), capture_output=True, text=True, check=True
    )
    assert json.loads(done.stdout) == ["kscheck", "kscheck.parity"]
