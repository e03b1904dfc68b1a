"""Hidden-variable models for a box of balls, and the robustness bound.

Drawing a ball and checking its color or size is as classical as it gets,
yet the three box models separate two conditions that are often run
together: noncontextuality (responses ignore what is co-measured) and
statistics-equivalence (equal statistics in every preparation force equal
responses in every ontic state).  The same machinery then quantifies how
noisy an experiment on the square may be before the no-go claim evaporates.
"""

from kscheck import (
    classify_model,
    is_nondisturbing,
    min_violation_fraction,
    search_ncvd,
)
from kscheck.boxes import army_theory, box_m1, box_m2, box_m3
from kscheck.catalog import ghz_theory, pm_theory


def main():
    print("model verdicts (VD=value-definite, NC=noncontextual, F=factorizing,")
    print("SE=statistics-equivalence respected, R=recovers its theory):")
    for fixture in (box_m1(), box_m2(), box_m3()):
        verdict = classify_model(fixture.model, fixture.theory)
        nondist, _ = is_nondisturbing(fixture.theory)
        flags = (
            f"VD={verdict.value_definite.ok} NC={verdict.noncontextual.ok} "
            f"F={verdict.factorizing.ok} SE={verdict.spekkens.ok} "
            f"R={verdict.recovers_theory.ok}"
        )
        print(f"  {fixture.name}: {flags}  (theory non-disturbing: {nondist})")
        print(f"    {fixture.note}")

    print("\ncomeasurable yet disturbing (the two army tests):")
    ok, witnesses = is_nondisturbing(army_theory())
    print(f"  non-disturbing: {ok}")
    for w in witnesses[:2]:
        print(f"    p({w.outcomes} | {w.sub_joint}) is {w.value_a} alone "
              f"but {w.value_b} inside {max(w.source_a, w.source_b, key=len)}")

    print("\nmodel existence for the box vs. the square:")
    box = box_m1().theory
    model = search_ncvd(box)
    print(f"  box theory: {len(model.ontic_states)} deterministic models, e.g. "
          f"{model.ontic_states[0]!r}")
    square = pm_theory("full")
    print(f"  square theory: {search_ncvd(square)} (no model exists)")

    print("\nhow much noise the no-go verdicts tolerate:")
    print(f"  square: best assignment violates {min_violation_fraction(square)} of the lines")
    print(f"  pentagram: {min_violation_fraction(ghz_theory('full'))}")
    print("  an experiment bounding the out-of-support rate below these")
    print("  fractions rules the models out even with imperfect statistics")


if __name__ == "__main__":
    main()
