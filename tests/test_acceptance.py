"""Acceptance gate: one criterion per test, exact (zero-tolerance)
arithmetic throughout, one printed PASS/FAIL line per criterion."""

import time

import pytest

from quatalg.suites import SUITES

CRITERIA = [
    # (number, suite name, description, runtime bound in seconds or None)
    (1, "invariants",
     "discriminant additivity, 500 seeded forms x 5 fields, exact", 10),
    (2, "trivialize",
     "discriminant trivialization, 100 instances, isometric over the "
     "extension", None),
    (3, "witt",
     "Witt decomposition, all F_3 forms dim <= 6 up to scaling, "
     "exhaustive", 300),
    (4, "local-global",
     "Hasse-Minkowski vs bounded search (200) + Hilbert product formula "
     "(200), exact", None),
    (5, "clifford",
     "dim C(f) = 16 and E(norm form) ~ realization, exhaustive small "
     "fields + rational example", 120),
    (6, "division-equivalence",
     "E(f) division iff f anisotropic, 50 trivial-discriminant forms "
     "over F_3(t)", 60),
    (7, "decompositions",
     "t = t0 + t1 identities + structural identity, 500 instances x 5 "
     "fields", None),
    (8, "links",
     "anticommuting/mixed links in 100 seeded presentations, relations "
     "re-checked", None),
    (9, "chains",
     "100 seeded chains verify within the length bounds", None),
    (10, "common-slot",
     "50 single + 50 tensor common-slot chains + rational beta''=-2", 600),
    (11, "tamper",
     "50 corrupted certificates rejected with named identities", None),
]


@pytest.mark.parametrize("number,name,description,bound",
                         CRITERIA, ids=[c[1] for c in CRITERIA])
def test_acceptance(number, name, description, bound):
    start = time.time()
    ok, detail = SUITES[name]()
    elapsed = time.time() - start
    verdict = "PASS" if ok and (bound is None or elapsed <= bound) else "FAIL"
    print("ACCEPTANCE %2d [%s] %s: %s (%s; %.1fs)"
          % (number, name, description, verdict, detail, elapsed))
    assert ok, "criterion %d (%s): %s" % (number, name, detail)
    if bound is not None:
        assert elapsed <= bound, ("criterion %d (%s) exceeded its runtime "
                                  "bound: %.1fs > %ds"
                                  % (number, name, elapsed, bound))
