#!/usr/bin/env python3
"""Sweep the numeric and finite-set models over seeds and sizes.

Covers the matrix checks on a seed x dimension grid and at the largest
dimensions they accept, the copower comparison map for both functor
families, and the atom scan for small exponents.
Prints one row per case; exits nonzero if anything lands out of tolerance.
"""

from commuter.finset import FinSetObj, PowerS, TimesS, atom_strong_check, canonical_alpha
from commuter.matrix import check_theorem1_numeric, check_theorem3_numeric

SEEDS = (42, 43, 44)
MAX_DIM = 3


def main():
    dims = [(a, x) for a in range(2, MAX_DIM + 1) for x in range(2, MAX_DIM + 1)]
    bad = 0

    print("== matrix: random alpha, mate, inverse residuals ==")
    for seed in SEEDS:
        for (da, dx) in dims:
            r = check_theorem1_numeric(da, dx, seed)
            flag = "ok" if r.ok else "FAIL"
            print(f"  seed={seed} A={da} X={dx} worst={r.worst():.3e} {flag}")
            bad += not r.ok

    print("== matrix: flip instantiation, exact residuals ==")
    for (dn, dx) in dims:
        r = check_theorem3_numeric(dn, dx)
        flag = "ok" if r.ok and r.worst() == 0.0 else "FAIL"
        print(f"  N={dn} X={dx} worst={r.worst():.1e} {flag}")
        bad += flag != "ok"

    print("== matrix: both checks at the size bound, n^3 * x <= 1000 ==")
    for n in range(1, 11):
        dx = 1000 // n**3
        r1 = check_theorem1_numeric(n, dx, SEEDS[0])
        r3 = check_theorem3_numeric(n, dx)
        flag = "ok" if r1.ok and r3.ok and r3.worst() == 0.0 else "FAIL"
        print(f"  N={n} X={dx} theorem1 worst={r1.worst():.3e} theorem3 worst={r3.worst():.1e} {flag}")
        bad += flag != "ok"

    print("== finset: copower comparison ==")
    not_bijective = 0
    for s in range(1, 4):
        for j in range(1, 4):
            for c in range(1, 4):
                m = canonical_alpha(TimesS(s), j, FinSetObj(c))
                if not m.is_bijective:
                    print(f"  times {s} j={j} c={c}: NOT bijective")
                    not_bijective += 1
    print("  product functors: all bijections" if not_bijective == 0 else "  (see failures above)")
    bad += not_bijective
    for p in range(2, 4):
        m = canonical_alpha(PowerS(p), 2, FinSetObj(2))
        print(f"  power {p} j=2 c=2: {m.dom.size} -> {m.cod.size} "
              f"bijective={m.is_bijective}")

    print("== finset: atom scan ==")
    for d in range(4):
        rep = atom_strong_check(FinSetObj(d), 4)
        fails = rep.failures()
        print(f"  |D|={d}: consistent={rep.consistent} retract={rep.retract} "
              f"failures at J in {fails}")
        if rep.consistent != (d == 1):
            bad += 1

    print("all clear" if bad == 0 else f"{bad} failures")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
