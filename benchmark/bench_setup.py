"""One-time construction a koszuldg session does before its first operation.

Run as a script, it times that construction in a fresh interpreter and
prints the seconds: importing ``koszuldg`` and ``koszuldg.cli``, building
the rings, ``catalog_ring_maps()`` and the derived duals of the catalog
pairs the groups commands use.  Input generation is not part of it.  On
the same line it prints the calibrated seconds (see ``calibrate.py``).
"""
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

RING_GROUPS = ("T", "T^2", "SU(2)", "SU(3)")
# T^2<SU(3) is left out: its derived dual alone takes over a minute.
PAIRS = ("T<SU(2)", "T<T^2-diag", "T<T^2-first", "id-T", "id-T^2")


def construct():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import koszuldg
    import koszuldg.cli  # noqa: F401  (its import is part of set-up)
    from koszuldg import algebra, groups

    rings = {g: (algebra.poly_algebra(algebra.named_group(g)),
                 algebra.ext_algebra(algebra.named_group(g)))
             for g in RING_GROUPS}
    maps = groups.catalog_ring_maps()
    duals = {p: groups.derived_dual(maps[p]) for p in PAIRS}
    if not all(d.free_rank_one for d in duals.values()):
        raise RuntimeError("a catalog derived dual is not free of rank one")
    return koszuldg, rings, maps, duals


if __name__ == "__main__":
    import calibrate
    sampler = calibrate.Sampler()
    sampler.sample()
    spent = sampler.spent
    with sampler:
        started = time.perf_counter()
        construct()
        elapsed = time.perf_counter() - started - (sampler.spent - spent)
    sampler.sample()
    print(repr(elapsed), repr(elapsed * sampler.scale(1)))
