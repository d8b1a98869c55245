"""Resource caps for the exponential-time computations.

A Caps value is the only way a cap reaches the loop it bounds: every capped
function takes `caps: Caps = DEFAULT_CAPS`, and the CLI's --cap-n, --cap-m
and --cap-partition flags build one.  The defaults keep desk-scale runs
comfortable: graph enumeration up to 7 vertices, subset sums up to 2^20
terms, partition-based polynomials up to 10 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Caps:
    enum_n: int = 7        # isomorphism-class enumeration
    subset_n: int = 20     # vertex-subset sums, 2^n terms
    subset_m: int = 20     # span: sums over all 2^m edge subsets
    partition_n: int = 10  # set-partition based polynomials


DEFAULT_CAPS = Caps()
