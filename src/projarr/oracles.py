"""Independent combinatorial cross-checks for the main engine.

Nothing here touches the chain-complex machinery: the hyperplane oracle
goes through the Möbius function of the intersection lattice and the
Euler oracle through additivity over strata, so agreement with the
engine is evidence rather than tautology.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arrangement import Arrangement
from .poset import IntersectionPoset, build_poset
from .ring import RingTable


@dataclass
class MobiusTable:
    poset: IntersectionPoset
    values: dict[tuple[int, int], int]  # (u, v) with u above v by inclusion

    def mu(self, u: int, v: int) -> int:
        return self.values.get((u, v), 0)


def mobius(poset: IntersectionPoset) -> MobiusTable:
    """Möbius function of the intersection lattice ordered by reverse
    inclusion (V is the minimum)."""
    m = len(poset.elements)
    # u ⪯ v in the lattice iff elements[v] ⊆ elements[u]
    below = lambda u, v: poset.leq[v][u]
    values: dict[tuple[int, int], int] = {}
    for u in range(m):
        order = sorted(
            (v for v in range(m) if below(u, v)), key=lambda v: -poset.d[v]
        )
        for v in order:
            if v == u:
                values[(u, v)] = 1
                continue
            acc = 0
            for w in order:
                if w != v and below(u, w) and below(w, v):
                    acc += values[(u, w)]
            values[(u, v)] = -acc
    return MobiusTable(poset, values)


class OracleError(ValueError):
    pass


def os_poincare_central(poset: IntersectionPoset) -> list[int]:
    """Poincaré polynomial of the central hyperplane complement in C^{n+1}
    via Σ |μ(V, q)| t^codim(q)."""
    n = poset.n
    if any(s.dim - 1 != n - 1 for s in poset.arr.subspaces):
        raise OracleError("oracle applies to hyperplane arrangements only")
    table = mobius(poset)
    coeffs = [0] * (n + 2)
    for q in range(len(poset.elements)):
        codim = n - poset.d[q]
        coeffs[codim] += abs(table.mu(poset.top, q))
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def os_poincare_projective(arr: Arrangement) -> list[int]:
    """The projective hyperplane complement's Poincaré polynomial, for a
    caller holding only the arrangement."""
    return projective_quotient(os_poincare_central(build_poset(arr)))


def projective_quotient(central: list[int]) -> list[int]:
    """Projective complement: the central polynomial divided by (1 + t);
    the division must be exact (the complement splits off a C* factor)."""
    quotient = []
    rem = 0
    for c in central:
        cur = c - rem
        quotient.append(cur)
        rem = cur
    if rem != 0:
        raise OracleError("central polynomial not divisible by 1 + t")
    while quotient and quotient[-1] == 0:
        quotient.pop()
    return quotient


def stratified_euler(poset: IntersectionPoset) -> int:
    """Euler characteristic of the projective complement via additivity:
    χ°(q) = χ(Pq) - Σ over proper nonempty substrata."""
    order = sorted(
        (i for i in range(len(poset.elements)) if poset.d[i] >= 0),
        key=lambda i: poset.d[i],
    )
    chi: dict[int, int] = {}
    for q in order:
        total = poset.d[q] + 1  # χ(CP^d) = d + 1
        for p in order:
            if p != q and poset.leq[p][q]:
                total -= chi[p]
        chi[q] = total
    return chi[poset.top]


@dataclass
class OracleReport:
    passed: bool
    euler_engine: int
    euler_oracle: int
    poincare: list[int]
    os_oracle: list[int] | None = None
    failures: list[str] = field(default_factory=list)


def compare(table: RingTable) -> OracleReport:
    """Run every applicable oracle against the engine's Betti numbers."""
    poset = table.poset
    arr = poset.arr
    poincare = table.poincare
    euler_engine = sum((-1) ** i * c for i, c in enumerate(poincare))
    euler_oracle = stratified_euler(poset)
    failures = []
    if euler_engine != euler_oracle:
        failures.append(f"Euler mismatch: engine {euler_engine}, oracle {euler_oracle}")
    os_poly = None
    if arr.subspaces and all(s.dim - 1 == arr.n - 1 for s in arr.subspaces):
        os_poly = projective_quotient(os_poincare_central(poset))
        trimmed = list(poincare)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        if trimmed != os_poly:
            failures.append(
                f"hyperplane oracle mismatch: engine {trimmed}, oracle {os_poly}"
            )
    return OracleReport(not failures, euler_engine, euler_oracle, poincare, os_poly, failures)
