"""Seeded op lists of the three benchmark workloads.

Each op is one check a user of partalg runs: it calls the public API
and returns True when the result passes its check.  Inputs are built
from the seed before any op runs, only through uncached constructors
(``enumerate_diagrams`` and ``AlgebraElement``), so building them does
not warm the caches the ops read.  Ops call partalg through module
attributes, so a tracer that rebinds those attributes sees every call.

``tiny=True`` gives the same op kinds at small ranks, for self-tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from partalg import algebra, combinatorics, diagrams, linalg, murphy, structure, symgroup, tensor
from partalg.algebra import AlgebraElement
from partalg.scalars import Poly


@dataclass(frozen=True)
class Op:
    """One check; stream ops are the small, repeated ones that latency
    percentiles are taken over."""

    name: str
    run: Callable[[], bool]
    stream: bool = False


class Inputs:
    """Seeded random elements; diagram lists come from enumerate_diagrams."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._diagrams: dict[int, list] = {}

    def diagrams(self, double_rank: int) -> list:
        if double_rank not in self._diagrams:
            self._diagrams[double_rank] = list(diagrams.enumerate_diagrams(double_rank))
        return self._diagrams[double_rank]

    def generic(self, double_rank: int, terms: int) -> AlgebraElement:
        """Element with Poly coefficients of degree at most 2."""
        rng = self.rng
        coeffs = {}
        for d in rng.sample(self.diagrams(double_rank), terms):
            low = [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))]
            coeffs[d] = Poly(low + [rng.choice((-2, -1, 1, 2))])
        return AlgebraElement(double_rank, coeffs)

    def specialized(self, double_rank: int, terms: int, n: int) -> AlgebraElement:
        rng = self.rng
        coeffs = {
            d: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            for d in rng.sample(self.diagrams(double_rank), terms)
        }
        return AlgebraElement(double_rank, coeffs, Fraction(n))


def _associative(a, b, c) -> bool:
    return algebra.multiply(algebra.multiply(a, b), c) == algebra.multiply(a, algebra.multiply(b, c))


def _gram_roots(double_rank: int) -> bool:
    # The generic regular Gram determinant at integer rank k vanishes
    # exactly at x = 0..2k-2 among 0..2k-1.
    det = structure.gram(double_rank, None).det
    return [det(x) == 0 for x in range(double_rank)] == [True] * (double_rank - 1) + [False]


def _murphy_algebra(double_rank: int) -> bool:
    report = murphy.verify_murphy(double_rank, [])
    return (
        report["commuting"]["pairs"] > 0
        and not report["commuting"]["failures"]
        and report["centrality"]["checked"] > 0
        and not report["centrality"]["failures"]
    )


def _units_sum(size: int) -> bool:
    return symgroup.sym_matrix_units(size).identity_sum() == algebra.one(2 * size)


def _verdict(double_rank: int, n: int) -> bool:
    report = structure.semisimple_verdict(double_rank, n)
    return report["by_gram"] == report["by_theorem"]


def _radical(double_rank: int, n: int) -> bool:
    size = len(structure.radical_basis(double_rank, n))
    matrix = structure.gram(double_rank, n, want_det=False).matrix
    return size == combinatorics.counting("bell", double_rank) - linalg.rank(matrix)


def _central(a: AlgebraElement, n: int, basis: list) -> bool:
    z = structure.symmetrize(a, a.double_rank, n)
    mode = Fraction(n)
    gens = [AlgebraElement(a.double_rank, {d: 1}, mode) for d in basis]
    # Zero commutes with everything, so a zero average would pass vacuously.
    return not z.is_zero() and all(algebra.multiply(z, g) == algebra.multiply(g, z) for g in gens)


def _bimodule(n: int, double_rank: int) -> bool:
    report = tensor.bimodule_dimension_check(n, double_rank)
    return (
        report["image_rank"] == report["squared_paths"]
        and report["tensor_dim"] == report["weighted_paths"]
    )


def _action_pair(a, b, n: int) -> bool:
    return tensor.phi(algebra.multiply(a, b), n) == tensor.phi(a, n) @ tensor.phi(b, n)


def algebra_generic(inputs: Inputs, tiny: bool) -> list[Op]:
    dr = 4 if tiny else 6
    size = 2 if tiny else 4
    gram_dr = 2 if tiny else 4
    ops = [
        Op(f"verify_murphy({dr},[])", lambda: _murphy_algebra(dr)),
        Op(f"sym_matrix_units({size})", lambda: _units_sum(size)),
        Op(f"gram({gram_dr},None)", lambda: _gram_roots(gram_dr)),
    ]
    streams = 4 if tiny else 100
    terms = 3
    for i in range(streams):
        # One op in four at the lower rank: the latency percentiles then
        # fall inside the cost band of one rank, not in the gap between two.
        rank = dr - 1 if i % 4 == 0 else dr
        a, b, c = (inputs.generic(rank, terms) for _ in range(3))
        ops.append(Op(f"assoc.generic(dr={rank})", lambda a=a, b=b, c=c: _associative(a, b, c), True))
    return ops


def structure_numeric(inputs: Inputs, tiny: bool) -> list[Op]:
    dr = 4 if tiny else 6
    ops = []
    for n in (2, 3) if tiny else (2, 3, 4, 5):
        ops.append(Op(f"semisimple_verdict({dr},{n})", lambda n=n: _verdict(dr, n)))
    for n in (3,) if tiny else (3, 4, 5):
        ops.append(
            Op(f"char_decomposition_check(4,{n})", lambda n=n: structure.char_decomposition_check(4, n)["ok"])
        )
    for lam in ((), (1,), (2,), (1, 1)):
        ops.append(Op(f"specht(4,{lam})", lambda lam=lam: structure.specht(4, lam)["ok"]))
    for rank, n in ((2, 0), (3, 1), (4, 2)):
        ops.append(Op(f"radical_basis({rank},{n})", lambda rank=rank, n=n: _radical(rank, n)))
    element = inputs.specialized(4, 6, 3)
    basis = inputs.diagrams(4)
    ops.append(Op("symmetrize(dr=4,n=3)", lambda: _central(element, 3, basis)))
    streams = 4 if tiny else 100
    terms = 3 if tiny else 4
    for i in range(streams):
        n = 2 + i % 4
        a, b, c = (inputs.specialized(dr, terms, n) for _ in range(3))
        ops.append(Op(f"assoc.specialized(dr={dr},n={n})", lambda a=a, b=b, c=c: _associative(a, b, c), True))
    return ops


def tensor_action(inputs: Inputs, tiny: bool) -> list[Op]:
    dr = 4 if tiny else 6
    ops = [
        Op(f"verify_murphy({dr},[2,3])", lambda: murphy.verify_murphy(dr, [2, 3])["ok"]),
        Op(f"bimodule_dimension_check(2,{dr + 1})", lambda: _bimodule(2, dr + 1)),
    ]
    # Term counts and ranks cycle through all 18 combinations, so every
    # seed gets the same mix of op sizes and only the diagrams vary.
    streams = 4 if tiny else 108
    low = 3 if tiny else 4
    for i in range(streams):
        rank = low + (i // 9) % 2
        a = inputs.specialized(rank, 1 + i % 3, 3)
        b = inputs.specialized(rank, 1 + (i // 3) % 3, 3)
        ops.append(Op(f"phi_pair(dr={rank},n=3)", lambda a=a, b=b: _action_pair(a, b, 3), True))
    return ops


# (op name, exception type) of known defects.  Such an op still counts as
# failed, but does not make a run incorrect; any other exception does.
# specht(4, ()) leaks an IndexError from column_reading_tableau.
KNOWN_FAILURES = {("specht(4,())", "IndexError")}

# How many times the stream runs in a pass.  The first run is cold and
# goes into wall_s; the latency percentiles take each op at its median
# over all runs.  A stream op takes a few milliseconds, so its scaled
# time rests on the one host-speed probe that ends its stretch of work,
# and single probes jitter; the median over many runs steadies it.
# tensor_action's other ops take about 5 s, so its stream repeats less,
# to leave room for three or more passes in a run.
STREAM_REPEATS = {"algebra_generic": 12, "structure_numeric": 16, "tensor_action": 6}

WORKLOADS = {
    "algebra_generic": algebra_generic,
    "structure_numeric": structure_numeric,
    "tensor_action": tensor_action,
}


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The workload's op list, with every input generated from the seed.

    The seed picks diagrams and coefficients; the mix of op kinds and
    sizes is the same for every seed, so seeds differ in data, not in
    the shape of the work.
    """
    return WORKLOADS[workload](Inputs(seed), tiny)
