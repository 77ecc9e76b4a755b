"""Size caps of every public computation, in one table.

The partition algebras grow like Bell(2k), so every public entry point
refuses a job over its cap before it allocates anything.  ``LIMITS``
maps each entry to the largest job it starts, in the unit named beside
it, with the cold time of the slowest call admitted at the cap (fresh
CPython 3.11 process, 2-core x86-64 host).  The budget is 10 s a call.
Exact work also slows with the height of a rational parameter n, so
``parameter_bits`` caps that height at every entry taking n; the times
beside the size caps are for n of small height unless they say so.
"""

from .errors import BadParams, LimitExceeded

__all__ = ["LIMITS", "check"]

LIMITS = {
    # double rank; 4140 diagrams, 0.06 s; it also bounds
    # basic_construction_iso, whose (8, n) for n = 3, 0 and 1/127 took
    # 2.2-2.4 s and 21 MB
    "enumerate_diagrams": 8,
    "gram": 6,  # double rank; gram(6, -5/7) with det, 4.9 s
    # double rank; gram(5, None) 2.8-4.2 s and gram(5, None, "diagram")
    # 2.2-2.6 s, 18 MB; at 6 the matrices have side 203, not run
    "gram_generic_det": 5,
    # double rank; semisimple_verdict(11, n) for n = 2..11 and 127,
    # 0.14-5.2 s and 85 MB, 3.9-5.2 s from n = 8 up; its largest pairing
    # matrix has side 810, and 3,720 at 12, which was not run
    "semisimple_verdict": 11,
    "matrix_units": 4,  # double rank; matrix_units(4, 5), 0.01 s
    "specht": 4,  # double rank; specht(4, (2,)), 0.01 s
    # double rank; symmetrize(one, 5, n) at n = 7/3, -3/61 and 1/127,
    # 0.04-0.06 s; at 6, 4.1-4.2 s for 7/3 but 15.0-15.2 s for -3/61 and
    # 15.8-15.9 s for 1/127, over the budget
    "symmetrize": 5,
    # double rank of Z, M, murphy_family and of the sums p_s and
    # p_tilde_s; murphy_family(8) 0.02-0.04 s, Z(7), which builds Z(8),
    # 0.02 s
    "murphy_family": 8,
    # double rank of one diagram built by Diagram, identity_diagram,
    # generator, b_s or d_i, in time and memory linear in the rank;
    # generator("s", 1, 100000) 0.05-0.07 s and 42 MB, at 10**6 0.51 s
    # and 273 MB
    "diagram": 100_000,
    # double rank of presentation_relations and verify_presentation;
    # verify_presentation(128), 20,664 relations, 1.3-1.5 s and 61 MB;
    # at 160 1.9-2.1 s and 97 MB, at 192 3.0-3.1 s and 149 MB
    "presentation": 128,
    # double rank of refinements, coarsenings, to_orbit_basis,
    # from_orbit_basis and orbit_element, which make up to Bell(double
    # rank) diagrams per term; at 10, 115,975 diagrams, refinements of
    # the one-block diagram 0.7-1.2 s and 66 MB, orbit_element of the
    # all-singletons one 1.5-2.0 s and 77 MB; at 11, 678,570 diagrams,
    # 5.2 s and 307 MB, and 11.5 s and 358 MB
    "orbit_basis": 10,
    # double rank; verify_murphy(6, [4]), 0.88 s; at 7 the witnesses
    # [4] * 12 + [2] took 17 s
    "verify_murphy": 6,
    # sum of the witnesses' n; verify_murphy(6, [4] * 12 + [2]) 8.0 s,
    # verify_murphy(3, [50]) 5.1 s
    "verify_murphy_witnesses": 50,
    # double rank 2 * size; at n = x, 3, -3/61 and 1/127, size 5 0.02-0.03 s,
    # size 6 0.7-0.9 s and 50 MB; size 7 holds 5040**2 terms, not run
    "sym_matrix_units": 12,
    # boxes of a shape in standard_tableaux_of, which recurses once per
    # box; (100,) and (1,) * 100, one filling each, 0.002 s
    "standard_tableaux_boxes": 100,
    # entries of standard_tableaux_of, boxes times the hook-length count;
    # (6, 4, 2, 1, 1), 69,498 fillings, 0.35-0.43 s and 35 MB; (98, 2),
    # 4,850 fillings of 100 boxes, 0.24 s
    "standard_tableaux": 1_000_000,
    # boxes of a shape in hooks_and_contents and syt_dimension, whose
    # factorial and hook product grow with the square of the box count;
    # syt_dimension of (100000,), (1,) * 100000 and (316,) * 316,
    # 3.1-3.8 s and 25 MB; at 150,000 boxes 5.8-7.4 s
    "hook_boxes": 100_000,
    "kappa": 100,  # n of S_n; kappa(100) 1.3 s and 78 MB, kappa(200) 7.8 s
    # n**slots of phi, phi_orbit, sym_tensor_matrix, kappa_tensor_matrix
    # and the verify_murphy witnesses; kappa_tensor_matrix(81, 1), 1.4 s
    "tensor_side": 81,
    # pairs x side**2, with (1 + generators) x Bell(double rank) pairs;
    # (4, 7) 39.5 M, 2.7-3.1 s and 22 MB; (2, 8) 14.8 M, 2.7-2.8 s and
    # 32 MB; (3, 8) 380 M took 25 s
    "homomorphism_check": 40_000_000,
    # height of a parameter n: bit lengths of numerator and denominator
    # added; gram(6, -3/61) with det 7.7-8.3 s, gram(6, 1/127) 8.0 s,
    # basic_construction_iso(8, 1/127) 2.2-2.3 s;
    # at 9 bits gram(6, 1/255) took 9.2 s, at 10 gram(6, 1/511) 10.4 s
    "parameter_bits": 8,
}


def _nonnegative(name: str, size) -> int:
    """Returns size if it is an int >= 0 (a bool is not), else raises
    BadParams."""
    if isinstance(size, bool) or not isinstance(size, int) or size < 0:
        raise BadParams(f"{name}: size must be a nonnegative int, not {size!r}")
    return size


def check(name: str, size: int) -> int:
    """Returns size if the entry may start a job of that size; raises
    BadParams unless size is an int >= 0 (a bool is not) and
    LimitExceeded over the cap."""
    if _nonnegative(name, size) > LIMITS[name]:
        # str() of an int past 4300 digits raises ValueError
        shown = size if size.bit_length() < 64 else f"over 2**{size.bit_length() - 1}"
        raise LimitExceeded(f"{name}: size {shown} exceeds the cap {LIMITS[name]}")
    return size
