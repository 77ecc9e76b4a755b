"""Results do not depend on the process.

Diagrams hash by identity, so the hash of a diagram, and the order of a
set of diagrams, change from one process to the next.  The same seeded
computations, run in two processes with different hash seeds, must
print the same digest, term order included."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import hashlib
import random
from fractions import Fraction

from partalg.algebra import AlgebraElement, multiply
from partalg.diagrams import enumerate_diagrams
from partalg.murphy import verify_murphy
from partalg.scalars import Poly

rng = random.Random(20040113)
digest = hashlib.sha256()
for i in range(24):
    dr = 2 + i % 5
    basis = list(enumerate_diagrams(dr))
    mode = None if i % 2 else Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    def coeff():
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return c if mode is not None else Poly((c, rng.randint(-2, 2), 1))

    a, b = (
        AlgebraElement(dr, [(rng.choice(basis), coeff()) for _ in range(6)], mode)
        for _ in range(2)
    )
    digest.update(repr([(d.blocks, c) for d, c in multiply(a, b).terms.items()]).encode())
digest.update(repr(verify_murphy(4, [2])).encode())
print(digest.hexdigest())
"""


def _digest(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_digest_is_the_same_in_two_processes():
    first, second = _digest("0"), _digest("1")
    assert len(first) == 64
    assert first == second
