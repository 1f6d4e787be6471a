"""A fixed reference kernel that measures how fast the host runs Python
right now; run.py runs it in its own interpreter between samples.

It does the kind of work convmc does, exact Fraction row reduction and
dict updates keyed by tuples, but imports nothing from convmc, so no
change to the package can change its time.  On a shared host the speed
of the CPU drifts by up to 1.8x over minutes; dividing a sample's wall
time by the kernel times measured just before and after it cancels most
of that drift.  Prints the kernel's wall time in seconds.
"""

import time
from fractions import Fraction


def kernel() -> None:
    n = 40
    for rep in range(3):
        a = [[Fraction((i * 7 + j * 13 + rep) % 11 - 5, 1 + (i + j) % 3)
              for j in range(n)] for i in range(n)]
        for c in range(n):
            p = next((r for r in range(c, n) if a[r][c] != 0), None)
            if p is None:
                continue
            a[c], a[p] = a[p], a[c]
            inv = 1 / a[c][c]
            a[c] = [x * inv for x in a[c]]
            for r in range(n):
                if r != c and a[r][c]:
                    f = a[r][c]
                    a[r] = [x - f * y for x, y in zip(a[r], a[c])]
        counts: dict = {}
        for i in range(20000):
            key = (i % 97, i % 13)
            counts[key] = counts.get(key, 0) + 1


if __name__ == "__main__":
    start = time.perf_counter()
    kernel()
    print(time.perf_counter() - start)
