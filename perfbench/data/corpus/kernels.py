"""Array kernels: the DOALL-vs-serial bread and butter.

Part of the committed real-Python mini-corpus ``repro pylint`` runs in
CI (with ``--fail-on error``).  Every function here is ordinary CPython
-- the differential oracle executes them with ``exec`` against the IR
interpreter on random inputs.
"""


def scale(xs, factor):
    """Independent elementwise update: provably DOALL."""
    for i in range(len(xs)):
        xs[i] = xs[i] * factor
    return 0


def saxpy(xs, ys, a, n):
    assert n >= 0
    for i in range(n):
        xs[i] = a * xs[i] + ys[i]
    return 0


def prefix_sum(xs):
    """Loop-carried recurrence: serial, blocked by a carried dependence."""
    for i in range(1, len(xs)):
        xs[i] = xs[i] + xs[i - 1]
    return 0


def dot(xs, ys, n):
    assert n >= 0
    total = 0
    for i in range(n):
        total += xs[i] * ys[i]
    return total


def sum_of_squares(n):
    """The classic polynomial induction: total is degree-2 in i."""
    total = 0
    for i in range(n):
        total += i * i
    return total


def triangular(n):
    total = 0
    for i in range(n):
        total += i
    return total


def reverse_copy(xs, ys):
    n = len(xs)
    for i in range(n):
        ys[i] = xs[n - 1 - i]
    return 0


def count_positive(xs):
    count = 0
    for i in range(len(xs)):
        if xs[i] > 0:
            count += 1
    return count
