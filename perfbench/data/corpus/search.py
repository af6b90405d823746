"""Search and scan loops: while-shapes, branch-dependent updates.

Part of the committed real-Python mini-corpus (see ``kernels.py``).
"""


def linear_search(xs, needle):
    for i in range(len(xs)):
        if xs[i] == needle:
            return i
    return -1


def binary_search(xs, needle):
    lo = 0
    hi = len(xs)
    while lo < hi:
        mid = (lo + hi) // 2
        if xs[mid] < needle:
            lo = mid + 1
        else:
            hi = mid
    return lo


def weighted_tally(n):
    """Branch-dependent: total advances by 2 or by 5 depending on path."""
    total = 0
    for i in range(n):
        if i % 3 == 0:
            total += 2
        else:
            total += 5
    return total


def first_gap(xs):
    previous = 0
    for i in range(len(xs)):
        if xs[i] - previous > 1:
            return i
        previous = xs[i]
    return -1


def clamp_all(xs, lo, hi):
    for i in range(len(xs)):
        if xs[i] < lo:
            xs[i] = lo
        elif xs[i] > hi:
            xs[i] = hi
    return 0


def count_runs(xs):
    runs = 0
    i = 0
    n = len(xs)
    while i < n:
        j = i + 1
        while j < n and xs[j] == xs[i]:
            j += 1
        runs += 1
        i = j
    return runs
