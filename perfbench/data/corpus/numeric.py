"""Integer numerics: floor division, modular walks, assert-driven bounds.

Part of the committed real-Python mini-corpus (see ``kernels.py``).
"""


def digits_sum(n):
    assert n >= 0
    total = 0
    while n > 0:
        total += n % 10
        n = n // 10
    return total


def gcd(a, b):
    assert a >= 0
    assert b >= 0
    while b != 0:
        remainder = a % b
        a = b
        b = remainder
    return a


def average_step(xs, step):
    """The asserts bound the divisor to [-3, 3] -- a range that still
    contains zero, which the RNG603 checker flags as a possible
    division by zero (a warning CI tolerates -- and a real hazard)."""
    assert step >= -3
    assert step <= 3
    total = 0
    for i in range(len(xs)):
        total += xs[i] // step
    return total


def halving_steps(n):
    assert n >= 1
    steps = 0
    while n > 1:
        n = n // 2
        steps += 1
    return steps


def horner(xs, x):
    acc = 0
    for i in range(len(xs)):
        acc = acc * x + xs[i]
    return acc


def last_element(xs):
    if len(xs) > 0:
        return xs[-1]
    return 0


def bounded_fill(xs, k):
    assert k >= 0
    assert k <= 8
    for i in range(k):
        xs[i] = i * 2
    return k


def alternating_sum(xs):
    total = 0
    sign = 1
    for i in range(len(xs)):
        total += sign * xs[i]
        sign = 0 - sign
    return total
