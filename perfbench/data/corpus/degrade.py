"""Functions the frontend must *degrade*, never crash on.

Part of the committed real-Python mini-corpus (see ``kernels.py``).
Each function here trips a different ``PYF4xx`` code; the CI gate
(``--fail-on error``) tolerates them all -- degradations are warnings,
not defects.  The acceptance test pins the exact codes.
"""


def uses_strings(name):
    # PYF402: string literal (and concatenation) have no int lowering
    return name + "!"


def uses_dict(table, key):
    # PYF402: method call -- only len() and range() are modeled
    return table.get(key, 0)


def tuple_swap(a, b):
    # PYF401: tuple assignment target
    a, b = b, a
    return a


def list_builder(n):
    # PYF404: a local list is created, not a parameter
    out = []
    for i in range(n):
        out.append(i)
    return len(out)


def reads_loop_var(n):
    # PYF405: i is read after its loop; CPython keeps the last yielded
    # value while the counted lowering overshoots -- so it degrades
    total = 0
    for i in range(n):
        total += i
    return i + total


def keyword_only(*, flag):
    # PYF403: keyword-only parameters are not modeled
    return flag


def with_docstring_and_try(path):
    """PYF401: try/except has no IR shape."""
    try:
        return path
    except Exception:
        return 0


def float_math(x):
    # PYF402: float literal
    return x * 0.5


def comprehension(n):
    # PYF402: comprehensions are not modeled
    return sum(i * i for i in range(n))
