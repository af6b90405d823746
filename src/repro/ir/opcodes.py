"""Operator codes.

The arithmetic set mirrors Figure 2 of the paper: AD (addition), SB
(subtraction), MP (multiplication), DV (division), EX (exponentiation), NG
(negate), PH (phi), LD (load), ST (store), LT (literal).  Literals appear as
:class:`~repro.ir.values.Const` operands rather than separate instructions;
phi/load/store are distinct instruction classes.  Comparisons carry a
:class:`Relation` and feed conditional branches (and the trip-count
analysis of section 5.2).
"""

from __future__ import annotations

import enum


class BinaryOp(enum.Enum):
    """Binary arithmetic operators (paper Figure 2 mnemonics in comments)."""

    ADD = "add"  # AD
    SUB = "sub"  # SB
    MUL = "mul"  # MP
    DIV = "div"  # DV  (integer division, truncating toward zero)
    EXP = "exp"  # EX
    MOD = "mod"  # remainder; not in Figure 2 but needed by realistic inputs

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: widest constant, in bits, that SCCP and the classifier fold from ``*``
#: or ``**`` of constants; a possibly wider result stays symbolic
FOLD_BITS = 4096


def exceeds_fold_bound(op: BinaryOp, lhs: int, rhs: int) -> bool:
    """True when ``lhs op rhs`` may be wider than :data:`FOLD_BITS` bits.

    Checked before the result is computed, so an enormous ``**`` is never
    evaluated.  Powers of 0, 1 and -1 always fit.
    """
    if op is BinaryOp.MUL:
        return lhs.bit_length() + rhs.bit_length() > FOLD_BITS
    if op is BinaryOp.EXP:
        return abs(lhs) > 1 and rhs * lhs.bit_length() > FOLD_BITS
    return False


class Relation(enum.Enum):
    """Integer comparison relations for Compare/Branch and trip counts."""

    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "=="
    NE = "!="

    def negate(self) -> "Relation":
        """The complement relation (used when the *false* branch exits)."""
        return _NEGATE[self]

    def swap(self) -> "Relation":
        """The relation with operands swapped (a R b  <=>  b swap(R) a)."""
        return _SWAP[self]

    def holds(self, left: int, right: int) -> bool:
        if self is Relation.LT:
            return left < right
        if self is Relation.LE:
            return left <= right
        if self is Relation.GT:
            return left > right
        if self is Relation.GE:
            return left >= right
        if self is Relation.EQ:
            return left == right
        return left != right

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_NEGATE = {
    Relation.LT: Relation.GE,
    Relation.LE: Relation.GT,
    Relation.GT: Relation.LE,
    Relation.GE: Relation.LT,
    Relation.EQ: Relation.NE,
    Relation.NE: Relation.EQ,
}

_SWAP = {
    Relation.LT: Relation.GT,
    Relation.LE: Relation.GE,
    Relation.GT: Relation.LT,
    Relation.GE: Relation.LE,
    Relation.EQ: Relation.EQ,
    Relation.NE: Relation.NE,
}
