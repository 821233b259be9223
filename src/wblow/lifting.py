"""Mechanical verification of the weighted-ideal decomposition behind lifting.

Setting: a blow-up with weights sigma' on a hyperplane section extends to the
ambient space by appending one more weight, which is forced to be
a * lcm(sigma') where a is the multiple of the Picard generator cut out by
the section.  At the monomial level the extension is equivalent to an exact
two-sided decomposition of the numerator-form ideals
N(t) = {s : sum(s_j w_j) >= t}: multiplication by the new variable embeds
N((d-a)b) as the part with positive last exponent, and the quotient is the
section's own ideal N'(db), with b = lcm(sigma').  This module checks that
decomposition degree by degree and reports the first violating exponent
vector when it fails (which it does precisely when the appended weight is
wrong).

The check walks no box.  With A the appended weight and delta = A - a*b,
a prefix of weight W fails at degree d iff ceil(u/A) != max(1, ceil((u +
delta)/A)) for u = d*b - W > min(a*b, A), and then the least element of
W's residue class mod A in the semigroup of section weights fails too.
Whether W fails depends only on its residue: the failing residues at degree
d are (s + j) mod A for j < min(|delta|, A), with s = d*b if delta > 0 and
s = d*b + delta if delta < 0 (all of them once |delta| >= A).  So each degree
looks up the least minimum of those classes: one AND of a bitset of the
semigroup's elements below L with a mask of the failing residues.  That
bitset is the last of the section's suffix bitsets, Python ints in which
bit v of suffix k is set iff v < L is a sum of the last k section weights,
and the witness prefix is read off the same suffixes.  They are built by
shift-and-or once per sweep, or once per mutation study for all its
offsets, and dropped with it: L is the sweep's largest threshold
d*b - min(a*b, A) or F + 1 + A, F being Brauer's bound on the Frobenius
number of the section weights (Amer. J. Math. 64 (1942)), whichever is
smaller, and 1 once every class fails; a study takes its offsets' largest
L.  delta = 0 leaves no failing residue, so derived instances pass without
the suffixes being built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from .arith import ceil_div, check_enum_budget, lex_walk, normalize_weights, suffix_sums
from .errors import InternalConsistencyError, InvalidInstanceError
from .quotient import CyclicQuotientType, HyperquotientType, lift_type


@dataclass(frozen=True, slots=True, init=False)
class LiftInstance:
    """Numeric data of one lifting step.

    ``base_weights`` is the section's weight vector (positive, gcd 1 after
    normalization, with the divided-out factor recorded); ``lifted_weight``
    is the appended weight, multiplier * base_lcm unless mutated.  The full
    weight vector ``weights`` and the grading step b = ``step`` are derived.
    The constructor is the one check of the group order, the multiplier and
    the lifted weight, but does not enforce lifted_weight = multiplier *
    base_lcm, so that :func:`mutated_instance` can corrupt it.  A ``weights``
    argument, as ``bench/selfcheck.py`` passes, is checked, not kept.
    """

    base_weights: tuple
    m: int
    multiplier: int
    normalization_factor: int
    base_lcm: int
    lifted_weight: int

    def __init__(self, base_weights, m, multiplier, normalization_factor, base_lcm, lifted_weight,
                 weights=None):
        if not isinstance(m, int) or type(m) is bool or m < 1:
            raise InvalidInstanceError(f"group order must be a positive integer, got {m!r}")
        if not isinstance(multiplier, int) or type(multiplier) is bool or multiplier < 1:
            raise InvalidInstanceError(f"multiplier must be a positive integer, got {multiplier!r}")
        if lifted_weight < 1:
            raise InvalidInstanceError(
                f"mutated lifted weight {lifted_weight} is not a positive weight"
            )
        if weights is not None and weights != base_weights + (lifted_weight,):
            raise InternalConsistencyError("weights must be base_weights plus the lifted weight")
        values = (base_weights, m, multiplier, normalization_factor, base_lcm, lifted_weight)
        for name, value in zip(self.__slots__, values):  # the fields, in order
            object.__setattr__(self, name, value)

    @property
    def weights(self) -> tuple:
        return self.base_weights + (self.lifted_weight,)

    @property
    def step(self) -> int:
        return self.base_lcm

    @property
    def n(self) -> int:
        return len(self.base_weights) + 1

    @property
    def is_derived(self) -> bool:
        """True when the lifted weight has its forced value multiplier * base_lcm."""
        return self.lifted_weight == self.multiplier * self.base_lcm


def make_lift_instance(base_weights, m: int, multiplier: int) -> LiftInstance:
    """Normalize the base weights and append the forced weight multiplier * lcm(base).

    The group order and the multiplier are checked by the constructor.
    """
    reduced, factor = normalize_weights(base_weights)
    base_lcm = math.lcm(*reduced)
    return LiftInstance(
        base_weights=reduced,
        m=m,
        multiplier=multiplier,
        normalization_factor=factor,
        base_lcm=base_lcm,
        lifted_weight=multiplier * base_lcm,
    )


def mutated_instance(inst: LiftInstance, delta: int) -> LiftInstance:
    """Copy with the lifted weight offset by delta; the constructor refuses a non-positive one."""
    if delta == 0:
        raise InvalidInstanceError("delta 0 is not a mutation")
    return LiftInstance(inst.base_weights, inst.m, inst.multiplier, inst.normalization_factor,
                        inst.base_lcm, inst.multiplier * inst.base_lcm + delta)


@dataclass(frozen=True, slots=True)
class Violation:
    """A witness exponent vector at which the decomposition identity fails."""

    d: int
    monomial: tuple
    explanation: str


@dataclass(frozen=True, slots=True)
class CheckReport:
    """A sweep over ``d_range``: it fails iff it carries the first failing degree's witness."""

    instance: LiftInstance
    d_range: range
    counterexample: Violation | None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"


def _least_set_bit(bits: int, modulus: int, start: int, count: int):
    """The least class minimum of residues start .. start + count - 1 mod modulus, else inf.

    The window of those residues, wrapped mod modulus, is copied across the
    bitset by doubling, so one AND gives the set bits of those classes.  A
    window bit past modulus stands for a residue the wrap already set.
    """
    window = ((1 << count) - 1) << start
    window |= window >> modulus  # the residues past modulus wrap to 0
    width = modulus
    while width < bits.bit_length():
        window |= window << width
        width += width
    hit = bits & window
    return (hit & -hit).bit_length() - 1 if hit else math.inf


def _sum_limit(inst: LiftInstance, d_max: int, lifted_weights) -> int:
    """L, the bound below which sweeps to d_max read the sums of section weights.

    The sweeps are of ``inst``'s section with each of ``lifted_weights``
    appended, and L is the largest of theirs.  With A appended, only the
    class minima below top = d_max*b - min(a*b, A), the sweep's largest
    threshold, can fail, and its L is the least of three bounds past which
    no minimum that ``_violation`` looks up lies (and at least 1):
    - top;
    - F + g + lcm(g, A), where g is the gcd of the section weights and
      F = sum over i of lcm(a_{i+1}, d_i) - sum of a_i, with a_1 <= ... <=
      a_k the section weights and d_i = gcd(a_1, ..., a_i), is Brauer's
      bound on their Frobenius number (Amer. J. Math. 64 (1942); scaled by
      g): every multiple of g from F + g on is a sum of them, and a class
      holds one such multiple in every run of lcm(g, A).  It is never above
      Schur's (a_1 - 1)(a_k - 1) - 1 from the same paper, and is often far
      below it: 28,995 against 1,890,627 for (194, 202, 9797);
    - 1 once |delta| >= A: every class then fails, and the least minimum is
      0, the empty sum.
    Each lcm(a_{i+1}, d_i) divides b, so F < (k - 1)*b; with |delta| < A,
    b < 2A/a, so for g = 1, L < (2k - 1)*A + 1: a bitset below L has fewer
    bits than twice the k*A steps of a round-robin table of the class
    minima, and a window of A bits reaches across it in at most
    ceil(log2(2k - 1)) doublings.
    """
    ab = inst.multiplier * inst.base_lcm
    weights = sorted(inst.base_weights)
    g, frobenius = weights[0], -sum(weights)
    for w in weights[1:]:
        frobenius, g = frobenius + math.lcm(g, w), math.gcd(g, w)
    limit = 1
    for a_n in lifted_weights:
        if abs(a_n - ab) < a_n:
            top = d_max * inst.base_lcm - min(ab, a_n)
            limit = max(limit, min(top, frobenius + g + math.lcm(g, a_n)))
    return limit


def _semigroup_bits(base: tuple, limit: int) -> list:
    """The suffix bitsets of the section weights below limit; the last is the semigroup's.

    Entry k has bit v set iff v < limit is a sum of the last k section
    weights (``arith.suffix_sums``), so the least set bit of a class mod A
    in the last entry is that class's minimum, and ``_violation`` reads the
    witness prefix off the entries before it.  A limit above a sweep's own
    L adds no class minimum below any of its thresholds: a class minimum
    below L is read the same, and L bounds every one that is looked up.
    """
    return suffix_sums(base, [(limit - 1) // w for w in base], limit - 1)


def _violation(inst: LiftInstance, d: int, chain: list) -> Violation | None:
    """The witness at the least failing class minimum, or None when degree d passes.

    The failing classes are (s + j) mod A for j < min(|delta|, A), s = d*b
    for delta > 0 and d*b + delta for delta < 0; a minimum mu in one of them
    fails iff it lies below d*b - min(a*b, A).  ``_least_set_bit`` finds
    the least minimum of those classes by one AND of the semigroup bitset,
    the last of the suffix bitsets ``chain`` (``_semigroup_bits``), with
    their mask.  The least such mu is re-checked against the definition;
    the witness prefix is the lexicographically least one of weight mu,
    which ``arith.lex_walk`` reads off the suffix bitsets, and its weight is
    recomputed.
    """
    a_n = inst.lifted_weight
    ab = inst.multiplier * inst.base_lcm
    delta = a_n - ab
    db = d * inst.base_lcm
    bound = db - min(ab, a_n)
    start = (db if delta > 0 else db + delta) % a_n
    w_prefix = _least_set_bit(chain[-1], a_n, start, min(abs(delta), a_n))
    if w_prefix >= bound:
        return None

    u = db - w_prefix
    first_top = ceil_div(u, a_n)
    first_shifted = max(1, ceil_div(u + delta, a_n))
    if first_top == first_shifted:
        raise InternalConsistencyError(
            f"class minimum {w_prefix} lies in a failing residue class at degree {d}"
            " but satisfies the decomposition"
        )
    s_n = min(first_top, first_shifted)
    base = inst.base_weights
    prefix = lex_walk(base, [w_prefix // w for w in base], chain, w_prefix, w_prefix)
    if prefix is None or sum(map(mul, prefix, base)) != w_prefix:
        raise InternalConsistencyError(f"weight {w_prefix} marked achievable but not realizable")
    monomial = prefix + (s_n,)
    lower = (d - inst.multiplier) * inst.base_lcm
    lower_is_unit = (d - inst.multiplier) <= 0
    total = w_prefix + s_n * a_n
    in_top = total >= db
    in_lower = lower_is_unit or (total - a_n) >= lower
    explanation = (
        f"at degree {d}: monomial {monomial} has weight {total};"
        f" level-{db} membership is {in_top} but dividing by the last"
        f" variable gives level-{lower if not lower_is_unit else 'unit'}"
        f" membership {in_lower}"
    )
    return Violation(d, monomial, explanation)


def _charge(inst: LiftInstance, degrees: range, what: str) -> None:
    """Charge a sweep over degrees (n - 1 + degrees) * A steps, before it starts.

    The degrees are counted from the range's bounds: ``len`` overflows past
    ``sys.maxsize``.
    """
    steps = (len(inst.base_weights) + degrees.stop - degrees.start) * inst.lifted_weight
    check_enum_budget(steps, what)


def _sweep(inst: LiftInstance, degrees: range, chain: list | None = None) -> CheckReport:
    """Check the charged degrees in order up to the first failing one.

    The class minima and witnesses are read off the suffix bitsets
    ``chain`` of the section weights (``_semigroup_bits``).  A mutation
    study passes the one chain it builds for all its offsets; otherwise the
    sweep builds its own below L (``_sum_limit``) and drops it on return.
    With delta = 0 nothing is built.
    """
    if inst.is_derived:
        return CheckReport(inst, degrees, None)
    if chain is None:
        limit = _sum_limit(inst, degrees.stop - 1, (inst.lifted_weight,))
        chain = _semigroup_bits(inst.base_weights, limit)
    v = next(filter(None, (_violation(inst, d, chain) for d in degrees)), None)
    return CheckReport(inst, degrees, v)


def verify_decomposition(inst: LiftInstance, d: int) -> CheckReport:
    """Check the two-sided monomial decomposition at degree d.

    An exponent vector s with s_n >= 1 must lie in N(d*b) iff s - e_n lies in
    N((d - a)*b), the unit ideal when d <= a (for s_n = 0 both sides compare
    the same weighted sum, the section's weights being the first entries of
    the full ones).  For a prefix of weight W, u = d*b - W and
    delta = A - a*b, the least s_n on each side is ceil(u/A) and
    max(1, ceil((u + delta)/A)); they can differ only when
    u > min(a*b, A).  Adding A to W lowers both by one, so if W fails, so
    does the least semigroup element of its class mod A: the degree fails
    iff a class minimum below d*b - min(a*b, A) fails, and the witness is
    the lex-smallest prefix of the least such minimum.  Which classes can
    fail, and so which class minima are looked up, is in ``_violation``.
    """
    if d < 1:
        raise InvalidInstanceError(f"d must be >= 1, got {d}")
    degrees = range(d, d + 1)
    _charge(inst, degrees, f"decomposition check at degree {d}")
    return _sweep(inst, degrees)


def verify_decomposition_range(inst: LiftInstance, d_max: int) -> CheckReport:
    """Check every d in 1..d_max; the report carries the first failing degree's witness.

    The whole sweep is charged to the budget before it starts, and it stops
    at the first failing degree.
    """
    if d_max < 1:
        raise InvalidInstanceError(f"d_max must be >= 1, got {d_max}")
    degrees = range(1, d_max + 1)
    _charge(inst, degrees, f"decomposition sweep to degree {d_max}")
    return _sweep(inst, degrees)


@dataclass(frozen=True, slots=True)
class MutationOutcome:
    delta: int
    lifted_weight: int
    first_failing_d: int | None


@dataclass(frozen=True, slots=True)
class MutationStudy:
    """Sensitivity of the decomposition check to the lifted weight.

    Each applicable offset (keeping the weight positive) is applied to the
    lifted weight and swept over d = 1..d_max; a mutation is caught when some
    degree fails.  Mutations that survive the swept range are reported as
    such, never hidden.
    """

    instance: LiftInstance
    d_max: int
    outcomes: tuple

    @property
    def applicable(self) -> int:
        return len(self.outcomes)

    @property
    def caught(self) -> int:
        return sum(1 for o in self.outcomes if o.first_failing_d is not None)


def mutation_study(inst: LiftInstance, d_max: int) -> MutationStudy:
    """Offset the lifted weight by each of -3..-1 and 1..3 that keeps it positive, and sweep d.

    Every offset's sweep is charged first, in offset order, as
    ``verify_decomposition_range`` charges it.  Only then is one chain of
    suffix bitsets built, below the largest L of the offsets
    (``_sum_limit``), and every sweep reads it: the offsets share the
    section weights, and a larger L changes no verdict (``_semigroup_bits``).
    """
    if d_max < 1:
        raise InvalidInstanceError(f"d_max must be >= 1, got {d_max}")
    degrees, what = range(1, d_max + 1), f"decomposition sweep to degree {d_max}"
    ab = inst.multiplier * inst.base_lcm
    deltas = [delta for delta in (-3, -2, -1, 1, 2, 3) if ab + delta >= 1]
    mutants = [mutated_instance(inst, delta) for delta in deltas]
    for mut in mutants:
        _charge(mut, degrees, what)
    limit = _sum_limit(inst, d_max, [mut.lifted_weight for mut in mutants])
    chain = _semigroup_bits(inst.base_weights, limit)
    outcomes = []
    for delta, mut in zip(deltas, mutants):
        failure = _sweep(mut, degrees, chain).counterexample
        first_fail = None if failure is None else failure.d
        outcomes.append(MutationOutcome(delta, mut.lifted_weight, first_fail))
    return MutationStudy(inst, d_max, tuple(outcomes))


@dataclass(frozen=True, slots=True)
class ChainStage:
    """One step of the iterated lifting chain."""

    index: int
    multiplier: int
    instance: LiftInstance
    lifted_type: CyclicQuotientType
    check: CheckReport


@dataclass(frozen=True, slots=True)
class ChainReport:
    """The stages run; the chain fails iff ``halted_at`` names a failing stage."""

    start: HyperquotientType
    initial_type: CyclicQuotientType
    initial_weights: tuple
    d_max: int
    stages: tuple
    halted_at: int | None
    notes: tuple

    @property
    def status(self) -> str:
        return "pass" if self.halted_at is None else "fail"


def chain_report(
    start: HyperquotientType, a_sequence, d_max: int = 4
) -> ChainReport:
    """Iterate lifting steps from a 3-dimensional start, verifying each stage.

    Each step appends a_t * lcm(current weights) to the weight vector
    (recomputing the lcm every stage), emits the lifted quotient type, and
    runs the decomposition sweep up to d_max; the chain halts at the first
    failing stage.  This is a demonstration harness over concrete numbers,
    not a proof of the general statement.  Blow-up weights for the initial
    type are the positive representatives in [1, m] of its action weights.

    When the start carries a genuine equation the sweep still checks the
    ambient (no-equation) identity only: membership in the image ideals
    modulo the equation is outside this tool's scope, and the report says so.
    """
    a_sequence = tuple(a_sequence)
    if not a_sequence:
        raise InvalidInstanceError("the multiplier sequence must be non-empty")
    if start.dimension != 3:
        raise InvalidInstanceError(
            f"the chain starts from a 3-dimensional singularity, got dimension {start.dimension}"
        )
    m = start.ambient.m
    current_type = start.ambient
    initial_weights = current_weights = tuple(((w - 1) % m) + 1 for w in current_type.weights)

    notes = [
        "initial blow-up weights are the positive representatives in [1, m]"
        " of the action weights"
    ]
    if not start.g.is_zero:
        notes.append(
            "the start carries an equation; each stage verifies the ambient"
            " (no-equation) decomposition only, since membership modulo the"
            " equation is out of scope"
        )

    stages = []
    halted_at = None
    for idx, a_t in enumerate(a_sequence, start=1):
        inst = make_lift_instance(current_weights, m, a_t)
        if inst.normalization_factor != 1:
            notes.append(
                f"stage {idx}: weights shared a factor {inst.normalization_factor},"
                " divided out before lifting"
            )
        check = verify_decomposition_range(inst, d_max)
        lifted = lift_type(current_type, inst.lifted_weight)
        stages.append(ChainStage(idx, a_t, inst, lifted, check))
        if not check.passed:
            halted_at = idx
            break
        current_type = lifted
        current_weights = inst.weights

    return ChainReport(
        start=start,
        initial_type=start.ambient,
        initial_weights=initial_weights,
        d_max=d_max,
        stages=tuple(stages),
        halted_at=halted_at,
        notes=tuple(notes),
    )
