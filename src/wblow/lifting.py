"""Mechanical verification of the weighted-ideal decomposition behind lifting.

Setting: a blow-up with weights sigma' on a hyperplane section extends to the
ambient space by appending one more weight, which is forced to be
a * lcm(sigma') where a is the multiple of the Picard generator cut out by
the section.  At the monomial level the extension is equivalent to an exact
two-sided decomposition of the numerator-form ideals
N(t) = {s : sum(s_j w_j) >= t}: multiplication by the new variable embeds
N((d-a)b) as the part with positive last exponent, and the quotient is the
section's own ideal N'(db), with b = lcm(sigma').  This module checks that
decomposition exhaustively over the sufficient box, degree by degree, and
reports the first violating exponent vector when it fails (which it does
precisely when the appended weight is wrong).

The box check is performed through an exact reduction: the conditions depend
on an exponent vector only through the weight of its first n-1 coordinates
and its last coordinate, so the engine enumerates achievable prefix weights
(a bounded-count sum set, computed with big-integer bitmasks) and solves the
last coordinate analytically.  This is pointwise equivalent to walking the
box and keeps desk-scale sweeps fast; witnesses are reconstructed as actual
exponent vectors.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .arith import ceil_div, check_enum_budget, normalize_weights
from .errors import InternalConsistencyError, InvalidInstanceError, InvalidWeightsError
from .quotient import CyclicQuotientType, HyperquotientType, lift_type


@dataclass(frozen=True, slots=True)
class LiftInstance:
    """Numeric data of one lifting step.

    ``base_weights`` is the section's weight vector (positive, gcd 1 after
    normalization, with the divided-out factor recorded); ``lifted_weight``
    is the appended weight, equal to multiplier * base_lcm for instances
    built by :func:`make_lift_instance`; ``step`` is the grading step b.
    The record does not enforce lifted_weight = multiplier * base_lcm, so
    deliberately corrupted instances can be built for sensitivity studies;
    see :func:`mutated_instance`.
    """

    base_weights: tuple
    m: int
    multiplier: int
    normalization_factor: int
    base_lcm: int
    lifted_weight: int
    weights: tuple
    step: int

    def __post_init__(self):
        if self.multiplier < 1:
            raise InvalidInstanceError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.m < 1:
            raise InvalidInstanceError(f"group order must be >= 1, got {self.m}")
        if self.lifted_weight < 1:
            raise InvalidWeightsError(f"lifted weight must be positive, got {self.lifted_weight}")
        if self.weights != self.base_weights + (self.lifted_weight,):
            raise InternalConsistencyError("weights must be base_weights plus the lifted weight")

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def is_derived(self) -> bool:
        """True when the lifted weight has its forced value multiplier * base_lcm."""
        return self.lifted_weight == self.multiplier * self.base_lcm


def make_lift_instance(base_weights, m: int, multiplier: int) -> LiftInstance:
    """Build the instance with the forced lifted weight multiplier * lcm(base)."""
    reduced, factor = normalize_weights(base_weights)
    if not isinstance(m, int) or m < 1:
        raise InvalidInstanceError(f"group order must be a positive integer, got {m!r}")
    if not isinstance(multiplier, int) or multiplier < 1:
        raise InvalidInstanceError(f"multiplier must be a positive integer, got {multiplier!r}")
    base_lcm = math.lcm(*reduced)
    lifted = multiplier * base_lcm
    return LiftInstance(
        base_weights=reduced,
        m=m,
        multiplier=multiplier,
        normalization_factor=factor,
        base_lcm=base_lcm,
        lifted_weight=lifted,
        weights=reduced + (lifted,),
        step=base_lcm,
    )


def mutated_instance(inst: LiftInstance, delta: int) -> LiftInstance:
    """Copy of the instance with the lifted weight offset by delta (sensitivity studies)."""
    if delta == 0:
        raise InvalidInstanceError("delta 0 is not a mutation")
    value = inst.multiplier * inst.base_lcm + delta
    if value < 1:
        raise InvalidInstanceError(f"mutated lifted weight {value} is not a positive weight")
    return dataclasses.replace(
        inst, lifted_weight=value, weights=inst.base_weights + (value,)
    )


@dataclass(frozen=True, slots=True)
class Violation:
    """A witness exponent vector at which the decomposition identity fails."""

    d: int
    monomial: tuple
    explanation: str


@dataclass(frozen=True, slots=True)
class CheckReport:
    instance: LiftInstance
    d_range: tuple
    status: str  # "pass" | "fail"
    counterexample: Violation | None

    def __post_init__(self):
        if self.status == "fail" and self.counterexample is None:
            raise InternalConsistencyError("failing report must carry a counterexample")

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _suffix_sum_masks(weights, caps):
    """masks[j] has bit W set iff W is a sum t_j*w_j + ... + t_last*w_last with t_i <= caps[i]."""
    n = len(weights)
    masks = [0] * (n + 1)
    masks[n] = 1
    for j in range(n - 1, -1, -1):
        acc = 0
        block = masks[j + 1]
        for t in range(caps[j] + 1):
            acc |= block << (t * weights[j])
        masks[j] = acc
    return masks


def _prefix_for_weight(weights, caps, masks, target):
    """Lexicographically smallest bounded exponent vector with the given weight."""
    out = []
    rem = target
    for j, w in enumerate(weights):
        for t in range(caps[j] + 1):
            r = rem - t * w
            if r < 0:
                break
            if (masks[j + 1] >> r) & 1:
                out.append(t)
                rem = r
                break
        else:
            raise InternalConsistencyError(f"weight {target} marked achievable but not realizable")
    return tuple(out)


def verify_decomposition(
    inst: LiftInstance, d: int, degree_bound: int | None = None
) -> CheckReport:
    """Check the two-sided monomial decomposition at degree d over the sufficient box.

    For every s in the box (s_i <= ceil(d*b / w_i) + 1, derived here rather
    than trusted from the caller; ``degree_bound`` may only enlarge it):

    - s_n >= 1: s is in N(d*b) iff s - e_n is in N((d - a)*b), the lower
      level meaning the unit ideal when d - a <= 0;
    - s_n = 0: s is in N(d*b) iff its prefix is in the section ideal at the
      same threshold.  The two sides compare the same weighted sum against
      the same threshold once the weight vectors agree coordinatewise, which
      is checked structurally up front.

    Both conditions at fixed prefix are monotone in s_n, so each achievable
    prefix weight is checked by comparing first-true thresholds; a mismatch
    is reported at the smallest violating last exponent.
    """
    if d < 1:
        raise InvalidInstanceError(f"d must be >= 1, got {d}")
    if inst.weights[:-1] != inst.base_weights:
        raise InternalConsistencyError("instance weights disagree with section weights")

    db = d * inst.step
    lower = (d - inst.multiplier) * inst.step
    lower_is_unit = (d - inst.multiplier) <= 0
    a_n = inst.lifted_weight

    caps = [ceil_div(db, w) + 1 for w in inst.base_weights]
    cap_n = ceil_div(db, a_n) + 1
    if degree_bound is not None:
        caps = [max(c, degree_bound) for c in caps]
        cap_n = max(cap_n, degree_bound)
    box = math.prod(c + 1 for c in caps) * (cap_n + 1)
    check_enum_budget(box, f"decomposition check at degree {d}")

    masks = _suffix_sum_masks(inst.base_weights, caps)
    sentinel = cap_n + 1
    remaining = masks[0]
    while remaining:
        low_bit = remaining & -remaining
        remaining ^= low_bit
        w_prefix = low_bit.bit_length() - 1

        if w_prefix >= db:
            first_top = 1
        else:
            first_top = ceil_div(db - w_prefix, a_n)
            if first_top > cap_n:
                first_top = sentinel
        if lower_is_unit or w_prefix >= lower:
            first_shifted = 1
        else:
            first_shifted = ceil_div(lower - w_prefix, a_n) + 1
            if first_shifted > cap_n:
                first_shifted = sentinel

        if first_top != first_shifted:
            s_n = min(first_top, first_shifted)
            prefix = _prefix_for_weight(inst.base_weights, caps, masks, w_prefix)
            monomial = prefix + (s_n,)
            total = w_prefix + s_n * a_n
            in_top = total >= db
            in_lower = lower_is_unit or (total - a_n) >= lower
            explanation = (
                f"at degree {d}: monomial {monomial} has weight {total};"
                f" level-{db} membership is {in_top} but dividing by the last"
                f" variable gives level-{lower if not lower_is_unit else 'unit'}"
                f" membership {in_lower}"
            )
            return CheckReport(inst, (d,), "fail", Violation(d, monomial, explanation))

    return CheckReport(inst, (d,), "pass", None)


def verify_decomposition_range(
    inst: LiftInstance, d_max: int, degree_bound: int | None = None
) -> CheckReport:
    """Run the decomposition check for every d in 1..d_max; merged ascending."""
    if d_max < 1:
        raise InvalidInstanceError(f"d_max must be >= 1, got {d_max}")
    d_range = tuple(range(1, d_max + 1))
    reports = [verify_decomposition(inst, d, degree_bound) for d in d_range]
    first_violation = None
    for report in reports:
        if not report.passed and first_violation is None:
            first_violation = report.counterexample
    if first_violation is not None:
        return CheckReport(inst, d_range, "fail", first_violation)
    return CheckReport(inst, d_range, "pass", None)


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


def mutation_study(inst: LiftInstance, d_max: int, radius: int = 3) -> MutationStudy:
    """Mutate the lifted weight by every nonzero offset within the radius and sweep d."""
    outcomes = []
    for delta in range(-radius, radius + 1):
        if delta == 0 or inst.multiplier * inst.base_lcm + delta < 1:
            continue
        mut = mutated_instance(inst, delta)
        first_fail = None
        for d in range(1, d_max + 1):
            if not verify_decomposition(mut, d).passed:
                first_fail = d
                break
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
    start: HyperquotientType
    initial_type: CyclicQuotientType
    initial_weights: tuple
    d_max: int
    stages: tuple
    status: str  # "pass" | "fail"
    halted_at: int | None
    notes: tuple


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
    current_weights = tuple(((w - 1) % m) + 1 for w in current_type.weights)

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
    status = "pass"
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
            status = "fail"
            halted_at = idx
            break
        current_type = lifted
        current_weights = inst.weights

    return ChainReport(
        start=start,
        initial_type=start.ambient,
        initial_weights=tuple(((w - 1) % m) + 1 for w in start.ambient.weights),
        d_max=d_max,
        stages=tuple(stages),
        status=status,
        halted_at=halted_at,
        notes=tuple(notes),
    )
