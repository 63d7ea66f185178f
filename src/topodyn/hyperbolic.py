"""Expansivity certificates, local product structure, and topological
stability on concrete hyperbolic models.

Every verdict in this module records its proof level. Closed-form arguments
exist for planar linear saddles (eigen-coordinate growth) and shifts of
finite type (symbol disagreement reaches index zero); exact cycle
certificates apply wherever point equality is decidable; everything else is
horizon-bounded sampling and is labelled as such. Sampled evidence never
upgrades itself to a proof.

The bracket t(x, y) of the product structure is computed two independent
ways: a closed form in eigen or symbol coordinates, and the tracing point of
the pseudo-orbit that glues the backward orbit of y to the forward orbit of
x. The glued route has a single defect at the seam, so the tracing series
collapses without iterating the map over the window.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .chains import _array_ball, _near_pairs, _torus_distances
from .entourage import MetricBall, PredicateEntourage, metric_ball
from .report import FAIL, PASS, Report
from .shadowing import (
    ORBIT_TAIL,
    PERIODIC,
    PseudoOrbit,
    _diagonal_point,
    _lifted_defects,
    _stable_series,
    _unstable_series,
    tracing_tools,
)
from .systems import (
    GenericSystem,
    LinearSaddle,
    NotHyperbolicError,
    ShiftOfFiniteType,
    TorusAutomorphism,
    _respell,
    sequences_agree_on,
    sft_metric,
    splice_symbolic,
    symbolic_point,
    torus_metric,
)

CONSISTENT = "consistent-with-expansive"
REFUTED = "refuted"
# the semi-conjugacy residual a stability report passes at
RESIDUAL_TOL = 1e-8

# defect coefficients kept per linear stability chunk: each sample keeps
# two half-series of W+1 floats, so a chunk holds about 4 MB of them however
# many samples there are (4,297 samples at W = 60). Every g-step costs some
# fifty array calls whatever the chunk, so smaller chunks pay them more
# often: `stability cat-map --samples 20000` took 0.68 s at this size, 0.73
# and 0.82 s at 1 << 18 and 1 << 17 (best of four, in one process, 2-vCPU
# host). 1 << 20 took 0.65 s, but on the recurrence-tracing bench it was no
# faster end to end and peaked 1.6 MB higher.
_CHUNK_FLOATS = 1 << 19
# Newton steps a row of the trig perturbation's inverse may take
_NEWTON_STEPS = 64


# ---------------------------------------------------------------------------
# expansivity checking


@dataclass(frozen=True)
class PairSeparation:
    """One pair of points together with the iterate index that witnesses its
    behaviour: the first n with F^n(x, y) outside N for separations, the
    cycle entry step or the horizon for refutations."""

    x: object
    y: object
    index: int


@dataclass(frozen=True)
class ExpansivityReport:
    verdict: str
    proof_level: str          # "closed-form" | "cycle" | "horizon"
    note: str
    separations: tuple
    unresolved: tuple         # pairs with no separation found and no trap proof
    refutation: PairSeparation = None
    refutation_kind: str = None
    horizon: int = 0
    skipped_equal: int = 0

    def to_report(self, system):
        rep = Report(
            operation="expansive-check",
            system=system.name,
            outcome=self.verdict,
            proof_level=self.proof_level,
            horizon=self.horizon,
            verdict=PASS if self.verdict == CONSISTENT else FAIL,
            note=self.note,
        )
        rep.add_table(
            "separations",
            ["x", "y", "index"],
            [[system.point_to_text(s.x), system.point_to_text(s.y), s.index]
             for s in self.separations],
        )
        if self.refutation is not None:
            rep.add_table(
                "refutation",
                ["x", "y", "index", "kind"],
                [[system.point_to_text(self.refutation.x),
                  system.point_to_text(self.refutation.y),
                  self.refutation.index, self.refutation_kind]],
            )
        if self.unresolved:
            rep.add_table(
                "unresolved",
                ["x", "y"],
                [[system.point_to_text(x), system.point_to_text(y)]
                 for x, y in self.unresolved],
            )
        return rep


def _scan_pair(system, x, y, N, horizon):
    if not N.accepts(x, y):
        return ("separated", 0)
    ends = [system.pair_exit(x, y, N.accepts, horizon, step) for step in (1, -1)]
    hits = [n for end, n in ends if end == "left"]
    if hits:
        return ("separated", min(hits, key=abs))
    if all(end == "cycle" for end, _ in ends):
        # the joint orbit is eventually periodic in both directions and every
        # visited state was inside N, so the pair never leaves N
        return ("cycle", max(n for _, n in ends))
    return ("horizon", horizon)


def _closed_form_note(system, N):
    """A proof note when (system, N) is expansive by a closed-form argument,
    else None. Only the system's own metric qualifies
    (`DynamicalSystem.is_own_metric`); a ball in a different metric on the
    same space is a genuinely different question."""
    if not isinstance(N, MetricBall):
        return None
    if isinstance(system, LinearSaddle) and system.is_own_metric(N.metric):
        return (
            "closed form: writing y - x = u*v_u + s*v_s, a nonzero u grows as "
            f"rate_u^n = {system.rate_u:g}^n forward and a nonzero s grows as "
            f"rate_s^-n = {system.rate_s:g}^-n backward, so every distinct "
            "pair leaves any finite-radius ball; every metric ball is an "
            "expansivity neighborhood"
        )
    if isinstance(system, ShiftOfFiniteType) and system.is_own_metric(N.metric) \
            and N.delta <= 1.0:
        return (
            "closed form: distinct admissible sequences differ at some index "
            "j, and after |j| shifts the difference sits at index 0 where the "
            "metric evaluates to 1 >= delta; every ball of radius <= 1 is an "
            "expansivity neighborhood"
        )
    return None


def expansive_check(system, N, pair_samples, horizon=60):
    """Test whether N behaves as an expansivity neighborhood on the sampled
    pairs: every distinct pair must have some iterate F^n(x, y) outside N.

    With a closed-form proof available the verdict is consistent regardless
    of what the horizon resolves, and pairs that did not separate in time are
    listed as unresolved. Without one, a pair whose joint orbit provably
    cycles inside N refutes with a cycle certificate, and a pair that merely
    exhausts the horizon refutes with horizon-bounded evidence, labelled so.
    """
    if horizon < 1:
        raise ValueError("The horizon must be at least 1.")
    proof = _closed_form_note(system, N)
    separations, trapped, exhausted = [], [], []
    skipped = 0
    for x, y in pair_samples:
        if system.metric(x, y) == 0:
            skipped += 1
            continue
        outcome, index = _scan_pair(system, x, y, N, horizon)
        if outcome == "separated":
            separations.append(PairSeparation(x, y, index))
        elif outcome == "cycle":
            trapped.append(PairSeparation(x, y, index))
        else:
            exhausted.append(PairSeparation(x, y, index))
    witness, unresolved = None, ()
    if proof is not None:
        if trapped:
            raise RuntimeError(
                "A cycle certificate contradicts the closed-form expansivity "
                "proof; one of the two is wrong."
            )
        verdict, level, note = CONSISTENT, "closed-form", proof
        if exhausted:
            note += (
                f"; {len(exhausted)} sampled pair(s) separate beyond the "
                f"horizon {horizon} and are listed as unresolved"
            )
            unresolved = tuple((p.x, p.y) for p in exhausted)
    elif trapped:
        verdict, level, witness = REFUTED, "cycle", trapped[0]
        note = ("the witness pair's joint orbit revisits an exact state in "
                "both directions while staying inside N, so it never "
                "separates; this is a proof")
    elif exhausted:
        verdict, level, witness = REFUTED, "horizon", exhausted[0]
        note = (f"the witness pair stayed inside N for every |n| <= "
                f"{horizon}; evidence is horizon-bounded, not a proof")
    else:
        verdict, level = CONSISTENT, "horizon"
        note = ("every sampled pair separated within the horizon; evidence "
                "is sample-bounded, not a proof")
    # a refutation's kind is its proof level
    return ExpansivityReport(
        verdict=verdict, proof_level=level, note=note,
        separations=tuple(separations), unresolved=unresolved,
        refutation=witness,
        refutation_kind=level if witness is not None else None,
        horizon=horizon, skipped_equal=skipped,
    )


# ---------------------------------------------------------------------------
# iterate-constrained entourages V_N(A)


def v_n_entourage(system, base, depth):
    """V_N(A): pairs whose joint iterates F^n(x, y) stay in A for all
    |n| <= depth. Decreasing in depth, with V_0 = A."""
    if depth < 0:
        raise ValueError("The constraint depth must be nonnegative.")
    if depth == 0:
        return base

    def accepts(x, y):
        return base.accepts(x, y) and all(
            system.pair_exit(x, y, base.accepts, depth, step)[0] != "left"
            for step in (1, -1))

    return PredicateEntourage(accepts, base.space_id, base.symmetric_flag,
                              base.space_diameter)


def v_n_box_halfwidths(system, base, depth):
    """Outer bounding box of the V_N(A) cross-section in eigen-coordinates,
    for a linear saddle and a metric ball A: the unstable coordinate is
    capped by the constraint at +depth and the stable one at -depth. Tight
    along each eigen-axis; corners of the box slightly overshoot."""
    if not isinstance(system, (LinearSaddle, TorusAutomorphism)):
        raise TypeError("Eigen-coordinate boxes need a linear or torus system.")
    if not isinstance(base, MetricBall):
        raise TypeError("Eigen-coordinate boxes need a metric-ball base.")
    hu = base.delta * system.rate_u ** (-depth)
    hs = base.delta * system.rate_s ** depth
    return hu, hs


# ---------------------------------------------------------------------------
# local stable and unstable sets


def _agrees_from(p, q, start):
    # both tails are eventually periodic, so one lcm window past the spans
    # decides agreement on [start, infinity)
    span = math.lcm(len(p.right), len(q.right))
    hi = max(start, p.span_end + 1, q.span_end + 1) + span - 1
    return sequences_agree_on(p, q, start, hi)


def _agrees_until(p, q, end):
    span = math.lcm(len(p.left), len(q.left))
    lo = min(end, p.span_start - 1, q.span_start - 1) - span + 1
    return sequences_agree_on(p, q, lo, end)


def _agreement_radius(delta):
    """Largest m with: sft distance < delta iff the sequences agree on
    |i| <= m. The metric only takes values 2^-k, so m is the smallest k with
    2^-k < delta, minus one."""
    m = 0
    while 2.0 ** (-m) >= delta:
        m += 1
        if m > 128:
            raise ValueError("Ball radius too small for a symbol cylinder.")
    return m - 1


@dataclass(frozen=True)
class LocalInvariantSet:
    """W^s_B(x) or W^u_B(x): the points whose joint orbit with x stays in B
    for all forward (stable) or backward (unstable) times.

    `kind` records how membership is decided: "segment" and "cylinder" are
    exact closed forms, "sampled" only checks iterates up to the horizon and
    is an over-approximation.
    """

    kind: str
    description: str
    membership: object = field(repr=False)

    def contains(self, y):
        return bool(self.membership(y))


def _linear_segment(system, x, B, side):
    wrap = isinstance(system, TorusAutomorphism)

    def member(y):
        if wrap:
            y = TorusAutomorphism.nearest_lift(y, x)
        gap = (y[0] - x[0], y[1] - x[1])
        cu, cs = system.split(gap)
        off, along = (cu, cs) if side == "stable" else (cs, cu)
        return abs(off) <= 1e-9 and abs(along) < B.delta

    return LocalInvariantSet(
        kind="segment",
        description=(f"{{x + c*v : |c| < {B.delta:g}}} along the "
                     f"{side} eigendirection"),
        membership=member,
    )


def _sft_cylinder(x, B, side):
    m = _agreement_radius(B.delta)
    if side == "stable":
        return LocalInvariantSet(
            kind="cylinder",
            description=f"sequences agreeing with the center on [{-m}, inf)",
            membership=lambda y: _agrees_from(x, y, -m),
        )
    return LocalInvariantSet(
        kind="cylinder",
        description=f"sequences agreeing with the center on (-inf, {m}]",
        membership=lambda y: _agrees_until(x, y, m),
    )


def _sampled_local_set(system, x, B, side, horizon):
    step = 1 if side == "stable" else -1

    def member(y):
        return B.accepts(x, y) and \
            system.pair_exit(x, y, B.accepts, horizon, step)[0] != "left"

    return LocalInvariantSet(
        kind="sampled",
        description=(f"joint orbit checked {side}-ward for {horizon} steps "
                     "only; membership is an over-approximation"),
        membership=member,
    )


def _local_set(system, x, B, side, horizon):
    if isinstance(system, (LinearSaddle, TorusAutomorphism)) \
            and isinstance(B, MetricBall) and system.is_own_metric(B.metric):
        return _linear_segment(system, x, B, side)
    if isinstance(system, ShiftOfFiniteType) and isinstance(B, MetricBall) \
            and system.is_own_metric(B.metric) and B.delta <= 1.0:
        return _sft_cylinder(x, B, side)
    return _sampled_local_set(system, x, B, side, horizon)


def local_stable_set(system, x, B, horizon=60):
    """W^s_B(x), with closed forms where the structure allows: a stable
    eigen-segment for linear and torus systems, a one-sided symbol cylinder
    for shifts, and a horizon-sampled check otherwise."""
    return _local_set(system, x, B, "stable", horizon)


def local_unstable_set(system, x, B, horizon=60):
    """W^u_B(x); mirror of local_stable_set under time reversal."""
    return _local_set(system, x, B, "unstable", horizon)


# ---------------------------------------------------------------------------
# product structure


class ProductDomainError(ValueError):
    """The pair handed to the bracket lies outside its domain D."""


class LiftAmbiguityError(ProductDomainError):
    """A torus pair too far apart for a well-defined nearest lift: points
    separated by at least half the injectivity radius have competing lifts,
    so the bracket refuses rather than guessing."""


LIFT_AMBIGUITY = 0.25


def glued_pseudo_orbit(system, x, y, half_window):
    """The backward orbit of y glued to the forward orbit of x at index 0.

    Both halves are genuine orbits, so the only defect sits at the seam,
    where f maps f^{-1}(y) to y but the window holds x; the defect bound is
    exactly d(y, x)."""
    return PseudoOrbit(
        window=tuple(system.orbit(y, -half_window)[:0:-1]
                     + system.orbit(x, half_window)),
        extension=ORBIT_TAIL,
        defect_bound=system.metric(y, x),
        start_index=-half_window,
    )


class ProductStructure:
    """Entourages A (expansivity neighborhood), B (local-set scale, with
    B^3 inside A) and D (bracket domain), plus the bracket t.

    t(x, y) is the unique point of W^s_B(x) whose backward orbit tracks y:
    in eigen-coordinates it keeps x's unstable coordinate and y's stable
    one swapped in, and for shifts it splices y's past to x's future. The
    identities t(x, x) = x, t(x, y) in W^s_B(x) and t(x, y) in W^u_B(y)
    hold on all of D.
    """

    def __init__(self, system, A, B, D, method, half_window=25):
        self.system = system
        self.A = A
        self.B = B
        self.D = D
        self.method = method
        self.half_window = half_window

    def _check_domain(self, x, y):
        if isinstance(self.system, TorusAutomorphism) \
                and torus_metric(x, y) >= LIFT_AMBIGUITY:
            raise LiftAmbiguityError(
                f"The pair is {torus_metric(x, y):.4f} apart on the torus; at "
                f">= {LIFT_AMBIGUITY} the nearest lift is ambiguous."
            )
        if not self.D.accepts(x, y):
            raise ProductDomainError(
                "The pair lies outside the bracket domain D."
            )

    def t(self, x, y):
        self._check_domain(x, y)
        system = self.system
        if self.method == "symbolic-splice":
            try:
                point = system.validate_point(splice_symbolic(y, x, seam=0))
            except ValueError as err:
                raise ProductDomainError(
                    f"The seam transition is inadmissible: {err}"
                ) from err
            return point
        if isinstance(system, TorusAutomorphism):
            lift = TorusAutomorphism.nearest_lift(y, x)
            _, cs = system.split((lift[0] - x[0], lift[1] - x[1]))
            point = system.combine(0.0, cs)
            return ((x[0] + point[0]) % 1, (x[1] + point[1]) % 1)
        _, cs = system.split((y[0] - x[0], y[1] - x[1]))
        point = system.combine(0.0, cs)
        return (x[0] + point[0], x[1] + point[1])

    def t_traced(self, x, y):
        """The bracket computed the long way round, as the tracing point of
        the glued pseudo-orbit, read at the seam index 0. Used to
        cross-check the closed form."""
        self._check_domain(x, y)
        pseudo = glued_pseudo_orbit(self.system, x, y, self.half_window)
        trace = tracing_tools(self.system)[1]
        return trace(self.system, pseudo).traced_orbit[-pseudo.start_index]


def product_map_t(system, r_A=0.9, half_window=25):
    """The local product structure of a hyperbolic model system.

    For shifts the metric is an ultrametric, so compositions of balls do not
    grow and A = B = the unit ball works with D the half ball, where the
    seam of the splice is automatically admissible. For linear and torus
    systems B gets a third of A's radius so B^3 stays inside A, and D is
    shrunk by the dual-basis norm so the eigen-coordinates of the gap stay
    under B's radius; on the torus D is also capped below the lift-ambiguity
    threshold.
    """
    if isinstance(system, ShiftOfFiniteType):
        radii, method = (1.0, 1.0, 0.5), "symbolic-splice"
    elif isinstance(system, (LinearSaddle, TorusAutomorphism)):
        r_B = r_A / 3.0
        r_D = r_B * abs(system.cover._det_v)
        if isinstance(system, TorusAutomorphism):
            r_D = min(r_D, LIFT_AMBIGUITY * 0.96)
        radii, method = (r_A, r_B, r_D), "eigen-closed-form"
    else:
        raise NotHyperbolicError(
            f"No product structure is available for {system.name!r}."
        )
    A, B, D = (metric_ball(system, r) for r in radii)
    return ProductStructure(system, A, B, D, method, half_window=half_window)


# ---------------------------------------------------------------------------
# perturbation builders


def _singular_values(matrix):
    (a, b), (c, d) = matrix
    # eigenvalues of M^T M by hand; det(M^T M) = det(M)^2
    tr = a * a + b * b + c * c + d * d
    det2 = (a * d - b * c) ** 2
    root = math.sqrt(max(tr * tr - 4.0 * det2, 0.0))
    return math.sqrt((tr + root) / 2.0), math.sqrt(max((tr - root) / 2.0, 0.0))


def trig_perturbation(system, magnitude):
    """g(x) = A x + m (sin 2 pi x_2, sin 2 pi x_1) mod 1 on the torus.

    Invertibility certificate: the perturbation is 2 pi m Lipschitz, so
    2 pi m < sigma_min(A) makes the lifted map injective; construction
    refuses magnitudes that break the certificate. The inverse solves
    A x + m s(x) = q row by row by Newton's method with the closed-form
    Jacobian A + 2 pi m [[0, cos 2 pi x_2], [cos 2 pi x_1, 0]], halving a
    step that does not shrink |A x + m s(x) - q|. The Jacobian moves by at
    most m (2 pi)^2 per unit and the lifted map parts points by at least
    sigma_min - 2 pi m, so a full step d lands within C |d|^2 of the root,
    C = m (2 pi)^2 / (2 (sigma_min - 2 pi m)). A row stops once that bound
    is below 2^-60, so no confirming step is needed; a row still moving
    after _NEWTON_STEPS steps raises. Stopped rows are written out and the
    rest compacted through one index array, so each row gets the floats it
    gets when inverted alone. At m = 0 the inverse is the one exact step A^-1 q.
    """
    if not isinstance(system, TorusAutomorphism):
        raise TypeError("The trig perturbation family lives on the torus.")
    if magnitude < 0:
        raise ValueError("The magnitude must be nonnegative.")
    sigma_max, sigma_min = _singular_values(system.matrix)
    lipschitz = 2.0 * math.pi * magnitude
    if lipschitz >= sigma_min:
        raise ValueError(
            f"No invertibility certificate: 2 pi m = {lipschitz:.6f} is not "
            f"below sigma_min(A) = {sigma_min:.6f}."
        )
    matrix = system.matrix
    m = magnitude
    (a, b), (c, d) = ((float(v) for v in row) for row in matrix)
    quad = m * (2.0 * math.pi) ** 2 / (2.0 * (sigma_min - lipschitz))  # C

    def forward(x):
        s1, s2 = math.sin(2.0 * math.pi * x[1]), math.sin(2.0 * math.pi * x[0])
        return ((matrix[0][0] * x[0] + matrix[0][1] * x[1] + m * s1) % 1,
                (matrix[1][0] * x[0] + matrix[1][1] * x[1] + m * s2) % 1)

    mat = np.array(matrix, dtype=float)

    def forward_batch(p):
        s = np.sin(2.0 * np.pi * p)  # row (sin 2 pi x_1, sin 2 pi x_2)
        s *= m
        y = p @ mat.T
        y += s[:, ::-1]
        y -= np.floor(y)
        return y

    def newton(x1, x2, q1, q2):
        # |F|^2 and the Newton step J^-1 F at x, F(x) = A x + m s(x) - q:
        # each float operation of the closed form, written into a row whose
        # value is spent and that is none of its operands, so it costs
        # neither an allocation nor numpy's check of an output that
        # overlaps an input
        mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
        u1, u2 = mul(2.0 * np.pi, x1), mul(2.0 * np.pi, x2)
        s1, s2 = np.sin(u1), np.sin(u2)
        c1, c2 = np.cos(u1), np.cos(u2)
        p = mul(a, x1)
        f1 = add(p, mul(b, x2, u1), u2)
        f1 = sub(add(f1, mul(m, s2, u1), p), q1, u2)  # rows free: p, u1
        f2 = add(mul(c, x1, u1), mul(d, x2, p), s2)
        f2 = sub(add(f2, mul(m, s1, u1), p), q2, u1)  # free: p, s1, s2
        j12 = add(b, mul(lipschitz, c2, s1), p)
        j21 = add(c, mul(lipschitz, c1, s1), s2)  # free: s1, c1, c2
        det = sub(a * d, mul(j12, j21, s1), c1)
        r = add(mul(f1, f1, s1), mul(f2, f2, c2))
        d1 = div(sub(mul(d, f1, s1), mul(j12, f2, c2), p), det, s1)
        d2 = div(sub(mul(a, f2, c2), mul(j21, f1, p), u1), det, u2)
        return r, d1, d2

    def backward_batch(q):
        if m == 0:
            return system.backward_batch(q)  # one exact step: A^-1 q
        out, rows = np.empty((len(q), 2)), np.arange(len(q))
        q1, q2 = q.T.copy()
        x1, x2 = system.cover.backward((q1, q2))  # the lift of A^-1 q
        r, d1, d2 = newton(x1, x2, q1, q2)
        t = None  # the step lengths, while a halved step is in play
        for _ in range(_NEWTON_STEPS):
            # only a full step carries the certified bound C |d|^2
            done = quad * (d1 * d1 + d2 * d2) < 2.0 ** -60
            if t is not None:
                done &= t == 1.0
            # stopped rows take their full step x - d
            if done.all():  # also when no rows are left
                out[rows, 0], out[rows, 1] = x1 - d1, x2 - d2
                out -= np.floor(out)
                return out
            if done.any():  # written out, then the moving rows compacted
                fin, keep = done.nonzero()[0], (~done).nonzero()[0]
                out[rows.take(fin), 0] = x1.take(fin) - d1.take(fin)
                out[rows.take(fin), 1] = x2.take(fin) - d2.take(fin)
                rows, q1, q2, x1, x2, r, d1, d2 = (
                    v.take(keep) for v in (rows, q1, q2, x1, x2, r, d1, d2))
                if t is not None:
                    t = t.take(keep)
            if t is None:
                y1, y2 = x1 - d1, x2 - d2
            else:
                y1, y2 = x1 - t * d1, x2 - t * d2
            ry, e1, e2 = newton(y1, y2, q1, q2)
            # Armijo: keep y, else halve t
            ok = ry <= (1.0 - 1e-4 * (1.0 if t is None else t)) * r
            if ok.all():
                t = None
            else:
                y1, y2, ry, e1, e2 = (np.where(ok, v, w) for v, w in (
                    (y1, x1), (y2, x2), (ry, r), (e1, d1), (e2, d2)))
                t = np.where(ok, 1.0, 0.5 * (1.0 if t is None else t))
            x1, x2, r, d1, d2 = y1, y2, ry, e1, e2
        raise ArithmeticError(f"{len(rows)} rows of the trig inverse did not "
                              f"stop within {_NEWTON_STEPS} Newton steps.")

    def backward(y):
        return tuple(backward_batch(np.array([y], dtype=float))[0].tolist())

    return GenericSystem(
        name=f"{system.name}+trig({magnitude:g})",
        space_id="torus",
        forward=forward,
        backward=backward,
        metric=torus_metric,
        embed=lambda x: x,
        embedding_metric="torus",
        space_diameter=system.space_diameter,
        payload={
            "perturbation": "trig",
            "magnitude": magnitude,
            "base": system.name,
            "certificate": {
                "sigma_min": sigma_min,
                "two_pi_m": lipschitz,
                "margin": sigma_min - lipschitz,
            },
            # sup distance d(f(x), g(x)) is m * sup |(sin a, sin b)|
            "sup_defect": magnitude * math.sqrt(2.0),
        },
        forward_batch=forward_batch,
        backward_batch=backward_batch,
    )


def sft_flip_perturbation(system):
    """g = shift after psi, where psi flips the symbol at index 3 whenever
    the symbols at 0 and 1 are both 1. psi is an involution moving points by
    at most 2^-3, so every g-orbit is a pseudo-orbit of the plain shift with
    defect at most 2^-2, safely below the tracing threshold. Full binary
    shifts only; the flip must stay admissible unconditionally."""
    if not isinstance(system, ShiftOfFiniteType):
        raise TypeError("The flip perturbation lives on a shift space.")
    if system.size != 2 or any(
        not system.allowed(a, b) for a in range(2) for b in range(2)
    ):
        raise ValueError("The flip perturbation needs the full 2-shift.")

    def psi(x):
        if x.symbol_at(0) != 1 or x.symbol_at(1) != 1:
            return x
        lo = min(x.span_start, 3)
        word = list(x.window(lo, max(x.span_end, 3)))  # the word, out to 3
        word[3 - lo] = 1 - word[3 - lo]
        return _respell(x, x, lo, word)

    return GenericSystem(
        name=f"{system.name}+flip",
        space_id=system.space_id,
        forward=lambda x: psi(x).shifted(1),
        backward=lambda x: psi(x.shifted(-1)),
        metric=system.metric,
        space_diameter=system.space_diameter,
        payload={
            "perturbation": "symbol-flip",
            "base": system.name,
            "displacement": 0.125,
            "defect_bound": 0.25,
            "involution": True,
        },
    )


# ---------------------------------------------------------------------------
# topological stability


@dataclass(frozen=True)
class StabilityReport:
    """The semi-conjugacy h produced by tracing g-orbits under f.

    `h` is a callable usable on any point; the per-sample columns record
    what was measured. semiconjugacy_residual is sup d(f(h(x)), h(g(x)))
    over the samples, closeness is sup d(h(x), x), and guaranteed_closeness
    is the tracing coefficient times the sampled defect sup."""

    f_name: str
    g_name: str
    h: object = field(repr=False)
    samples: tuple = field(repr=False)
    images: tuple = field(repr=False)
    residuals: tuple = field(repr=False)
    closenesses: tuple = field(repr=False)
    semiconjugacy_residual: float = 0.0
    closeness: float = 0.0
    defect_sup: float = 0.0
    guaranteed_closeness: float = 0.0
    injective_flag: object = None
    collisions: tuple = ()
    uniqueness_note: str = ""
    window: int = 0
    method: str = ""

    def to_report(self, system, max_rows=None):
        ok = (self.semiconjugacy_residual <= RESIDUAL_TOL
              and self.closeness <= self.guaranteed_closeness + 1e-12)
        rep = Report(
            operation="stability",
            f=self.f_name,
            g=self.g_name,
            window=self.window,
            method=self.method,
            samples=len(self.samples),
            semiconjugacy_residual=self.semiconjugacy_residual,
            closeness=self.closeness,
            defect_sup=self.defect_sup,
            guaranteed_closeness=self.guaranteed_closeness,
            injective=self.injective_flag,
            residual_tol=RESIDUAL_TOL,
            verdict=PASS if ok else FAIL,
            note=self.uniqueness_note,
        )
        rows = zip(self.samples, self.images, self.closenesses, self.residuals)
        if max_rows is not None:
            rows = itertools.islice(rows, max_rows)
        rep.add_table(
            "per-sample",
            ["sample", "image", "closeness", "residual"],
            [[system.point_to_text(x), system.point_to_text(hx), c, r]
             for x, hx, c, r in rows],
        )
        return rep


def _stability_report(f, g, h, samples, images, residuals, closenesses,
                      defect_sup, collisions, window, method, why):
    """The StabilityReport of h at the samples, from the per-sample
    residuals and closenesses as float arrays or lists; `why` ends the
    uniqueness note with the reason B o B is an expansivity neighborhood."""
    return StabilityReport(
        f_name=f.name, g_name=g.name,
        h=h,
        samples=tuple(samples),
        images=tuple(images),
        residuals=tuple(map(float, residuals)),
        closenesses=tuple(map(float, closenesses)),
        # np.max keeps a NaN, where max() could drop it
        semiconjugacy_residual=float(np.max(residuals)),
        closeness=float(np.max(closenesses)),
        defect_sup=defect_sup,
        guaranteed_closeness=f.tracing_coefficient() * defect_sup,
        injective_flag=not collisions,
        collisions=tuple(collisions),
        uniqueness_note=(
            "h is the unique map with (h(x), x) in B when B o B is an "
            "expansivity neighborhood; " + why
        ),
        window=window,
        method=method,
    )


def _chunk_samples(window):
    """Samples per chunk of the linear stability route at this window."""
    return max(1, _CHUNK_FLOATS // (2 * (window + 1)))


def _linear_images(f, g, pts, window, radius=None):
    """h(x) and h(g(x)) at every row x of the (N, 2) array pts, and the sup
    of the defects |d_k| of the g-orbits (NaN when one is).

    h(x) is the f-tracing point, at the sample's index, of the g-orbit
    window x_k, k = -W .. W, through x_0 = x, and h(g(x)) that of the same
    window moved one step on. The orbit is stepped W+1 times forward and W
    times backward; each step's defect d_k = x_{k+1} - A x_k,
    k = -W .. W, is lifted once, and only the halves the two tracing
    points read are split off: ds_k for k <= 0 and du_k for k >= 0.
    Each window runs its stable recursion forward from zero and its
    unstable one backward from zero up to the sample's index, as
    `_eigen_series` does over the whole window. Orbits that overflow give
    inf or nan silently, and the sup reports it.
    """
    cover = f.cover
    wrap = isinstance(f, TorusAutomorphism)
    n = len(pts)
    # ds[j] is ds_{j-W} and du[j] is du_j, for j = 0 .. W
    ds, du = np.empty((2, window + 1, n))
    tops = []  # the largest |d_k| of each step; np.max keeps a NaN

    def lift(points, images):
        d = _lifted_defects(cover, points, images, wrap)
        tops.append(_largest_norm(d))
        return d[:, 0], d[:, 1]

    with np.errstate(over="ignore", invalid="ignore"):
        x = gx = g.forward_batch(pts)
        if radius is not None:  # the D-perturbation gate, on a torus ball
            near = _torus_distances(f.forward_batch(pts), gx) < radius
            if not near.all():  # name the first failing row; NaN fails too
                raise _not_perturbation(f, tuple(pts[np.argmin(near)].tolist()))
        du[0], ds[window] = cover.split(lift(pts, gx))  # d_0 sits in both halves
        for j in range(1, window + 1):
            ahead = g.forward_batch(x)
            du[j] = cover.unstable_coefficient(lift(x, ahead))
            x = ahead
        x = pts
        for j in range(window - 1, -1, -1):
            behind = g.backward_batch(x)
            ds[j] = cover.stable_coefficient(lift(behind, x))
            x = behind
        images = []
        # the window through x reads ds_{-W..-1} and du_{0..W-1}; the one
        # through g(x) reads both one step on
        for o, base in ((0, pts), (1, gx)):
            es = _stable_series(cover.lam_s, ds[o:o + window], np.zeros(n))
            eu = _unstable_series(cover.lam_u, du[o:o + window], np.zeros(n))
            y = np.empty_like(base)
            y[:, 0], y[:, 1] = cover.combine(eu, es)
            y += base
            if wrap:
                y -= np.floor(y)
            images.append(y)
    return images[0], images[1], float(np.max(tops))


def _largest_norm(d):
    """np.max(np.hypot(d[:, 0], d[:, 1])) of an (N, 2) float array, N >= 1,
    with hypot taken only at the rows whose squared norm is within 2^-40 of
    the largest: hypot and the squared norm each err by a few units in the
    last place, far inside that margin, so the row hypot puts on top is one
    of them. A largest squared norm that is not finite, or is so small that
    squares lose bits to underflow, takes every row."""
    sq = d[:, 0] * d[:, 0]
    sq += d[:, 1] * d[:, 1]
    top = sq.max()
    if 2.0 ** -900 < top < math.inf:
        d = d[sq >= top * (1.0 - 2.0 ** -40)]
    return np.hypot(d[:, 0], d[:, 1]).max()


def _stability_linear(f, g, samples, window, radius):
    wrap = isinstance(f, TorusAutomorphism)
    pts = np.array(samples, dtype=float)
    h_x, h_gx = np.empty_like(pts), np.empty_like(pts)
    defect_sup = 0.0
    chunk = _chunk_samples(window)
    for lo in range(0, len(pts), chunk):
        h_x[lo:lo + chunk], h_gx[lo:lo + chunk], sup = _linear_images(
            f, g, pts[lo:lo + chunk], window, radius)
        defect_sup = float(np.maximum(defect_sup, sup))
    gaps = f.forward_batch(h_x) - h_gx
    close = h_x - pts
    if wrap:
        gaps -= np.round(gaps)
        close -= np.round(close)
    residuals = np.hypot(gaps[:, 0], gaps[:, 1])
    closenesses = np.hypot(close[:, 0], close[:, 1])

    def h_point(x):
        hx = _linear_images(f, g, np.array([x], dtype=float), window)[0]
        return (float(hx[0, 0]), float(hx[0, 1]))

    image_points = tuple(zip(*h_x.T.tolist()))  # rows as float pairs
    # pairs of samples whose images are closer than 1e-8
    collisions = [(j, i) for q, p in _near_pairs(h_x, h_x, 1e-8, wrap)
                  for i, j in zip(q.tolist(), p.tolist())
                  if j < i and f.metric(image_points[j], image_points[i]) < 1e-8]
    return _stability_report(
        f, g, h_point, zip(*pts.T.tolist()), image_points,
        residuals, closenesses, defect_sup, collisions, window, "eigen-series",
        "for this linear system every metric ball is one, so h is unique at "
        "this closeness scale")


def _sft_windows(f, g, x, window):
    """The f-pseudo-orbits through x and through g(x), both cut from the
    g-orbit of x at k = -W .. W+1. An exact g-orbit of period k <= W gives
    closed loops instead, and g(x) has the same period."""
    ahead = g.orbit(x, window + 1)
    k = next((k for k in range(1, window + 1) if ahead[k] == x), None)
    if k is not None:
        return [PseudoOrbit.measured(f, loop, PERIODIC, period=k)
                for loop in (ahead[:k], ahead[1:k + 1])]
    return PseudoOrbit.measured_steps(
        f, g.orbit(x, -window)[:0:-1] + ahead, start_index=-window)


def _stability_sft(f, g, samples, window):
    images, residuals, closenesses = [], [], []
    defect_sup = 0.0

    def h_point(x):
        return _diagonal_point(f, _sft_windows(f, g, x, window)[0])

    for x in samples:
        at_x, at_gx = _sft_windows(f, g, x, window)
        defect_sup = max(defect_sup, at_x.defect_bound)
        # at_gx's window is at_x's moved one point on, so one read of the
        # diagonal symbols serves both
        diagonal = [p.symbol_at(0) for p in at_x.window + at_gx.window[-1:]]
        hx = _diagonal_point(f, at_x, diagonal[:-1])
        images.append(hx)
        closenesses.append(sft_metric(hx, x))
        residuals.append(sft_metric(f.forward(hx),
                                    _diagonal_point(f, at_gx, diagonal[1:])))
    earlier, collisions = {}, []  # image -> indices of the samples so far
    for i, hx in enumerate(images):
        collisions += [(i, j) for j in earlier.get(hx, ()) if samples[i] != samples[j]]
        earlier.setdefault(hx, []).append(i)
    return _stability_report(
        f, g, h_point, samples, images, residuals, closenesses, defect_sup,
        collisions, window, "symbol-diagonal",
        "balls of radius <= 1 are expansivity neighborhoods for the shift, "
        "and the ultrametric keeps B o B inside the unit ball")


def _not_perturbation(f, x):
    return ValueError(f"g is not a D-perturbation of f: the gap at sample "
                      f"{f.point_to_text(x)} leaves D.")


def stability_conjugacy_h(f, g, D, samples, window=30):
    """The conjugating map from a D-perturbation g back to the model f.

    Requires (f(x), g(x)) in D at every sample and an int window >= 1;
    h(x) is the f-tracing point of the g-orbit window x_k, k = -window ..
    window, through x_0 = x. Windows truncate the true bi-infinite orbit,
    which shaves a geometric tail of order rate_s^window off the series; at
    the default window that sits far below the measured residual scale. For
    shifts, samples on exact g-periodic orbits are traced as closed loops,
    which makes the residual exactly zero rather than window-limited.
    """
    if isinstance(window, bool) or not isinstance(window, int) or window < 1:
        raise ValueError(f"The window must be an integer >= 1, not {window!r}.")
    samples = list(samples)
    if not samples:
        raise ValueError("At least one sample point is needed.")
    radius = D.radius if _array_ball(f, D, samples) else None  # checked by chunk
    if radius is None:
        for x in samples:
            if not D.accepts(f.forward(x), g.forward(x)):
                raise _not_perturbation(f, x)
    if isinstance(f, (LinearSaddle, TorusAutomorphism)):
        return _stability_linear(f, g, samples, window, radius)
    if isinstance(f, ShiftOfFiniteType):
        return _stability_sft(f, g, samples, window)
    raise TypeError(
        "Stability tracing needs a linear, torus, or shift model for f."
    )


# ---------------------------------------------------------------------------
# transported entourages, for invariance checks


def image_entourage(U, h_inv, space_id=None):
    """The image of U under h x h: pairs whose preimages under h lie in U."""
    return PredicateEntourage(
        lambda x, y: U.accepts(h_inv(x), h_inv(y)),
        space_id=space_id or f"{U.space_id}-image",
        symmetric_flag=U.symmetric_flag,
    )
