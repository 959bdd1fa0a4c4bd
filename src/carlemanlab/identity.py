"""Multiplier-identity builders and verifiers.

The operator under study is

    L w = a0 dw - (a + i b) sum_jk (a^jk w_xj)_xk dt + b0 . grad w dt

with real scalars a0, a, b, a constant real vector b0, a symmetric
coefficient family a^jk, a real weight exponent ell (theta = e^ell) and a
complex auxiliary field Phi.  Multiplying L w by the conjugate of a
carefully chosen first-order expression I1 and by theta turns the product
into an exact sum of recognizable pieces: a magnitude term, a martingale
term, spatial divergences, energy densities, first-order couplings and
quadratic-variation corrections.  This module builds both sides of that
identity, of each intermediate identity used to derive it, and of its
classical specializations, each as one VerificationCase, and checks that
the canonical residual is the zero form.

theta itself is never represented: every build works in the weighted
variable z = theta w, where conjugating by theta only inserts multiples
of derivatives of ell.

Verification regimes
    R1   a arbitrary, b0 = 0
    R2   a = 0, b0 = 0 (Schrodinger-type principal part)
    R3   a = b = 0, b0 arbitrary (transport principal part)
    raw  all scalars symbolic; the products a*b0^j and b*b0^j are
         declared null pairs, mirroring the constraint that makes the
         three regimes exhaustive
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from .canonical import CanonicalForm, _canon, canonicalize
from .config import RunError
from .exprs import (DIMENSIONS, DIMENSIONS_TEXT, C, Context, DT, Expr, I, conj, d_t,
                    d_x, esum, im, ito_d, re)
from .jetoracle import JetValue, eval_jet_many

REGIMES = ("R1", "R2", "R3", "raw")

PROOF_STEPS = ("2", "03", "3", "5", "6", "10", "02", "zr2", "zr0")


class SpecError(RunError):
    """Raised for an unknown cell, case, proof step or sample size."""


@dataclass(frozen=True)
class OperatorSpec:
    """One (n, regime) cell of the general identity.

    Every ingredient the regime does not fix to zero stays symbolic.  A
    fixed coefficient or a real solution is a substitution instance of
    its cell, and substitution commutes with d_x, d_t, the Ito d and
    conj, so the cell's zero residual covers it.
    """

    n: int = 1
    regime: str = "R1"

    def __post_init__(self):
        if type(self.n) is not int or self.n not in DIMENSIONS:
            raise SpecError(f"dimension must be {DIMENSIONS_TEXT}, got {self.n}")
        if self.regime not in REGIMES:
            raise SpecError(f"unknown regime {self.regime!r}")


@dataclass(frozen=True)
class IdentityResidual:
    """Outcome of one canonical-residual check."""

    case: str
    lhs: CanonicalForm
    rhs: CanonicalForm
    residual: CanonicalForm

    @classmethod
    def of(cls, case: str, lhs: CanonicalForm, rhs: CanonicalForm) -> "IdentityResidual":
        return cls(case, lhs, rhs, lhs - rhs)

    @property
    def zero(self) -> bool:
        return self.residual.is_zero

    @property
    def surviving_monomials(self) -> tuple[str, ...]:
        return tuple(self.residual.serialize().splitlines())


@dataclass(frozen=True)
class VerificationCase:
    """One identity the package checks: both sides over one context, and a
    corrupted right side that both the canonicalizer and the oracle must
    tell apart from the intact one."""

    case_id: str
    ctx: Context
    lhs: Expr
    rhs: Expr
    mutated_rhs: Expr


def _dropping(case_id: str, ctx: Context, lhs: Expr, groups: list[tuple[str, Expr]],
              dropped: str) -> VerificationCase:
    """The identity lhs = the sum of the named groups, corrupted by dropping
    the group named dropped; both sums keep the groups' order."""
    kept = dict(groups)
    del kept[dropped]
    return VerificationCase(case_id=case_id, ctx=ctx, lhs=lhs,
                            rhs=esum(e for _, e in groups), mutated_rhs=esum(kept.values()))


def verify(case: VerificationCase) -> IdentityResidual:
    """Canonical residual of the intact identity of case."""
    return IdentityResidual.of(
        case.case_id, canonicalize(case.lhs, case.ctx), canonicalize(case.rhs, case.ctx))


# ---------------------------------------------------------------------------
# Workspace: one set of ingredient expressions
# ---------------------------------------------------------------------------


class Workspace:
    """A context plus the named ingredients of one identity build.

    All ingredients are plain expressions, so specializations can pass
    composed trees (for example ell = mu * phi, or z = i * u).
    """

    def __init__(self, ctx, z, a0, a, b, b0, ajk, ell, phi):
        self.ctx = ctx
        self.n = ctx.n
        self.z = z
        self.zc = conj(z)
        self.a0 = a0
        self.a = a
        self.b = b
        self.b0 = list(b0)
        self._ajk = dict(ajk)
        self.ell = ell
        self.phi = phi
        rng = range(1, self.n + 1)
        self.zx = {j: d_x(z, j) for j in rng}
        self.zcx = {j: d_x(self.zc, j) for j in rng}
        self.ellx = {j: d_x(ell, j) for j in rng}
        self.ellt = d_t(ell)
        self.dz = ito_d(z)
        self.dzc = ito_d(self.zc)
        self.dzx = {j: ito_d(self.zx[j]) for j in rng}
        self.dzcx = {j: ito_d(self.zcx[j]) for j in rng}
        self.A = self._build_A()
        self.Lam = self._build_Lambda()
        self.b0_grad_ell = self.b0_dot_grad(ell)
        # sum_jk a^{jk} ell_xj z_xk, shared by I1 and I2
        self.grad_term = esum(
            self.am(j, k) * self.ellx[j] * self.zx[k] for j, k in self._pairs())
        self.I1 = self._build_I1()
        self.I2 = self._build_I2()
        self.theta_L = self._build_theta_L()

    def am(self, j: int, k: int) -> Expr:
        return self._ajk[(j, k) if j <= k else (k, j)]

    def weighted_product(self) -> Expr:
        """2 Re(conj(I1) theta L w), the left side of the general identity."""
        return C(2) * re(conj(self.I1) * self.theta_L)

    def b0_dot_grad(self, e: Expr) -> Expr:
        return esum(self.b0[j - 1] * d_x(e, j) for j in range(1, self.n + 1))

    def _pairs(self):
        n = self.n
        return [(j, k) for j in range(1, n + 1) for k in range(1, n + 1)]

    def _build_A(self) -> Expr:
        terms = []
        for j, k in self._pairs():
            terms.append(self.am(j, k) * self.ellx[j] * self.ellx[k])
            terms.append(-d_x(self.am(j, k) * self.ellx[j], k))
        return esum(terms)

    def _build_Lambda(self) -> Expr:
        terms = [d_x(self.am(j, k) * self.zx[j], k) for j, k in self._pairs()]
        terms.append(self.A * self.z)
        return esum(terms)

    def _build_I1(self) -> Expr:
        return (
            -(self.a * self.Lam)
            + C(2) * I * self.b * self.grad_term
            + (self.phi - self.a0 * self.ellt - self.b0_grad_ell) * self.z
        )

    def _build_I2(self) -> Expr:
        return (
            self.a0 * self.dz
            - I * self.b * self.Lam * DT
            + C(2) * self.a * self.grad_term * DT
            + self.b0_dot_grad(self.z) * DT
            - self.phi * self.z * DT
        )

    def _build_theta_L(self) -> Expr:
        # theta * L(theta^{-1} z), written with W_j = z_xj - ell_xj z.
        W = {j: self.zx[j] - self.ellx[j] * self.z for j in range(1, self.n + 1)}
        second = []
        for j, k in self._pairs():
            second.append(d_x(self.am(j, k) * W[j], k))
            second.append(-(self.ellx[k] * self.am(j, k) * W[j]))
        transport = esum(
            self.b0[j - 1] * (self.zx[j] - self.ellx[j] * self.z)
            for j in range(1, self.n + 1)
        )
        return (
            self.a0 * (self.dz - self.ellt * self.z * DT)
            - (self.a + I * self.b) * esum(second) * DT
            + transport * DT
        )

    # -- energy and flux coefficients ----------------------------------

    def B_coef(self) -> Expr:
        a, b, a0 = self.a, self.b, self.a0
        sq = a * a + b * b
        div_part = esum(
            d_x(self.A * self.am(j, k) * self.ellx[j], k) for j, k in self._pairs()
        )
        return (
            C(2) * sq * div_part
            + a * a0 * d_t(self.A)
            + C(2) * a * self.A * re(self.phi)
            - C(2) * b * self.A * im(self.phi)
            - C(2) * re(self.phi * (conj(self.phi) - a0 * self.ellt - self.b0_grad_ell))
            + a0 * (a0 * d_t(self.ellt) + d_t(self.b0_grad_ell))
            + self.b0_dot_grad(a0 * self.ellt + self.b0_grad_ell)
        )

    def D_coef(self, j: int, k: int) -> Expr:
        a, b, a0 = self.a, self.b, self.a0
        sq = a * a + b * b
        inner = []
        for jp in range(1, self.n + 1):
            for kp in range(1, self.n + 1):
                inner.append(self.am(j, kp) * d_x(self.am(jp, k) * self.ellx[jp], kp))
                inner.append(self.am(k, kp) * d_x(self.am(jp, j) * self.ellx[jp], kp))
                inner.append(-d_x(self.am(j, k) * self.am(jp, kp) * self.ellx[jp], kp))
        return (
            -(a * a0 * d_t(self.am(j, k)))
            + C(2) * b * im(self.phi) * self.am(j, k)
            - C(2) * a * re(self.phi) * self.am(j, k)
            + C(2) * sq * esum(inner)
        )

    def M_expr(self) -> Expr:
        a, b, a0 = self.a, self.b, self.a0
        mid = []
        for j, k in self._pairs():
            mid.append(
                self.am(j, k)
                * (a * self.zx[j] * self.zcx[k] + C(2) * b * self.ellx[j] * im(self.zcx[k] * self.z))
            )
        return (
            -(a * a0 * self.A * self.z * self.zc)
            + a0 * esum(mid)
            - a0 * (a0 * self.ellt + self.b0_grad_ell) * self.z * self.zc
        )

    def V_flux(self, k: int) -> Expr:
        a, b, a0 = self.a, self.b, self.a0
        sq = a * a + b * b
        n = self.n
        t1 = esum(self.am(j, k) * re(self.zx[j] * self.dzc) for j in range(1, n + 1))
        t2 = esum(self.am(j, k) * self.ellx[j] * im(self.z * self.dzc) for j in range(1, n + 1))
        t3 = esum(self.am(j, k) * self.ellx[j] * self.z * self.zc for j in range(1, n + 1))
        t4 = esum(self.am(j, k) * re(self.zcx[j] * self.phi * self.z) for j in range(1, n + 1))
        t5 = esum(
            self.am(j, k) * im(self.zx[j] * (conj(self.phi) - a0 * self.ellt) * self.zc)
            for j in range(1, n + 1)
        )
        t6 = []
        for j in range(1, n + 1):
            for jp in range(1, n + 1):
                for kp in range(1, n + 1):
                    t6.append(
                        self.am(j, k) * self.am(jp, kp) * self.ellx[j] * self.zx[jp] * self.zcx[kp]
                    )
                    t6.append(
                        -(
                            self.am(j, kp)
                            * self.am(jp, k)
                            * self.ellx[j]
                            * (self.zx[jp] * self.zcx[kp] + self.zcx[jp] * self.zx[kp])
                        )
                    )
        return (
            -(C(2) * a * a0 * t1)
            - C(2) * a0 * b * t2
            - C(2) * self.A * sq * t3 * DT
            + C(2) * a * t4 * DT
            + C(2) * b * t5 * DT
            + C(2) * sq * esum(t6) * DT
        )

    def E_coef(self, j: int) -> Expr:
        return esum(
            self.am(j, k)
            * (C(2) * self.ellx[k] * (conj(self.phi) - self.a0 * self.ellt) - d_x(conj(self.phi), k))
            for k in range(1, self.n + 1)
        )

    def F_coef(self, j: int) -> Expr:
        terms = []
        for k in range(1, self.n + 1):
            terms.append(self.am(j, k) * d_x(self.phi - self.a0 * self.ellt, k))
            terms.append(-(self.a0 * d_t(self.am(j, k) * self.ellx[k])))
            terms.append(-(C(2) * self.am(j, k) * self.ellx[k] * self.phi))
        return esum(terms)


def _unit_metric(n: int) -> dict:
    return {(j, k): (C(1) if j == k else C(0)) for j in range(1, n + 1) for k in range(j, n + 1)}


def make_theorem_workspace(spec: OperatorSpec) -> Workspace:
    """Declare symbols for the general identity in the cell spec: a is zero
    in R2 and R3, b in R3 and b0 in R1 and R2; the raw cell declares the
    null pairs a*b0^j and b*b0^j."""
    ctx = Context(n=spec.n)
    rng = range(1, spec.n + 1)
    a0 = ctx.real_scalar("a0")
    a = C(0) if spec.regime in ("R2", "R3") else ctx.real_scalar("a")
    b = C(0) if spec.regime == "R3" else ctx.real_scalar("b")
    if spec.regime in ("R1", "R2"):
        b0 = [C(0)] * spec.n
    else:
        b0 = [ctx.real_scalar(f"b0{j}") for j in rng]
    if spec.regime == "raw":
        for j in rng:
            ctx.declare_null_pair("a", f"b0{j}")
            ctx.declare_null_pair("b", f"b0{j}")
    ajk = {(j, k): ctx.real_field(f"a{j}{k}") for j in rng for k in range(j, spec.n + 1)}
    ell = ctx.real_field("ell")
    phi = ctx.complex_field("Phi")
    z = ctx.semimartingale("z")
    return Workspace(ctx, z, a0, a, b, b0, ajk, ell, phi)


# ---------------------------------------------------------------------------
# The general identity
# ---------------------------------------------------------------------------


def rhs_groups(ws: Workspace) -> list[tuple[str, Expr]]:
    """The right-hand side of the general identity, split into its terms."""
    n = ws.n
    a, b, a0 = ws.a, ws.b, ws.a0
    pairs = ws._pairs()
    magnitude = C(2) * ws.I1 * conj(ws.I1) * DT
    martingale = ito_d(ws.M_expr())
    divergence = esum(d_x(ws.V_flux(k), k) for k in range(1, n + 1))
    zero_order = ws.B_coef() * ws.z * ws.zc * DT
    gradient_form = esum(ws.D_coef(j, k) * ws.zx[j] * ws.zcx[k] for j, k in pairs) * DT
    first_order = (
        C(2)
        * esum(
            re((a * ws.E_coef(j) + conj(ws.phi) * ws.b0[j - 1]) * ws.zc * ws.zx[j])
            + b * im(ws.F_coef(j) * ws.z * ws.zcx[j])
            for j in range(1, n + 1)
        )
        * DT
    )
    qv_gradient = -(a * a0 * esum(ws.am(j, k) * ws.dzx[j] * ws.dzcx[k] for j, k in pairs))
    weight_transport = -(
        ws.b0_dot_grad((a0 * ws.ellt + ws.b0_grad_ell) * ws.z * ws.zc) * DT
    )
    qv_mass = a0 * (a * ws.A + a0 * ws.ellt + ws.b0_grad_ell) * ws.dz * ws.dzc
    qv_mixed = -(
        C(2) * a0 * b * esum(ws.am(j, k) * ws.ellx[k] * im(ws.dz * ws.dzcx[j]) for j, k in pairs)
    )
    stochastic_mass = (
        C(2)
        * a0
        * (
            b * esum(d_x(ws.am(j, k) * ws.ellx[k], j) for j, k in pairs) * im(ws.z * ws.dzc)
            + re(conj(ws.phi) * ws.zc * ws.dz)
        )
    )
    return [
        ("magnitude", magnitude),
        ("martingale", martingale),
        ("divergence", divergence),
        ("zero_order", zero_order),
        ("gradient_form", gradient_form),
        ("first_order", first_order),
        ("qv_gradient", qv_gradient),
        ("weight_transport", weight_transport),
        ("qv_mass", qv_mass),
        ("qv_mixed", qv_mixed),
        ("stochastic_mass", stochastic_mass),
    ]


def _theorem_case(case_id: str, ws: Workspace) -> VerificationCase:
    """The general identity on ws; the corruption drops its zero-order term."""
    return _dropping(case_id, ws.ctx, ws.weighted_product(), rhs_groups(ws), "zero_order")


def build_identity(spec: OperatorSpec) -> tuple[Expr, Expr, Workspace]:
    """Both sides of the general identity for the given spec."""
    ws = make_theorem_workspace(spec)
    return ws.weighted_product(), esum(e for _, e in rhs_groups(ws)), ws


@dataclass(frozen=True)
class RawCell:
    """The raw cell's theorem residual, and its residual with the null
    pairs a*b0^j and b*b0^j unapplied."""

    theorem: IdentityResidual
    unconstrained: IdentityResidual

    @property
    def clean(self) -> bool:
        """Whether the pairs are needed and suffice: the unconstrained
        residual is nonzero, and each of its monomials holds a null
        product."""
        res = self.unconstrained.residual
        return not res.is_zero and res.without_null_products().is_zero


def verify_raw_cell(case: VerificationCase) -> RawCell:
    """Canonicalize each side of a raw cell's built case once, with its
    null pairs unapplied; the theorem forms are those forms without the
    monomials that hold a null product, which is what canonicalize gives.
    The context is only read."""
    ctx = case.ctx
    if not ctx.null_pairs:
        raise SpecError("constraint inspection applies to the raw regime")
    lhs, rhs = (CanonicalForm(_canon(e, ctx, {}), ctx) for e in (case.lhs, case.rhs))
    theorem = IdentityResidual.of(case.case_id, lhs.without_null_products(),
                                  rhs.without_null_products())
    free = IdentityResidual.of(f"raw-unconstrained(n={ctx.n})", lhs, rhs)
    return RawCell(theorem=theorem, unconstrained=free)


def verify_identity(spec: OperatorSpec) -> IdentityResidual:
    """Canonical residual of the theorem cell spec; in a raw cell,
    canonicalize drops the monomials that hold a null product."""
    return verify(build_case(spec))


# ---------------------------------------------------------------------------
# Proof steps
# ---------------------------------------------------------------------------


def proof_step_sides(ws: Workspace, key: str) -> tuple[Expr, Expr]:
    """(lhs, rhs) of the proof step key on ws; SpecError for a key outside
    PROOF_STEPS.

    Step 2 splits the weighted product into the magnitude term and the
    cross product 2 Re(conj(I1) I2); step 03 expands the cross product
    into nine terms g1..g9.  Steps 3, 5, 6, 10, 02 and zr2 each expand one
    of g1, g2, g3, g4, g6 and g8, and zr0 expands the weight term that
    zr2 leaves.  Only the expansion of step key is built.
    """
    a, b, a0 = ws.a, ws.b, ws.a0
    sq = a * a + b * b
    pairs = ws._pairs()
    Lc = conj(ws.Lam)
    pc = conj(ws.phi)
    cross = C(2) * re(conj(ws.I1) * ws.I2)
    g1 = -(C(2) * a * a0 * re(Lc * ws.dz))
    g2 = -(C(4) * sq * re(esum(ws.am(j, k) * ws.ellx[j] * (ws.zx[k] * Lc) for j, k in pairs)) * DT)
    g3 = C(2) * a * re(ws.phi * Lc * ws.z) * DT
    g4 = C(4) * a0 * b * esum(ws.am(j, k) * ws.ellx[j] * im(ws.zcx[k] * ws.dz) for j, k in pairs)
    g5 = C(4) * b * esum(ws.am(j, k) * ws.ellx[j] * im(pc * ws.zc * ws.zx[k]) for j, k in pairs) * DT
    g6 = C(2) * b * im((pc - a0 * ws.ellt) * ws.zc * ws.Lam) * DT
    g7 = (
        C(4)
        * a
        * esum(ws.am(j, k) * ws.ellx[j] * re((pc - a0 * ws.ellt) * ws.zc * ws.zx[k]) for j, k in pairs)
        * DT
    )
    g8 = C(2) * re(
        (pc - a0 * ws.ellt - ws.b0_grad_ell)
        * ws.zc
        * (a0 * ws.dz + ws.b0_dot_grad(ws.z) * DT)
    )
    g9 = -(C(2) * re(ws.phi * (pc - a0 * ws.ellt - ws.b0_grad_ell)) * ws.z * ws.zc * DT)

    if key == "2":
        return ws.weighted_product(), C(2) * ws.I1 * conj(ws.I1) * DT + cross
    if key == "03":
        return cross, esum([g1, g2, g3, g4, g5, g6, g7, g8, g9])

    if key == "3":
        step3 = []
        for j, k in pairs:
            step3.append(-(a * a0 * d_x(ws.am(j, k) * ws.zx[j] * ws.dzc + ws.am(j, k) * ws.zcx[j] * ws.dz, k)))
            step3.append(ito_d(a * a0 * ws.am(j, k) * ws.zx[j] * ws.zcx[k]))
            step3.append(-(a * a0 * d_t(ws.am(j, k)) * ws.zx[j] * ws.zcx[k] * DT))
            step3.append(-(a * a0 * ws.am(j, k) * ws.dzx[j] * ws.dzcx[k]))
        step3.append(-ito_d(a * a0 * ws.A * ws.z * ws.zc))
        step3.append(a * a0 * d_t(ws.A) * ws.z * ws.zc * DT)
        step3.append(a * a0 * ws.A * ws.dz * ws.dzc)
        return g1, esum(step3)

    if key == "5":
        step5 = []
        for j, k in pairs:
            step5.append(-(C(2) * sq * d_x(ws.A * ws.am(j, k) * ws.ellx[j] * ws.z * ws.zc, k) * DT))
            step5.append(C(2) * sq * d_x(ws.A * ws.am(j, k) * ws.ellx[j], k) * ws.z * ws.zc * DT)
        for j, k in pairs:
            for jp, kp in pairs:
                sym = ws.zx[jp] * ws.zcx[k] + ws.zcx[jp] * ws.zx[k]
                step5.append(
                    -(C(2) * sq * d_x(ws.am(j, k) * ws.ellx[j] * ws.am(jp, kp) * sym, kp) * DT)
                )
                step5.append(
                    C(2) * sq * ws.am(jp, kp) * d_x(ws.am(j, k) * ws.ellx[j], kp) * sym * DT
                )
                step5.append(
                    C(2)
                    * sq
                    * (
                        d_x(ws.am(j, k) * ws.ellx[j] * ws.am(jp, kp) * ws.zx[jp] * ws.zcx[kp], k)
                        - d_x(ws.am(j, k) * ws.am(jp, kp) * ws.ellx[j], k) * ws.zx[jp] * ws.zcx[kp]
                    )
                    * DT
                )
        return g2, esum(step5)

    if key == "6":
        step6 = []
        for j, k in pairs:
            step6.append(C(2) * a * d_x(re(ws.am(j, k) * ws.zcx[j] * ws.phi * ws.z), k) * DT)
            step6.append(-(C(2) * a * re(ws.phi) * ws.am(j, k) * ws.zx[j] * ws.zcx[k] * DT))
            step6.append(-(C(2) * a * re(ws.am(j, k) * d_x(ws.phi, k) * ws.z * ws.zcx[j]) * DT))
        step6.append(C(2) * a * ws.A * re(ws.phi) * ws.z * ws.zc * DT)
        return g3, esum(step6)

    if key == "10":
        step10 = []
        for j, k in pairs:
            alj = ws.am(j, k) * ws.ellx[j]
            step10.append(C(2) * a0 * b * ito_d(alj * im(ws.zcx[k] * ws.z)))
            step10.append(-(C(2) * a0 * b * d_x(alj * im(ws.z * ws.dzc), k)))
            step10.append(-(C(2) * a0 * b * d_t(alj) * im(ws.zcx[k] * ws.z) * DT))
            step10.append(C(2) * a0 * b * d_x(alj, k) * im(ws.z * ws.dzc))
            step10.append(-(C(2) * a0 * b * alj * im(ws.dz * ws.dzcx[k])))
        return g4, esum(step10)

    if key == "02":
        step02 = []
        for j, k in pairs:
            step02.append(C(2) * b * d_x(im(ws.am(j, k) * ws.zx[j] * (pc - a0 * ws.ellt) * ws.zc), k) * DT)
            step02.append(C(2) * b * im(ws.phi) * ws.am(j, k) * ws.zx[j] * ws.zcx[k] * DT)
            step02.append(-(C(2) * b * ws.am(j, k) * im(d_x(pc - a0 * ws.ellt, k) * ws.zx[j] * ws.zc) * DT))
        step02.append(-(C(2) * b * ws.A * im(ws.phi) * ws.z * ws.zc * DT))
        return g6, esum(step02)

    wt = a0 * ws.ellt + ws.b0_grad_ell
    weight = -(wt * (a0 * ito_d(ws.z * ws.zc) - a0 * ws.dz * ws.dzc + ws.b0_dot_grad(ws.z * ws.zc) * DT))
    if key == "zr2":
        return g8, C(2) * re(pc * ws.zc * (a0 * ws.dz + ws.b0_dot_grad(ws.z) * DT)) + weight
    if key == "zr0":
        return weight, (
            -ito_d(a0 * wt * ws.z * ws.zc)
            + a0 * (a0 * d_t(ws.ellt) + d_t(ws.b0_grad_ell)) * ws.z * ws.zc * DT
            + a0 * wt * ws.dz * ws.dzc
            - ws.b0_dot_grad(wt * ws.z * ws.zc) * DT
            + ws.b0_dot_grad(wt) * ws.z * ws.zc * DT
        )
    raise SpecError(f"unknown proof step {key!r}")


def _step_case(ws: Workspace, key: str) -> VerificationCase:
    # The steps have heterogeneous structure, so the corruption is a
    # uniform spurious term rather than a per-step dropped piece.  The
    # oracle honours the null products a*b0^j and b*b0^j, which the
    # cross-product expansion relies on.
    lhs, rhs = proof_step_sides(ws, key)
    return VerificationCase(case_id=f"proof_step({key})", ctx=ws.ctx, lhs=lhs, rhs=rhs,
                            mutated_rhs=rhs + ws.z * ws.zc * DT)


def proof_step_case(key: str, n: int = 2) -> VerificationCase:
    return _step_case(make_theorem_workspace(OperatorSpec(n=n, regime="raw")), key)


def verify_reconstruction(ws: Workspace, step2: IdentityResidual) -> IdentityResidual:
    """Step 2's right side, read from its step forms, equals the grouped
    theorem right side on ws.  Each later step's own check holds rhs - lhs
    as the zero form, so this is the whole reassembly of the derivation."""
    theorem = canonicalize(esum(e for _, e in rhs_groups(ws)), ws.ctx)
    return IdentityResidual.of(f"reconstruction(n={ws.n})", step2.rhs, theorem)


def verify_proof_steps(n: int = 2) -> tuple[list[IdentityResidual], IdentityResidual]:
    """Every proof step's residual, in PROOF_STEPS order, and the
    reconstruction's, all on one raw workspace."""
    ws = make_theorem_workspace(OperatorSpec(n=n, regime="raw"))
    steps = {key: verify(_step_case(ws, key)) for key in PROOF_STEPS}
    return list(steps.values()), verify_reconstruction(ws, steps["2"])


# ---------------------------------------------------------------------------
# Specializations
# ---------------------------------------------------------------------------


def _case_transport(n: int = 2) -> VerificationCase:
    ctx = Context(n=n)
    ell = ctx.real_field("ell")
    b0 = [ctx.real_scalar(f"b0{j}") for j in range(1, n + 1)]
    z = ctx.semimartingale("z", real=True)
    ws = Workspace(ctx, z, C(1), C(0), C(0), b0, _unit_metric(n), ell, C(0))
    wt = ws.ellt + ws.b0_grad_ell
    groups = [
        ("magnitude", C(2) * ws.I1 * conj(ws.I1) * DT),
        ("martingale", -ito_d(wt * ws.z * ws.zc)),
        ("zero_order", ws.B_coef() * ws.z * ws.zc * DT),
        ("weight_transport", -(ws.b0_dot_grad(wt * ws.z * ws.zc) * DT)),
        ("qv_mass", wt * ws.dz * ws.dzc),
    ]
    return _dropping("transport", ctx, C(2) * ws.I1 * ws.theta_L, groups, "zero_order")


def _case_ginzburg_landau(n: int = 2) -> VerificationCase:
    ctx = Context(n=n)
    mu = ctx.real_scalar("mu")
    b = ctx.real_scalar("b")
    phi_w = ctx.real_field("phi")
    for j in range(1, n + 1):
        ctx.set_rewrite("phi", f"x{j}", C(0))
    ctx.set_rewrite("phi", "t", C(3) * mu * phi_w)
    z = ctx.semimartingale("z")
    ws = Workspace(ctx, z, C(1), C(1), b, [C(0)] * n, _unit_metric(n), mu * phi_w, -mu)
    grad_sq = esum(ws.zx[j] * ws.zcx[j] for j in range(1, n + 1))
    coef = mu + C(3) * mu * mu * phi_w
    Vk = {
        k: (
            -(C(2) * re(ws.zx[k] * ws.dzc + mu * ws.zcx[k] * ws.z * DT))
            - C(2) * b * coef * im(ws.zx[k] * ws.zc) * DT
        )
        for k in range(1, n + 1)
    }
    groups = [
        ("magnitude", C(2) * ws.I1 * conj(ws.I1) * DT),
        ("martingale", ito_d(grad_sq - C(3) * mu * mu * phi_w * ws.z * ws.zc)),
        ("divergence", esum(d_x(Vk[k], k) for k in range(1, n + 1))),
        ("zero_order", mu * mu * (C(3) * mu * phi_w - C(2)) * ws.z * ws.zc * DT),
        ("gradient_form", C(2) * mu * grad_sq * DT),
        ("qv_gradient", -esum(ws.dzx[j] * ws.dzcx[j] for j in range(1, n + 1))),
        ("stochastic_mass", -(C(2) * mu * re(ws.zc * ws.dz))),
        ("qv_mass", C(3) * mu * mu * phi_w * ws.dz * ws.dzc),
    ]
    return _dropping("ginzburg_landau", ctx, ws.weighted_product(), groups, "zero_order")


def heat_workspace(n: int) -> Workspace:
    """The general identity's heat specialization: a0 = 1, a = -1, b = 0,
    b0 = 0, a unit metric, a real semimartingale z and Phi = 2 Lap(ell)."""
    ctx = Context(n=n)
    ell = ctx.real_field("ell")
    z = ctx.semimartingale("z", real=True)
    phi = C(2) * esum(d_x(d_x(ell, j), j) for j in range(1, n + 1))
    return Workspace(ctx, z, C(1), C(-1), C(0), [C(0)] * n, _unit_metric(n), ell, phi)


def _case_heat_identity(n: int = 2) -> VerificationCase:
    """The printed A, B, D, V and E of the heat specialization, on
    heat_workspace(n).  Its corruption flips the first-order coupling back
    to the printed sign, so mutated_rhs - rhs is the printed-form delta
    of the heat specialization."""
    ws = heat_workspace(n)
    ctx, phi = ws.ctx, ws.phi
    lap_ell = esum(d_x(ws.ellx[j], j) for j in range(1, n + 1))
    A = esum(ws.ellx[j] * ws.ellx[j] for j in range(1, n + 1)) - lap_ell
    I1 = esum(d_x(ws.zx[j], j) for j in range(1, n + 1)) + A * ws.z + (phi - ws.ellt) * ws.z
    lhs = C(2) * I1 * ws.theta_L
    grad_sq = esum(ws.zx[j] * ws.zcx[j] for j in range(1, n + 1))
    M = A * ws.z * ws.z - grad_sq - ws.ellt * ws.z * ws.z
    B = (
        C(2) * esum(d_x(A * ws.ellx[j], j) for j in range(1, n + 1))
        - d_t(A)
        - C(2) * A * phi
        - C(2) * (phi * phi - ws.ellt * phi)
        + d_t(ws.ellt)
    )
    def Dc(j, k):
        diag = C(2) * phi - C(2) * lap_ell if j == k else C(0)
        return diag + C(4) * d_x(ws.ellx[j], k)
    Vk = {
        k: (
            C(2) * ws.zx[k] * ws.dz
            - C(2) * A * ws.ellx[k] * ws.z * ws.z * DT
            - C(2) * ws.zx[k] * phi * ws.z * DT
            + C(2) * grad_sq * ws.ellx[k] * DT
            - C(4) * esum(ws.ellx[j] * ws.zx[j] for j in range(1, n + 1)) * ws.zx[k] * DT
        )
        for k in range(1, n + 1)
    }
    def Ec(j):
        return C(2) * ws.ellx[j] * (phi - ws.ellt) - d_x(phi, j)
    e_term = C(2) * esum(Ec(j) * ws.z * ws.zx[j] for j in range(1, n + 1)) * DT
    groups = [
        C(2) * I1 * I1 * DT,
        ito_d(M),
        esum(d_x(Vk[k], k) for k in range(1, n + 1)),
        B * ws.z * ws.z * DT,
        esum(Dc(j, k) * ws.zx[j] * ws.zx[k] for j in range(1, n + 1) for k in range(1, n + 1)) * DT,
        -e_term,
        esum(ws.dzx[j] * ws.dzx[j] for j in range(1, n + 1)),
        (-A + ws.ellt) * ws.dz * ws.dz,
        C(2) * phi * ws.z * ws.dz,
    ]
    return VerificationCase(
        case_id="heat_identity",
        ctx=ctx,
        lhs=lhs,
        rhs=esum(groups),
        mutated_rhs=esum(groups[:5] + [e_term] + groups[6:]),
    )


def _case_elliptic(n: int = 2) -> VerificationCase:
    """The time-independent divergence-form specialization.  Its
    corruption puts the printed flux, whose second term omits a gradient
    factor, in place of the derived one, so mutated_rhs - rhs is the
    printed-form delta of the elliptic specialization."""
    ctx = Context(n=n)
    ell = ctx.real_field("ell")
    phi = ctx.real_field("Phi")
    ajk = {}
    for j in range(1, n + 1):
        for k in range(j, n + 1):
            ajk[(j, k)] = ctx.real_field(f"a{j}{k}")
    z = ctx.real_field("z")
    ws = Workspace(ctx, z, C(0), C(-1), C(0), [C(0)] * n, ajk, ell, phi)
    pairs = ws._pairs()
    I1 = ws.Lam + phi * ws.z
    # L acts through theta as a plain second-order divergence form; the dt
    # factor is dropped since nothing here is stochastic.
    W = {j: ws.zx[j] - ws.ellx[j] * ws.z for j in range(1, n + 1)}
    op = esum(
        d_x(ws.am(j, k) * W[j], k) - ws.ellx[k] * ws.am(j, k) * W[j] for j, k in pairs
    )
    lhs = C(2) * I1 * op
    B = (
        C(2) * esum(d_x(ws.A * ws.am(j, k) * ws.ellx[j], k) for j, k in pairs)
        - C(2) * ws.A * phi
        - C(2) * phi * phi
    )
    def Dc(j, k):
        inner = []
        for jp in range(1, n + 1):
            for kp in range(1, n + 1):
                inner.append(C(2) * ws.am(j, kp) * d_x(ws.am(jp, k) * ws.ellx[jp], kp))
                inner.append(-d_x(ws.am(j, k) * ws.am(jp, kp) * ws.ellx[jp], kp))
        return C(2) * phi * ws.am(j, k) + C(2) * esum(inner)
    def V_tail(k):
        t = []
        for j in range(1, n + 1):
            for jp in range(1, n + 1):
                for kp in range(1, n + 1):
                    t.append(ws.am(j, k) * ws.am(jp, kp) * ws.ellx[j] * ws.zx[jp] * ws.zx[kp])
                    t.append(
                        -(ws.am(j, kp) * ws.am(jp, k) * ws.ellx[j] * (ws.zx[jp] * ws.zx[kp] + ws.zx[jp] * ws.zx[kp]))
                    )
        return esum(t)
    def V_derived(k):
        return (
            -(C(2) * ws.A * esum(ws.am(j, k) * ws.ellx[j] for j in range(1, n + 1)) * ws.z * ws.z)
            - C(2) * phi * ws.z * esum(ws.am(j, k) * ws.zx[j] for j in range(1, n + 1))
            + C(2) * V_tail(k)
        )
    def V_printed(k):
        return (
            -(C(2) * ws.A * esum(ws.am(j, k) * ws.ellx[j] for j in range(1, n + 1)) * ws.z * ws.z)
            - C(2) * phi * ws.z * esum(ws.am(j, k) for j in range(1, n + 1))
            + C(2) * V_tail(k)
        )
    e_term = -(
        C(2)
        * esum(
            ws.am(j, k) * (C(2) * ws.ellx[k] * phi - d_x(phi, k)) * ws.z * ws.zx[j]
            for j, k in pairs
        )
    )
    groups = [
        ("magnitude", C(2) * I1 * I1),
        ("divergence", esum(d_x(V_derived(k), k) for k in range(1, n + 1))),
        ("zero_order", B * ws.z * ws.z),
        ("gradient_form", esum(Dc(j, k) * ws.zx[j] * ws.zx[k]
                               for j in range(1, n + 1) for k in range(1, n + 1))),
        ("first_order", e_term),
    ]
    printed = dict(groups, divergence=esum(d_x(V_printed(k), k) for k in range(1, n + 1)))
    return VerificationCase(case_id="elliptic", ctx=ctx, lhs=lhs,
                            rhs=esum(e for _, e in groups), mutated_rhs=esum(printed.values()))


def _case_schrodinger(n: int = 2) -> VerificationCase:
    ctx = Context(n=n)
    ell = ctx.real_field("ell")
    psi = ctx.complex_field("Psi")
    u = ctx.semimartingale("u")
    tag1 = ctx.real_scalar("tag1")
    tag2 = ctx.real_scalar("tag2")
    z = I * u
    phi = -(I * psi)
    ws = Workspace(ctx, z, C(1), C(0), C(1), [C(0)] * n, _unit_metric(n), ell, phi)
    case = _theorem_case("schrodinger", ws)
    # The same operator written for v = -i w and u = theta v: the weighted
    # actions must agree, and I1 must collapse to the first-order form
    # -i ell_t u - 2 grad ell . grad u + Psi u.
    I1_target = (
        -(I * d_t(ell) * u)
        - C(2) * esum(d_x(ell, j) * d_x(u, j) for j in range(1, n + 1))
        + psi * u
    )
    Wu = {j: d_x(u, j) - d_x(ell, j) * u for j in range(1, n + 1)}
    theta_P = I * (ito_d(u) - d_t(ell) * u * DT) + esum(
        d_x(Wu[j], j) - d_x(ell, j) * Wu[j] for j in range(1, n + 1)
    ) * DT
    return replace(case, lhs=case.lhs + tag1 * (ws.I1 - I1_target) + tag2 * (ws.theta_L - theta_P))


def _case_fst(n: int = 2) -> VerificationCase:
    ctx = Context(n=n)
    lam = ctx.real_scalar("lam")
    tag1 = ctx.real_scalar("tag1")
    u = ctx.real_field("u")
    g = [ctx.real_field(f"g{j}") for j in range(1, n + 1)]
    xi = []
    for j in range(1, n + 1):
        xi.append(ctx.real_field(f"xi{j}"))
        for k in range(1, n + 1):
            ctx.set_rewrite(f"xi{j}", f"x{k}", C(1) if k == j else C(0))
        ctx.set_rewrite(f"xi{j}", "t", C(0))
    # Weight exponent ell = lam * sum xi_j^2, so ell_xj = 2 lam xi_j.
    ellx = [C(2) * lam * xi[j - 1] for j in range(1, n + 1)]
    half = C(1, 2)
    lhs_main = u * esum(g[j - 1] * d_x(u, j) for j in range(1, n + 1))
    lhs_mid = esum(g[j - 1] * d_x(half * u * u, j) for j in range(1, n + 1))
    div_term = esum(
        C(2) * ellx[j - 1] * (half * u * u * g[j - 1]) + d_x(half * u * u * g[j - 1], j)
        for j in range(1, n + 1)
    )
    absorb = (
        half * esum(d_x(g[j - 1], j) for j in range(1, n + 1))
        + C(2) * lam * esum(g[j - 1] * xi[j - 1] for j in range(1, n + 1))
    ) * u * u
    lhs = lhs_main + tag1 * (lhs_main - lhs_mid)
    rhs = div_term - absorb
    mutated = div_term - (  # drops the divergence absorption term
        C(2) * lam * esum(g[j - 1] * xi[j - 1] for j in range(1, n + 1)) * u * u
    )

    return VerificationCase(
        case_id="fst",
        ctx=ctx,
        lhs=lhs,
        rhs=rhs,
        mutated_rhs=mutated,
    )


def _case_ode(components: int = 3) -> VerificationCase:
    ctx = Context(n=1)
    lam = ctx.real_scalar("lam")
    ys = []
    for j in range(1, components + 1):
        y = ctx.real_field(f"y{j}")
        ctx.set_rewrite(f"y{j}", "x1", C(0))
        ys.append(y)
    sq = esum(y * y for y in ys)
    lhs = C(2) * esum(y * d_t(y) for y in ys)
    decay = -(lam * sq) + d_t(sq)
    rhs = decay + lam * sq
    mutated = decay  # drops the energy term
    return VerificationCase(
        case_id="ode",
        ctx=ctx,
        lhs=lhs,
        rhs=rhs,
        mutated_rhs=mutated,
    )


def _case_c02(n: int = 2) -> VerificationCase:
    ctx = Context(n=n)
    z = ctx.semimartingale("z")
    tags = [ctx.real_scalar(f"tag{j}") for j in range(1, 2 * n + 1)]
    lhs_terms = []
    rhs_terms = []
    mut_terms = []
    for k in range(1, n + 1):
        zc = conj(z)
        left = im(d_x(zc, k) * ito_d(z))
        chain = im(
            ito_d(d_x(zc, k) * z)
            - d_x(z * ito_d(zc), k)
            - ito_d(d_x(zc, k)) * ito_d(z)
            + d_x(z, k) * ito_d(zc)
        )
        right = -im(d_x(z, k) * ito_d(zc))
        lhs_terms.append(tags[2 * (k - 1)] * left + tags[2 * k - 1] * left)
        rhs_terms.append(tags[2 * (k - 1)] * chain + tags[2 * k - 1] * right)
        mut_terms.append(tags[2 * (k - 1)] * chain - tags[2 * k - 1] * right)
    return VerificationCase(
        case_id="c02",
        ctx=ctx,
        lhs=esum(lhs_terms),
        rhs=esum(rhs_terms),
        mutated_rhs=esum(mut_terms),  # flips the antisymmetry sign
    )


_CASES = {
    "elliptic": _case_elliptic,
    "transport": _case_transport,
    "ginzburg_landau": _case_ginzburg_landau,
    "schrodinger": _case_schrodinger,
    "heat_identity": _case_heat_identity,
    "fst": _case_fst,
    "ode": _case_ode,
    "c02": _case_c02,
    **{f"proof_step({k})": partial(proof_step_case, k) for k in PROOF_STEPS},
}

CASE_IDS = tuple(_CASES)


def build_case(target) -> VerificationCase:
    """The theorem case of an OperatorSpec, or the catalog case of a case id."""
    if isinstance(target, OperatorSpec):
        return _theorem_case(f"theorem(n={target.n},{target.regime})",
                             make_theorem_workspace(target))
    builder = _CASES.get(target)
    if builder is None:
        raise SpecError(f"unknown case '{target}' (known: {', '.join(CASE_IDS)})")
    return builder()


# ---------------------------------------------------------------------------
# Exact numeric spot checks
# ---------------------------------------------------------------------------


def numeric_residual(target, seed: int, assignments: int = 4, points: int = 5,
                     mutated: bool = False) -> list[JetValue]:
    """Exact jet evaluations of an identity residual.

    target is a built VerificationCase, or what build_case takes: an
    OperatorSpec (general identity) or a case id.
    Assignment i has seed seed + 101 i and is evaluated at points + 1
    implicit base points; every (seed, base point) draw has all jets of
    its own, so the assignments * (points + 1) values are independent
    draws.  All of them are evaluated in one eval_jet_many call, which
    walks the residual once, with one memo entry per distinct subtree
    rather than per object.  For an intact identity every
    component of every value is exactly zero; a wrong one is missed by a
    draw with probability at most D/p, where D is the residual's degree
    in the jet coefficients and p = 2^61 - 1 (Schwartz-Zippel).
    """
    if assignments < 1 or points < 0:
        raise SpecError(f"need assignments >= 1 and points >= 0, "
                        f"got {assignments} and {points}")
    case = target if isinstance(target, VerificationCase) else build_case(target)
    residual = case.lhs - (case.mutated_rhs if mutated else case.rhs)
    draws = [(seed + 101 * i, point)
             for i in range(assignments) for point in range(points + 1)]
    return eval_jet_many(residual, case.ctx, draws)
