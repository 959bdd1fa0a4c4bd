"""The weighted identity, its specializations, and the proof-step chain."""

import pytest

from carlemanlab import canonical, identity
from carlemanlab.exprs import Expr
from carlemanlab.identity import (
    CASE_IDS,
    PROOF_STEPS,
    REGIMES,
    OperatorSpec,
    SpecError,
    build_case,
    make_theorem_workspace,
    numeric_residual,
    proof_step_case,
    proof_step_sides,
    verify,
    verify_identity,
    verify_proof_steps,
    verify_raw_cell,
)
from carlemanlab.jetoracle import eval_jet_many

THEOREM_MATRIX = [(n, r) for n in (1, 2, 3) for r in REGIMES]


@pytest.mark.parametrize("n,regime", THEOREM_MATRIX,
                         ids=[f"n{n}-{r}" for n, r in THEOREM_MATRIX])
def test_identity_holds(n, regime):
    res = verify_identity(OperatorSpec(n=n, regime=regime))
    assert res.zero, res.surviving_monomials[:5]
    assert len(res.lhs.terms()) > 0
    assert res.surviving_monomials == ()


@pytest.mark.parametrize("bad", [
    dict(n=4),
    dict(n=0),
    dict(regime="R9"),
    dict(n=-1),
    dict(n=None),
    dict(n="2"),
    dict(n=2.0),
    dict(n=True),
    dict(regime="r1"),
    dict(regime="RAW"),
    dict(regime=""),
    dict(regime=None),
])
def test_inconsistent_specs_rejected(bad):
    with pytest.raises(SpecError):
        OperatorSpec(n=bad.pop("n", 2), **bad)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_raw_regime_keeps_constraint_monomials(n):
    cell = verify_raw_cell(build_case(OperatorSpec(n=n, regime="raw")))
    res = cell.unconstrained
    assert not res.zero
    assert cell.clean
    assert len(res.surviving_monomials) > 0


@pytest.mark.parametrize("n", [1, 2])
def test_raw_identity_is_the_raw_cells_theorem(n):
    # canonicalize drops the null products, as the raw cell's theorem
    # forms do, so verify_identity needs no raw branch
    spec = OperatorSpec(n=n, regime="raw")
    res, theorem = verify_identity(spec), verify_raw_cell(build_case(spec)).theorem
    assert ([f.serialize() for f in (res.lhs, res.rhs, res.residual)]
            == [f.serialize() for f in (theorem.lhs, theorem.rhs, theorem.residual)])


def test_raw_cell_keeps_its_null_pairs_when_canonicalizing_raises(monkeypatch):
    # the raw cell only reads its context: an error partway through
    # canonicalizing it leaves the declared pairs in place
    case = build_case(OperatorSpec(n=2, regime="raw"))
    declared = list(case.ctx.null_pairs)

    def broken(cf, ctx):
        raise RuntimeError("Ito differential")

    monkeypatch.setattr(canonical, "_cf_ito", broken)
    with pytest.raises(RuntimeError, match="Ito differential"):
        verify_raw_cell(case)
    assert declared and case.ctx.null_pairs == declared


@pytest.mark.parametrize("key", PROOF_STEPS)
@pytest.mark.parametrize("n", [1, 2])
def test_proof_step(key, n):
    res = verify(proof_step_case(key, n=n))
    assert res.zero, (key, res.surviving_monomials[:5])


@pytest.mark.parametrize("n", [1, 2])
def test_reconstruction_from_steps(n):
    steps, whole = verify_proof_steps(n=n)
    assert [r.case for r in steps] == [f"proof_step({k})" for k in PROOF_STEPS]
    assert all(r.zero for r in steps)
    assert whole.case == f"reconstruction(n={n})"
    assert whole.zero and len(whole.lhs) > 0


def test_unknown_proof_step_rejected():
    with pytest.raises(SpecError):
        proof_step_case("4")


def test_every_proof_step_key_builds_and_no_other():
    ws = make_theorem_workspace(OperatorSpec(n=1, regime="raw"))
    for key in PROOF_STEPS:
        assert all(isinstance(side, Expr) for side in proof_step_sides(ws, key))
    for key in ("4", "", "zr1", 2):
        with pytest.raises(SpecError):
            proof_step_sides(ws, key)


@pytest.mark.parametrize("key,expands", [("2", False), ("3", True)])
def test_a_proof_step_case_expands_only_its_own_step(monkeypatch, key, expands):
    # step 2 takes no derivative beyond the workspace's; steps 3, 10, zr2
    # and zr0 each take d_t or the Ito d, so building them is seen here
    calls, real_ws = [], identity.make_theorem_workspace

    def workspace_then_count(spec):
        ws = real_ws(spec)
        for name in ("d_t", "ito_d"):
            real = getattr(identity, name)
            monkeypatch.setattr(identity, name,
                                lambda e, _real=real: calls.append(e) or _real(e))
        return ws

    monkeypatch.setattr(identity, "make_theorem_workspace", workspace_then_count)
    case = build_case(f"proof_step({key})")
    assert bool(calls) == expands
    assert verify(case).zero


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_specialization(case_id):
    res = verify(build_case(case_id))
    assert res.zero, (case_id, res.surviving_monomials[:5])
    assert len(res.lhs.terms()) > 0


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_mutated_specialization_is_caught(case_id):
    from carlemanlab.canonical import canonicalize

    case = build_case(case_id)
    res = canonicalize(case.lhs - case.mutated_rhs, case.ctx)
    assert not res.is_zero


def test_unknown_case_rejected():
    with pytest.raises(SpecError):
        build_case("laplace")


@pytest.mark.parametrize("name, case_id", [("heat_first_order", "heat_identity"),
                                           ("elliptic_flux", "elliptic")])
def test_printed_form_delta_is_its_cases_corruption(goldens_dir, name, case_id):
    # each case's mutated right side is its printed form, so the oracle's
    # mutation check samples the printed-form finding
    case = build_case(case_id)
    delta = canonical.canonicalize(case.mutated_rhs - case.rhs, case.ctx)
    assert not delta.is_zero
    assert delta.serialize() + "\n" == (goldens_dir / f"delta_{name}.txt").read_text()


@pytest.mark.parametrize("target", [
    OperatorSpec(n=2, regime="R1"),
    OperatorSpec(n=1, regime="R2"),
    OperatorSpec(n=1, regime="raw"),
    "transport",
    "heat_identity",
    "ginzburg_landau",
])
def test_numeric_residual_vanishes(target):
    values = numeric_residual(target, seed=5)
    assert values
    assert all(v.is_zero for v in values)


@pytest.mark.parametrize("target", [
    OperatorSpec(n=1, regime="R1"),
    "transport",
    "elliptic",
])
def test_numeric_residual_detects_mutation(target):
    values = numeric_residual(target, seed=5, mutated=True)
    assert any(not v.is_zero for v in values)


@pytest.mark.parametrize("kwargs", [dict(assignments=0), dict(assignments=-3),
                                    dict(points=-1)])
def test_numeric_residual_rejects_empty_samples(kwargs):
    # a sample of no draws would report a check that cannot fail
    with pytest.raises(SpecError):
        numeric_residual("ode", seed=0, **kwargs)


@pytest.mark.parametrize("target", [OperatorSpec(n=n, regime=r) for n, r in THEOREM_MATRIX]
                         + list(CASE_IDS),
                         ids=[f"n{n}-{r}" for n, r in THEOREM_MATRIX] + list(CASE_IDS))
def test_one_draw_catches_every_mutation(target):
    # a wrong identity survives one draw with probability at most D/p,
    # so every seed must catch every mutation with a single jet draw.
    # Draw (seed, 0) is numeric_residual's one draw at assignments=1,
    # points=0; the case is built once and all 50 draws share one walk.
    case = build_case(target)
    draws = [(seed, 0) for seed in range(50)]
    values = eval_jet_many(case.lhs - case.mutated_rhs, case.ctx, draws)
    assert len(values) == len(draws)
    for (seed, _), value in zip(draws, values):
        assert not value.is_zero, seed
