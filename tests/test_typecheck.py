"""The twelve typing rules, one by one, plus error attribution."""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from bestow.gen import generate_well_typed
from bestow.surface import DesugarError, ParseError, desugar, parse_program
from bestow.syntax import (
    ActorId,
    ActorType,
    App,
    Arrow,
    Bestow,
    Bestowed,
    BestowedLoc,
    Lambda,
    Loc,
    Mutate,
    NewActor,
    NewPassive,
    Passive,
    Send,
    UnitType,
    UnitVal,
    Val,
    Var,
    fold,
    is_active,
    rebuild,
    render_expr,
    walk,
)
from bestow.typecheck import TypeCheckError, TypeEnv, type_of

P, C, U, B = Passive(), ActorType(), UnitType(), Bestowed()


def err(e, env=None) -> TypeCheckError:
    with pytest.raises(TypeCheckError) as exc:
        type_of(e, env)
    return exc.value


# --- one positive case per rule ------------------------------------------


def test_rule_var():
    assert type_of(Var("x"), TypeEnv.of(x=P)) == P


def test_rule_unit():
    assert type_of(Val(UnitVal())) == U


def test_rule_loc():
    assert type_of(Val(Loc(0))) == P


def test_rule_id():
    assert type_of(Val(ActorId(0))) == C


def test_rule_bestowed_value():
    assert type_of(Val(BestowedLoc(0, 0))) == B


def test_rule_new_passive():
    assert type_of(NewPassive()) == P


def test_rule_new_actor():
    assert type_of(NewActor()) == C


def test_rule_fn():
    assert type_of(Val(Lambda("x", P, Var("x")))) == Arrow(P, P)
    assert type_of(Val(Lambda("f", Arrow(P, U), App(Var("f"), NewPassive())))) == Arrow(
        Arrow(P, U), U
    )


def test_rule_apply():
    assert type_of(App(Val(Lambda("x", P, Var("x"))), NewPassive())) == P


def test_rule_mutate():
    assert type_of(Mutate(NewPassive())) == U


def test_rule_bestow():
    assert type_of(Bestow(NewPassive())) == B


def test_rule_send_to_actor():
    msg = Lambda("x", P, Val(UnitVal()))
    assert type_of(Send(NewActor(), msg)) == U


def test_rule_send_to_bestowed():
    msg = Lambda("x", P, Mutate(Var("x")))
    assert type_of(Send(Bestow(NewPassive()), msg)) == U


# --- environment restriction in message bodies ----------------------------


def test_send_body_sees_active_bindings():
    env = TypeEnv.of(a=C, b=B)
    msg = Lambda("x", P, Send(Var("a"), Lambda("y", P, Mutate(Var("y")))))
    assert type_of(Send(Var("a"), msg), env) == U
    msg2 = Lambda("x", P, Send(Var("b"), Lambda("y", P, Val(UnitVal()))))
    assert type_of(Send(Var("a"), msg2), env) == U


def test_send_body_cannot_see_passive_bindings():
    env = TypeEnv.of(a=C, y=P)
    e = Send(Var("a"), Lambda("x", P, Mutate(Var("y"))))
    assert err(e, env).rule == "e-send"


def test_send_body_cannot_see_function_bindings():
    env = TypeEnv.of(a=C, f=Arrow(P, U))
    e = Send(Var("a"), Lambda("x", P, App(Var("f"), Var("x"))))
    assert err(e, env).rule == "e-send"


def test_send_body_rejects_bare_locations():
    e = Send(NewActor(), Lambda("x", P, Mutate(Val(Loc(0)))))
    assert err(e).rule == "e-send"
    assert "location" in err(e).message


def test_send_body_allows_bestowed_locations():
    e = Send(NewActor(), Lambda("x", P, Send(Val(BestowedLoc(3, 1)), Lambda("y", P, Val(UnitVal())))))
    assert type_of(e) == U


def test_bare_loc_is_fine_outside_sends():
    # e-loc makes bare locations passive; only send bodies refuse them.
    wrapper = Lambda("y", P, App(Val(Lambda("x", P, Mutate(Var("x")))), Val(Loc(3))))
    assert type_of(Val(wrapper)) == Arrow(P, U)


# --- negative cases with rule attribution ---------------------------------


def test_unbound_var():
    assert err(Var("x")).rule == "e-var"


def test_apply_non_function():
    assert err(App(Val(UnitVal()), Val(UnitVal()))).rule == "e-apply"
    assert err(App(Val(BestowedLoc(0, 0)), Val(UnitVal()))).rule == "e-apply"


def test_apply_argument_mismatch():
    e = App(Val(Lambda("x", P, Var("x"))), NewActor())
    assert err(e).rule == "e-apply"


def test_mutate_wrong_type():
    assert err(Mutate(NewActor())).rule == "e-mutate"
    assert err(Mutate(Val(UnitVal()))).rule == "e-mutate"
    assert err(Mutate(Bestow(NewPassive()))).rule == "e-mutate"


def test_bestow_wrong_type():
    assert err(Bestow(Val(UnitVal()))).rule == "e-bestow"
    assert err(Bestow(NewActor())).rule == "e-bestow"


def test_send_to_non_active():
    msg = Lambda("x", P, Val(UnitVal()))
    assert err(Send(NewPassive(), msg)).rule == "e-send"
    assert err(Send(Val(UnitVal()), msg)).rule == "e-send"


def test_send_non_function_message():
    assert err(Send(NewActor(), UnitVal())).rule == "e-send"


def test_send_message_param_not_passive():
    assert err(Send(NewActor(), Lambda("x", C, Val(UnitVal())))).rule == "e-send"


def test_inner_failures_propagate_innermost():
    # Failures outside message bodies keep their own rule name.
    assert err(Val(Lambda("x", P, Mutate(NewActor())))).rule == "e-mutate"
    assert err(App(Val(Lambda("x", U, Var("x"))), Mutate(NewActor()))).rule == "e-mutate"


def test_send_wraps_body_failures():
    e = Send(Val(BestowedLoc(0, 0)), Lambda("x", P, Var("nope")))
    failure = err(e)
    assert failure.rule == "e-send"
    assert "nope" in failure.message


# --- misc -----------------------------------------------------------------


def test_env_shadowing_uses_innermost():
    env = TypeEnv.of(x=P).extend("x", C)
    assert type_of(Var("x"), env) == C


def test_restrict_active():
    env = TypeEnv.of(a=C, y=P, b=B, f=Arrow(P, U), u=U)
    kept = dict(env.restrict_active().bindings)
    assert kept == {"a": C, "b": B}


def ref_restrict_active(env):
    """The filtered-bindings reference for ``restrict_active``."""
    return TypeEnv(tuple((n, t) for n, t in env.bindings if is_active(t)))


def test_restrict_active_unshadows_an_active_binding():
    env = TypeEnv.of(x=C).extend("x", P)
    assert env.lookup("x") == P
    restricted = env.restrict_active()
    assert restricted.lookup("x") == C
    assert restricted.bindings == (("x", C),)
    assert type_of(Send(Val(ActorId(0)), Lambda("y", P, Var("x"))), env) == U
    assert env.bindings == (("x", C), ("x", P))
    assert str(env) == "{x:c, x:p}"


@given(st.lists(st.tuples(st.sampled_from("abxy"), st.sampled_from([P, C, U, B]))))
def test_restrict_active_matches_the_filtered_bindings(pairs):
    env = TypeEnv()
    for name, t in pairs:
        env = env.extend(name, t)
    assert env.bindings == tuple(pairs) == TypeEnv(tuple(pairs)).bindings
    assert str(env) == "{" + ", ".join(f"{n}:{t}" for n, t in pairs) + "}"
    for built in (env, TypeEnv(tuple(pairs))):
        got, want = built.restrict_active(), ref_restrict_active(built)
        assert got.bindings == want.bindings
        assert str(got) == str(want)
        assert got.restrict_active().bindings == want.bindings
        for name in "abxy":
            assert got.lookup(name) == want.lookup(name)
        more = got.extend("z", P)
        assert more.restrict_active().bindings == want.bindings


def _flip_one_binder(e, rng):
    """``e`` with one lambda's parameter type swapped between p and c."""
    lams = [n for n in walk(e) if type(n) is Lambda]
    if not lams:
        return e
    target = rng.choice(lams)

    def post(n, a, b=None):
        if n is target:
            return Lambda(n.param, C if n.param_type == P else P, a)
        return rebuild(n, a, b)

    return fold(e, lambda n: n, post)


def _typing(e):
    """``e``'s type, or the error ``type_of`` raises, as text."""
    try:
        return str(type_of(e))
    except TypeCheckError as err:
        return f"error {err} at {render_expr(err.expr)}"


def _surface_programs():
    """Every string literal in the test suite that parses as a program."""
    out = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    out.append(parse_program(node.value))
                except ParseError:
                    pass
    return out


def _outcomes():
    rng = random.Random(0)
    out = []
    for seed in range(2000):
        program, goal = generate_well_typed(seed, size_budget=4 + seed % 9)
        out.append(render_expr(program) + str(goal))
        out.append(_typing(program))
        out.append(_typing(_flip_one_binder(program, rng)))
    for node in _surface_programs():
        try:
            core = desugar(node)
        except DesugarError as err:
            out.append(f"error {err}")
            continue
        out.append(render_expr(core))
        out.append(_typing(core))
    return out


def test_typing_outcomes_match_the_reference_restriction(monkeypatch):
    got = _outcomes()
    monkeypatch.setattr(TypeEnv, "restrict_active", ref_restrict_active)
    assert got == _outcomes()
    assert sum(o.startswith("error") for o in got) > 1000


@given(st.integers(min_value=0, max_value=3000))
def test_generated_programs_typecheck_at_goal(seed):
    program, goal = generate_well_typed(seed)
    assert type_of(program) == goal
