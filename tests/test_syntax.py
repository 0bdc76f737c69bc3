"""Terms, substitution, scanning, rendering."""

from __future__ import annotations

from hypothesis import given, strategies as st

from bestow.gen import generate_well_typed
from bestow.syntax import (
    Actor,
    ActorId,
    ActorType,
    App,
    Arrow,
    Bestow,
    Bestowed,
    BestowedLoc,
    Heap,
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
    contains_loc,
    free_vars,
    is_active,
    render_expr,
    render_heap,
    render_type,
    render_expr as render_value,
    subst,
)
from bestow.wellformed import TermFacts

IDENT = Lambda("x", Passive(), Var("x"))


def test_render_types():
    assert render_type(Passive()) == "p"
    assert render_type(ActorType()) == "c"
    assert render_type(Bestowed()) == "(B p)"
    assert render_type(UnitType()) == "Unit"
    assert render_type(Arrow(Passive(), UnitType())) == "(-> p Unit)"
    assert (
        render_type(Arrow(Arrow(Passive(), Passive()), ActorType()))
        == "(-> (-> p p) c)"
    )


def test_render_exprs():
    assert render_expr(Var("x")) == "x"
    assert render_expr(NewPassive()) == "(new p)"
    assert render_expr(NewActor()) == "(new c)"
    assert render_expr(Val(UnitVal())) == "unit"
    assert render_expr(Val(Loc(3))) == "(loc 3)"
    assert render_expr(Val(ActorId(2))) == "(id 2)"
    assert render_expr(Val(BestowedLoc(3, 2))) == "(bloc 3 2)"
    assert render_expr(Val(IDENT)) == "(fn (x : p) x)"
    assert render_expr(Mutate(Var("y"))) == "(mutate y)"
    assert render_expr(Bestow(NewPassive())) == "(bestow (new p))"
    assert (
        render_expr(App(Val(IDENT), NewPassive())) == "(app (fn (x : p) x) (new p))"
    )
    assert (
        render_expr(Send(Val(ActorId(0)), IDENT))
        == "(send (id 0) (fn (x : p) x))"
    )


def test_render_heap():
    msg = Lambda("x", Passive(), Val(UnitVal()))
    heap = Heap(
        {
            0: Actor(0, frozenset({0, 2}), (msg,), Val(UnitVal())),
            1: Actor(1, frozenset({1}), (), Mutate(Val(Loc(1)))),
        },
        next_loc=3,
        next_id=2,
    )
    assert render_heap(heap) == (
        "(heap (actor 0 0 (lh 0 2) (q (fn (x : p) unit)) unit) "
        "(actor 1 1 (lh 1) (q ) (mutate (loc 1))))"
    )
    assert render_heap(heap, include_counters=True).startswith("(heap [3 2] ")


def test_str_delegates_to_render():
    assert str(Mutate(Var("x"))) == "(mutate x)"
    assert str(Passive()) == "p"
    assert str(Loc(7)) == "(loc 7)"


def test_is_active():
    assert is_active(ActorType())
    assert is_active(Bestowed())
    assert not is_active(Passive())
    assert not is_active(UnitType())
    assert not is_active(Arrow(Passive(), ActorType()))


def test_free_vars():
    assert free_vars(Var("x")) == {"x"}
    assert free_vars(Val(IDENT)) == frozenset()
    body = App(Var("f"), Var("x"))
    assert free_vars(Val(Lambda("x", Passive(), body))) == {"f"}
    assert free_vars(Send(Var("a"), Lambda("x", Passive(), Var("y")))) == {"a", "y"}


def test_subst_replaces_free_occurrences():
    e = App(Var("x"), Mutate(Var("x")))
    out = subst(e, "x", Loc(5))
    assert out == App(Val(Loc(5)), Mutate(Val(Loc(5))))


def test_subst_respects_shadowing():
    inner = Lambda("x", Passive(), Var("x"))
    e = App(Val(inner), Var("x"))
    out = subst(e, "x", UnitVal())
    assert out == App(Val(inner), Val(UnitVal()))


def test_subst_avoids_capture():
    # (fn (y : p) x)[x := fn (z : p) y]  — the free y of the substituted
    # value must not be captured by the binder y.
    e = Val(Lambda("y", Passive(), Var("x")))
    v = Lambda("z", Passive(), Var("y"))
    out = subst(e, "x", v)
    assert isinstance(out, Val) and isinstance(out.value, Lambda)
    assert out.value.param != "y"
    assert free_vars(out) == {"y"}


def test_contains_loc_distinguishes_bare_and_bestowed():
    assert contains_loc(Mutate(Val(Loc(0))))
    assert contains_loc(Val(Lambda("x", Passive(), Val(Loc(1)))))
    assert not contains_loc(Val(BestowedLoc(0, 1)))
    assert not contains_loc(Val(UnitVal()))


def test_value_scanners():
    e = App(
        Send(Val(ActorId(4)), Lambda("x", Passive(), Val(BestowedLoc(9, 4)))),
        Val(Loc(2)),
    )
    facts = TermFacts(e)
    assert facts.locs == (2,)
    assert facts.ids == (4,)
    assert facts.bestowed == ((9, 4),)


@given(st.integers(min_value=0, max_value=2000))
def test_generated_programs_are_closed(seed):
    program, _ = generate_well_typed(seed)
    assert free_vars(program) == frozenset()


@given(st.integers(min_value=0, max_value=2000))
def test_subst_on_closed_program_is_identity(seed):
    program, _ = generate_well_typed(seed)
    assert subst(program, "nonexistent", UnitVal()) == program


def test_render_value_round_meaning():
    assert render_value(UnitVal()) == "unit"
    assert (
        render_value(Lambda("f", Arrow(Passive(), UnitType()), Var("f")))
        == "(fn (f : (-> p Unit)) f)"
    )
