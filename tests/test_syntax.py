"""Terms, substitution, scanning, rendering."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from bestow import syntax
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
    Var,
    contains_loc,
    fold,
    free_vars,
    fresh_name,
    is_active,
    render_expr,
    render_heap,
    render_type,
    render_expr as render_value,
    rebuild,
    subst,
    walk,
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
    assert render_expr(UnitVal()) == "unit"
    assert render_expr(Loc(3)) == "(loc 3)"
    assert render_expr(ActorId(2)) == "(id 2)"
    assert render_expr(BestowedLoc(3, 2)) == "(bloc 3 2)"
    assert render_expr(IDENT) == "(fn (x : p) x)"
    assert render_expr(Mutate(Var("y"))) == "(mutate y)"
    assert render_expr(Bestow(NewPassive())) == "(bestow (new p))"
    assert (
        render_expr(App(IDENT, NewPassive())) == "(app (fn (x : p) x) (new p))"
    )
    assert (
        render_expr(Send(ActorId(0), IDENT))
        == "(send (id 0) (fn (x : p) x))"
    )


def test_render_heap():
    msg = Lambda("x", Passive(), UnitVal())
    heap = Heap(
        {
            0: Actor(0, frozenset({0, 2}), (msg,), UnitVal()),
            1: Actor(1, frozenset({1}), (), Mutate(Loc(1))),
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
    assert free_vars(IDENT) == frozenset()
    body = App(Var("f"), Var("x"))
    assert free_vars(Lambda("x", Passive(), body)) == {"f"}
    assert free_vars(Send(Var("a"), Lambda("x", Passive(), Var("y")))) == {"a", "y"}


def test_subst_replaces_free_occurrences():
    e = App(Var("x"), Mutate(Var("x")))
    out = subst(e, "x", Loc(5))
    assert out == App(Loc(5), Mutate(Loc(5)))


def test_subst_respects_shadowing():
    inner = Lambda("x", Passive(), Var("x"))
    e = App(inner, Var("x"))
    out = subst(e, "x", UnitVal())
    assert out == App(inner, UnitVal())


def test_subst_avoids_capture():
    # (fn (y : p) x)[x := fn (z : p) y]  — the free y of the substituted
    # value must not be captured by the binder y.
    e = Lambda("y", Passive(), Var("x"))
    v = Lambda("z", Passive(), Var("y"))
    out = subst(e, "x", v)
    assert isinstance(out, Lambda)
    assert out.param != "y"
    assert free_vars(out) == {"y"}


# --- free-name masks and substitution, against references -----------------


def ref_free(term):
    """Free variables by a plain frozenset fold, with nothing cached."""

    def leaf(n):
        return frozenset((n.name,)) if type(n) is Var else frozenset()

    def post(n, a, b=frozenset()):
        return a - {n.param} if type(n) is Lambda else a | b

    return fold(term, leaf, post)


def ref_subst(term, name, v):
    """Capture-avoiding substitution by a plain ``fold(..., rebuild)`` that
    enters every subtree; a binder is handled once its body is done."""

    def leaf(n):
        return v if type(n) is Var and n.name == name else n

    def post(n, a, b=None):
        if type(n) is Lambda:
            if n.param == name:
                return n
            if n.param in ref_free(v) and name in ref_free(n.body):
                q = fresh_name(n.param, ref_free(n.body) | ref_free(v) | {name})
                body = ref_subst(n.body, n.param, Var(q))
                return Lambda(q, n.param_type, ref_subst(body, name, v))
        return rebuild(n, a, b)

    return fold(term, leaf, post)


def assert_masks_exact(term):
    """Every compound node of ``term`` carries a mask, and it decodes to
    exactly the node's free variables."""
    for n in walk(term):
        if type(n) in syntax._CHILDREN:
            assert syntax._FREE in n.__dict__, n
            assert syntax._names(n.__dict__[syntax._FREE]) == ref_free(n), n


NAMES = ["x", "y", "z"]
names = st.sampled_from(NAMES)
types = st.sampled_from([Passive(), ActorType(), UnitType()])
leaf_values = st.sampled_from([UnitVal(), Loc(1), ActorId(2), BestowedLoc(3, 2)])


def _lambdas(body):
    return st.builds(Lambda, names, types, body)


terms = st.recursive(
    st.one_of(
        st.builds(Var, names),
        leaf_values,
        st.just(NewPassive()),
        st.just(NewActor()),
    ),
    lambda sub: st.one_of(
        st.builds(App, sub, sub),
        st.builds(Send, sub, _lambdas(sub)),
        st.builds(Mutate, sub),
        st.builds(Bestow, sub),
        _lambdas(sub),
    ),
    max_leaves=12,
)
# Substituted values may be open, so that binders must be renamed.
values = st.one_of(
    leaf_values, _lambdas(st.one_of(st.builds(Var, names), st.just(NewPassive())))
)


@settings(max_examples=300, deadline=None)
@given(terms, names, st.one_of(values, st.builds(Var, names)))
def test_masks_and_subst_match_the_references(term, name, v):
    assert free_vars(term) == ref_free(term)
    assert_masks_exact(term)
    out = subst(term, name, v)
    assert_masks_exact(out)
    assert out == ref_subst(term, name, v)
    assert free_vars(out) == ref_free(out)


@settings(max_examples=100, deadline=None)
@given(terms, st.lists(st.tuples(names, values), max_size=4))
def test_masks_stay_exact_over_repeated_substitution(term, steps):
    # Nothing reads the result between substitutions, so pending bodies meet
    # later substitutions unread and their maps merge.
    want = term
    for name, v in steps:
        term, want = subst(term, name, v), ref_subst(want, name, v)
    assert syntax._names(syntax._free_mask(term)) == ref_free(want)
    assert term == want
    assert_masks_exact(term)


def test_a_pending_body_is_substituted_once_on_first_read():
    inner = Lambda("y", Passive(), App(Var("x"), Var("y")))
    out = subst(inner, "x", Loc(3))
    assert syntax._PENDING in out.__dict__ and "body" not in out.__dict__
    assert out.__dict__[syntax._FREE] == 0
    body = out.body
    assert body is out.body and syntax._PENDING not in out.__dict__
    assert out == Lambda("y", Passive(), App(Loc(3), Var("y")))


def test_substitutions_into_a_pending_lambda_merge_their_maps():
    inner = Lambda("y", Passive(), App(Var("x"), Var("z")))
    once = subst(inner, "x", Loc(3))
    twice = subst(once, "z", Loc(4))
    body, sub, _ = twice.__dict__[syntax._PENDING]
    assert body is inner.body and set(sub) == {"x", "z"}
    assert twice == Lambda("y", Passive(), App(Loc(3), Loc(4)))
    assert once.__dict__[syntax._PENDING][1] == {"x": Loc(3)}
    # A merged map that names a binder below leaves that name behind there.
    bound = Lambda("y", Passive(), App(Var("x"), Var("y")))
    outer = Lambda("w", Passive(), App(Var("y"), bound))
    out = subst(subst(outer, "x", Loc(3)), "y", Loc(5))
    assert set(out.__dict__[syntax._PENDING][1]) == {"x", "y"}
    assert out == ref_subst(ref_subst(outer, "x", Loc(3)), "y", Loc(5))
    assert_masks_exact(out)


@pytest.mark.parametrize(
    "term, name, v",
    [
        # a binder of the name shadows it
        (App(Lambda("x", Passive(), Var("x")), Var("x")), "x", Loc(5)),
        (Send(Var("x"), Lambda("x", Passive(), Mutate(Var("x")))), "x", ActorId(1)),
        # the value's free y would be captured by the binder y
        (Lambda("y", Passive(), App(Var("x"), Var("y"))), "x",
         Lambda("z", Passive(), Var("y"))),
        # the renamed name is taken too, one binder further in
        (Lambda("y", Passive(), Lambda("y_1", Passive(), Var("x"))), "x",
         Lambda("z", Passive(), App(Var("y"), Var("y_1")))),
        # a variable for a variable, as binder renaming substitutes
        (Lambda("q", Passive(), App(Var("x"), Var("q"))), "x", Var("q")),
        (App(Var("x"), Mutate(Var("x"))), "x", Var("w")),
    ],
)
def test_subst_hand_cases_match_the_reference(term, name, v):
    out = subst(term, name, v)
    assert_masks_exact(out)
    assert out == ref_subst(term, name, v)
    assert free_vars(out) == ref_free(out)


def test_subst_returns_untouched_subtrees_as_they_stand():
    kept = Mutate(Var("y"))
    term = App(kept, Bestow(Var("x")))
    out = subst(term, "x", Loc(2))
    assert out.fun is kept
    assert subst(term, "z", Loc(2)) is term
    assert_masks_exact(out)


def test_contains_loc_distinguishes_bare_and_bestowed():
    assert contains_loc(Mutate(Loc(0)))
    assert contains_loc(Lambda("x", Passive(), Loc(1)))
    assert not contains_loc(BestowedLoc(0, 1))
    assert not contains_loc(UnitVal())


def test_value_scanners():
    e = App(
        Send(ActorId(4), Lambda("x", Passive(), BestowedLoc(9, 4))),
        Loc(2),
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
