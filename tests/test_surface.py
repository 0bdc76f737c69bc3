"""Surface syntax: tokenizer, parser, elaboration, pretty-printer."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from bestow.gen import generate_well_typed
from bestow.surface import (
    MAX_BATCH,
    DesugarError,
    ParseError,
    SApp,
    SAtomic,
    SBestow,
    SBind,
    SBlock,
    SLambda,
    SMutate,
    SNew,
    SSend,
    SUnit,
    SVar,
    compile_program,
    desugar,
    format_core,
    parse_program,
    tokenize,
)
from bestow.syntax import (
    ActorType,
    App,
    Arrow,
    Bestow,
    Bestowed,
    Expr,
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
)
from bestow.typecheck import type_of


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------


def test_tokenize_kinds_and_positions():
    toks = tokenize("val x = ()\n  x ! y'")
    kinds = [t.kind for t in toks]
    assert kinds == ["val", "ident", "=", "(", ")", "ident", "!", "ident", "eof"]
    assert toks[0].pos == (1, 1)
    assert toks[5].pos == (2, 3)  # x on the second line
    assert toks[7].text == "y'"


def test_tokenize_comments_and_keywords():
    toks = tokenize("new p # the rest is ignored\nbestow")
    assert [t.kind for t in toks] == ["new", "p", "bestow", "eof"]


def test_tokenize_two_char_puncts():
    toks = tokenize("<- ->")
    assert [t.kind for t in toks] == ["<-", "->", "eof"]


def test_tokenize_rejects_stray_characters():
    with pytest.raises(ParseError) as exc:
        tokenize("a @ b")
    assert exc.value.pos == (1, 3)


_PIECE = re.compile(
    r"(?P<blank>[ \t\r]+|#[^\n]*)|(?P<nl>\n)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_']*)|(?P<punct><-|->|[\\:.;!=(){}])"
)
_KEYWORDS = {"val", "new", "bestow", "atomic", "mutate", "p", "c", "B", "Unit"}


def reference_tokens(src):
    """``src`` read one blank, comment, newline or token at a time, with
    columns counted by hand: each token's (kind, text, position), or the
    parse error at the first character no token starts with."""
    out, line, col, i = [], 1, 1, 0
    while i < len(src):
        m = _PIECE.match(src, i)
        if m is None:
            return (f"{line}:{col}: unexpected character {src[i]!r}", (line, col))
        text, kind = m.group(), m.lastgroup
        if kind == "nl":
            line, col = line + 1, 0
        elif kind == "word":
            out.append((text if text in _KEYWORDS else "ident", text, (line, col)))
        elif kind == "punct":
            out.append((text, text, (line, col)))
        col += len(text)
        i = m.end()
    return out + [("eof", "", (line, col))]


def tokens_or_error(src):
    try:
        return [(t.kind, t.text, t.pos) for t in tokenize(src)]
    except ParseError as e:
        return (str(e), e.pos)


# Ladder-style statements, as in a long straight-line program, and what may
# sit between them.
LADDER = [
    "val o1 = new p",
    "val a2 = new c",
    "val r3 = bestow o1",
    "a2 ! \\x:p. x.mutate()",
    "r3 ! \\x:p. x.mutate()",
    "atomic y <- r3 { y ! \\x:p. x.mutate() }",
    "\\f:p -> (B p) -> Unit. f",
]
SEPARATORS = [";\n", "; ", ";\r\n", ";\n\n\t", ";  # note\n", "\n# a comment line\n"]
SEPARATORS += ["", " @", "$", "-"]  # and characters no token starts with


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(LADDER), st.sampled_from(SEPARATORS)), max_size=300),
    st.sampled_from(["", " ", "\n", "  # trailing"]),
)
def test_tokenize_matches_a_piece_by_piece_reference(stmts, tail):
    src = "".join(s + sep for s, sep in stmts) + tail
    assert tokens_or_error(src) == reference_tokens(src)


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------


def stripped(node):
    """Surface equality helper: positions are compare=False already."""
    return node


def test_parse_atoms():
    prog = parse_program("x; (); new p; new c")
    assert prog == SBlock((SVar("x"), SUnit(), SNew(False), SNew(True)))


def test_parse_lambda_and_types():
    prog = parse_program(r"\f:p -> p -> Unit. \b:B(p). f")
    (lam,) = prog.stmts
    assert lam == SLambda(
        "f",
        Arrow(Passive(), Arrow(Passive(), UnitType())),
        SLambda("b", Bestowed(), SVar("f")),
    )


def test_parse_parenthesized_arrow_domain():
    prog = parse_program(r"\f:(p -> Unit) -> c. f")
    (lam,) = prog.stmts
    assert lam.param_type == Arrow(Arrow(Passive(), UnitType()), ActorType())


def test_application_is_left_associative():
    (e,) = parse_program("f a b").stmts
    assert e == SApp(SApp(SVar("f"), SVar("a")), SVar("b"))


def test_send_binds_looser_than_application():
    (e,) = parse_program("f a ! g b").stmts
    assert e == SSend(SApp(SVar("f"), SVar("a")), SApp(SVar("g"), SVar("b")))


def test_send_is_right_associative():
    (e,) = parse_program("a ! b ! m").stmts
    assert e == SSend(SVar("a"), SSend(SVar("b"), SVar("m")))


def test_bestow_is_prefix_above_application():
    (e,) = parse_program("bestow f x").stmts
    assert e == SBestow(SApp(SVar("f"), SVar("x")))
    (e2,) = parse_program("f (bestow x)").stmts
    assert e2 == SApp(SVar("f"), SBestow(SVar("x")))


def test_mutate_is_postfix():
    (e,) = parse_program("x.mutate().mutate()").stmts
    assert e == SMutate(SMutate(SVar("x")))
    (e2,) = parse_program("f x.mutate()").stmts
    assert e2 == SApp(SVar("f"), SMutate(SVar("x")))


def test_parse_val_and_block():
    prog = parse_program("val a = new c; { a; () }")
    assert prog == SBlock(
        (SBind("a", SNew(True)), SBlock((SVar("a"), SUnit())))
    )


def test_parse_atomic_block():
    (e,) = parse_program("atomic y <- b { y ! m; y ! n }").stmts
    assert e == SAtomic(
        "y",
        SVar("b"),
        (SSend(SVar("y"), SVar("m")), SSend(SVar("y"), SVar("n"))),
    )


def test_parse_trailing_semicolon_optional():
    assert parse_program("x;") == parse_program("x")


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_program("val = x")
    assert exc.value.pos == (1, 5)
    with pytest.raises(ParseError) as exc:
        parse_program("new q")
    assert "expected 'p' or 'c'" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_program("(")
    assert "end of input" in str(exc.value)


# --------------------------------------------------------------------------
# Elaboration
# --------------------------------------------------------------------------


def elab(src: str, **types: str) -> Expr:
    """``src`` desugared with each keyword's name bound at the type it
    spells: each is the parameter of an enclosing lambda, stripped off
    again once the whole program is desugared."""
    for name, t in reversed(types.items()):
        src = f"\\{name}:{t}. {{ {src} }}"
    core = compile_program(src)
    for _ in types:
        core = core.value.body
    return core


def test_empty_program_is_unit():
    assert compile_program("") == Val(UnitVal())


def test_val_becomes_application():
    core = compile_program("val x = new p; x.mutate()")
    assert core == App(
        Val(Lambda("x", Passive(), Mutate(Var("x")))), NewPassive()
    )


def test_val_binder_type_is_inferred():
    core = compile_program("val a = new c; val r = bestow new p; ()")
    outer = core.fun.value
    assert outer.param_type == ActorType()
    inner = outer.body.fun.value
    assert inner.param_type == Bestowed()


def test_sequencing_uses_fresh_throwaway_binder():
    core = compile_program("new p; ()")
    assert core == App(
        Val(Lambda("_seq", Passive(), Val(UnitVal()))), NewPassive()
    )


def test_trailing_val_still_evaluates():
    assert compile_program("val x = new p") == NewPassive()


def test_literal_lambda_message_is_sent_as_is():
    core = elab(r"a ! \x:p. x.mutate()", a="c")
    assert core == Send(
        Var("a"), Lambda("x", Passive(), Mutate(Var("x")))
    )


def test_non_lambda_message_is_eta_expanded():
    core = elab("a ! f", a="c", f="p -> Unit")
    assert core == Send(
        Var("a"), Lambda("z", Passive(), App(Var("f"), Var("z")))
    )


def test_eta_expansion_avoids_capture():
    core = elab("a ! z", a="c", z="p -> Unit")
    msg = core.msg
    assert msg.param != "z"
    assert msg.body == App(Var("z"), Var(msg.param))


def test_atomic_desugars_to_single_send():
    core = elab(r"atomic y <- b { y ! \x:p. x.mutate(); y ! \x:p. () }", b="B(p)")
    assert core == Send(
        Var("b"),
        Lambda(
            "y",
            Passive(),
            App(
                Val(
                    Lambda(
                        "_seq",
                        UnitType(),
                        App(
                            Val(Lambda("x", Passive(), Val(UnitVal()))),
                            Var("y"),
                        ),
                    )
                ),
                App(Val(Lambda("x", Passive(), Mutate(Var("x")))), Var("y")),
            ),
        ),
    )


def test_atomic_single_statement():
    core = elab(r"atomic y <- a { y ! \x:p. () }", a="c")
    assert core == Send(
        Var("a"),
        Lambda(
            "y",
            Passive(),
            App(Val(Lambda("x", Passive(), Val(UnitVal()))), Var("y")),
        ),
    )


def test_atomic_whole_program_typechecks_and_runs():
    src = (
        "val a = new c;\n"
        "atomic y <- a {\n"
        r"  y ! \x:p. x.mutate();"
        "\n"
        r"  y ! \x:p. x.mutate()"
        "\n"
        "}\n"
    )
    core = compile_program(src)
    assert type_of(core) == UnitType()


def test_nested_atomic_rejected():
    for src in [
        "atomic y <- a { y ! atomic z <- b { z ! m } }",
        # a statement that is an atomic block, using the alias or not
        "atomic y <- a { atomic z <- y { z ! m } }",
        "atomic y <- a { atomic z <- b { z ! m } }",
    ]:
        with pytest.raises(DesugarError) as exc:
            elab(src, a="c", b="B(p)")
        assert exc.value.code == "nested-atomic"


def test_atomic_target_must_be_a_name():
    with pytest.raises(DesugarError) as exc:
        desugar(parse_program("atomic y <- (new c) { y ! m }"))
    assert exc.value.code == "non-active-target"


def test_atomic_target_must_be_active():
    with pytest.raises(DesugarError) as exc:
        elab("atomic y <- x { y ! m }", x="p")
    assert exc.value.code == "non-active-target"
    assert "found p" in str(exc.value)

    with pytest.raises(DesugarError) as exc:
        desugar(parse_program("atomic y <- nope { y ! m }"))
    assert exc.value.code == "non-active-target"
    assert "found nothing" in str(exc.value)


def test_atomic_batch_size_cap():
    body = "; ".join([r"y ! \x:p. ()"] * (MAX_BATCH + 1))
    src = f"val a = new c; atomic y <- a {{ {body} }}"
    with pytest.raises(DesugarError) as exc:
        compile_program(src)
    assert exc.value.code == "batch-too-large"

    ok = "; ".join([r"y ! \x:p. ()"] * MAX_BATCH)
    compile_program(f"val a = new c; atomic y <- a {{ {ok} }}")


def test_atomic_statements_must_send_to_alias():
    with pytest.raises(DesugarError) as exc:
        elab("atomic y <- a { new p }", a="c")
    assert exc.value.code == "batch-shape"

    with pytest.raises(DesugarError) as exc:
        elab(r"atomic y <- a { a ! \x:p. () }", a="c")
    assert exc.value.code == "batch-shape"


def test_atomic_alias_only_as_send_target():
    with pytest.raises(DesugarError) as exc:
        elab("atomic y <- a { y.mutate() }", a="c")
    assert exc.value.code == "alias-misuse"

    with pytest.raises(DesugarError) as exc:
        elab(r"atomic y <- a { y ! \x:p. f y }", a="c")
    assert exc.value.code == "alias-misuse"


def test_atomic_alias_may_be_shadowed_inside_message():
    core = elab(r"atomic y <- a { y ! \y:p. y }", a="c")
    assert core.msg.body == App(Val(Lambda("y", Passive(), Var("y"))), Var("y"))


def test_untypable_binder_falls_back_to_unit_annotation():
    # elaboration must not fail for type reasons; the real typecheck
    # later reports the error at the offending expression
    core = compile_program("val x = (() ()); x")
    assert core.fun.value.param_type == UnitType()


# --------------------------------------------------------------------------
# Pretty-printing core expressions
# --------------------------------------------------------------------------


def test_format_core_goldens():
    env = {"f": "p -> p", "a": "c", "x": "p"}
    cases = [
        "f x x",
        "f (f x)",
        "bestow f x",
        "f (bestow x)",
        "x.mutate()",
        r"(\x:p. x).mutate()",
        r"a ! \x:p. x.mutate()",
        r"f x ! \y:p. ()",
        "new p",
        "new c",
        "()",
    ]
    for src in cases:
        core = elab(src, **env)
        assert format_core(core) == src


def test_format_core_round_trips_through_the_parser():
    env = {"f": "p -> p", "a": "c", "x": "p"}
    core = elab(r"a ! \y:p. f (bestow y).mutate(); f x", **env)
    again = elab(format_core(core), **env)
    assert again == core


def test_format_core_rejects_runtime_values():
    with pytest.raises(ValueError):
        format_core(Val(Loc(0)))


def test_format_core_of_a_val_chain_reads_back_or_raises():
    """Each `val` statement nests its rest two levels deeper, so a chain of 25
    statements prints as text that reads back and a longer one raises."""
    for n in range(1, 61):
        core = compile_program(";\n".join(f"val o{i} = new p" for i in range(n)))
        if n <= 25:
            assert compile_program(format_core(core)) == core, n
        else:
            with pytest.raises(ValueError, match="nested more than"):
                format_core(core)
    long_chain = ";\n".join(f"val o{i} = new p" for i in range(500))
    with pytest.raises(ValueError, match="nested more than"):
        format_core(compile_program(long_chain))


def _nest(k, wrap, leaf):
    for _ in range(k):
        leaf = wrap(leaf)
    return leaf


NESTED_SHAPES = {
    "mutate": (lambda k: "x" + ".mutate()" * k, lambda k: _nest(k, Mutate, Var("x"))),
    "bestow": (lambda k: "bestow " * k + "x", lambda k: _nest(k, Bestow, Var("x"))),
    "app chain": (
        lambda k: "f" + " x" * k,
        lambda k: _nest(k, lambda e: App(e, Var("x")), Var("f")),
    ),
    "app argument": (
        lambda k: "f (" * (k - 1) + "f x" + ")" * (k - 1),
        lambda k: _nest(k, lambda e: App(Var("f"), e), Var("x")),
    ),
    "lambda": (
        lambda k: "\\x:p. " * k + "x",
        lambda k: _nest(k, lambda e: Val(Lambda("x", Passive(), e)), Var("x")),
    ),
    "send": (
        lambda k: "x ! \\y:p. " * k + "y",
        lambda k: _nest(k, lambda e: Send(Var("x"), Lambda("y", Passive(), e)), Var("y")),
    ),
    "arrow type": (
        lambda k: "\\x:" + "p -> " * k + "p. x",
        lambda k: Val(Lambda("x", _nest(k, lambda t: Arrow(Passive(), t), Passive()), Var("x"))),
    ),
}


@pytest.mark.parametrize("shape", NESTED_SHAPES)
def test_format_core_raises_exactly_where_the_parser_rejects(shape):
    text, core = NESTED_SHAPES[shape]
    readable = 0
    for k in range(1, 70):
        try:
            parsed = compile_program(text(k))
        except ParseError:
            with pytest.raises(ValueError, match="nested more than"):
                format_core(core(k))
        else:
            readable += 1
            assert parsed == core(k) and format_core(core(k)) == text(k), k
    assert 0 < readable < 69


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=50_000))
def test_generated_programs_round_trip(seed):
    program, goal = generate_well_typed(seed)
    text = format_core(program)
    again = compile_program(text)
    assert again == program
    assert type_of(again) == goal
