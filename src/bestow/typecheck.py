"""Typechecker for the actor calculus.

Twelve syntax-directed rules, one per term form, each a case of
``_check_node``.  A value is an expression, so ``check`` types values too.
Sends are the interesting case: the message body is checked in an
environment stripped of passive-typed bindings, and may not mention a bare
heap location.

``check`` raises :class:`TypeCheckError` carrying the name of the violated
rule; ``type_of`` is the total-function wrapper used by tests.
"""

from __future__ import annotations

from .syntax import (
    ActorId,
    ActorType,
    App,
    Arrow,
    Bestow,
    Bestowed,
    BestowedLoc,
    Expr,
    Lambda,
    Loc,
    Mutate,
    NewActor,
    NewPassive,
    Passive,
    Send,
    Type,
    UnitType,
    UnitVal,
    Var,
    contains_loc,
    is_active,
    render_type,
)


class TypeCheckError(Exception):
    """A static typing failure, tagged with the rule whose premise broke."""

    def __init__(self, rule: str, expr: Expr, message: str) -> None:
        self.rule = rule
        self.expr = expr
        self.message = message
        super().__init__(f"[{rule}] {message}")


class TypeEnv:
    """An immutable typing environment (variable name -> type).  Each binding
    links to the ones outside it, so ``extend`` is O(1).  A second chain
    links the active bindings alone, so ``restrict_active`` is O(1) too."""

    __slots__ = ("_link", "_active")

    def __init__(self, bindings: tuple[tuple[str, Type], ...] = ()) -> None:
        self._link: tuple | None = None  # (name, type, outer link)
        self._active: tuple | None = None  # the same, active bindings only
        for name, t in bindings:
            self._link = (name, t, self._link)
            if is_active(t):
                self._active = (name, t, self._active)

    @staticmethod
    def of(**kwargs: Type) -> TypeEnv:
        return TypeEnv(tuple(kwargs.items()))

    def extend(self, name: str, t: Type) -> TypeEnv:
        env = TypeEnv()
        env._link = (name, t, self._link)
        env._active = (name, t, self._active) if is_active(t) else self._active
        return env

    def lookup(self, name: str) -> Type | None:
        link = self._link
        while link is not None:
            if link[0] == name:
                return link[1]
            link = link[2]
        return None

    @property
    def bindings(self) -> tuple[tuple[str, Type], ...]:
        out, link = [], self._link
        while link is not None:
            out.append(link[:2])
            link = link[2]
        return tuple(reversed(out))

    def restrict_active(self) -> TypeEnv:
        """Keep only bindings at an active type (actor or bestowed).

        This is the environment a message body is checked under: a message
        runs on the receiving actor, so the sender's passive bindings must
        not leak into it.  An active binding shadowed by a passive one of
        the same name is visible again.
        """
        env = TypeEnv()
        env._link = env._active = self._active
        return env

    def __str__(self) -> str:
        inner = ", ".join(f"{n}:{render_type(t)}" for n, t in self.bindings)
        return "{" + inner + "}"


def check(env: TypeEnv, e: Expr) -> Type:
    """Type of ``e`` under ``env``; raises :class:`TypeCheckError` if none.

    A ``val`` or ``;`` chain nests one applied lambda per statement, so the
    chain is followed in a loop: every body first, as the application rule
    checks the function before the argument, then each bound expression
    from the innermost link out.
    """
    links: list[tuple[TypeEnv, App, Lambda]] = []
    while type(e) is App and type(e.fun) is Lambda:
        lam = e.fun
        links.append((env, e, lam))
        env = env.extend(lam.param, lam.param_type)
        e = lam.body
    t = _check_node(env, e)
    while links:
        env, app, lam = links.pop()
        t = _apply(app, Arrow(lam.param_type, t), check(env, app.arg))
    return t


def _apply(e: App, tf: Type, ta: Type) -> Type:
    """The application rule, given the types of the function and argument."""
    if not isinstance(tf, Arrow):
        raise TypeCheckError(
            "e-apply",
            e,
            f"applied a non-function of type {render_type(tf)}",
        )
    if tf.dom != ta:
        raise TypeCheckError(
            "e-apply",
            e,
            f"argument type {render_type(ta)} does not match "
            f"parameter type {render_type(tf.dom)}",
        )
    return tf.cod


def _check_node(env: TypeEnv, e: Expr) -> Type:
    """The typing rule for ``e``'s own form."""
    match e:
        case Var(name):
            t = env.lookup(name)
            if t is None:
                raise TypeCheckError("e-var", e, f"unbound variable {name}")
            return t

        case App(fun, arg):
            return _apply(e, check(env, fun), check(env, arg))

        case NewPassive():
            return Passive()

        case NewActor():
            return ActorType()

        case Mutate(target):
            tt = check(env, target)
            if not isinstance(tt, Passive):
                raise TypeCheckError(
                    "e-mutate",
                    e,
                    f"mutate target has type {render_type(tt)}, expected p",
                )
            return UnitType()

        case Bestow(inner):
            ti = check(env, inner)
            if not isinstance(ti, Passive):
                raise TypeCheckError(
                    "e-bestow",
                    e,
                    f"bestow argument has type {render_type(ti)}, expected p",
                )
            return Bestowed()

        case Send(target, msg):
            tt = check(env, target)
            if not is_active(tt):
                raise TypeCheckError(
                    "e-send",
                    e,
                    f"send target has type {render_type(tt)}, "
                    "expected an active type (c or (B p))",
                )
            if not isinstance(msg, Lambda) or not isinstance(msg.param_type, Passive):
                raise TypeCheckError(
                    "e-send",
                    e,
                    "message must be a function over the passive type",
                )
            if contains_loc(msg.body):
                raise TypeCheckError(
                    "e-send",
                    e,
                    "message body mentions a bare heap location",
                )
            body_env = env.restrict_active().extend(msg.param, Passive())
            try:
                check(body_env, msg.body)
            except TypeCheckError as err:
                # The message body is a premise of the send rule: a failure
                # inside it (typically a passive binding that was stripped
                # from the environment) is reported against the send itself.
                raise TypeCheckError(
                    "e-send",
                    e,
                    f"message body is not typable on the receiver: {err.message}",
                ) from err
            return UnitType()

        case Lambda(param, param_type, body):
            return Arrow(param_type, check(env.extend(param, param_type), body))

        case UnitVal():
            return UnitType()

        case Loc():
            return Passive()

        case ActorId():
            return ActorType()

        case BestowedLoc():
            return Bestowed()

    raise TypeError(f"not an expression: {e!r}")


def type_of(e: Expr, env: TypeEnv | None = None) -> Type:
    """Type of ``e`` in the given (default empty) environment."""
    return check(env if env is not None else TypeEnv(), e)

