"""Fixtures shared by the test modules."""

from __future__ import annotations

from dataclasses import replace

import pytest

import bestow.explore
import bestow.semantics


@pytest.fixture
def sender_queue_mutant(monkeypatch):
    """The explorer with a semantic bug injected: a bestowed send queues its
    message on the sender instead of on the owner.  On the contended
    programs this breaks preservation and race freedom."""
    real = bestow.explore.actor_step

    def actor_step(ident, a, next_loc, next_id, *, lifo=False):
        eff = real(ident, a, next_loc, next_id, lifo=lifo)
        if eff.event.rule == "send-bestowed":
            return replace(eff, post=(ident, eff.post[1]))
        return eff

    monkeypatch.setattr(bestow.explore, "actor_step", actor_step)


@pytest.fixture
def mutate_never_fires(monkeypatch):
    """The evaluator with a semantic bug injected: ``poised`` never names
    the mutate rule, so an actor about to mutate a location is stuck."""
    real = bestow.semantics._poised

    def _poised(a):
        rule, loc = real(a)
        return (None, None) if rule == "mutate" else (rule, loc)

    monkeypatch.setattr(bestow.semantics, "_poised", _poised)
