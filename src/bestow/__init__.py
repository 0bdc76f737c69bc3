"""An actor calculus with bestowed references, and tools around it.

The package splits into a static side and a dynamic side:

* :mod:`bestow.syntax`, :mod:`bestow.typecheck` — terms, types and the
  twelve-rule checker;
* :mod:`bestow.semantics`, :mod:`bestow.wellformed`, :mod:`bestow.explore`
  — the small-step machine, heap invariants, and a bounded model checker
  for progress, preservation and race freedom;
* :mod:`bestow.gen` — random well-typed programs for soundness sweeps;
* :mod:`bestow.surface`, :mod:`bestow.cli` — a small surface language
  (with ``atomic`` batching) and the command-line front end;
* :mod:`bestow.runtime` — a genuinely concurrent actor library realizing
  the same ideas with Python threads.

Import what you need from those modules; the package itself exports only
``__version__``.
"""

__version__ = "0.1.0"
