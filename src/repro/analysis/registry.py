"""Rule registry for the static analysis passes.

Rules are :class:`ast.NodeVisitor` subclasses registered by decorating them
with :func:`register`; the CLI and tests enumerate them via
:func:`all_rules` so adding a rule is a one-file change.

The live inventory -- every code with its one-line summary -- is printed
by ``python -m repro lint --list-rules``; keep docs pointing there instead
of hand-enumerating codes.
"""

import ast

from repro.analysis.reporter import Finding

_RULES = {}

#: Codes the reporter itself emits (not registry rules, never selectable).
REPORTER_CODES = frozenset({"LNT000", "LNT001", "LNT002", "LNT003"})


def register(cls):
    """Class decorator: add a per-file rule to the registry."""
    if not getattr(cls, "code", None):
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in _RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    _RULES[cls.code] = cls
    return cls


def _load_rules():
    # Import for the registration side effect.
    import repro.analysis.rules  # noqa: F401


def all_rules():
    """Every registered rule class, sorted by code."""
    _load_rules()
    return [_RULES[code] for code in sorted(_RULES)]


def known_codes():
    """Every code a suppression may legitimately name."""
    _load_rules()
    return frozenset(_RULES) | REPORTER_CODES


def select_rules(selectors):
    """Resolve ``--select`` items (codes or prefixes) to rule classes.

    ``selectors`` is an iterable of strings; each matches rule codes
    exactly or as a prefix (``DET`` selects every DET rule).  Raises
    ValueError on a selector that matches nothing.
    """
    _load_rules()
    rules = []
    for selector in selectors:
        matched = [_RULES[code] for code in sorted(_RULES)
                   if code == selector or code.startswith(selector)]
        if not matched:
            raise ValueError(
                f"--select {selector!r} matches no rule; see --list-rules"
            )
        rules.extend(matched)
    return rules


class LintRule(ast.NodeVisitor):
    """Base class for one per-file rule applied to one file.

    Subclasses set ``code`` (e.g. ``"DET001"``) and ``summary`` (one line,
    shown by ``lint --list-rules``) and call :meth:`report` from their
    ``visit_*`` methods.  ``EXEMPT_SUFFIXES`` names path suffixes (always
    ``/``-separated) the rule does not apply to -- e.g. ``repro.sim.rng``
    is allowed to import :mod:`random` because it *is* the entropy source.
    """

    code = None
    summary = None
    EXEMPT_SUFFIXES = ()

    def __init__(self, path):
        self.path = str(path).replace("\\", "/")
        self.findings = []

    @classmethod
    def exempt(cls, path):
        normalized = str(path).replace("\\", "/")
        return any(normalized.endswith(suffix) for suffix in cls.EXEMPT_SUFFIXES)

    def report(self, node, message):
        self.findings.append(
            Finding(self.path, node.lineno, node.col_offset, self.code, message)
        )

    def run(self, tree):
        """Visit ``tree`` and return this rule's findings for the file."""
        self.visit(tree)
        return self.findings

