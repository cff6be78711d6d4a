"""The determinism (DET) rules.

Each rule targets one way the "same seed => byte-identical output"
guarantee silently breaks: ambient entropy and clocks, hash-order
iteration feeding scheduling, float simtime equality, hand-rolled event
heaps, and completion-order parallelism.  The authoritative inventory --
every registered code with its one-line summary -- is generated from the
registry by ``python -m repro lint --list-rules``; this docstring
deliberately does not enumerate codes that would go stale.  Snapshot
completeness is not a lint rule: ``python -m repro statecheck`` checks
it on live objects (:mod:`repro.analysis.statecheck`).
"""

import ast

from repro.analysis.registry import LintRule, register

#: Calls that commit a scheduling or dispatch decision (DET002 sinks).
SCHEDULING_CALLS = frozenset({"schedule", "schedule_at", "post", "rearm", "every", "dispatch"})

#: Wrappers that impose a deterministic order on an unordered iterable.
ORDERING_WRAPPERS = frozenset({"sorted", "list", "tuple", "min", "max"})


def _is_datetime_name(node):
    """Does ``node`` name the datetime module or class (``datetime`` /
    ``datetime.datetime``)?"""
    if isinstance(node, ast.Name):
        return node.id == "datetime"
    if isinstance(node, ast.Attribute):
        return node.attr == "datetime"
    return False


@register
class EntropyRule(LintRule):
    """DET001: entropy and clocks must come from ``repro.sim.rng``."""

    code = "DET001"
    summary = (
        "no direct random/time/os.urandom/datetime.now/uuid1/uuid4/hash() use; "
        "derive entropy and clocks from repro.sim.rng streams and the "
        "simulator clock"
    )
    EXEMPT_SUFFIXES = ("repro/sim/rng.py",)
    FORBIDDEN_MODULES = frozenset({"random", "time"})
    #: Bare callables that are ambient entropy wherever they appear.
    ENTROPY_CALLABLES = frozenset({"hash", "urandom", "uuid1", "uuid4"})

    def visit_Import(self, node):
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in self.FORBIDDEN_MODULES:
                self.report(
                    node,
                    f"direct import of {root!r}: use repro.sim.rng streams "
                    f"(entropy) or the Simulator clock (time)",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        root = (node.module or "").split(".")[0]
        if root in self.FORBIDDEN_MODULES:
            self.report(
                node,
                f"direct import from {root!r}: use repro.sim.rng streams "
                f"(entropy) or the Simulator clock (time)",
            )
        elif root == "os":
            for alias in node.names:
                if alias.name == "urandom":
                    self.report(
                        node,
                        "from os import urandom is unseedable entropy: "
                        "derive randomness from a repro.sim.rng stream",
                    )
        elif root == "uuid":
            for alias in node.names:
                if alias.name in ("uuid1", "uuid4"):
                    self.report(
                        node,
                        f"from uuid import {alias.name} is ambient entropy "
                        f"(host clock/MAC/os.urandom): derive identifiers "
                        f"from a repro.sim.rng stream",
                    )
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "urandom" and isinstance(func.value, ast.Name) \
                    and func.value.id == "os":
                self.report(
                    node,
                    "os.urandom is unseedable entropy: derive randomness "
                    "from a repro.sim.rng stream",
                )
            elif func.attr in ("uuid1", "uuid4") and isinstance(
                func.value, ast.Name
            ) and func.value.id == "uuid":
                self.report(
                    node,
                    f"uuid.{func.attr}() is ambient entropy (host "
                    f"clock/MAC/os.urandom): derive identifiers from a "
                    f"repro.sim.rng stream",
                )
            elif func.attr in ("now", "utcnow") and _is_datetime_name(
                func.value
            ):
                self.report(
                    node,
                    f"datetime.{func.attr}() reads the host wall clock: "
                    f"simulation time comes from the Simulator clock "
                    f"(integer nanoseconds)",
                )
        elif isinstance(func, ast.Name) and func.id == "hash":
            self.report(
                node,
                "bare hash() of a str/bytes is salted per process "
                "(PYTHONHASHSEED): use zlib.crc32 or repro.packet.hashing",
            )
        elif isinstance(func, ast.Name) and func.id in self.ENTROPY_CALLABLES:
            self.report(
                node,
                f"bare {func.id}() is ambient entropy: derive randomness "
                f"from a repro.sim.rng stream",
            )
        self.generic_visit(node)


def _unordered_iterable(node):
    """Describe ``node`` if it is an unordered dict/set iterable, else None."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"{func.id}()"
        if isinstance(func, ast.Attribute) and func.attr in (
            "keys", "values", "items", "difference", "union", "intersection",
        ):
            return f".{func.attr}()"
    return None


def _contains_scheduling_call(nodes):
    for root in nodes:
        for node in ast.walk(root):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in SCHEDULING_CALLS
            ):
                return node
    return None


@register
class UnorderedIterationRule(LintRule):
    """DET002: unordered iteration must not feed scheduling decisions."""

    code = "DET002"
    summary = (
        "no iteration over unsorted dict/set values where the result feeds Simulator."
        "schedule*/post/rearm/dispatch; wrap the iterable in sorted(...)"
    )

    def _check(self, node, iterable, body):
        description = _unordered_iterable(iterable)
        if description is None:
            return
        sink = _contains_scheduling_call(body)
        if sink is None:
            return
        self.report(
            node,
            f"iteration over {description} feeds "
            f"'{sink.func.attr}' (line {sink.lineno}); hash order is not "
            f"deterministic -- iterate sorted(...) instead",
        )

    def visit_For(self, node):
        self._check(node, node.iter, node.body)
        self.generic_visit(node)

    def visit_AsyncFor(self, node):
        self._check(node, node.iter, node.body)
        self.generic_visit(node)

    def _visit_comprehension(self, node, elements):
        for generator in node.generators:
            description = _unordered_iterable(generator.iter)
            if description is None:
                continue
            sink = _contains_scheduling_call(elements)
            if sink is not None:
                self.report(
                    node,
                    f"comprehension over {description} feeds "
                    f"'{sink.func.attr}'; hash order is not deterministic "
                    f"-- iterate sorted(...) instead",
                )
        self.generic_visit(node)

    def visit_ListComp(self, node):
        self._visit_comprehension(node, [node.elt])

    def visit_SetComp(self, node):
        self._visit_comprehension(node, [node.elt])

    def visit_GeneratorExp(self, node):
        self._visit_comprehension(node, [node.elt])

    def visit_DictComp(self, node):
        self._visit_comprehension(node, [node.key, node.value])


def _is_time_expr(node):
    """Does ``node`` read simulation time (``.now`` or a ``*_ns`` value)?"""
    if isinstance(node, ast.Attribute):
        return node.attr == "now" or node.attr.endswith("_ns")
    if isinstance(node, ast.Name):
        return node.id == "now" or node.id.endswith("_ns")
    if isinstance(node, ast.BinOp):
        return _is_time_expr(node.left) or _is_time_expr(node.right)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute):
            return func.attr.endswith("_ns")
    return False


def _is_float_tainted(node):
    """Can ``node`` evaluate to a float (literal, division, float())?"""
    for child in ast.walk(node):
        if isinstance(child, ast.Constant) and isinstance(child.value, float):
            return True
        if isinstance(child, ast.BinOp) and isinstance(child.op, ast.Div):
            return True
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id == "float"
        ):
            return True
    return False


@register
class FloatSimtimeEqualityRule(LintRule):
    """DET003: no ``==``/``!=`` between simtime and float expressions."""

    code = "DET003"
    summary = (
        "no ==/!= on float simtime; keep time in integer nanoseconds and "
        "compare exactly, or use ordering comparisons"
    )

    def visit_Compare(self, node):
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left] + list(node.comparators)
            if any(_is_time_expr(operand) for operand in operands) and any(
                _is_float_tainted(operand) for operand in operands
            ):
                self.report(
                    node,
                    "float equality on simulation time: integer-ns "
                    "comparison is exact, float rounding is not",
                )
        self.generic_visit(node)


@register
class HandRolledHeapRule(LintRule):
    """DET004: schedule callbacks via the engine API, not private heaps."""

    code = "DET004"
    summary = (
        "event callbacks must go through Simulator.schedule/schedule_at/post/push/"
        "rearm/every; no hand-rolled heapq/PriorityQueue/sched event loops"
    )
    EXEMPT_SUFFIXES = ("repro/sim/engine.py",)
    FORBIDDEN_MODULES = frozenset({"heapq", "sched"})

    def visit_Import(self, node):
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in self.FORBIDDEN_MODULES:
                self.report(
                    node,
                    f"import of {root!r}: the engine's heap breaks "
                    f"same-timestamp ties with sequence numbers; schedule "
                    f"via the Simulator API instead",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        root = (node.module or "").split(".")[0]
        if root in self.FORBIDDEN_MODULES:
            self.report(
                node,
                f"import from {root!r}: schedule via the Simulator API "
                f"instead of a hand-rolled heap",
            )
        elif root == "queue" and any(
            alias.name == "PriorityQueue" for alias in node.names
        ):
            self.report(
                node,
                "queue.PriorityQueue is a hand-rolled event heap; schedule "
                "via the Simulator API instead",
            )
        self.generic_visit(node)


@register
class CompletionOrderRule(LintRule):
    """DET005: merge parallel results in submission order.

    The one sanctioned site is :func:`repro.fleet.engine.pool_map`
    (suppressed there with its reason): it slots outcomes by payload
    position and returns them in the order given, and ``run_sweep``
    re-keys them by shard index before the merge, so completion order
    decides only when a shard is persisted -- never what any reader sees.
    Readiness and exit-order waits (``select.select``, ``os.wait``) are
    matched module-qualified only, so a method or function of another
    module that happens to be named ``select`` stays clean.
    """

    code = "DET005"
    summary = (
        "no completion-order parallelism (imap_unordered/as_completed, "
        "select.select/poll/epoll, os.wait/wait3/wait4/waitid); fold worker "
        "results in submission order (Pool.map or repro.fleet.pool_map, the "
        "one sanctioned site: it re-slots results by position before "
        "anything observes them)"
    )
    FORBIDDEN_NAMES = frozenset({"imap_unordered", "as_completed"})
    #: module -> the waits it offers that return whichever is ready first.
    FORBIDDEN_QUALIFIED = {
        "select": frozenset({"select", "poll", "epoll"}),
        "os": frozenset({"wait", "wait3", "wait4", "waitid"}),
    }

    def _message(self, name):
        return (
            f"'{name}' yields results in completion order, which varies "
            f"with host load; merged output stops being byte-identical "
            f"across worker counts -- use an order-preserving map "
            f"(Pool.map / repro.fleet.pool_map, which alone may consume "
            f"completion order because it returns results by position)"
        )

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in self.FORBIDDEN_NAMES:
            self.report(node, self._message(func.attr))
        elif isinstance(func, ast.Name) and func.id in self.FORBIDDEN_NAMES:
            self.report(node, self._message(func.id))
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.attr in self.FORBIDDEN_QUALIFIED.get(func.value.id, ())
        ):
            self.report(node, self._message(f"{func.value.id}.{func.attr}"))
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        qualified = self.FORBIDDEN_QUALIFIED.get(node.module, ())
        for alias in node.names:
            if alias.name in self.FORBIDDEN_NAMES:
                self.report(node, self._message(alias.name))
            elif alias.name in qualified:
                self.report(node, self._message(f"{node.module}.{alias.name}"))
        self.generic_visit(node)
