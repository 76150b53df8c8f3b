"""Stream-scheduler rules: RS108, the RS109–RS111 concurrency lints and
RS122 race-annotation completeness.

The multi-GPU executor's modeled elapsed time is the critical path
through the :class:`repro.gpu.streams.StreamScheduler` DAG, so the
hazards of a real stream runtime apply: a dropped event or a transfer
submitted with no ordering doesn't crash — it silently shifts the
critical path and corrupts the Figure 15 numbers.  RS108 keeps all
charging on the stream API; RS109–RS111 catch dropped syncs, unordered
transfers, and missing race-sanitizer annotations *before* a run;
RS122 checks that every submission's ``writes=`` and derived reads
give the sanitizer a DAG it can order.  The dynamic complement is
:mod:`repro.analysis.races` (see docs/static_analysis.md, "Race
sanitizer").

RS109/RS110 apply to any module that imports
:mod:`repro.gpu.streams` (the fingerprint of code driving the
scheduler); RS111 is scoped to ``repro/gpu/multigpu.py``, the one
module whose annotations the fig15 race check depends on.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from .engine import BaseChecker, ModuleContext, register
from .findings import AnalysisFinding
from .rules_executor import in_timed_scope

__all__ = ["StreamChargeChecker", "DroppedEventChecker",
           "UnorderedTransferChecker", "MissingAccessChecker",
           "IncompleteRaceAnnotationChecker", "STREAM_SCOPES",
           "TRANSFER_STREAMS"]

#: Path fragments (posix) where RS108/RS111 are enforced: the executors
#: whose clock is the stream scheduler's critical path.
STREAM_SCOPES: Tuple[str, ...] = ("repro/gpu/multigpu.py",)

#: Stream names whose submissions move data: these are exactly the
#: submissions whose ordering a missing edge silently breaks.
TRANSFER_STREAMS = ("comms", "h2d", "d2h", "pcie")


def _imports_streams(ctx: ModuleContext) -> bool:
    """True when the module imports :mod:`repro.gpu.streams` (by module
    or by name) — the scope gate for the concurrency lints, so an
    unrelated ``executor.submit`` (e.g. concurrent.futures) is never
    flagged."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if mod == "streams" or mod.endswith(".streams"):
                return True
            if any(alias.name in ("StreamScheduler", "StreamEvent")
                   for alias in node.names):
                return True
        elif isinstance(node, ast.Import):
            if any(alias.name.endswith(".streams")
                   for alias in node.names):
                return True
    return False


def _is_submit_call(node: ast.Call) -> Optional[str]:
    """``"submit"``/``"submit_group"`` when ``node`` is a method call on
    a stream scheduler-ish receiver, else ``None``."""
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in ("submit",
                                                         "submit_group"):
        return func.attr
    return None


def _keyword(node: ast.Call, name: str) -> Optional[ast.expr]:
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _is_empty_literal(node: Optional[ast.expr]) -> bool:
    """True for an absent keyword or a literal ``()``/``[]``/``False``/
    ``None`` — the shapes that pin "no ordering was requested" down
    statically.  Any dynamic expression is given the benefit of the
    doubt."""
    if node is None:
        return True
    if isinstance(node, (ast.Tuple, ast.List)) and not node.elts:
        return True
    if isinstance(node, ast.Constant) and not node.value:
        return True
    return False


@register
class StreamChargeChecker(BaseChecker):
    """RS108: no direct ``.charge(...)`` in the stream-scheduled
    multi-GPU executor.

    Flags any attribute call ending in ``.charge`` (``device.charge``,
    ``self.device.charge``, ``dev.timeline.charge``, ...) inside
    ``repro/gpu/multigpu.py``.  Time must flow through
    ``self.streams.submit``/``submit_group`` so the scheduler's
    frontier — and therefore ``seconds`` — sees it.
    """

    rule = "RS108"
    summary = ("multi-GPU charges must go through the stream scheduler "
               "(streams.submit/submit_group), not device.charge")

    def run(self):
        if not any(scope in self.ctx.relpath for scope in STREAM_SCOPES):
            return self.findings
        return super().run()

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "charge":
            self.emit(node, "direct .charge() bypasses the stream "
                            "scheduler; submit via self.streams so the "
                            "critical-path clock sees this work")
        self.generic_visit(node)


@register
class DroppedEventChecker(BaseChecker):
    """RS109: a returned ``StreamEvent`` dropped on the floor.

    A bare-statement ``submit``/``submit_group`` that asks for no
    ordering (``deps``/``after_all`` absent) discards the only handle
    later work could synchronize on — the static shape of a dropped
    sync.  A bare ``barrier()`` statement is flagged unconditionally:
    it computes a join event and throws it away, a pure no-op.
    Submissions that pass ``deps=`` or ``after_all=`` are already
    ordered, so discarding their event is fine.
    """

    rule = "RS109"
    summary = ("StreamEvent discarded: bare submit with no deps/after_all "
               "(or a bare barrier()) drops the sync handle")

    def run(self):
        if not _imports_streams(self.ctx):
            return self.findings
        return super().run()

    def visit_Expr(self, node: ast.Expr) -> None:
        call = node.value
        if isinstance(call, ast.Call):
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr == "barrier" \
                    and not call.args and not call.keywords:
                self.emit(node, "barrier() event discarded: the join "
                                "only exists through its StreamEvent; "
                                "keep it and pass it via deps=")
            elif _is_submit_call(call) is not None \
                    and _keyword(call, "deps") is None \
                    and _keyword(call, "after_all") is None:
                self.emit(node, f"StreamEvent of {_is_submit_call(call)}() "
                                "discarded and no deps=/after_all= given; "
                                "nothing can ever order work after this "
                                "submission — keep the event or declare "
                                "the ordering")
        self.generic_visit(node)


@register
class UnorderedTransferChecker(BaseChecker):
    """RS110: a transfer submitted with no ordering at all.

    A ``submit`` onto a comms/h2d/d2h stream with an empty ``deps`` and
    no ``after_all`` starts the copy the moment the copy engine is
    free — almost always before its producer finished.  The dynamic
    sanitizer reports this as a race at run time; this rule catches the
    shape at review time.
    """

    rule = "RS110"
    summary = ("transfer submit (comms/h2d/d2h) with empty deps and no "
               "after_all: the copy is ordered by nothing")

    def run(self):
        if not _imports_streams(self.ctx):
            return self.findings
        return super().run()

    def visit_Call(self, node: ast.Call) -> None:
        if _is_submit_call(node) == "submit":
            stream = _keyword(node, "stream")
            phase = node.args[0] if node.args else None
            on_transfer = (
                isinstance(stream, ast.Constant)
                and stream.value in TRANSFER_STREAMS) or (
                stream is None
                and isinstance(phase, ast.Constant)
                and phase.value == "comms")
            if on_transfer \
                    and _is_empty_literal(_keyword(node, "deps")) \
                    and _is_empty_literal(_keyword(node, "after_all")):
                self.emit(node, "transfer submitted with no deps= and no "
                                "after_all=: it starts whenever the copy "
                                "engine is free, racing its producer; "
                                "pass the producer's StreamEvent")
        self.generic_visit(node)


@register
class MissingAccessChecker(BaseChecker):
    """RS111: multi-GPU submissions must declare ``reads=``/``writes=``.

    The fig15 race check is only as good as the buffer annotations; a
    submission without them is invisible to the happens-before
    sanitizer, so a missing edge through it can never be detected.
    Enforced in ``repro/gpu/multigpu.py`` (the annotated executor);
    helpers forwarding ``reads=reads``/``writes=writes`` count.
    """

    rule = "RS111"
    summary = ("submit/submit_group in multigpu.py without reads=/writes= "
               "buffer declarations (invisible to the race sanitizer)")

    def run(self):
        if not any(scope in self.ctx.relpath for scope in STREAM_SCOPES):
            return self.findings
        return super().run()

    def visit_Call(self, node: ast.Call) -> None:
        kind = _is_submit_call(node)
        if kind is not None \
                and _keyword(node, "reads") is None \
                and _keyword(node, "writes") is None:
            self.emit(node, f"{kind}() declares no reads=/writes= "
                            "buffers: the race sanitizer cannot see "
                            "this submission's accesses; name the "
                            "logical buffers it touches")
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# RS122: race-annotation completeness
# ---------------------------------------------------------------------------

def _buffer_base(node: ast.expr) -> Optional[str]:
    """The logical-buffer family name of one ``reads=``/``writes=``
    element: ``"B_chunk[0]"`` -> ``B_chunk``, ``f"B_host[{j},g{d}]"``
    -> ``B_host``, ``"A"`` -> ``A``.  ``None`` means the element is
    dynamic with no literal prefix (a wildcard — it may name anything).
    """
    text: Optional[str] = None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value
    elif isinstance(node, ast.JoinedStr):
        if node.values and isinstance(node.values[0], ast.Constant) \
                and isinstance(node.values[0].value, str):
            text = node.values[0].value
        else:
            return None
    else:
        return None
    for sep in ("[", "@"):
        if sep in text:
            text = text.split(sep, 1)[0]
    return text or None


def _buffer_elements(node: ast.expr) -> Optional[List[ast.expr]]:
    """Flatten a ``reads=``/``writes=`` expression into elements, or
    ``None`` when the list itself is dynamic (a forwarded variable, a
    comprehension over devices, a concatenation with one)."""
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        return list(node.elts)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = _buffer_elements(node.left)
        right = _buffer_elements(node.right)
        if left is None or right is None:
            return None
        return left + right
    return None


def _is_stream_submit(node: ast.Call) -> bool:
    if not isinstance(node.func, ast.Attribute):
        return False
    if node.func.attr not in ("submit", "submit_group"):
        return False
    receiver = node.func.value
    return isinstance(receiver, ast.Attribute) \
        and receiver.attr == "streams"


@register
class IncompleteRaceAnnotationChecker(BaseChecker):
    """RS122: a stream submission the race sanitizer cannot order.

    The race sanitizer (:mod:`repro.analysis.races`) orders kernels by
    the logical buffers they declare; a ``streams.submit``/
    ``submit_group`` with no ``writes=`` declaration (or an empty one)
    is invisible to it — every conflict
    with that kernel goes unchecked, which is exactly how a dropped
    declaration reintroduces the silent races the sanitizer exists to
    catch.  Additionally, a *derived* buffer read (``"B_chunk[0]"``,
    ``"R_bar@g1"`` — anything with a ``[``/``@`` suffix) must be
    produced by some declared write of the same family in the module;
    a read nothing covers means the declared DAG has a dangling edge.
    Dynamic buffer lists (forwarded parameters, per-device
    comprehensions, dynamic f-string prefixes) make the module *open*
    and disable the dangling-read check — only the per-site ``writes=``
    presence check remains.
    """

    rule = "RS122"
    summary = ("stream submission with no writes= declaration (or a "
               "derived buffer read no declared write produces)")

    def run(self) -> List[AnalysisFinding]:
        if not in_timed_scope(self.ctx):
            return self.findings
        submits = [node for node in ast.walk(self.ctx.tree)
                   if isinstance(node, ast.Call)
                   and _is_stream_submit(node)]
        if not submits:
            return self.findings

        open_module = False
        write_bases: Set[str] = set()
        reads: List[tuple] = []
        for node in submits:
            kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}
            writes = kwargs.get("writes")
            if writes is None or (isinstance(writes, (ast.List, ast.Tuple,
                                                      ast.Set))
                                  and not writes.elts):
                self.emit(node,
                          f"{node.func.attr}() declares no writes= "
                          f"logical buffers; the race sanitizer cannot "
                          f"order this kernel against anything that "
                          f"touches its outputs")
                continue
            elements = _buffer_elements(writes)
            if elements is None:
                open_module = True
            else:
                for elt in elements:
                    base = _buffer_base(elt)
                    if base is None:
                        open_module = True
                    else:
                        write_bases.add(base)
            read_elements = _buffer_elements(kwargs.get("reads")) \
                if "reads" in kwargs else []
            if read_elements is None:
                open_module = True
            else:
                for elt in read_elements:
                    reads.append((elt, node))

        if open_module:
            return self.findings
        for elt, node in reads:
            if not (isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)):
                continue
            if "[" not in elt.value and "@" not in elt.value:
                continue  # plain input buffers may be produced upstream
            base = _buffer_base(elt)
            if base is not None and base not in write_bases:
                self.emit(elt,
                          f"read of derived buffer {elt.value!r} that no "
                          f"declared write of the {base!r} family "
                          f"produces; the race DAG has a dangling edge")
        return self.findings
