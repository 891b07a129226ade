"""Block-compiling fast path for the execution engine.

The reference interpreter in :mod:`repro.arch.engine` pays per-*dynamic*
instruction for work that is a pure function of the *static* instruction
and the machine config: operand/decode field lookups, opcode dispatch,
fetch-window and cache-line arithmetic on constant byte addresses, and
the load-use/front-end bookkeeping branches.  This module removes that
tax in two layers:

1. **Basic-block decode cache** — on first use of an
   (:class:`~repro.isa.program.Executable`, machine config) pair, every
   straight-line block the dispatcher can reach (leader → first control
   transfer) is decoded *once* into a specialized Python function:
   register numbers, non-CONST immediates and per-machine cycle
   constants are baked in as literals, and every value that depends on
   the link layout (flat pcs, window and line numbers, predictor
   indices, return addresses, CONST values) is a placeholder bound per
   executable, so relinks of one program share compiled code
   (:class:`CodePool`).  The hot loop replays compiled blocks instead of
   re-decoding instructions.  Code is immutable after load, so the
   cache is never invalidated for a live ``Executable``; across
   processes, the result store's ``engine_fingerprint`` hashes this
   module's source, so any change here invalidates stored results
   automatically.

2. **Block timing memo** — a block's front-end cost (fetch-window
   fetches, straddles, I-cache line changes) depends only on its
   constant byte addresses and the microarchitectural *entry state*
   (current window, current line, pending load register, LSD state).
   The code generator tracks that state symbolically through the block:
   after the first instruction the window is statically known, so all
   remaining window/straddle charges and line-change decisions are
   emitted unconditionally (or not at all) — the per-entry residue is
   at most one window guard and two line guards, everything else is a
   memoized straight-line schedule keyed by the block's alignment.

**Byte-identity is the contract.**  ``cycles`` is a float accumulated
by ordered ``+=`` in the reference loop; float addition is not
associative, so the generated code replays the *exact same sequence of
float additions* (constants are folded only where the reference itself
computes the sum before adding, e.g. ``taken_cycles + call_extra``).
Counters, ``pc_cycles``/``function_cycles`` attribution, trap types and
messages, predictor/cache side effects and ``RunTimeout`` behaviour are
replicated instruction-for-instruction; ``tests/unit/test_blockcache.py``
pins equality against ``REPRO_ENGINE_FASTPATH=0`` on every machine
preset.  See ``docs/engine.md`` for the full derivation.
"""

from __future__ import annotations

import functools
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro._errors import RunTimeout, SimulationError
from repro.arch import engine as _engine
from repro.arch.counters import PerfCounters, RunResult, TALLY_FIELDS
from repro.arch.machines import Machine, MachineConfig
from repro.os.loader import ProcessImage

__all__ = [
    "BlockCache",
    "BlockPlan",
    "CodePool",
    "block_cache_for",
    "execute_fast",
    "warm",
]

_M64 = (1 << 64) - 1

#: Tally-vector slot per counter name (``TALLY_FIELDS`` order).
_T = {name: i for i, name in enumerate(TALLY_FIELDS)}

#: Opcodes that end a basic block (control transfers and HALT).
_CONTROL_OPS = frozenset((28, 29, 30, 31, 32, 34))

#: Variant key: (finite cycle budget, function profiling, pc profiling,
#: engine self-profiling).  Each combination changes the generated code.
_Variant = Tuple[bool, bool, bool, bool]

#: Per-run arguments of every factory, in :func:`execute_fast`'s order.
_RUN_ARGS = (
    "regs, mem, mg, ad, ai, a2i, pt, ph, cnt, lsd, bud, maxi, lim,"
    " fcy, pcc, epc, ecc, ens, est, eck, ds, dm, l1d"
)

#: The only globals generated code sees.  Factories are shared across
#: executables, so nothing here may belong to one executable.
_FACTORY_GLOBALS: Dict[str, Any] = {
    "__builtins__": {"abs": abs, "KeyError": KeyError},
    "abs": abs,
    "KeyError": KeyError,
    "BaseException": BaseException,
    "_M": _M64,
    "SimulationError": SimulationError,
    "RunTimeout": RunTimeout,
}


class CodePool:
    """Compiled block factories shared by the executables of one study.

    A generated factory takes every layout-dependent value as a leading
    ``_k<i>`` argument, so blocks with the same structure in different
    links of a program render to the same source.  :meth:`bind` compiles
    each distinct source once and binds the function to one
    executable's values.  ``compiled`` counts code objects, ``bound``
    counts factories bound.  An :class:`~repro.core.Experiment` owns one
    pool for its relinks; a cache created without one gets its own.
    """

    def __init__(self) -> None:
        self._fns: Dict[str, Callable] = {}
        self._lock = threading.Lock()
        self.compiled = 0
        self.bound = 0

    def bind(self, src: str, values: Sequence[int], tag: str) -> Callable:
        """The factory ``src`` defines, with its placeholders bound."""
        with self._lock:
            fn = self._fns.get(src)
            if fn is None:
                ns: Dict[str, Any] = {}
                exec(  # noqa: S102 — the source is generated from decode
                    compile(src, f"<repro-blockcache:{tag}>", "exec"),
                    _FACTORY_GLOBALS,
                    ns,
                )
                fn = self._fns[src] = ns["_mk"]
                self.compiled += 1
            self.bound += 1
        return functools.partial(fn, *values)


class _Binds:
    """Placeholder allocator for one generated factory.

    Each layout-dependent literal is emitted as ``_k<i>`` and its value
    recorded in ``values``.  A flat pc gets one placeholder per value:
    pc equalities inside a chain follow its control flow, which every
    layout shares.  Any other quantity gets its own, so layouts that
    differ only in which line numbers or constants coincide still render
    the same source.  ``exits`` collects the pcs the factory hands back
    to the dispatcher.
    """

    def __init__(self) -> None:
        self.values: List[int] = []
        self.exits: List[int] = []
        self._pcs: Dict[int, str] = {}

    def new(self, value: int) -> str:
        self.values.append(value)
        return f"_k{len(self.values) - 1}"

    def pc(self, value: int) -> str:
        name = self._pcs.get(value)
        if name is None:
            name = self._pcs[value] = self.new(value)
        return name


@dataclass(frozen=True)
class BlockPlan:
    """Decode-cache record for one straight-line block (introspection).

    ``entry``/``pcs`` are flat instruction indices; ``terminator_op`` is
    the control opcode ending the block (None when the block ends at a
    leader boundary or at the end of the code image).  ``entry_window``
    and ``entry_line`` are the fetch-window and I-cache line indices of
    the entry instruction — the alignment part of the timing-memo key.
    Two layouts whose alignment moves a block's window or line
    boundaries render it to different code (the phenomenon the paper
    measures); layouts that only shift it share one code object.
    """

    entry: int
    pcs: Tuple[int, ...]
    terminator_op: Optional[int]
    entry_window: int
    entry_line: int


def _static_leaders(ops, targets, entry: int) -> set:
    """Block leaders: entry, resolved transfer targets, fall-throughs.

    Mirrors the leader definition in
    :meth:`repro.arch.engine.EngineProfile.finish` so replay-ratio
    telemetry and the decode cache agree on what a block is.
    """
    n = len(ops)
    leaders = {entry}
    for i in range(n):
        if targets[i] >= 0:
            leaders.add(targets[i])
        if 28 <= ops[i] <= 32 and i + 1 < n:
            leaders.add(i + 1)
    return leaders


def _lit(value) -> str:
    """Exact source literal for a machine constant (floats round-trip)."""
    return repr(value)


class BlockCache:
    """Compiled-block tables for one (executable, machine config) pair.

    Holds only the executable's decode arrays (not the ``Executable``
    itself — the registry below keys on it weakly, and a strong
    back-reference from the value would leak the entry).  Each *variant*
    (budget/profiling combination) compiles on first use the blocks the
    dispatcher can reach: the program entry, every CALL return site, and
    transitively every pc a compiled block hands back.  Blocks entered
    anywhere else (returns to computed addresses landing mid-block) are
    compiled lazily and cached alongside.  Code objects come from
    ``pool``, which relinks of the same program share.
    """

    def __init__(
        self, exe, cfg: MachineConfig, pool: Optional[CodePool] = None
    ) -> None:
        self.cfg = cfg
        self._pool = pool if pool is not None else CodePool()
        self._ops = exe.ops
        self._rds = exe.rds
        self._ras = exe.ras
        self._rbs = exe.rbs
        self._imms = exe.imms
        self._targets = exe.targets
        self._addrs = exe.addrs
        self._sizes = exe.sizes
        self._n = len(exe.ops)
        self._entry = exe.entry
        self._leaders = _static_leaders(exe.ops, exe.targets, exe.entry)
        self._func_of: List[str] = [""] * self._n
        for pf in exe.placed:
            for i in range(pf.flat_start, pf.flat_end):
                self._func_of[i] = pf.name
        self._lsd_eligible = (
            _engine.compute_lsd_eligible(exe, cfg.lsd_capacity)
            if cfg.has_lsd
            else [False] * self._n
        )
        self._ws = cfg.fetch_window_bytes.bit_length() - 1
        #: Every (lo, hi) pc range the LSD can ever activate over:
        #: activation copies (target, branch_pc) of an eligible backward
        #: transfer, so a block whose entry lies outside all of these
        #: ranges can never satisfy the covered guard and its covered
        #: body is elided entirely (big compile-time saving).
        self._lsd_ranges: List[Tuple[int, int]] = [
            (self._targets[i], i)
            for i in range(self._n)
            if self._lsd_eligible[i]
        ]
        self._plans: Dict[int, BlockPlan] = {}
        self._variants: Dict[_Variant, Dict[str, Any]] = {}
        self._lock = threading.Lock()

    # -- decode -----------------------------------------------------------

    def plan(self, entry: int) -> BlockPlan:
        """The decode record for the block starting at ``entry``."""
        cached = self._plans.get(entry)
        if cached is not None:
            return cached
        pcs = [entry]
        i = entry
        while self._ops[i] not in _CONTROL_OPS:
            j = i + 1
            if j >= self._n or j in self._leaders:
                break
            pcs.append(j)
            i = j
        term = self._ops[i] if self._ops[i] in _CONTROL_OPS else None
        addr = self._addrs[entry]
        plan = BlockPlan(
            entry=entry,
            pcs=tuple(pcs),
            terminator_op=term,
            entry_window=addr >> self._ws,
            entry_line=addr >> 6,
        )
        self._plans[entry] = plan
        return plan

    def static_plans(self) -> List[BlockPlan]:
        """Decode records for every statically discovered block."""
        return [
            self.plan(lead)
            for lead in sorted(self._leaders)
            if 0 <= lead < self._n
        ]

    # -- compilation ------------------------------------------------------

    def _bind(self, entry: int, variant: _Variant) -> Tuple[Callable, List[int]]:
        """(factory for the block at ``entry``, pcs it returns to)."""
        src, ks = self._factory_source(entry, variant)
        tag = "".join("1" if f else "0" for f in variant)
        return self._pool.bind(src, ks.values, tag), ks.exits

    def _ensure_variant(self, variant: _Variant) -> Dict[str, Any]:
        ent = self._variants.get(variant)
        if ent is not None:
            return ent
        with self._lock:
            ent = self._variants.get(variant)
            if ent is not None:
                return ent
            # The dispatcher enters blocks at the program entry, at CALL
            # return sites (RET targets are computed), and at the pcs
            # compiled blocks return; chain continuations and loop
            # rotations run inside a frame and never need a factory.
            table: Dict[int, Callable] = {}
            todo = [self._entry] + [
                i + 1 for i in range(self._n) if self._ops[i] == 31
            ]
            while todo:
                pc = todo.pop()
                if pc in table or not 0 <= pc < self._n:
                    continue
                table[pc], exits = self._bind(pc, variant)
                todo.extend(exits)
            ent = {"table": table, "compiled": len(table)}
            self._variants[variant] = ent
            return ent

    def table(self, variant: _Variant) -> Dict[int, Callable]:
        """The ``entry pc -> factory`` table for one variant."""
        return self._ensure_variant(variant)["table"]

    def compiled_count(self, variant: _Variant) -> int:
        """How many block factories this variant has compiled so far."""
        return self._ensure_variant(variant)["compiled"]

    def factory(self, pc: int, variant: _Variant) -> Callable:
        """Factory for the block entered at ``pc``; lazily compiles
        blocks first discovered at run time (mid-block entries)."""
        ent = self._ensure_variant(variant)
        table = ent["table"]
        fac = table.get(pc)
        if fac is None:
            with self._lock:
                fac = table.get(pc)
                if fac is None:
                    fac = table[pc] = self._bind(pc, variant)[0]
                    ent["compiled"] += 1
        return fac

    # -- code generation --------------------------------------------------

    def _chain(self, entry: int) -> Tuple[List[BlockPlan], bool]:
        """The straight-line continuation chain starting at ``entry``.

        Follows unconditional continuations (JMP targets, conditional
        and leader-boundary fall-throughs) until the chain either leads
        back to ``entry`` — a loop the factory can close internally with
        ``continue`` instead of bouncing through the dispatch loop — or
        stops (CALL/RET/HALT, revisit, or the inlining budget).  Chains
        that do not close are discarded: inlining them would duplicate
        code without removing any dispatch round-trips.
        """
        segs = [self.plan(entry)]
        seen = {entry}
        total = len(segs[0].pcs)
        while True:
            cur = segs[-1]
            p = cur.pcs[-1]
            term = cur.terminator_op
            if term is None or term in (28, 29):
                nxt = p + 1
            elif term == 30:
                nxt = self._targets[p]
            else:
                return [segs[0]], False
            if nxt == entry:
                return segs, True
            if not 0 <= nxt < self._n or nxt in seen or len(segs) >= 8:
                return [segs[0]], False
            nplan = self.plan(nxt)
            if total + len(nplan.pcs) > 96:
                return [segs[0]], False
            segs.append(nplan)
            seen.add(nxt)
            total += len(nplan.pcs)

    def _factory_source(self, entry: int, variant: _Variant) -> Tuple[str, _Binds]:
        """Source for one block's factory function (``_mk``), plus its
        placeholder values and exit pcs.

        The factory takes the block's placeholder values, then closes
        over per-run state (registers, memory, cache and predictor
        methods, tallies, profiling sinks) and returns the block body
        ``_b(cycles, executed, llr, cw, cl) -> (next_pc, cycles,
        executed, llr, cw, cl)`` — ``next_pc`` is None after HALT.  The
        body is a ``while True`` loop over the block's continuation
        chain (:meth:`_chain`): exits whose static target is ``entry``
        compile to ``continue``, so hot loops iterate inside one Python
        frame instead of re-entering the dispatcher.  With an LSD, each
        chain segment re-evaluates the covered guard exactly where the
        dispatcher would have, and is emitted twice (covered path with
        the front end waived, plus the normal path) unless no activation
        range can ever contain it.
        """
        segs, _closes = self._chain(entry)
        rset, wset = self._reg_sets(segs)
        ks = _Binds()
        out = ["    def _b(cycles, executed, llr, cw, cl):"]
        # Architectural registers live in Python locals for the whole
        # frame: loaded once here, flushed back only on exits that leave
        # the frame.  Nothing else reads ``regs`` mid-run, and a raised
        # trap/budget error abandons the run state, so this is
        # observably identical to indexing ``regs`` per access.
        for i in sorted(rset):
            out.append(f"        _r{i} = regs[{i}]")
        # L1D MRU hits are counted in a frame-local and flushed with the
        # registers; misses update Cache stats immediately via the
        # hierarchy walk, so only the hit tally is deferred.
        has_mem = any(
            self._ops[p] in (24, 25, 26, 27, 31, 32)
            for plan in segs
            for p in plan.pcs
        )
        if has_mem:
            out.append("        _dh = 0")
        # The gshare global history also lives in a frame local (loaded
        # from / flushed to the one-element ``ph`` list) when the chain
        # contains conditional branches.
        has_hist = self.cfg.predictor_kind == "gshare" and any(
            self._ops[p] in (28, 29) for plan in segs for p in plan.pcs
        )
        if has_hist:
            out.append("        _h = ph[0]")
        # The deferred hit tally and history are machine state the
        # caller can read after a trap, so an exception leaving the
        # frame flushes them first (registers die with the run).
        flush = (("l1d.hits += _dh",) if has_mem else ()) + (
            ("ph[0] = _h",) if has_hist else ()
        )
        if flush:
            out.append("        try:")
        pad = "    " if flush else ""
        out.append(pad + "        while True:")
        base = pad + " " * 12
        wb = tuple(f"regs[{i}] = _r{i}" for i in sorted(wset)) + flush
        fold = self._const_regs(segs)
        for si, plan in enumerate(segs):
            self._emit_seam(
                out, base, plan, variant, entry, wb, fold, ks,
                falls=si + 1 < len(segs),
            )
        if flush:
            out.append("        except BaseException:")
            out.extend("            " + line for line in flush)
            out.append("            raise")
        out.append("    return _b")
        params = "".join(f"_k{i}, " for i in range(len(ks.values)))
        out.insert(0, f"def _mk({params}{_RUN_ARGS}):")
        return "\n".join(out) + "\n", ks

    def _reg_sets(self, segs: List[BlockPlan]) -> Tuple[set, set]:
        """(read-or-written, written) register numbers over a chain."""
        rset: set = set()
        wset: set = set()
        for plan in segs:
            for p in plan.pcs:
                op = self._ops[p]
                rd = self._rds[p]
                ra = self._ras[p]
                rb = self._rbs[p]
                if op == 0:
                    wset.add(rd)
                elif op == 1:
                    rset.add(ra)
                    wset.add(rd)
                elif op <= 15:
                    rset.update((ra, rb))
                    wset.add(rd)
                elif op <= 23 or op == 24 or op == 26:
                    rset.add(ra)
                    wset.add(rd)
                elif op in (25, 27):
                    rset.update((ra, rb))
                elif op in (28, 29):
                    rset.add(ra)
                elif op in (31, 32):
                    rset.add(15)
                    wset.add(15)
        return rset | wset, wset

    def _const_regs(
        self, segs: List[BlockPlan]
    ) -> Tuple[Dict[int, Tuple[int, int]], Dict[int, int]]:
        """Constant-register facts for a chain, for operand folding.

        Returns ``(kconst, ordix)``: ``ordix`` maps each pc in the chain
        to its position in execution order, and ``kconst`` maps a
        register written *exactly once* in the whole chain — by a CONST
        — to ``(write position, value)``.  A use may fold the value only
        when it appears after the write in chain order: earlier uses see
        the frame-entry value on the first loop iteration, and the
        single-write condition makes the fact loop-invariant for every
        later iteration.
        """
        order = [p for plan in segs for p in plan.pcs]
        ordix = {p: k for k, p in enumerate(order)}
        writes: Dict[int, List[int]] = {}
        for p in order:
            op = self._ops[p]
            if op <= 27 and op not in (25, 27):
                writes.setdefault(self._rds[p], []).append(p)
            if op in (31, 32):
                writes.setdefault(15, []).append(p)
        kconst = {
            r: (ordix[ps[0]], self._imms[ps[0]])
            for r, ps in writes.items()
            if len(ps) == 1 and self._ops[ps[0]] == 0
        }
        return kconst, ordix

    def _emit_seam(
        self,
        out: List[str],
        base: str,
        plan: BlockPlan,
        variant: _Variant,
        entry: int,
        wb: Tuple[str, ...],
        fold: Tuple[Dict[int, Tuple[int, int]], Dict[int, int]],
        ks: _Binds,
        falls: bool,
    ) -> None:
        """Emit one chain segment behind its LSD coverage seam.

        Mirrors the reference front end per instruction: an active LSD
        covering the pc waives the front end; an active LSD *not*
        covering it deactivates (streak reset) before the normal path.
        """
        pcs = plan.pcs
        if not self.cfg.has_lsd:
            self._emit_body(
                out, base, pcs, variant, False, entry, wb, fold, ks, falls
            )
            return
        if any(lo <= plan.entry <= hi for lo, hi in self._lsd_ranges):
            kp = ks.pc(plan.entry)
            out.append(base + f"if lsd[0] and lsd[1] <= {kp} <= lsd[2]:")
            self._emit_body(
                out, base + "    ", pcs, variant, True, entry, wb, fold,
                ks, falls,
            )
            out.append(base + "else:")
            out.append(base + "    if lsd[0]:")
            out.append(base + "        lsd[0] = 0")
            out.append(base + "        lsd[3] = 0")
            self._emit_body(
                out, base + "    ", pcs, variant, False, entry, wb, fold,
                ks, falls,
            )
        else:
            out.append(base + "if lsd[0]:")
            out.append(base + "    lsd[0] = 0")
            out.append(base + "    lsd[3] = 0")
            self._emit_body(
                out, base, pcs, variant, False, entry, wb, fold, ks, falls
            )

    def _emit_body(
        self,
        out: List[str],
        pad: str,
        pcs: Tuple[int, ...],
        variant: _Variant,
        covered: bool,
        entry: int,
        wb: Tuple[str, ...],
        fold: Tuple[Dict[int, Tuple[int, int]], Dict[int, int]],
        ks: _Binds,
        falls: bool,
    ) -> None:
        """Emit one segment body at indent ``pad``.

        Walks the segment once, tracking the fetch window, cache line
        and pending-load register symbolically; dynamic guards are
        emitted only while a quantity is unknown, fixed costs are
        emitted as unconditional float adds in reference order, and
        event tallies that are unconditional fold into one batched
        update per exit.  Exits come in three shapes: a static target
        equal to ``entry`` re-enters the enclosing ``while`` with
        ``continue``; the continuation exit of a non-final chain
        segment (``falls``) reconciles the state locals and falls
        through to the next segment's seam; everything else returns to
        the dispatcher.  Layout-dependent values go through ``ks``;
        the symbolic window and line are ``[value, placeholder]`` pairs
        whose placeholder is allocated when first emitted.
        """
        budget, fcc, pcc_on, eprof = variant
        profiling = fcc or pcc_on
        kconst, ordix = fold
        cfg = self.cfg
        blen = len(pcs)
        A = out.append

        ISSUE = _lit(cfg.issue_cycles)
        WINC = _lit(cfg.window_cycles)
        STR = _lit(cfg.straddle_cycles)
        LU = _lit(cfg.load_use_penalty)
        MULX = _lit(cfg.mul_extra)
        DIVX = _lit(cfg.div_extra)
        MISP = _lit(cfg.mispredict_cycles)
        TAK = _lit(cfg.taken_branch_cycles)
        UNAL = _lit(cfg.unaligned_cycles)
        SPL = _lit(cfg.split_line_cycles)
        # The reference computes these sums before the single add.
        CALLSUM = _lit(cfg.taken_branch_cycles + cfg.call_extra)
        RETSUM = _lit(cfg.taken_branch_cycles + cfg.ret_extra)

        GSH = cfg.predictor_kind == "gshare"
        PMASK = (1 << cfg.predictor_table_bits) - 1
        HMASK = (1 << cfg.predictor_history_bits) - 1

        I64_MAX = 9223372036854775807
        I64_SPAN = 18446744073709551616

        def wrap_nonneg(p2: str, rd: int) -> None:
            """Store ``_r`` (known to be in [0, 2**64)) into ``rd`` with
            the exact semantics of ``_wrap64``, without the call."""
            A(
                p2 + f"_r{rd} = _r - {I64_SPAN}"
                f" if _r > {I64_MAX} else _r"
            )

        def wrap_any(p2: str, rd: int) -> None:
            """Store ``_r`` (any magnitude) into ``rd`` with the exact
            semantics of ``_wrap64``, without the call."""
            A(p2 + f"if _r > {I64_MAX} or _r < -{I64_MAX + 1}:")
            A(p2 + f"    _r &= {_M64}")
            A(p2 + f"    if _r > {I64_MAX}:")
            A(p2 + f"        _r -= {I64_SPAN}")
            A(p2 + f"_r{rd} = _r")

        statics = [0] * len(TALLY_FIELDS)
        if covered:
            statics[_T["lsd_covered"]] = blen
        ecls: Dict[int, int] = {}
        # Symbolic state: "?" = unknown (dynamic), else a known
        # [value, placeholder or None] pair.
        sim_cw: Any = "?"
        sim_cl: Any = "?"
        llr: Any = "llr"  # "llr" = dynamic entry value, else an int

        def known(state: list) -> str:
            """Placeholder for a known window or line number."""
            if state[1] is None:
                state[1] = ks.new(state[0])
            return state[1]

        def enter_line(ln: int) -> None:
            """Charge the move of a known window onto I-cache line
            ``ln``: a guard while the line is unknown, else static."""
            nonlocal sim_cl
            if sim_cl == "?":
                kl = ks.new(ln)
                A(pad + f"if cl != {kl}:")
                A(pad + f"    cycles += ai({kl})")
                A(pad + f"    cl = {kl}")
                sim_cl = [ln, kl]
            elif sim_cl[0] != ln:
                kl = ks.new(ln)
                A(pad + f"cycles += ai({kl})")
                sim_cl = [ln, kl]

        def operand(r: int, value: Optional[int]) -> str:
            """Register ``r``, or its folded CONST value."""
            return f"_r{r}" if value is None else ks.new(value)

        def lu_check(p2: str, regs_checked: List[int]) -> None:
            """Load-use penalty: dynamic guard or static fold."""
            if llr == "llr":
                cond = " or ".join(f"llr == {r}" for r in regs_checked)
                A(p2 + f"if {cond}:")
                A(p2 + f"    cycles += {LU}")
            elif llr >= 0 and llr in regs_checked:
                A(p2 + f"cycles += {LU}")

        def data_access(p2: str, base_expr: str) -> None:
            """L1D access: inline MRU probe (hit counted locally and
            flushed on frame exit), full hierarchy walk on miss.  An
            MRU hit adds 0.0 extra cycles in the reference, so skipping
            the float add is exact."""
            A(p2 + f"_ln = {base_expr} >> 6")
            A(p2 + "_w = ds[_ln & dm]")
            A(p2 + "if _w and _w[0] == _ln:")
            A(p2 + "    _dh += 1")
            A(p2 + "else:")
            A(p2 + "    cycles += ad(_ln)")

        def emit_exit(
            p2: str,
            nxt: Any,
            term_pc: int,
            term_prof: bool = True,
            cont: bool = False,
        ) -> None:
            """Per-exit epilogue: profiling delta, batched tallies,
            self-profiling updates, then return / continue / fall-through.

            ``nxt`` is the next flat pc, or the source expression
            ``"_x"`` (a computed return) or ``None`` (HALT).
            ``term_prof`` is False for leader-boundary fall-through
            exits, whose last instruction already emitted its own
            profiling epilogue in the main walk.  ``cont`` marks the
            segment's continuation exit (eligible to fall through to
            the next chain segment when ``falls``)."""
            if profiling and term_prof:
                if fcc and pcc_on:
                    A(p2 + "_d = cycles - _cb")
                    A(p2 + f"fcy[{self._func_of[term_pc]!r}] += _d")
                    A(p2 + f"pcc[{ks.pc(term_pc)}] += _d")
                elif fcc:
                    A(p2 + f"fcy[{self._func_of[term_pc]!r}] += cycles - _cb")
                else:
                    A(p2 + f"pcc[{ks.pc(term_pc)}] += cycles - _cb")
            A(p2 + f"executed += {blen}")
            for idx, k in enumerate(statics):
                if k:
                    A(p2 + f"cnt[{idx}] += {k}")
            if eprof:
                lo, hi = ks.pc(pcs[0]), ks.pc(pcs[0] + blen)
                A(p2 + f"epc[{lo}:{hi}] = [_v + 1 for _v in epc[{lo}:{hi}]]")
                for ci in sorted(ecls):
                    A(p2 + f"ecc[{ci}] += {ecls[ci]}")
                A(p2 + "_now = eck()")
                A(p2 + "_dt = _now - est[0]")
                A(p2 + "est[0] = _now")
                tci = _engine._CLASS_OF[self._ops[term_pc]]
                if blen == 1:
                    A(p2 + f"ens[{tci}] += _dt")
                else:
                    A(p2 + f"_q = _dt // {blen}")
                    for ci in sorted(ecls):
                        A(p2 + f"ens[{ci}] += _q * {ecls[ci]}")
                    A(p2 + f"ens[{tci}] += _dt - _q * {blen}")
            cw_out = "cw" if (covered or sim_cw == "?") else known(sim_cw)
            cl_out = "cl" if (covered or sim_cl == "?") else known(sim_cl)
            llr_out = "-1" if llr == "llr" else str(llr)
            if (cont and falls) or nxt == entry:
                # Reconcile the state locals to exactly what a return
                # would have handed the dispatcher, then stay in-frame.
                if cw_out != "cw":
                    A(p2 + f"cw = {cw_out}")
                if cl_out != "cl":
                    A(p2 + f"cl = {cl_out}")
                A(p2 + f"llr = {llr_out}")
                if cont and falls:
                    return
                # Loop back to the seam, unless the run is within one
                # pass of the instruction cap: then hand the loop head
                # back to the dispatcher, which finishes on the budget
                # variant (that one checks before every instruction).
                if not budget:
                    A(p2 + "if executed > lim:")
                    for line in wb:
                        A(p2 + "    " + line)
                    A(
                        p2 + f"    return {ks.pc(entry)}, cycles, executed,"
                        " llr, cw, cl"
                    )
                A(p2 + "continue")
                return
            for line in wb:
                A(p2 + line)
            if isinstance(nxt, int):
                ks.exits.append(nxt)
                nxt = ks.pc(nxt)
            A(
                p2 + f"return {nxt}, cycles, executed, "
                f"{llr_out}, {cw_out}, {cl_out}"
            )

        for k, p in enumerate(pcs, start=1):
            op = self._ops[p]
            rd = self._rds[p]
            ra = self._ras[p]
            rb = self._rbs[p]
            imm = self._imms[p]
            tgt = self._targets[p]
            addr = self._addrs[p]
            size = self._sizes[p]

            def KV(r: int, _oi=ordix[p]) -> Optional[int]:
                """Value of ``r`` here, when provably constant."""
                e = kconst.get(r)
                return e[1] if e is not None and e[0] < _oi else None
            ecls[_engine._CLASS_OF[op]] = (
                ecls.get(_engine._CLASS_OF[op], 0) + 1
            )

            if budget:
                # Reference order: runaway check, then budget check,
                # both before the instruction does any work.
                A(pad + "if executed + %d > maxi:" % k)
                A(
                    pad + '    raise SimulationError(f"exceeded {maxi}'
                    ' instructions (runaway loop?)")'
                )
                A(pad + "if cycles > bud:")
                A(
                    pad + '    raise RunTimeout(f"cycle budget {bud:.0f}'
                    " exceeded after {executed + %d} instructions\")" % k
                )
            if profiling:
                A(pad + "_cb = cycles")

            if not covered:
                # ---- front end (timing memo) ----
                w = addr >> self._ws
                ln = addr >> 6
                end = addr + size - 1
                wend = end >> self._ws
                lend = end >> 6
                if sim_cw == "?":
                    kw, kl = ks.new(w), ks.new(ln)
                    A(pad + f"if cw != {kw}:")
                    A(pad + f"    cycles += {WINC}")
                    A(pad + f"    cnt[{_T['window_fetches']}] += 1")
                    A(pad + f"    if cl != {kl}:")
                    A(pad + f"        cycles += ai({kl})")
                    A(pad + f"        cl = {kl}")
                    sim_cw = [w, kw]
                    sim_cl = "?"
                elif sim_cw[0] != w:
                    A(pad + f"cycles += {WINC}")
                    statics[_T["window_fetches"]] += 1
                    enter_line(ln)
                    sim_cw = [w, None]
                if wend != sim_cw[0]:
                    A(pad + f"cycles += {STR}")
                    statics[_T["window_straddles"]] += 1
                    enter_line(lend)
                    sim_cw = [wend, None]

            A(pad + f"cycles += {ISSUE}")

            # ---- execute ----
            if op == 0:  # CONST (the linker patches addresses in here)
                A(pad + f"_r{rd} = {ks.new(imm)}")
                llr = -1
            elif op == 1:  # MOV
                lu_check(pad, [ra])
                A(pad + f"_r{rd} = {operand(ra, KV(ra))}")
                llr = -1
            elif op <= 15:  # register ALU
                lu_check(pad, [ra, rb])
                vac = KV(ra)
                vbc = KV(rb)
                cc = vbc if vbc is not None else vac
                masked = (
                    op == 7 and cc is not None and 0 <= cc & _M64 <= I64_MAX
                )
                va = "" if masked else operand(ra, vac)
                vb = "" if masked else operand(rb, vbc)
                if masked:
                    # x & c == (x & _M) & (c & _M) for 0 <= c < 2**63,
                    # and the result fits signed 64 — no wrap needed.
                    other = operand(ra, vac) if vbc is not None else f"_r{rb}"
                    A(pad + f"_r{rd} = {other} & {ks.new(cc & _M64)}")
                elif op == 2:
                    A(pad + f"_r{rd} = {va} + {vb}")
                elif op == 3:
                    A(pad + f"_r{rd} = {va} - {vb}")
                elif op == 4:
                    A(pad + f"cycles += {MULX}")
                    A(pad + f"_r = {va} * {vb}")
                    wrap_any(pad, rd)
                elif op in (5, 6):
                    A(pad + f"cycles += {DIVX}")
                    A(pad + f"va = {va}")
                    A(pad + f"vb = {vb}")
                    word = "division" if op == 5 else "modulo"
                    A(pad + "if vb == 0:")
                    A(
                        pad + "    raise SimulationError("
                        f'f"{word} by zero at pc={{{ks.pc(p)}}}")'
                    )
                    A(pad + "q = abs(va) // abs(vb)")
                    if op == 5:
                        A(
                            pad + f"_r{rd} = -q if (va < 0) != (vb < 0)"
                            " else q"
                        )
                    else:
                        A(pad + "q = -q if (va < 0) != (vb < 0) else q")
                        A(pad + f"_r{rd} = va - q * vb")
                elif op == 7:
                    A(pad + f"_r = ({va} & _M) & ({vb} & _M)")
                    wrap_nonneg(pad, rd)
                elif op == 8:
                    A(pad + f"_r = ({va} & _M) | ({vb} & _M)")
                    wrap_nonneg(pad, rd)
                elif op == 9:
                    A(pad + f"_r = ({va} & _M) ^ ({vb} & _M)")
                    wrap_nonneg(pad, rd)
                elif op == 10:
                    A(pad + f"_r = (({va} & _M) << ({vb} & 63)) & _M")
                    wrap_nonneg(pad, rd)
                elif op == 11:
                    A(pad + f"_r{rd} = ({va} & _M) >> ({vb} & 63)")
                elif op == 12:
                    A(pad + f"_r{rd} = 1 if {va} < {vb} else 0")
                elif op == 13:
                    A(pad + f"_r{rd} = 1 if {va} <= {vb} else 0")
                elif op == 14:
                    A(pad + f"_r{rd} = 1 if {va} == {vb} else 0")
                else:  # 15 SNE
                    A(pad + f"_r{rd} = 1 if {va} != {vb} else 0")
                llr = -1
            elif op <= 23:  # immediate ALU
                lu_check(pad, [ra])
                va = operand(ra, KV(ra))
                if op == 16:
                    A(pad + f"_r{rd} = {va} + {imm}")
                elif op == 17:
                    A(pad + f"cycles += {MULX}")
                    A(pad + f"_r = {va} * {imm}")
                    wrap_any(pad, rd)
                elif op == 18:
                    if imm & _M64 <= I64_MAX:
                        A(pad + f"_r{rd} = {va} & {imm & _M64}")
                    else:
                        A(pad + f"_r = ({va} & _M) & {imm & _M64}")
                        wrap_nonneg(pad, rd)
                elif op == 19:
                    A(pad + f"_r = ({va} & _M) | {imm & _M64}")
                    wrap_nonneg(pad, rd)
                elif op == 20:
                    A(pad + f"_r = ({va} & _M) ^ {imm & _M64}")
                    wrap_nonneg(pad, rd)
                elif op == 21:
                    A(pad + f"_r = (({va} & _M) << {imm & 63}) & _M")
                    wrap_nonneg(pad, rd)
                elif op == 22:
                    A(pad + f"_r{rd} = ({va} & _M) >> {imm & 63}")
                else:  # 23 SLTI
                    A(pad + f"_r{rd} = 1 if {va} < {imm} else 0")
                llr = -1
            elif op <= 27:  # memory
                lu_check(pad, [ra])
                vac = KV(ra)
                if vac is not None:
                    A(pad + f"ea = {ks.new(vac + imm)}")
                elif imm:
                    A(pad + f"ea = _r{ra} + {imm}")
                else:
                    A(pad + f"ea = _r{ra}")
                if op == 24:  # LOAD
                    statics[_T["loads"]] += 1
                    A(pad + "if ea & 7:")
                    A(pad + f"    cnt[{_T['unaligned_accesses']}] += 1")
                    A(pad + f"    cycles += {UNAL}")
                    data_access(pad, "ea")
                    A(pad + "if (ea & 63) > 56:")
                    A(pad + f"    cnt[{_T['line_splits']}] += 1")
                    A(pad + f"    cycles += {SPL}")
                    A(pad + "    cycles += ad(_ln + 1)")
                    A(pad + "try:")
                    A(pad + f"    _r{rd} = mem[ea]")
                    A(pad + "except KeyError:")
                    A(pad + f"    _r{rd} = 0")
                    llr = rd
                elif op == 25:  # STORE
                    lu_check(pad, [rb])
                    statics[_T["stores"]] += 1
                    A(pad + "if ea & 7:")
                    A(pad + f"    cnt[{_T['unaligned_accesses']}] += 1")
                    A(pad + f"    cycles += {UNAL}")
                    data_access(pad, "ea")
                    A(pad + "if (ea & 63) > 56:")
                    A(pad + f"    cnt[{_T['line_splits']}] += 1")
                    A(pad + f"    cycles += {SPL}")
                    A(pad + "    cycles += ad(_ln + 1)")
                    A(pad + f"mem[ea] = _r{rb}")
                    llr = -1
                elif op == 26:  # LOADB
                    statics[_T["loads"]] += 1
                    data_access(pad, "ea")
                    A(pad + "try:")
                    A(pad + f"    _r{rd} = mem[ea] & 255")
                    A(pad + "except KeyError:")
                    A(pad + f"    _r{rd} = 0")
                    llr = rd
                else:  # STOREB
                    lu_check(pad, [rb])
                    statics[_T["stores"]] += 1
                    data_access(pad, "ea")
                    A(pad + f"mem[ea] = _r{rb} & 255")
                    llr = -1
            elif op in (28, 29):  # BEQZ / BNEZ
                lu_check(pad, [ra])
                statics[_T["branches"]] += 1
                A(pad + (f"_t = _r{ra} == 0" if op == 28 else f"_t = _r{ra} != 0"))
                # Inline predictor update — the exact ``observe()``
                # sequence from branch.py, specialized to the config's
                # kind with the index arithmetic pre-folded.  The taken
                # path always leaves the frame or re-enters the loop, so
                # code after the ``if _t:`` block is the not-taken path.
                if GSH:
                    A(pad + f"_i = ({ks.new(addr >> 1)} ^ _h) & {PMASK}")
                    pslot = "pt[_i]"
                else:
                    pslot = f"pt[{ks.new((addr >> 1) & PMASK)}]"
                A(pad + f"_c = {pslot}")
                A(pad + "if _t:")
                p2 = pad + "    "
                A(p2 + "if _c < 3:")
                A(p2 + f"    {pslot} = _c + 1")
                if GSH:
                    A(p2 + f"_h = ((_h << 1) | 1) & {HMASK}")
                A(p2 + "if _c < 2:")
                A(p2 + f"    cnt[{_T['mispredicts']}] += 1")
                A(p2 + f"    cycles += {MISP}")
                A(p2 + f"cnt[{_T['taken_branches']}] += 1")
                A(p2 + f"cycles += {TAK}")
                llr = -1
                if cfg.has_lsd and self._lsd_eligible[p]:
                    self._emit_lsd_bookkeeping(out, p2, p, tgt, covered, ks)
                emit_exit(p2, tgt, p)
                A(pad + "if _c > 0:")
                A(pad + f"    {pslot} = _c - 1")
                if GSH:
                    A(pad + f"_h = (_h << 1) & {HMASK}")
                A(pad + "if _c >= 2:")
                A(pad + f"    cnt[{_T['mispredicts']}] += 1")
                A(pad + f"    cycles += {MISP}")
                emit_exit(pad, p + 1, p, cont=True)
                return
            elif op == 30:  # JMP
                A(pad + f"cycles += {TAK}")
                llr = -1
                if cfg.has_lsd and self._lsd_eligible[p]:
                    self._emit_lsd_bookkeeping(out, pad, p, tgt, covered, ks)
                emit_exit(pad, tgt, p, cont=True)
                return
            elif op == 31:  # CALL
                statics[_T["calls"]] += 1
                A(pad + f"cycles += {CALLSUM}")
                A(pad + "sp = _r15 - 8")
                A(pad + "_r15 = sp")
                A(pad + "if sp & 7:")
                A(pad + f"    cnt[{_T['unaligned_accesses']}] += 1")
                A(pad + f"    cycles += {UNAL}")
                data_access(pad, "sp")
                A(pad + "if (sp & 63) > 56:")
                A(pad + f"    cnt[{_T['line_splits']}] += 1")
                A(pad + f"    cycles += {SPL}")
                A(pad + "    cycles += ad(_ln + 1)")
                statics[_T["stores"]] += 1
                A(pad + f"mem[sp] = {ks.new(addr + size)}")
                llr = -1
                emit_exit(pad, tgt, p)
                return
            elif op == 32:  # RET
                statics[_T["returns"]] += 1
                A(pad + f"cycles += {RETSUM}")
                A(pad + "sp = _r15")
                A(pad + "_ra = mg(sp)")
                A(pad + "if _ra is None:")
                A(
                    pad + "    raise SimulationError(f\"return with corrupt"
                    f" stack at pc={{{ks.pc(p)}}} (sp={{sp:#x}})\")"
                )
                statics[_T["loads"]] += 1
                A(pad + "if sp & 7:")
                A(pad + f"    cnt[{_T['unaligned_accesses']}] += 1")
                A(pad + f"    cycles += {UNAL}")
                data_access(pad, "sp")
                A(pad + "if (sp & 63) > 56:")
                A(pad + f"    cnt[{_T['line_splits']}] += 1")
                A(pad + f"    cycles += {SPL}")
                A(pad + "    cycles += ad(_ln + 1)")
                A(pad + "_r15 = sp + 8")
                A(pad + "_x = a2i(_ra)")
                A(pad + "if _x is None:")
                A(
                    pad + "    raise SimulationError(f\"return to"
                    ' non-instruction address {_ra:#x}")'
                )
                llr = -1
                emit_exit(pad, "_x", p)
                return
            elif op == 33:  # NOP
                statics[_T["nops"]] += 1
                llr = -1
            else:  # HALT
                emit_exit(pad, None, p)
                return

            # Non-terminator per-instruction profiling epilogue.
            if profiling:
                if fcc and pcc_on:
                    A(pad + "_d = cycles - _cb")
                    A(pad + f"fcy[{self._func_of[p]!r}] += _d")
                    A(pad + f"pcc[{ks.pc(p)}] += _d")
                elif fcc:
                    A(pad + f"fcy[{self._func_of[p]!r}] += cycles - _cb")
                else:
                    A(pad + f"pcc[{ks.pc(p)}] += cycles - _cb")

        # Block ended at a leader boundary or the end of the code image:
        # fall through to the next flat index (the driver validates it).
        emit_exit(pad, pcs[-1] + 1, pcs[-1], term_prof=False, cont=True)

    def _emit_lsd_bookkeeping(
        self, out: List[str], pad: str, p: int, tgt: int,
        covered: bool, ks: _Binds,
    ) -> None:
        """Loop-stream-detector streak/activation updates for an
        eligible taken backward transfer at ``p`` (both body variants:
        the op-execution side of the LSD is front-end independent).
        In a covered body ``lsd[0]`` is statically 1 (the seam guard
        passed and nothing in the body deactivates), so the activation
        attempt is elided there."""
        warm = self.cfg.lsd_warmup
        kp = ks.pc(p)
        out.append(pad + f"if lsd[4] == {kp}:")
        out.append(pad + "    lsd[3] += 1")
        out.append(pad + "else:")
        out.append(pad + f"    lsd[4] = {kp}")
        out.append(pad + "    lsd[3] = 1")
        if not covered:
            out.append(pad + f"if lsd[3] >= {warm} and not lsd[0]:")
            out.append(pad + "    lsd[0] = 1")
            out.append(pad + f"    lsd[1] = {ks.pc(tgt)}")
            out.append(pad + f"    lsd[2] = {kp}")


#: Registry: Executable -> {MachineConfig: BlockCache}.  Keyed weakly so
#: caches die with their executables; values hold no executable refs.
_CACHES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_CACHES_LOCK = threading.Lock()


def block_cache_for(
    exe, cfg: MachineConfig, pool: Optional[CodePool] = None
) -> BlockCache:
    """The (lazily created) block cache for one executable + config.

    ``pool`` is the code pool a newly created cache compiles into; an
    existing cache keeps the pool it was created with.
    """
    per = _CACHES.get(exe)
    if per is None:
        with _CACHES_LOCK:
            per = _CACHES.get(exe)
            if per is None:
                per = {}
                _CACHES[exe] = per
    bc = per.get(cfg)
    if bc is None:
        with _CACHES_LOCK:
            bc = per.get(cfg)
            if bc is None:
                bc = BlockCache(exe, cfg, pool)
                per[cfg] = bc
    return bc


def warm(exe, cfg: MachineConfig, pool: Optional[CodePool] = None) -> int:
    """Pre-compile the plain-variant block table for ``exe`` on ``cfg``.

    Block compilation is a one-time per-(executable, config) cost that
    would otherwise land inside the first measured run.  Callers that
    build executables ahead of time (:meth:`repro.core.Experiment.build`)
    invoke this so ``engine.run_seconds`` measures simulation, not
    compilation, and pass their ``pool`` so relinks share code.  Warm
    compiles the blocks the dispatcher can reach (see
    :class:`BlockCache`) and returns how many it bound.
    """
    return block_cache_for(exe, cfg, pool).compiled_count(
        (False, False, False, False)
    )


def execute_fast(
    image: ProcessImage,
    machine: Machine,
    max_instructions: int = 2_000_000_000,
    profile_functions: bool = False,
    profile_pcs: bool = False,
    max_cycles: Optional[float] = None,
    engine_profile=None,
) -> RunResult:
    """Fast-path twin of :func:`repro.arch.engine.execute`.

    Same semantics, byte-identical results; the dispatch loop runs
    compiled block bodies instead of interpreting instructions.  Used
    automatically by :func:`~repro.arch.engine.execute` unless tracing
    is requested or ``REPRO_ENGINE_FASTPATH=0``.
    """
    exe = image.executable
    cfg: MachineConfig = machine.config
    cache = block_cache_for(exe, cfg)
    eprof_on = engine_profile is not None
    variant: _Variant = (
        max_cycles is not None,
        profile_functions,
        profile_pcs,
        eprof_on,
    )
    compiled_before = (
        cache._variants[variant]["compiled"]
        if variant in cache._variants
        else 0
    )
    table = cache.table(variant)

    mem: Dict[int, int] = dict(image.initial_memory)
    regs = [0] * 16
    regs[15] = image.sp_start
    hierarchy = machine.hierarchy
    cnt = [0] * len(TALLY_FIELDS)
    lsd = [0, -1, -1, 0, -1]
    bud = max_cycles if max_cycles is not None else float("inf")
    fcy: Dict[str, float] = (
        {pf.name: 0.0 for pf in exe.placed} if profile_functions else {}
    )
    pcc = [0.0] * len(exe.ops) if profile_pcs else None
    epc = ecc = ens = est = eck = None
    if eprof_on:
        engine_profile.begin(exe)
        epc = engine_profile.pc_counts
        ecc = engine_profile.class_counts
        ens = engine_profile.class_ns
        eck = time.perf_counter_ns
        est = [eck()]
    predictor = machine.predictor
    ph = [getattr(predictor, "_history", 0)]
    n = len(exe.ops)
    # Without a budget, blocks check the instruction cap only between
    # passes of their chain (against ``lim``), and one pass retires at
    # most ``n`` instructions.  Within ``n`` of the cap the dispatcher
    # switches to the budget variant, whose per-instruction checks trap
    # exactly where the reference does, so a runaway trap leaves the
    # same machine behind.
    limit = max_instructions if variant[0] else max_instructions - n
    bind = (
        regs, mem, mem.get,
        hierarchy.access_data, hierarchy.access_instruction,
        exe.addr_to_index.get, predictor._table, ph,
        cnt, lsd, bud, max_instructions, limit,
        fcy, pcc, epc, ecc, ens, est, eck,
        hierarchy._d_sets, hierarchy._d_mask, hierarchy.l1d,
    )

    funcs: Dict[int, Callable] = {}
    funcs_get = funcs.get
    table_get = table.get
    entries = 0
    cycles = 0.0
    executed = 0
    llr = -1
    cw = -1
    cl = -1
    pc = exe.entry
    cur = variant
    try:
        while True:
            if executed > limit:
                cur = (True,) + variant[1:]
                table_get = cache.table(cur).get
                funcs = {}
                funcs_get = funcs.get
                limit = max_instructions
            f = funcs_get(pc)
            if f is None:
                if pc < 0 or pc >= n:
                    raise SimulationError(f"pc out of range: {pc}")
                fac = table_get(pc)
                if fac is None:
                    fac = cache.factory(pc, cur)
                f = fac(*bind)
                funcs[pc] = f
            nxt, cycles, executed, llr, cw, cl = f(
                cycles, executed, llr, cw, cl
            )
            if eprof_on:
                entries += 1
            if nxt is None:
                break
            pc = nxt
    finally:
        if hasattr(predictor, "_history"):
            # Flush the frame-carried gshare history back to the
            # predictor so machine state after a run — or a trap —
            # matches the reference exactly.
            predictor._history = ph[0]
    if eprof_on:
        engine_profile.finish(exe)
        engine_profile.note_fastpath(
            compiled=cache.compiled_count(variant) - compiled_before,
            entries=entries,
            unique=len(funcs),
        )
    c = PerfCounters()
    c.cycles = cycles
    c.instructions = executed
    c.set_tallies(cnt)
    c.l1i_misses = hierarchy.l1i.misses
    c.l1d_misses = hierarchy.l1d.misses
    c.l2_misses = hierarchy.l2.misses if hierarchy.l2 is not None else 0
    return RunResult(
        exit_value=regs[0],
        counters=c,
        function_cycles=fcy,
        trace=(),
        pc_cycles=tuple(pcc) if pcc is not None else (),
    )
