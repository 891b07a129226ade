"""Unit tests: block-compiling fast path (decode cache + timing memo).

The contract under test is byte-identity: for every machine preset and
every run mode, :mod:`repro.arch.blockcache` must produce *exactly* the
RunResult the reference interpreter produces under
``REPRO_ENGINE_FASTPATH=0`` — same float cycles, same counters, same
profiling attribution, same trap types and messages.  See
docs/engine.md for why each of these cases is load-bearing.
"""

import sys
import threading

import pytest

from repro._errors import RunTimeout, SimulationError
from repro.arch import blockcache, execute, get_machine
from repro.arch.engine import EngineProfile, FASTPATH_ENV, fastpath_enabled
from repro.os import Environment, load_process
from repro.toolchain.compiler import compile_program
from repro.toolchain.linker import LinkLayout, link

from tests.conftest import (
    SMALL_EXPECTED,
    SMALL_SOURCES,
    build_small,
    compile_single,
)

PRESETS = ("core2", "pentium4", "m5_o3cpu")


PLAIN = (False, False, False, False)


def _machine_state(machine):
    """What a caller can read off the machine after a run or a trap:
    predictor history and table, and every cache level's hits/misses."""
    h = machine.hierarchy
    caches = (h.l1i, h.l1d, h.l2)
    return (
        getattr(machine.predictor, "_history", None),
        tuple(machine.predictor._table),
        tuple((c.hits, c.misses) if c is not None else None for c in caches),
    )


def _run(exe, fast, machine="core2", env=None, inputs=None, **kw):
    """One execution on a fresh machine, on the chosen engine path.

    Returns either ("ok", snapshot, machine state) or ("trap", type
    name, message, machine state) so trap parity is asserted with the
    same comparison as result parity.
    """
    image = load_process(
        exe,
        environment=env if env is not None else Environment.typical(),
        inputs=inputs,
        stack_align=4,
    )
    machine = get_machine(machine).build()
    try:
        r = execute(image, machine, **kw)
    except (RunTimeout, SimulationError) as exc:
        return ("trap", type(exc).__name__, str(exc), _machine_state(machine))
    return (
        "ok",
        r.exit_value,
        r.counters.as_dict(),
        sorted(r.function_cycles.items()),
        r.pc_cycles,
        r.trace,
        _machine_state(machine),
    )


def both_paths(exe, monkeypatch, **kw):
    """(reference outcome, fast-path outcome) for identical runs."""
    monkeypatch.setenv(FASTPATH_ENV, "0")
    ref = _run(exe, False, **kw)
    monkeypatch.setenv(FASTPATH_ENV, "1")
    fast = _run(exe, True, **kw)
    return ref, fast


@pytest.fixture(scope="module")
def exe():
    return build_small(2)


class TestByteIdentity:
    def test_fastpath_on_by_default(self, monkeypatch):
        monkeypatch.delenv(FASTPATH_ENV, raising=False)
        assert fastpath_enabled()
        monkeypatch.setenv(FASTPATH_ENV, "0")
        assert not fastpath_enabled()

    @pytest.mark.parametrize("preset", PRESETS)
    def test_plain_run_identical(self, exe, monkeypatch, preset):
        ref, fast = both_paths(exe, monkeypatch, machine=preset)
        assert ref[0] == "ok" and ref[1] == SMALL_EXPECTED
        assert fast == ref

    @pytest.mark.parametrize("preset", PRESETS)
    def test_profiling_attribution_identical(self, exe, monkeypatch, preset):
        ref, fast = both_paths(
            exe,
            monkeypatch,
            machine=preset,
            profile_functions=True,
            profile_pcs=True,
        )
        assert fast == ref
        # pc attribution is exhaustive: per-pc cycles sum to the total.
        pc_cycles = fast[4]
        assert sum(pc_cycles) == pytest.approx(
            fast[2]["cycles"], rel=1e-12
        )

    def test_lsd_coverage_identical(self, exe, monkeypatch):
        ref, fast = both_paths(exe, monkeypatch, machine="core2")
        assert fast[2]["lsd_covered"] == ref[2]["lsd_covered"] > 0

    def test_finite_budget_untripped_identical(self, exe, monkeypatch):
        ref, fast = both_paths(exe, monkeypatch, max_cycles=1e12)
        assert ref[0] == "ok"
        assert fast == ref


#: A loop whose divisor reaches zero mid-loop: the trap fires inside a
#: frame that has already moved the gshare history and the L1D tally.
DIV_IN_LOOP = """
int z;
func main() {
    var i; var s;
    s = 0;
    for (i = 0; i < 6; i = i + 1) { s = s + 60 / (3 - i); }
    return s;
}
"""

#: Overwrites its own return address with a non-instruction address.
CORRUPT_RETURN = """
func main() {
    var x;
    poke(&x + 16, 12345);
    return 0;
}
"""


def _trap_case(kind):
    """(executable, run options) for one trap kind."""
    if kind == "budget":  # trips mid-run on every preset
        return build_small(2), {"max_cycles": 2500.5}
    if kind == "runaway":
        return build_small(2), {"max_instructions": 1234}
    if kind == "div-in-loop":
        return compile_single(DIV_IN_LOOP, opt_level=0), {}
    return compile_single(CORRUPT_RETURN, opt_level=0), {
        "max_instructions": 100_000
    }


class TestTrapParity:
    @pytest.mark.parametrize("budget", [0.0, 1.0, 100.0, 5000.5])
    def test_cycle_budget_trip_identical(self, exe, monkeypatch, budget):
        ref, fast = both_paths(exe, monkeypatch, max_cycles=budget)
        assert ref[0] == "trap" and ref[1] == "RunTimeout"
        assert fast == ref

    @pytest.mark.parametrize("maxi", [1, 2, 7, 100, 1234])
    def test_runaway_trip_identical(self, exe, monkeypatch, maxi):
        ref, fast = both_paths(exe, monkeypatch, max_instructions=maxi)
        assert ref[0] == "trap" and ref[1] == "SimulationError"
        assert "runaway" in ref[2]
        assert fast == ref

    def test_division_by_zero_identical(self, monkeypatch):
        exe = compile_single(
            "int z; func main() { return 5 / z; }", opt_level=0
        )
        ref, fast = both_paths(exe, monkeypatch)
        assert ref[0] == "trap" and "division by zero" in ref[2]
        assert fast == ref

    def test_corrupt_return_address_identical(self, monkeypatch):
        exe = compile_single(CORRUPT_RETURN, opt_level=0)
        ref, fast = both_paths(exe, monkeypatch, max_instructions=100_000)
        assert ref[0] == "trap"
        assert fast == ref

    @pytest.mark.parametrize(
        "kind", ["budget", "runaway", "div-in-loop", "corrupt-return"]
    )
    @pytest.mark.parametrize("preset", PRESETS)
    def test_trap_leaves_machine_identical(self, monkeypatch, preset, kind):
        """A trap hands the caller the same predictor history and table
        and the same cache hits and misses as the reference, so state
        deferred in a block frame is flushed before the trap leaves it."""
        exe, kw = _trap_case(kind)
        ref, fast = both_paths(exe, monkeypatch, machine=preset, **kw)
        assert ref[0] == "trap"
        assert fast == ref


class TestLateBlockDiscovery:
    """RET to a computed address can land mid-block — at a pc that is
    not a static leader.  The decode cache must compile that block
    lazily and stay byte-identical with the reference."""

    def _poked_exe(self):
        src = """
        int target;
        func main() {
            var x;
            // O0 frame layout: return address lives 16 bytes above &x.
            poke(&x + 16, target);
            return 0;
        }
        """
        return compile_single(src, opt_level=0)

    def _mid_block_pc(self, exe, cfg):
        cache = blockcache.block_cache_for(exe, cfg)
        static_entries = {pl.entry for pl in cache.static_plans()}
        for j in range(len(exe.ops) - 1, -1, -1):
            if j not in static_entries and exe.ops[j] not in (31, 32, 34):
                return j
        raise AssertionError("no mid-block pc in test program")

    def test_ret_to_mid_block_address_identical(self, monkeypatch):
        exe = self._poked_exe()
        cfg = get_machine("core2")
        j = self._mid_block_pc(exe, cfg)
        inputs = {"target": exe.addrs[j]}
        ref, fast = both_paths(
            exe, monkeypatch, inputs=inputs, max_instructions=100_000
        )
        # Whatever the continuation does (halt or trap), both engine
        # paths must agree exactly.
        assert fast == ref

    def test_mid_block_entry_compiles_lazily(self, monkeypatch):
        exe = self._poked_exe()
        cfg = get_machine("core2")
        j = self._mid_block_pc(exe, cfg)
        cache = blockcache.block_cache_for(exe, cfg)
        variant = (False, False, False, False)
        assert j not in cache.table(variant)
        monkeypatch.setenv(FASTPATH_ENV, "1")
        _run(
            exe,
            True,
            inputs={"target": exe.addrs[j]},
            max_instructions=100_000,
        )
        assert j in cache.table(variant)
        assert cache.plan(j).entry == j


class TestTimingMemoKeys:
    """The memo key includes the entry alignment state: relinking the
    same instruction stream at a different alignment must produce
    different block code (different front-end schedule) while leaving
    the architectural results untouched."""

    def _exe_aligned(self, alignment):
        modules = compile_program(SMALL_SOURCES, opt_level=2, profile="gcc")
        return link(
            modules, layout=LinkLayout(function_alignment=alignment)
        )

    def test_alignment_changes_memo_key_not_results(self, monkeypatch):
        exe16 = self._exe_aligned(16)
        exe1 = self._exe_aligned(1)
        cfg = get_machine("core2")
        plans16 = {
            pl.pcs: pl
            for pl in blockcache.block_cache_for(exe16, cfg).static_plans()
        }
        plans1 = {
            pl.pcs: pl
            for pl in blockcache.block_cache_for(exe1, cfg).static_plans()
        }
        shared = set(plans16) & set(plans1)
        assert shared, "relink should preserve some block shapes"
        assert any(
            (plans16[k].entry_window, plans16[k].entry_line)
            != (plans1[k].entry_window, plans1[k].entry_line)
            for k in shared
        ), "alignment change should move at least one block's memo key"
        # Same program, different layout: identical answers, and each
        # layout byte-identical with its own reference run.
        for exe in (exe16, exe1):
            ref, fast = both_paths(exe, monkeypatch)
            assert fast == ref
            assert ref[1] == SMALL_EXPECTED

    def test_caches_keyed_per_executable_and_config(self):
        exe_a = self._exe_aligned(16)
        exe_b = self._exe_aligned(1)
        cfg = get_machine("core2")
        cfg2 = get_machine("pentium4")
        assert blockcache.block_cache_for(
            exe_a, cfg
        ) is blockcache.block_cache_for(exe_a, cfg)
        assert blockcache.block_cache_for(
            exe_a, cfg
        ) is not blockcache.block_cache_for(exe_b, cfg)
        assert blockcache.block_cache_for(
            exe_a, cfg
        ) is not blockcache.block_cache_for(exe_a, cfg2)


#: Two modules whose link order moves ``main``'s division to a
#: different flat pc.
DIV_SOURCES = {
    "lib": "func twice(n) { return n + n; }",
    "main": "int z; func main() { var q; q = 5 / z; return twice(q); }",
}


class TestSharedCode:
    """Relinks of one program share code objects through one pool;
    placeholders bind each layout's own pcs, lines and constants, so
    every layout stays byte-identical with the reference."""

    @pytest.fixture(scope="class")
    def shared(self):
        modules = compile_program(SMALL_SOURCES, opt_level=2, profile="gcc")
        pool = blockcache.CodePool()
        exes = [
            link(modules, order=order, layout=LinkLayout(function_alignment=a))
            for order in (("kernel", "main"), ("main", "kernel"))
            for a in (1, 16, 64)
        ]
        for exe in exes:
            for preset in PRESETS:
                blockcache.warm(exe, get_machine(preset), pool)
        return pool, exes

    def test_pool_compiles_fewer_code_objects_than_it_binds(self, shared):
        pool, exes = shared
        assert 0 < pool.compiled < pool.bound
        for exe in exes:
            for preset in PRESETS:
                cache = blockcache.block_cache_for(exe, get_machine(preset))
                assert cache._pool is pool

    @pytest.mark.parametrize("preset", PRESETS)
    def test_every_variant_identical_on_every_layout(
        self, shared, monkeypatch, preset
    ):
        _pool, exes = shared
        variants = (
            {},
            {"max_cycles": 1e12},
            {"max_cycles": 2500.5},
            {"profile_functions": True, "profile_pcs": True},
            {"engine_profile": EngineProfile()},
        )
        for exe in exes:
            for kw in variants:
                ref, fast = both_paths(exe, monkeypatch, machine=preset, **kw)
                assert fast == ref, (exe.placed, kw)
            assert ref[1] == SMALL_EXPECTED

    def test_concurrent_binds_lose_no_update(self):
        modules = compile_program(SMALL_SOURCES, opt_level=2, profile="gcc")
        exes = [
            link(modules, order=order, layout=LinkLayout(function_alignment=a))
            for order in (("kernel", "main"), ("main", "kernel"))
            for a in (1, 16, 64)
        ]
        pool = blockcache.CodePool()
        cfg = get_machine("core2")
        threads = [
            threading.Thread(target=blockcache.warm, args=(exe, cfg, pool))
            for exe in exes
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert pool.bound == sum(
            len(blockcache.block_cache_for(exe, cfg).table(PLAIN))
            for exe in exes
        )
        assert pool.compiled == len(pool._fns) < pool.bound

    def test_trap_message_names_each_layouts_pc(self, monkeypatch):
        modules = compile_program(DIV_SOURCES, opt_level=0, profile="gcc")
        layout = LinkLayout(function_alignment=64)
        exes = [
            link(modules, order=order, layout=layout)
            for order in (("lib", "main"), ("main", "lib"))
        ]
        pool = blockcache.CodePool()
        cfg = get_machine("core2")
        mains = [next(pf for pf in exe.placed if pf.name == "main") for exe in exes]
        facs = []
        for exe, main in zip(exes, mains):
            blockcache.warm(exe, cfg, pool)
            table = blockcache.block_cache_for(exe, cfg).table(PLAIN)
            facs.append(table[main.flat_start])
        # One code object serves both layouts, bound to different values.
        assert facs[0].func is facs[1].func
        assert facs[0].args != facs[1].args
        pcs = []
        for exe, main in zip(exes, mains):
            ref, fast = both_paths(exe, monkeypatch)
            assert ref[0] == "trap" and "division by zero" in ref[2]
            assert fast == ref
            pc = int(ref[2].rsplit("pc=", 1)[1])
            assert main.flat_start <= pc < main.flat_end
            pcs.append(pc)
        assert pcs[0] != pcs[1]


class TestTelemetryAndWarm:
    def test_engine_profile_reports_block_cache(self, exe, monkeypatch):
        monkeypatch.setenv(FASTPATH_ENV, "1")
        prof = EngineProfile()
        image = load_process(exe, Environment.typical(), stack_align=4)
        execute(image, get_machine("core2").build(), engine_profile=prof)
        bc = prof.to_dict()["block_cache"]
        assert bc["fastpath_runs"] == 1
        assert bc["block_entries"] > 0
        assert bc["block_hits"] + prof.bc_unique == bc["block_entries"]
        assert 0.0 <= bc["hit_ratio"] <= 1.0

    def test_engine_profile_zero_on_reference_path(self, exe, monkeypatch):
        monkeypatch.setenv(FASTPATH_ENV, "0")
        prof = EngineProfile()
        image = load_process(exe, Environment.typical(), stack_align=4)
        execute(image, get_machine("core2").build(), engine_profile=prof)
        bc = prof.to_dict()["block_cache"]
        assert bc["fastpath_runs"] == 0
        assert bc["block_entries"] == 0

    def test_warm_precompiles_reachable_blocks(self, monkeypatch):
        """Warm binds the blocks the dispatcher can reach — a subset of
        the static leaders — and a full run then compiles nothing late."""
        exe = build_small(2)
        monkeypatch.setenv(FASTPATH_ENV, "1")
        for preset in PRESETS:
            cfg = get_machine(preset)
            n = blockcache.warm(exe, cfg)
            cache = blockcache.block_cache_for(exe, cfg)
            table = cache.table(PLAIN)
            assert n == len(table) > 0 and exe.entry in table
            assert set(table) <= {pl.entry for pl in cache.static_plans()}
            assert _run(exe, True, machine=preset)[1] == SMALL_EXPECTED
            assert cache.compiled_count(PLAIN) == n
