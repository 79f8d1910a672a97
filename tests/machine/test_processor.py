"""Processor interpretation tests via tiny single/multi-thread programs."""

import pytest

from repro.machine.models import SequentialConsistency, make_model
from repro.machine.operations import OperationKind, SyncRole
from repro.machine.program import ProgramBuilder
from repro.machine.simulator import run_program


def _run(builder_fn, model="SC", seed=0, **kwargs):
    b = ProgramBuilder()
    builder_fn(b)
    return run_program(b.build(), make_model(model), seed=seed, **kwargs)


def test_mov_add_sub_mul():
    def build(b):
        out = b.var("out")
        with b.thread() as t:
            a = t.mov(6)
            c = t.add(a, 4)      # 10
            d = t.sub(c, 3)      # 7
            e = t.mul(d, 5)      # 35
            t.write(out, e)
    res = _run(build)
    assert res.value_of("out") == 35


def test_cmp_eq_and_lt():
    def build(b):
        eq = b.var("eq")
        lt = b.var("lt")
        with b.thread() as t:
            r = t.cmp_eq(3, 3)
            t.write(eq, r)
            r2 = t.cmp_lt(5, 3)
            t.write(lt, r2)
    res = _run(build)
    assert res.value_of("eq") == 1
    assert res.value_of("lt") == 0


def test_read_write_roundtrip():
    def build(b):
        x = b.var("x", initial=9)
        y = b.var("y")
        with b.thread() as t:
            v = t.read(x)
            t.write(y, v)
    res = _run(build)
    assert res.value_of("y") == 9


def test_branch_if_zero_taken():
    def build(b):
        out = b.var("out")
        with b.thread() as t:
            z = t.mov(0)
            t.jump_if_zero(z, "skip")
            t.write(out, 111)
            t.label("skip")
            t.write(out, 222)
    res = _run(build)
    assert res.value_of("out") == 222
    # the skipped write never issued
    writes = [op for op in res.operations if op.is_write]
    assert len(writes) == 1


def test_loop_with_counter():
    def build(b):
        out = b.var("out")
        with b.thread() as t:
            i = t.mov(0)
            total = t.mov(0)
            t.label("loop")
            t.add(total, i, dst=total)
            t.add(i, 1, dst=i)
            more = t.cmp_lt(i, 5)
            t.jump_if_nonzero(more, "loop")
            t.write(out, total)
    res = _run(build)
    assert res.value_of("out") == 0 + 1 + 2 + 3 + 4


def test_test_and_set_returns_old_value_and_sets():
    def build(b):
        s = b.var("s")
        got = b.var("got")
        with b.thread() as t:
            old = t.test_and_set(s)
            t.write(got, old)
    res = _run(build)
    assert res.value_of("got") == 0
    assert res.value_of("s") == 1


def test_test_and_set_emits_acquire_read_and_sync_only_write():
    def build(b):
        s = b.var("s")
        with b.thread() as t:
            t.test_and_set(s)
    res = _run(build)
    kinds = [(op.kind, op.role) for op in res.operations]
    assert kinds == [
        (OperationKind.READ, SyncRole.ACQUIRE),
        (OperationKind.WRITE, SyncRole.SYNC_ONLY),
    ]


def test_unset_emits_release_write_of_zero():
    def build(b):
        s = b.var("s", initial=1)
        with b.thread() as t:
            t.unset(s)
    res = _run(build)
    op = res.operations[0]
    assert op.role is SyncRole.RELEASE
    assert op.value == 0
    assert res.value_of("s") == 0


def test_release_acquire_flag():
    def build(b):
        f = b.var("f")
        seen = b.var("seen")
        with b.thread() as t:
            t.release_write(f, 5)
        with b.thread() as t:
            v = t.spin_until_eq(f, 5)
            t.write(seen, v)
    res = _run(build)
    assert res.value_of("seen") == 5


def test_register_indexed_addressing():
    def build(b):
        arr = b.array("arr", 4)
        with b.thread() as t:
            i = t.mov(2)
            t.write(b.at(arr, i), 77)
    res = _run(build)
    assert res.final_memory[2] == 77  # arr base 0 + index 2


def test_halt_stops_mid_program():
    def build(b):
        out = b.var("out")
        with b.thread() as t:
            t.write(out, 1)
            t.halt()
            t.write(out, 2)
    res = _run(build)
    assert res.value_of("out") == 1


def test_fence_drains_buffered_writes():
    def build(b):
        x = b.var("x")
        with b.thread() as t:
            t.write(x, 1)
            t.fence()
        with b.thread() as t:
            t.read(x)

    from repro.machine.propagation import StubbornPropagation
    from repro.machine.scheduler import ScriptedScheduler
    from repro.machine.simulator import Simulator
    b = ProgramBuilder()
    build(b)
    program = b.build()
    sim = Simulator(
        program,
        make_model("WO"),
        scheduler=ScriptedScheduler([0, 0, 1]),
        propagation=StubbornPropagation(),
        seed=0,
    )
    res = sim.run()
    read = [op for op in res.operations if op.is_read][0]
    assert read.value == 1
    assert not read.stale


def test_instruction_and_cycle_counters():
    def build(b):
        x = b.var("x")
        with b.thread() as t:
            t.write(x, 1)
            t.write(x, 2)
    res = _run(build)
    stats = res.stats[0]
    assert stats.instructions == 3  # two writes + implicit halt
    assert stats.operations == 2
    assert stats.cycles >= stats.instructions
    assert stats.stall_cycles == 2 * SequentialConsistency().data_write_stall()


def test_new_operation_matches_the_constructor():
    """The hot-path constructor builds the very instance the frozen
    dataclass constructor does."""
    import pickle

    from repro.machine.operations import MemoryOperation, new_operation
    fields = (3, 1, 2, OperationKind.WRITE, SyncRole.RELEASE, 7, 9, None,
              False, 5)
    fast, slow = new_operation(*fields), MemoryOperation(*fields)
    assert fast == slow and hash(fast) == hash(slow)
    assert list(vars(fast).items()) == list(vars(slow).items())
    assert pickle.dumps(fast) == pickle.dumps(slow)


def test_decode_cache_stays_out_of_program_identity():
    """Decoding is lazy and cached on the thread, outside its eq, repr,
    hash-relevant fields, pickles and the checkpoint fingerprint."""
    import pickle

    from repro.analysis.checkpoint import program_fingerprint
    from repro.programs.workqueue import buggy_workqueue_program
    program, twin = buggy_workqueue_program(), buggy_workqueue_program()
    assert "decoded" not in vars(program.threads[0])
    before = (repr(program), program_fingerprint(program),
              pickle.dumps(program))
    run_program(program, make_model("WO"))
    assert "decoded" in vars(program.threads[0])
    assert program == twin
    assert (repr(program), program_fingerprint(program),
            pickle.dumps(program)) == before
    assert pickle.loads(pickle.dumps(program)) == program


def test_decode_rejects_a_label_outside_the_thread():
    from repro.machine.isa import Instruction, Opcode
    from repro.machine.program import Program, SymbolError, SymbolTable, \
        ThreadProgram
    thread = ThreadProgram(
        (Instruction(Opcode.JMP, label="far"), Instruction(Opcode.HALT)),
        {"far": 7})
    with pytest.raises(SymbolError, match="outside"):
        run_program(Program((thread,), SymbolTable()), make_model("SC"))


def test_registers_report_first_write_order():
    def build(b):
        with b.thread() as t:
            t.jump("second")
            t.label("first")
            t.mov(1, dst=t.reg("a"))
            t.halt()
            t.label("second")
            t.mov(2, dst=t.reg("b"))
            t.jump("first")
    res = _run(build)
    assert list(res.registers[0].items()) == [("b", 2), ("a", 1)]
