"""The simulated weak-memory multiprocessor substrate.

The paper assumes real WO/RCsc/DRF0/DRF1 hardware; this package is the
reproduction's substitute (see DESIGN.md): a deterministic register-
machine multiprocessor whose memory system models weakness as delayed
per-reader write visibility, flushed at synchronization per each
model's rules.
"""

from .._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "assembler": "AssemblyError format_program parse_program",
    "isa": "Addr IllegalInstruction Imm Instruction Opcode Reg",
    "memory": "MemorySystem PendingWrite ReadResult",
    "models": "ALL_MODEL_NAMES WEAK_MODEL_NAMES CostModel DataRaceFree0 "
              "DataRaceFree1 MemoryModel PartialStoreOrder "
              "ReleaseConsistencySC SequentialConsistency TotalStoreOrder "
              "WeakOrdering make_model",
    "operations": "MemoryOperation OperationKind SyncRole",
    "processor": "Processor",
    "program": "ArrayRef Program ProgramBuilder SymbolError SymbolTable "
               "ThreadBuilder ThreadProgram",
    "replay": "ExecutionRecording ReplayError executions_equal "
              "record_execution replay_execution",
    "propagation": "EagerPropagation HoldbackPropagation "
                   "HomeDirectoryPropagation PropagationPolicy "
                   "RandomPropagation StoreBufferPropagation "
                   "StubbornPropagation",
    "scheduler": "BurstScheduler RandomScheduler RoundRobin Scheduler "
                 "ScriptedScheduler",
    "simulator": "ExecutionResult ProcessorStats Simulator run_program",
})
